"""Seeded randomized verification suites.

Each suite draws its inputs from a seeded generator, exercises one family
of identities at fixed truncation order, and returns a plain dict of
worst-case residuals plus a pass flag; the model-space, Moebius and theorem
suites draw all inputs first and check them in a few stacked passes, by
degree or multiplicity.  The model-space suite redraws the inputs its gates
refuse: it gates each B as it is drawn, shifts the alphas of all kept B in
one call per degree, and where an alpha is refused drops the B drawn after
it and rewinds the generator (rng.bit_generator.state), so every draw is
the one a loop over one draw at a time would make.  The same functions
back the `verify` subcommand.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .blaschke import (
    BlaschkeProduct,
    MobiusMap,
    _conjugate_functions,
    _conjugate_poles,
    _conjugate_symbols,
    _frostman_shifts,
    _gated_tm_bases,
    _products,
    _taylor_rows,
    _tm_bases,
    compose_with_mobius,
    mobius_eval,
    tm_basis,
)
from .extraction import Representation, _weighted_model_space, extract_representations
from .hankel import build_hankel_matrix, residuals_from_matrix
from .hardy import default_grid_size, evaluate, grid_points, multiply_by_boundary
from .spectral import _nullspace_of_row, _orthonormal_columns, _subspace_gaps, schmidt_decompose
from .symbols import PoleTerm, RationalSymbol, tail_bound

__all__ = [
    "random_blaschke",
    "random_symbol",
    "suite_identities",
    "suite_model_spaces",
    "suite_mobius",
    "suite_theorem",
]


def random_blaschke(rng: np.random.Generator, max_degree: int = 5,
                    max_radius: float = 0.7) -> BlaschkeProduct:
    d = int(rng.integers(1, max_degree + 1))
    radii = max_radius * np.sqrt(rng.uniform(0, 1, d))
    angles = rng.uniform(0, 2 * np.pi, d)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    return BlaschkeProduct(radii * np.exp(1j * angles), phase)


def random_symbol(rng: np.random.Generator, max_poles: int = 4) -> RationalSymbol:
    """Random symbol with simple poles of radius in [0.1, 0.8), pairwise at
    least 0.05 apart, and O(1) residues."""
    k = int(rng.integers(1, max_poles + 1))
    bs: list[complex] = []
    while len(bs) < k:
        r = rng.uniform(0.1, 0.8)
        b = r * np.exp(1j * rng.uniform(0, 2 * np.pi))
        if all(abs(b - other) >= 0.05 for other in bs):
            bs.append(complex(b))
    coeffs = (rng.normal(size=k) + 1j * rng.normal(size=k)) / np.sqrt(2)
    poles = tuple(PoleTerm(b=b, m=1, c=complex(c)) for b, c in zip(bs, coeffs))
    return RationalSymbol(poles=poles)


def _random_unit_vector(rng: np.random.Generator, order: int, support: int) -> np.ndarray:
    n = min(support, order)
    c = np.zeros(order, dtype=np.complex128)
    c[:n] = rng.normal(size=n) + 1j * rng.normal(size=n)
    return c / np.linalg.norm(c)


# ---------------------------------------------------------------------------


def suite_identities(seed: int, count: int = 50, order: int = 128, perturb: float = 0.0) -> dict:
    """Operator identities on random rational symbols.

    Residuals must stay below max(1e-10, 10 * tail_bound) per symbol; with
    perturb > 0 the matrix symmetry is deliberately broken to confirm the
    checks can fail.
    """
    rng = np.random.default_rng(seed)
    names = ["shift_intertwine", "square_compression", "square_commutator", "symmetry"]
    worst = {k: 0.0 for k in names}
    failures = {k: 0 for k in names}
    for _ in range(count):
        sym = random_symbol(rng)
        h = build_hankel_matrix(sym, order)
        matrix = h
        if perturb > 0.0:
            # an N x N array takes the dense path, which reads every entry
            matrix = h.gamma.copy()
            matrix[0, -1] += perturb
        res = residuals_from_matrix(matrix)
        threshold = max(1e-10, 10 * tail_bound(sym, order))
        for name, value in res.as_dict().items():
            worst[name] = max(worst[name], value)
            if value > threshold:
                failures[name] += 1
    n_failed = sum(failures.values())
    return {
        "count": count,
        "order": order,
        "max_residuals": worst,
        "failures": failures,
        "pass": n_failed == 0,
    }


def suite_model_spaces(seed: int, n_blaschke: int = 30, n_alpha: int = 3,
                       order: int = 128) -> dict:
    """Model-space algebra: the S*-compression identity and Frostman shifts.

    skipped_draws counts the B draws whose basis has not decayed by `order`
    (tm_basis's tail gate) and the alpha draws whose Frostman shift fails;
    both are drawn again, so the draws are those of one B at a time, each
    followed by alphas until n_alpha shifts succeed.  Each B is gated as it
    is drawn and a kept B draws its alphas at once; once every B still
    wanted is drawn, all alphas are shifted with one _frostman_shifts call
    per degree.  At the first B with a refused alpha the B drawn after it
    are dropped, with the B refused among them, and the generator is set
    back to just after that B's alphas (rng.bit_generator.state), so it
    draws its missing alphas first in the next round.  Each check then
    runs once per degree."""
    rng = np.random.default_rng(seed)
    skipped, done, short = 0, [], None  # short: a kept B still missing alphas
    while len(done) < n_blaschke:
        # per slot, and for the next B, the B refused just before it
        slots, refused = ([short], [0, 0]) if short else ([], [0])
        if short:
            _draw_alphas(rng, short, n_alpha)
        while len(done) + len(slots) < n_blaschke:
            b = random_blaschke(rng)
            try:
                slots.append(SimpleNamespace(b=b, v=tm_basis(b, order), hits=0, shifts=[]))
            except ValueError:
                refused[-1] += 1
                continue
            _draw_alphas(rng, slots[-1], n_alpha)
            refused.append(0)
        _shift_alphas(slots, order)
        for slot, n in zip(slots, refused):
            skipped += n + int((~slot.ok).sum())
            slot.hits += int(slot.ok.sum())
            slot.shifts.append(slot.new)
            short = slot if slot.hits < n_alpha else None
            if short:
                rng.bit_generator.state = slot.after
                break
            done.append(slot)
    draws = [(slot.b, slot.v, *map(np.concatenate, zip(*slot.shifts))) for slot in done]
    worst = dict.fromkeys(("backward_shift_identity", "frostman_subspace_gap",
                           "frostman_isometry", "frostman_boundary_identity"), 0.0)
    for d in sorted({b.degree for b, *_ in draws}):
        b, v, *shifts = zip(*(x for x in draws if x[0].degree == d))
        values = [_backward_shift_gaps(np.stack(v), b, order),
                  *_frostman_gaps(b, np.stack(v), *map(np.concatenate, shifts))]
        for name, value in zip(worst, values):
            worst[name] = max(worst[name], float(value.max()))
    return {
        "n_blaschke": n_blaschke,
        "n_alpha": n_alpha,
        "order": order,
        "skipped_draws": skipped,
        "max_residuals": worst,
        "pass": all(value < gate for value, gate in zip(worst.values(), (1e-8, 1e-8, 1e-8, 1e-10))),
    }


def _draw_alphas(rng: np.random.Generator, slot, n_alpha: int) -> None:
    """Draw the alphas a slot's B still lacks, and note the generator's state after them."""
    slot.alphas = np.array([_draw_alpha(rng) for _ in range(n_alpha - slot.hits)])
    slot.after = rng.bit_generator.state


def _shift_alphas(slots: list, order: int) -> None:
    """Shift the alphas of the slots' B with one _frostman_shifts call per
    degree, and note per slot which shifts succeed (ok) and the alphas,
    zeros, phases and g_alpha of those (new)."""
    for d in sorted({slot.b.degree for slot in slots}):
        group = [slot for slot in slots if slot.b.degree == d]
        alphas = np.concatenate([slot.alphas for slot in group])
        *shifted, errors = _frostman_shifts([slot.b for slot in group for _ in slot.alphas], alphas, order)
        ok = np.array([e is None for e in errors])  # a shift fails near the circle or at its error gate
        end = 0
        for slot in group:
            rows = slice(end, end + slot.alphas.size)
            slot.ok, end = ok[rows], rows.stop
            slot.new = [x[rows][slot.ok] for x in (alphas, *shifted)]


def _draw_alpha(rng: np.random.Generator, radius: float = 0.5) -> complex:
    return radius * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))


def _frostman_gaps(bs, v, alphas, zeros, phases, g) -> tuple:
    """(subspace gap, isometry deviation, boundary identity) of K_B = g_alpha
    K_{B_alpha} at order N per (B, alpha) pair, for the B of one degree with
    tail-gated bases v (k_B x N x d) and their k alphas each, with shifts.
    K_{B_alpha} is blaschke._tm_bases, tm_basis's recurrence with no tail
    gate, over all shifts: P_N(g_alpha e_k) reads it only to N, and P_N is
    injective on K_B + g_alpha K_{B_alpha}, so a wrong shift still shows at
    N; on K_B it moves norms by at most v's gated tail."""
    k, n = alphas.size // len(bs), v.shape[1]
    basis = np.fft.fft(_tm_bases(zeros, n), 2 * n, axis=1)
    cols = np.fft.ifft(basis * np.fft.fft(g, 2 * n)[:, :, None], axis=1)[:, :n]
    iso = np.abs(np.linalg.norm(cols, axis=1) - 1.0).max(axis=1)
    gap = _span_gaps(np.repeat(v, k, axis=0), cols)
    # B_alpha's phase was read from coefficients; this identity is
    # g_alpha (B_alpha - (alpha - B) / (1 - conj(alpha) B)) on the grid,
    # with |g_alpha| >= 0.577 for |alpha| <= 0.5, so it checks that phase
    grid = grid_points(default_grid_size(n))
    bz = _products(np.array([b.zeros for b in bs]), np.array([b.phase for b in bs]), grid)
    bz = np.repeat(bz, k, axis=0)
    g_samples = (1 - np.conj(alphas)[:, None] * bz) / np.sqrt(1 - np.abs(alphas) ** 2)[:, None]
    return gap, iso, np.abs(g_samples * _products(zeros, phases, grid) + bz * np.conj(g_samples)).max(axis=1)


def _backward_shift_gaps(v: np.ndarray, bs, order: int) -> np.ndarray:
    """Gap between S*(K meet constants-perp) and K meet (S*B)-perp for each
    B of one degree, its basis in the stack v (k x N x d)."""
    w = v @ _nullspace_of_row(v[:, :1, :])
    shifted = np.concatenate([w[:, 1:], np.zeros_like(w[:, :1])], axis=1)
    s_theta = np.array(_taylor_rows(bs, order + 1))[:, 1:]
    return _span_gaps(shifted, v @ _nullspace_of_row(s_theta.conj()[:, None, :] @ v))


def _span_gaps(a, b) -> np.ndarray:
    """The subspace gap (_subspace_gaps) between the column spans of a[i] and b[i], N x d matrices
    of one d per pair, orthonormalized by one batched QR per d; 1 where
    either is numerically rank deficient, 0 where both are empty."""
    dims = np.array([x.shape[1] for x in a])
    out = np.zeros(len(a))
    for d in np.unique(dims[dims > 0]):
        at = np.flatnonzero(dims == d)
        (qa, full_a), (qb, full_b) = (_orthonormal_columns(np.stack([x[i] for i in at])) for x in (a, b))
        out[at] = np.where(full_a & full_b, _subspace_gaps(qa, qb)[0], 1.0)
    return out


def suite_mobius(seed: int, count: int = 20, order: int = 128) -> dict:
    """Moebius covariance at |alpha| <= 0.5: spectrum invariance, mapped Schmidt bases, involution.

    All draws come first.  Each conjugated symbol w is exact, built from the
    images of u's poles (_conjugate_poles).  The conjugation of w back to u,
    that of the matched Schmidt columns and that of the lemma's spaces each
    run as one FFT over all draws, and each gap as one stack per dimension;
    the Schmidt blocks and their matching stay per draw."""
    rng = np.random.default_rng(seed)
    lemma_order = max(order, 128)  # composed zeros need this much resolution
    # per draw a symbol and its map, then the change-of-variable lemma's B, map and weight
    syms, maps, lemma_bs, lemma_maps, weights = zip(*[
        (random_symbol(rng), MobiusMap(_draw_alpha(rng)), random_blaschke(rng, max_degree=4, max_radius=0.5),
         MobiusMap(_draw_alpha(rng, 0.3)), _random_unit_vector(rng, lemma_order, support=8))
        for _ in range(count)
    ])
    ws = [_conjugate_poles(sym, m) for sym, m in zip(syms, maps)]
    w2, _ = _conjugate_symbols(ws, maps, order)
    worst_sigma, worst_double, ok = 0.0, 0.0, True
    matched, targets, allowances = [], [], []
    for sym, w, back in zip(syms, ws, w2.T):
        gamma_w = build_hankel_matrix(w, order)
        tail_w = _conjugated_tail_estimate(w, gamma_w.coeffs)  # this draw's truncation allowance
        gamma_u = build_hankel_matrix(sym, order)
        blocks_u = schmidt_decompose(gamma_u)
        blocks_w = schmidt_decompose(gamma_w)
        sig_u, sig_w = blocks_u.singular_values, blocks_w.singular_values
        smax = max(sig_u[0], 1.0)
        keep = sig_u > 1e-6 * smax
        diff = float(np.max(np.abs(sig_u[keep] - sig_w[keep]))) if np.any(keep) else 0.0
        worst_sigma = max(worst_sigma, diff)
        ok = ok and diff <= 1e-6 + 10 * tail_w * (1 + smax)
        pairs = []
        for bu in blocks_u:
            if not bu.reliable:
                continue
            match = [bw for bw in blocks_w if abs(bw.s - bu.s) < 1e-3 * max(bu.s, 1.0)]
            if len(match) == 1 and match[0].multiplicity == bu.multiplicity:
                pairs.append((bu, match[0]))
        # every matched column of the draw, conjugated below with all others
        matched.append(np.hstack([bu.basis for bu, _ in pairs] or [np.empty((order, 0))]))
        targets += [bw.basis for _, bw in pairs]
        allowances += [1e-6 + 100 * tail_w] * len(pairs)
        double = float(np.linalg.norm(back - gamma_u.u))
        worst_double = max(worst_double, double)
        ok = ok and double <= 1e-8 + 10 * tail_w
    cut = np.cumsum([x.shape[1] for x in targets])[:-1]
    gaps = _span_gaps(np.split(_conjugate_functions(matched, maps, order)[0], cut, axis=1), targets)
    worst_gap = float(gaps.max(initial=0.0))
    ok = ok and bool(np.all(gaps <= allowances))
    # U (p K_B) against (p o mu) K_{B o mu} for random polynomial weights p,
    # the bases of every B and B o mu from one gated pass per degree
    composed = [compose_with_mobius(b, m) for b, m in zip(lemma_bs, lemma_maps)]
    bases = _gated_tm_bases([*lemma_bs, *composed], lemma_order, 1e-10)
    spaces = [_weighted_model_space(v, p) for v, p in zip(bases[:count], weights)]
    lhs, _ = _conjugate_functions(spaces, lemma_maps, lemma_order)
    grid = grid_points(default_grid_size(lemma_order))
    # p o mu is no longer a polynomial, so this product stays on the boundary
    bases = bases[count:]
    pmu = [evaluate(p, mobius_eval(m, grid)) for p, m in zip(weights, lemma_maps)]
    widths = [x.shape[1] for x in bases]
    rhs, _ = multiply_by_boundary(np.hstack(bases), np.repeat(np.array(pmu).T, widths, axis=1), lemma_order)
    cut = np.cumsum(widths)[:-1]
    worst_lemma32 = float(_span_gaps(np.split(lhs, cut, axis=1), np.split(rhs, cut, axis=1)).max())
    ok = ok and worst_lemma32 < 1e-8
    return {
        "count": count,
        "order": order,
        "max_residuals": {
            "singular_values": worst_sigma,
            "mapped_basis_gap": worst_gap,
            "double_conjugation": worst_double,
            "weighted_subspace_covariance": worst_lemma32,
        },
        "pass": bool(ok),
    }


def _conjugated_tail_estimate(w: RationalSymbol, w_coeffs: np.ndarray) -> float:
    """Tail proxy for a conjugated symbol w of simple poles, from its last 8
    coefficients w_coeffs[-8:] and the decay rate of its largest pole."""
    rate = max((abs(t.b) for t in w.poles), default=0.0)
    chunk = float(np.linalg.norm(w_coeffs[-8:]))
    return chunk / max(1 - rate, 1e-6)


def suite_theorem(seed: int, count: int = 20, order: int = 128, tol: float = 1e-6) -> dict:
    """End-to-end extraction and verification over random rational symbols,
    one batch per five symbols: a batch holds the Gamma_J of its symbols."""
    rng = np.random.default_rng(seed)
    syms = [random_symbol(rng) for _ in range(count)]
    worst = dict.fromkeys(("subspace_gap", "isometry", "action", "near_invariance"), 0.0)
    n_unreliable, n_blocks, failures = 0, 0, []
    for start in range(0, count, 5):
        draws = []  # symbol index, Gamma and block
        for i in range(start, min(start + 5, count)):
            gamma = build_hankel_matrix(syms[i], order)
            blocks = schmidt_decompose(gamma)
            reliable = [block for block in blocks if block.reliable]
            n_unreliable += len(blocks) - len(reliable)
            draws += [(i, gamma, block) for block in reliable]
        n_blocks += len(draws)
        for (i, _, block), rep in zip(draws, extract_representations([x[1:] for x in draws], tol=tol)):
            if not isinstance(rep, Representation):
                failures.append(f"symbol {i}, s = {block.s:.6g}: {rep}")
                continue
            for name, value in rep.residuals.gated().items():
                worst[name] = max(worst[name], value)
                if value > tol:
                    failures.append(f"symbol {i}, s = {block.s:.6g}: {name} = {value:.3e}")
    return {
        "count": count,
        "order": order,
        "n_blocks": n_blocks,
        "n_unreliable": n_unreliable,
        "max_residuals": worst,
        "failures": failures[:20],
        "pass": not failures,
    }
