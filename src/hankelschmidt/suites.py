"""Seeded randomized verification suites.

Each suite draws its inputs from a seeded generator, exercises one family
of identities at fixed truncation order, and returns a plain dict of
worst-case residuals plus a pass flag.  The same functions back both the
command-line `verify` subcommand and the acceptance tests.
"""

from __future__ import annotations

import numpy as np

from .blaschke import (
    BlaschkeProduct,
    MobiusMap,
    _on_grid,
    blaschke_coefficients,
    blaschke_eval,
    compose_with_mobius,
    frostman_shift,
    mobius_conjugate_function,
    mobius_conjugate_symbol,
    mobius_eval,
    tm_basis,
)
from .extraction import (
    ExtractionError,
    Representation,
    _weighted_model_space,
    extract_representation,
    extract_representations,
)
from .hankel import build_hankel_matrix, residuals_from_matrix
from .hardy import default_grid_size, evaluate, grid_points, multiply_by_boundary
from .spectral import _nullspace_of_row, orthonormalize, schmidt_decompose, subspace_gap
from .symbols import PoleTerm, RationalSymbol, tail_bound

__all__ = [
    "random_blaschke",
    "random_symbol",
    "suite_identities",
    "suite_model_spaces",
    "suite_mobius",
    "suite_theorem",
    "suite_branch_b",
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
    both are drawn again.
    """
    rng = np.random.default_rng(seed)
    worst_lemma = 0.0
    worst_frostman_gap = 0.0
    worst_isometry = 0.0
    worst_boundary = 0.0
    skipped = 0
    done = 0
    while done < n_blaschke:
        b = random_blaschke(rng)
        try:
            v = tm_basis(b, order)
        except ValueError:
            skipped += 1
            continue
        worst_lemma = max(worst_lemma, _lemma_backward_shift_gap(b, v, order))
        hits = 0
        while hits < n_alpha:
            alpha = 0.5 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            result = _frostman_invariance_check(b, alpha, v)
            if result is None:
                # the shift failed (a shifted zero too close to the circle, or
                # its backward-error gate); redraw the shift parameter
                skipped += 1
                continue
            hits += 1
            gap, iso, boundary = result
            worst_frostman_gap = max(worst_frostman_gap, gap)
            worst_isometry = max(worst_isometry, iso)
            worst_boundary = max(worst_boundary, boundary)
        done += 1
    ok = worst_lemma < 1e-8 and worst_frostman_gap < 1e-8 and worst_boundary < 1e-10
    return {
        "n_blaschke": n_blaschke,
        "n_alpha": n_alpha,
        "order": order,
        "skipped_draws": skipped,
        "max_residuals": {
            "backward_shift_identity": worst_lemma,
            "frostman_subspace_gap": worst_frostman_gap,
            "frostman_isometry": worst_isometry,
            "frostman_boundary_identity": worst_boundary,
        },
        "pass": bool(ok and worst_isometry < 1e-8),
    }


def _frostman_invariance_check(
    b: BlaschkeProduct, alpha: complex, v: np.ndarray
) -> tuple[float, float, float] | None:
    """Check K_B = g_alpha K_{B_alpha} at the suite's order N.

    v holds K_B's orthonormal basis at order N as columns, which passed
    tm_basis's tail gate.  K_{B_alpha}'s basis is taken at N with no tail
    gate, as it may not have decayed by N: (g h)[:N] reads h only up to N,
    so each P_N(g_alpha e_k) is the exact truncation of g_alpha e_k, an
    element of K_B when the shift is right.  P_N is injective on
    K_B + g_alpha K_{B_alpha} (dimension <= 2d <= N), so a wrong shift
    still shows in the gap at N, and on K_B it moves norms by at most the
    tail that v's gate bounds, so the isometry is read at N too.  What
    depends only on B (its polynomials, its coefficients to N, its values
    on the grid) is kept on B and shared by all of its alpha draws.
    Returns (subspace gap, multiplier isometry deviation, boundary identity
    residual), or None if the shift fails.
    """
    order = v.shape[0]
    try:
        shifted, g = frostman_shift(b, alpha, order)
    except ValueError:
        return None
    cols = _weighted_model_space(shifted, g, order, np.inf)
    iso = max(abs(np.linalg.norm(gh) - 1.0) for gh in cols.T)
    gap = subspace_gap(v, orthonormalize(cols))
    # B_alpha's phase was read from coefficients; this identity is
    # g_alpha (B_alpha - (alpha - B) / (1 - conj(alpha) B)) on the grid,
    # with |g_alpha| >= 0.577 for |alpha| <= 0.5, so it checks that phase
    m = default_grid_size(order)
    bz = _on_grid(b, m)
    g_samples = (1 - np.conj(alpha) * bz) / np.sqrt(1 - abs(alpha) ** 2)
    ident = g_samples * blaschke_eval(shifted, grid_points(m)) + bz * np.conj(g_samples)
    return gap, iso, float(np.max(np.abs(ident)))


def _lemma_backward_shift_gap(b: BlaschkeProduct, v: np.ndarray, order: int) -> float:
    """Gap between S*(K meet constants-perp) and K meet (S*B)-perp."""
    lhs_null = _nullspace_of_row(v[0, :][None, :])
    if lhs_null.shape[1] == 0:
        lhs = np.zeros((order, 0), dtype=np.complex128)
    else:
        w = v @ lhs_null
        shifted = np.vstack([w[1:, :], np.zeros((1, w.shape[1]))])
        lhs = orthonormalize(shifted)
    s_theta = np.zeros(order, dtype=np.complex128)
    theta_c = blaschke_coefficients(b, order + 1)
    s_theta[:order] = theta_c[1:]
    c = v.conj().T @ s_theta
    rhs_null = _nullspace_of_row(c[None, :].conj())
    return subspace_gap(lhs, v @ rhs_null)


def suite_mobius(seed: int, count: int = 20, order: int = 128) -> dict:
    """Moebius covariance at |alpha| <= 0.5: spectrum invariance, mapped Schmidt bases, involution."""
    rng = np.random.default_rng(seed)
    worst_sigma = 0.0
    worst_gap = 0.0
    worst_double = 0.0
    worst_lemma32 = 0.0
    ok = True
    for _ in range(count):
        sym = random_symbol(rng)
        alpha = 0.5 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        m = MobiusMap(alpha)
        w, _ = mobius_conjugate_symbol(sym, m, 2 * order - 1)
        # truncation allowance for this draw, from the exact pole images
        tail_w = _conjugated_tail_estimate(sym, m, w)
        w = RationalSymbol(poly=w)
        gamma_u = build_hankel_matrix(sym, order)
        gamma_w = build_hankel_matrix(w, order)
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
        if pairs:
            # every matched column of the draw in one conjugation
            columns = np.hstack([bu.basis for bu, _ in pairs])
            mapped, _ = mobius_conjugate_function(columns, m, order)
            start = 0
            for bu, bw in pairs:
                stop = start + bu.multiplicity
                gap = subspace_gap(orthonormalize(mapped[:, start:stop]), bw.basis)
                start = stop
                worst_gap = max(worst_gap, gap)
                ok = ok and gap <= 1e-6 + 100 * tail_w

        u_exact = gamma_u.u
        w2, _ = mobius_conjugate_symbol(w, m, order)
        double = float(np.linalg.norm(w2 - u_exact))
        worst_double = max(worst_double, double)
        ok = ok and double <= 1e-8 + 10 * tail_w

        worst_lemma32 = max(worst_lemma32, _lemma_change_of_variable_gap(rng, order))
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


def _conjugated_tail_estimate(sym: RationalSymbol, m: MobiusMap, w_coeffs: np.ndarray) -> float:
    """Tail proxy for a conjugated symbol from the exact images of its poles."""
    rates = [abs(1.0 / mobius_eval(m, 1.0 / np.conj(t.b))) for t in sym.poles if t.b != 0]
    rate = max(rates) if rates else 0.0
    chunk = float(np.linalg.norm(w_coeffs[-8:]))
    return chunk / max(1 - rate, 1e-6)


def _lemma_change_of_variable_gap(rng: np.random.Generator, order: int) -> float:
    """U (p K_B) versus (p o mu) K_{B o mu} for random polynomial weights."""
    order = max(order, 128)  # composed zeros need this much resolution
    b = random_blaschke(rng, max_degree=4, max_radius=0.5)
    alpha = 0.3 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    m = MobiusMap(alpha)
    p = _random_unit_vector(rng, order, support=8)
    mapped, _ = mobius_conjugate_function(_weighted_model_space(b, p, order, 1e-10), m, order)
    # p o mu is no longer a polynomial, so this product stays on the boundary
    grid = grid_points(default_grid_size(order))
    pmu_samples = evaluate(p, mobius_eval(m, grid))
    rhs, _ = multiply_by_boundary(tm_basis(compose_with_mobius(b, m), order), pmu_samples, order)
    return subspace_gap(orthonormalize(mapped), orthonormalize(rhs))


def suite_theorem(seed: int, count: int = 100, order: int = 128, tol: float = 1e-6) -> dict:
    """End-to-end extraction and verification over random rational symbols."""
    rng = np.random.default_rng(seed)
    worst = {
        "subspace_gap": 0.0,
        "isometry": 0.0,
        "action": 0.0,
        "near_invariance": 0.0,
    }
    n_blocks = 0
    n_unreliable = 0
    failures: list[str] = []
    for i in range(count):
        sym = random_symbol(rng)
        gamma = build_hankel_matrix(sym, order)
        blocks = schmidt_decompose(gamma)
        reliable = [block for block in blocks if block.reliable]
        n_unreliable += len(blocks) - len(reliable)
        n_blocks += len(reliable)
        for block, rep in zip(reliable, extract_representations(gamma, reliable, tol=tol)):
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


def suite_branch_b(seed: int, count: int = 20, order: int = 128, tol: float = 1e-6) -> dict:
    """Extraction off the origin, via conjugation at an interior zero of a Schmidt vector.

    Two-pole symbols whose top Schmidt vectors vanish at some z* with
    |z*| <= 0.6 are conjugated at alpha = z*; the conjugated block is then
    orthogonal to constants, so extraction must take a base point other
    than 0, and the recovered subspace is compared with the mapped original.
    """
    rng = np.random.default_rng(seed)
    cases = 0
    attempts = 0
    worst_gap = 0.0
    worst_res = 0.0
    failures: list[str] = []
    n_off_origin = 0
    while cases < count and attempts < 500:
        attempts += 1
        sym = random_symbol(rng, max_poles=2)
        if len(sym.poles) != 2:
            continue
        gamma = build_hankel_matrix(sym, order)
        blocks = schmidt_decompose(gamma)
        hit = None
        for block in blocks:
            if block.multiplicity != 1 or not block.reliable:
                continue
            zstar = _kernel_combination_zero(sym, block.basis[:, 0])
            if zstar is not None and abs(zstar) <= 0.6:
                hit = (block, zstar)
                break
        if hit is None:
            continue
        block, zstar = hit
        cases += 1
        m = MobiusMap(zstar)
        w, _ = mobius_conjugate_symbol(sym, m, 2 * order - 1)
        gamma_w = build_hankel_matrix(RationalSymbol(poly=w), order)
        blocks_w = [bw for bw in schmidt_decompose(gamma_w)
                    if abs(bw.s - block.s) < 1e-3 * max(block.s, 1.0)]
        if len(blocks_w) != 1:
            failures.append(f"case {cases}: no unique matching block after conjugation")
            continue
        bw = blocks_w[0]
        try:
            rep = extract_representation(gamma_w, bw, tol=tol)
        except (ExtractionError, ValueError) as exc:
            failures.append(f"case {cases}: {exc}")
            continue
        n_off_origin += rep.canonicalized_at != 0
        worst_res = max(worst_res, max(rep.residuals.gated().values()))
        mapped, _ = mobius_conjugate_function(block.basis[:, :1], m, order)
        prods = _weighted_model_space(rep.theta, rep.p, order)
        gap = subspace_gap(orthonormalize(mapped), orthonormalize(prods))
        worst_gap = max(worst_gap, gap)
        if gap > tol:
            failures.append(f"case {cases}: image gap {gap:.3e}")
    ok = cases == count and not failures and n_off_origin == count
    return {
        "count": cases,
        "requested": count,
        "attempts": attempts,
        "order": order,
        "base_point_off_origin": n_off_origin,
        "max_residuals": {"image_gap": worst_gap, "verification": worst_res},
        "failures": failures[:20],
        "pass": bool(ok),
    }


def _kernel_combination_zero(sym: RationalSymbol, f: np.ndarray) -> complex | None:
    """Interior zero of a two-kernel combination, from its expansion coefficients."""
    b1, b2 = (t.b for t in sym.poles)
    n = np.arange(f.size)
    k1 = np.conj(b1) ** n
    k2 = np.conj(b2) ** n
    beta, *_ = np.linalg.lstsq(np.column_stack([k1, k2]), f, rcond=None)
    denom = beta[0] * np.conj(b2) + beta[1] * np.conj(b1)
    if abs(denom) < 1e-12:
        return None
    z = (beta[0] + beta[1]) / denom
    return complex(z)
