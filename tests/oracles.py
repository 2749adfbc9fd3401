"""Reference implementations that tests compare the package against, and
builders of test inputs that the package itself does not need."""

from __future__ import annotations

import numpy as np

from hankelschmidt import suites
from hankelschmidt.blaschke import (
    BlaschkeProduct,
    MobiusMap,
    _series_div,
    blaschke_coefficients,
    blaschke_eval,
    compose_with_mobius,
    frostman_shift,
    mobius_conjugate_function,
    mobius_conjugate_symbol,
    mobius_eval,
    tm_basis,
)
from hankelschmidt.extraction import Representation, _weighted_model_space, extract_representations
from hankelschmidt.hankel import build_hankel_matrix
from hankelschmidt.hardy import default_grid_size, evaluate, grid_points, multiply_by_boundary
from hankelschmidt.spectral import _nullspace_of_row, orthonormalize, schmidt_decompose, subspace_gap
from hankelschmidt.symbols import (
    MAX_MULTIPLICITY,
    PoleTerm,
    RationalSymbol,
    SymbolFormatError,
    _binomial_weights,
)


def unit(n: int, order: int) -> np.ndarray:
    """Coefficients of the monomial z^n at the given truncation order."""
    c = np.zeros(order, dtype=np.complex128)
    c[n] = 1.0
    return c


def one(order: int) -> np.ndarray:
    """Coefficients of the constant function 1 at the given truncation order."""
    return unit(0, order)


def szego_kernel(a: complex, order: int) -> np.ndarray:
    """Coefficients of the reproducing kernel k_a(z) = 1/(1 - conj(a) z), |a| < 1.

    A point outside the open disk (NaN included) is refused, so no test
    compares against a kernel whose coefficients do not decay.
    """
    a = complex(a)
    if not abs(a) < 1:
        raise ValueError(f"kernel point must lie in the open disk, got |a| = {abs(a)}")
    return np.conj(a) ** np.arange(order)


def boundary_samples(f: np.ndarray, m: int) -> np.ndarray:
    """Values of the polynomial with coefficients f at the m-th roots of unity
    e^{2 pi i k / m}, m >= len(f), by a zero-padded inverse FFT."""
    return np.fft.ifft(f, n=m) * m


def boundary_projection(samples: np.ndarray, order: int) -> tuple[np.ndarray, float]:
    """Coefficients 0..order-1 of the analytic part of boundary samples at the
    m-th roots of unity, m >= 2 order, and the l2 norm of every other bin."""
    bins = np.fft.fft(samples) / samples.size
    return bins[:order], float(np.linalg.norm(bins[order:]))


def hankel_product(a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Coefficients 0..N-1 of P_+(a * conj(f)), N = len(f): sum_j a[k+j] conj(f[j]).

    This is the Hankel matrix of a[0..2N-2] applied to conj(f), computed as
    one convolution without forming the matrix; a needs 2N-1 coefficients.
    With a = theta_hat[1:2N] it is the conjugation C_theta f = P_+(conj(z)
    theta conj(f)) of f in K_theta.
    """
    n = len(f)
    if len(a) < 2 * n - 1:
        raise ValueError(
            f"Hankel product of order {n} needs {2 * n - 1} coefficients of a, got {len(a)}"
        )
    return np.convolve(a[: 2 * n - 1], np.conj(f[::-1]))[n - 1 : 2 * n - 1]


def stable_roots(poly_ascending: np.ndarray) -> np.ndarray:
    """Roots of one polynomial of ascending coefficients by np.roots, once the
    coefficients below 1e-14 of the largest are cut off the top: what the
    batched blaschke._stable_roots finds for each row of a stack."""
    c = np.asarray(poly_ascending, dtype=np.complex128)
    scale = np.max(np.abs(c))
    if scale == 0:
        return np.empty(0, dtype=np.complex128)
    c = c[: np.flatnonzero(np.abs(c) > 1e-14 * scale)[-1] + 1]
    return np.roots(c[::-1]) if c.size > 1 else np.empty(0, dtype=np.complex128)


def dense_decay(gamma: np.ndarray) -> tuple[float, int, float]:
    """(largest |entry|, J, column) of a square matrix by a scan of all its entries.

    column is the largest sum of squared entries over one column, and J the
    first order >= min(2, N) at which the squared entries outside the
    leading J x J block sum to at most eps^4 column, all on the scale of the
    largest entry: the definition HankelMatrix._decay reads from the
    coefficients.  A zero matrix gives J = min(2, N).
    """
    n, floor = gamma.shape[0], min(2, gamma.shape[0])
    a = np.abs(gamma)
    largest = a.max(initial=0.0)
    if largest == 0:
        return largest, floor, 0.0
    a = (a / largest) ** 2
    # shell[k]: squared entries with max(i, j) == k
    shell = np.tril(a).sum(axis=1) + np.triu(a, 1).sum(axis=0)
    column = a.sum(axis=0).max()
    dropped = np.append(np.cumsum(shell[::-1])[::-1], 0.0)
    fits = np.flatnonzero(dropped[floor:] <= np.finfo(float).eps ** 4 * column)
    return largest, floor + int(fits[0]) if fits.size else n, column


def tm_basis_recurrence(b, order: int) -> tuple[list[np.ndarray], list[float]]:
    """The Takenaka-Malmquist basis of K_B one element at a time, with the
    tail estimate of each element taken as soon as it is formed.

    This is the independent per-element reference for the package's one
    recurrence, blaschke._tm_bases, which runs these steps over a stack of
    zero sets at once (one stacked series division per element), and for
    tm_basis, its one-row call with the tails estimated in one pass.  The
    arithmetic of each step is the same, so the elements must agree bit for
    bit.  Returns each element to `order` coefficients and its tail estimate.
    """
    a = b.zeros
    r = np.sqrt(1 - np.abs(a) ** 2)
    elements, tails = [], []
    c = np.array([r[0]], dtype=np.complex128)
    for k in range(b.degree):
        if k:
            num = a[k - 1] * c
            num[1:] -= c[:-1]
            c = num * (r[k] / r[k - 1])
        c = _series_div(c, np.array([1.0, -np.conj(a[k])]), order + 64)
        rate = float(np.max(np.abs(a[: k + 1])))
        tail_sq = float(np.sum(np.abs(c[order:]) ** 2))
        if rate > 0:
            tail_sq += abs(c[-1]) ** 2 * rate**2 / max(1 - rate**2, 1e-16)
        elements.append(c[:order])
        tails.append(np.sqrt(tail_sq))
    return elements, tails


def symbol_from_inner(b: BlaschkeProduct, order: int = 64) -> RationalSymbol:
    """Rational form of u = S* B for a finite Blaschke product B.

    The poles sit at the nonzero zeros of B (b-parameters coincide); the
    polynomial part absorbs anything left over (e.g. B = z^d gives the pure
    monomial z^{d-1}).  `order` controls the length of the exact series used
    for the coefficient fit and its self-check.
    """
    d = b.degree
    if d == 0:
        return RationalSymbol()
    rows = max(order, 4 * d + 16)
    series = blaschke_coefficients(b, rows + 1)
    target = series[1:]

    pole_params: list[tuple[complex, int]] = []
    for a in b.zeros:
        if a == 0:
            continue
        for i, (bp, mp) in enumerate(pole_params):
            if abs(bp - a) < 1e-13:
                pole_params[i] = (bp, mp + 1)
                break
        else:
            pole_params.append((complex(a), 1))
    for bp, mp in pole_params:
        if mp > MAX_MULTIPLICITY:
            raise SymbolFormatError(
                f"inner function has a zero of multiplicity {mp} > {MAX_MULTIPLICITY}"
            )

    n_pole_cols = sum(mp for _, mp in pole_params)
    n_poly_cols = d - n_pole_cols
    n = np.arange(rows)
    cols = []
    for j in range(n_poly_cols):
        col = np.zeros(rows, dtype=np.complex128)
        col[j] = 1.0
        cols.append(col)
    layout: list[tuple[complex, int]] = []
    for bp, mp in pole_params:
        for i in range(1, mp + 1):
            cols.append(_binomial_weights(n, i) * np.conj(bp) ** n)
            layout.append((bp, i))
    a_mat = np.column_stack(cols)
    coeffs, *_ = np.linalg.lstsq(a_mat, target, rcond=None)
    resid = float(np.linalg.norm(a_mat @ coeffs - target))
    if resid > 1e-9 * max(1.0, float(np.linalg.norm(target))):
        raise ValueError(f"rational fit of the shifted inner function failed, residual {resid:.3e}")

    poly = coeffs[:n_poly_cols] if n_poly_cols else np.zeros(1, dtype=np.complex128)
    poles = tuple(
        PoleTerm(b=bp, m=i, c=complex(coeffs[n_poly_cols + j]))
        for j, (bp, i) in enumerate(layout)
        if abs(coeffs[n_poly_cols + j]) > 1e-13
    )
    return RationalSymbol(poly=np.asarray(poly, dtype=np.complex128), poles=poles)


# ---------------------------------------------------------------------------
# per-draw verify suites: each draw checked on its own, as the suites in
# hankelschmidt.suites check all draws of one suite in stacked passes


def frostman_invariance_check(b, alpha: complex, v: np.ndarray) -> tuple[float, float, float] | None:
    """(subspace gap, multiplier isometry deviation, boundary identity
    residual) of K_B = g_alpha K_{B_alpha} at the order N of v, K_B's
    orthonormal basis, or None if the shift fails.  K_{B_alpha}'s basis is
    taken at N with no tail gate; P_N(g_alpha e_k) is the exact truncation."""
    order = v.shape[0]
    try:
        shifted, g = frostman_shift(b, alpha, order)
    except ValueError:
        return None
    cols = _weighted_model_space(shifted, g, order, np.inf)
    iso = max(abs(np.linalg.norm(gh) - 1.0) for gh in cols.T)
    gap = subspace_gap(v, orthonormalize(cols))
    grid = grid_points(default_grid_size(order))
    bz = blaschke_eval(b, grid)
    g_samples = (1 - np.conj(alpha) * bz) / np.sqrt(1 - abs(alpha) ** 2)
    ident = g_samples * blaschke_eval(shifted, grid) + bz * np.conj(g_samples)
    return gap, iso, float(np.max(np.abs(ident)))


def backward_shift_gap(b, v: np.ndarray, order: int) -> float:
    """Gap between S*(K meet constants-perp) and K meet (S*B)-perp."""
    lhs_null = _nullspace_of_row(v[0, :][None, :])
    if lhs_null.shape[1] == 0:
        lhs = np.zeros((order, 0), dtype=np.complex128)
    else:
        w = v @ lhs_null
        lhs = orthonormalize(np.vstack([w[1:, :], np.zeros((1, w.shape[1]))]))
    s_theta = blaschke_coefficients(b, order + 1)[1:]
    rhs_null = _nullspace_of_row((v.conj().T @ s_theta)[None, :].conj())
    return subspace_gap(lhs, v @ rhs_null)


def change_of_variable_gap(rng: np.random.Generator, order: int) -> float:
    """U (p K_B) versus (p o mu) K_{B o mu} for one random polynomial weight."""
    order = max(order, 128)
    b = suites.random_blaschke(rng, max_degree=4, max_radius=0.5)
    m = MobiusMap(0.3 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    p = suites._random_unit_vector(rng, order, support=8)
    mapped, _ = mobius_conjugate_function(_weighted_model_space(b, p, order, 1e-10), m, order)
    grid = grid_points(default_grid_size(order))
    pmu_samples = evaluate(p, mobius_eval(m, grid))
    rhs, _ = multiply_by_boundary(tm_basis(compose_with_mobius(b, m), order), pmu_samples, order)
    return subspace_gap(orthonormalize(mapped), orthonormalize(rhs))


def suite_model_spaces(seed: int, n_blaschke: int = 30, n_alpha: int = 3, order: int = 128) -> dict:
    """suites.suite_model_spaces with one shift and one check per draw."""
    rng = np.random.default_rng(seed)
    worst = [0.0] * 4  # lemma, gap, isometry, boundary
    skipped = done = 0
    while done < n_blaschke:
        b = suites.random_blaschke(rng)
        try:
            v = tm_basis(b, order)
        except ValueError:
            skipped += 1
            continue
        worst[0] = max(worst[0], backward_shift_gap(b, v, order))
        hits = 0
        while hits < n_alpha:
            alpha = 0.5 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            result = frostman_invariance_check(b, alpha, v)
            if result is None:
                skipped += 1
                continue
            hits += 1
            worst[1:] = [max(w, r) for w, r in zip(worst[1:], result)]
        done += 1
    ok = worst[0] < 1e-8 and worst[1] < 1e-8 and worst[3] < 1e-10
    return {
        "n_blaschke": n_blaschke,
        "n_alpha": n_alpha,
        "order": order,
        "skipped_draws": skipped,
        "max_residuals": dict(zip(("backward_shift_identity", "frostman_subspace_gap",
                                   "frostman_isometry", "frostman_boundary_identity"), worst)),
        "pass": bool(ok and worst[2] < 1e-8),
    }


def suite_mobius(seed: int, count: int = 20, order: int = 128) -> dict:
    """suites.suite_mobius with every conjugation and gap taken per draw."""
    rng = np.random.default_rng(seed)
    worst = [0.0] * 4
    ok = True
    for _ in range(count):
        sym = suites.random_symbol(rng)
        m = MobiusMap(0.5 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        w, _ = mobius_conjugate_symbol(sym, m, 2 * order - 1)
        tail_w = suites._conjugated_tail_estimate(sym, m, w)
        w = RationalSymbol(poly=w)
        gamma_u = build_hankel_matrix(sym, order)
        blocks_u = schmidt_decompose(gamma_u)
        blocks_w = schmidt_decompose(build_hankel_matrix(w, order))
        sig_u, sig_w = blocks_u.singular_values, blocks_w.singular_values
        smax = max(sig_u[0], 1.0)
        keep = sig_u > 1e-6 * smax
        diff = float(np.max(np.abs(sig_u[keep] - sig_w[keep]))) if np.any(keep) else 0.0
        worst[0] = max(worst[0], diff)
        ok = ok and diff <= 1e-6 + 10 * tail_w * (1 + smax)
        for bu in blocks_u:
            if not bu.reliable:
                continue
            match = [bw for bw in blocks_w if abs(bw.s - bu.s) < 1e-3 * max(bu.s, 1.0)]
            if len(match) == 1 and match[0].multiplicity == bu.multiplicity:
                mapped, _ = mobius_conjugate_function(bu.basis, m, order)
                gap = subspace_gap(orthonormalize(mapped), match[0].basis)
                worst[1] = max(worst[1], gap)
                ok = ok and gap <= 1e-6 + 100 * tail_w
        w2, _ = mobius_conjugate_symbol(w, m, order)
        double = float(np.linalg.norm(w2 - gamma_u.u))
        worst[2] = max(worst[2], double)
        ok = ok and double <= 1e-8 + 10 * tail_w
        worst[3] = max(worst[3], change_of_variable_gap(rng, order))
    return {
        "count": count,
        "order": order,
        "max_residuals": dict(zip(("singular_values", "mapped_basis_gap", "double_conjugation",
                                   "weighted_subspace_covariance"), worst)),
        "pass": bool(ok and worst[3] < 1e-8),
    }


def suite_theorem(seed: int, count: int = 20, order: int = 128, tol: float = 1e-6) -> dict:
    """suites.suite_theorem with one extraction batch per symbol."""
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(("subspace_gap", "isometry", "action", "near_invariance"), 0.0)
    n_blocks = n_unreliable = 0
    failures: list[str] = []
    for i in range(count):
        gamma = build_hankel_matrix(suites.random_symbol(rng), order)
        blocks = schmidt_decompose(gamma)
        reliable = [block for block in blocks if block.reliable]
        n_unreliable += len(blocks) - len(reliable)
        n_blocks += len(reliable)
        for block, rep in zip(reliable, extract_representations(((gamma, b) for b in reliable), tol=tol)):
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
