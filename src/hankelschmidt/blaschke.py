"""Finite Blaschke products, model spaces, Frostman shifts and Moebius conjugation.

A finite Blaschke product is stored by its zeros and a unimodular phase,

    B(z) = phase * prod_j (a_j - z) / (1 - conj(a_j) z),      |a_j| < 1,

so a zero at the origin contributes the factor (-z).  Products with B are
computed from its exact Taylor coefficients (blaschke_coefficients).  The
Takenaka-Malmquist basis of K_B (tm_basis, the tail-gated one-row call of
the one recurrence _tm_bases, which runs over a stack of zero sets with one
stacked _series_div per element) is one read-only N x d coefficient matrix,
column k holding e_k, the format of every family of functions in the
package; the Moebius conjugation of functions maps such a matrix to
another.  The conjugation C_B needs no coefficients of B: on the basis it
is C_B e_k = -phase * e~_(d-1-k), e~ the basis of the zeros in reverse
order, which verification reads in closed form.  Phases are read from
coefficients or zeros in closed form; the boundary grid is used only by
the Moebius conjugation of functions and symbols, which are sampled and
projected, and by the values of B that the suites' boundary identity reads
(blaschke_eval).  A product keeps what depends on it alone, and
canonical_blaschke returns one shared instance per zero set, so Schmidt
blocks with the same inner function share that work.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .hardy import (
    _coefficient_matrix,
    _frozen,
    _horner,
    _lead_rotation,
    _project,
    default_grid_size,
    grid_points,
)
from .symbols import evaluate_symbol

__all__ = [
    "BlaschkeProduct",
    "MobiusMap",
    "blaschke_eval",
    "blaschke_coefficients",
    "canonical_blaschke",
    "tm_basis",
    "frostman_shift",
    "mobius_eval",
    "mobius_conjugate_function",
    "mobius_conjugate_symbol",
    "compose_with_mobius",
]


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product: unimodular phase times disk-automorphism factors.

    Immutable: the zeros are a read-only copy of the input, so what depends
    only on B is computed once and kept on the instance, and dies with it:
    its numerator and denominator (_polynomials), its Taylor coefficients
    per order (blaschke_coefficients) and its model-space basis matrix per
    order and tail tolerance (tm_basis).
    """

    zeros: np.ndarray
    phase: complex = 1.0 + 0.0j

    def __post_init__(self):
        z = _frozen(self.zeros)
        if not np.all(np.abs(z) < 1):
            raise ValueError(f"Blaschke zeros must lie in the open disk, max |a| = {np.max(np.abs(z))}")
        p = complex(self.phase)
        if not abs(abs(p) - 1) <= 1e-12:
            raise ValueError(f"phase must be unimodular, got |phase| = {abs(p)}")
        object.__setattr__(self, "zeros", z)
        object.__setattr__(self, "phase", p / abs(p))
        object.__setattr__(self, "_kept", {})

    @property
    def degree(self) -> int:
        return self.zeros.size



@dataclass(frozen=True)
class MobiusMap:
    """Disk involution mu(z) = (alpha - z) / (1 - conj(alpha) z)."""

    alpha: complex

    def __post_init__(self):
        a = complex(self.alpha)
        if not abs(a) < 1:
            raise ValueError(f"Moebius parameter must satisfy |alpha| < 1, got {abs(a)}")
        object.__setattr__(self, "alpha", a)


def mobius_eval(m: MobiusMap, z) -> np.ndarray | complex:
    z = np.asarray(z, dtype=np.complex128)
    out = (m.alpha - z) / (1 - np.conj(m.alpha) * z)
    return complex(out) if out.ndim == 0 else out


def blaschke_eval(b: BlaschkeProduct, z) -> np.ndarray | complex:
    """Evaluate B on |z| <= 1 (boundary included) in product form (_products)."""
    zs = np.asarray(z, dtype=np.complex128)
    if np.any(np.abs(zs) > 1 + 1e-12):
        raise ValueError("evaluation point outside the closed unit disk")
    out = _products(b.zeros[None], np.array([b.phase]), zs)[0]
    return complex(out) if out.ndim == 0 else out


def _products(zeros: np.ndarray, phases: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The Blaschke products with the zeros in the rows of zeros (k x d) and the
    phases at the points z, k x z.shape, one factor at a time over all of them."""
    out = np.multiply.outer(phases, np.ones(z.shape, dtype=np.complex128))
    for a in zeros.T.reshape(zeros.shape[::-1] + (1,) * z.ndim):
        out = out * ((a - z) / (1 - np.conj(a) * z))
    return out


def _poly_from_roots(roots: np.ndarray) -> np.ndarray:
    """Ascending coefficients of prod_j (r_j - z)."""
    c = np.array([1.0 + 0.0j])
    for r in roots:
        c = np.convolve(c, np.array([r, -1.0], dtype=np.complex128))
    return c


def _denominator_from_zeros(zeros: np.ndarray) -> np.ndarray:
    """Ascending coefficients of prod_j (1 - conj(a_j) z)."""
    c = np.array([1.0 + 0.0j])
    for a in zeros:
        c = np.convolve(c, np.array([1.0, -np.conj(a)], dtype=np.complex128))
    return c


def _series_div(num: np.ndarray, den: np.ndarray, order: int) -> np.ndarray:
    """Taylor coefficients of num(z)/den(z) with den(0) != 0, by long division;
    for a stack (k x m num, k x w den) those of each row, k x order.

    Long division is forward substitution with the lower-triangular Toeplitz
    matrix of den, whose band w - 1 wide is solved by one BLAS tbsv.  A stack
    is solved as its rows laid end to end, the band cut to 0 where it would
    reach into the next row, so each row gets the bits of its own solve.
    """
    num, den = np.asarray(num, dtype=np.complex128), np.asarray(den, dtype=np.complex128)
    w, m = den.shape[-1], min(order, num.shape[-1])
    out = np.zeros(den.shape[:-1] + (order,), dtype=np.complex128)
    out[..., :m] = num[..., :m]
    band = np.repeat(den[..., None, :], order, axis=-2)  # laid out as tbsv reads it
    for i in range(1, w):
        band[..., max(order - i, 0) :, i] = 0
    return scipy.linalg.blas.ztbsv(w - 1, band.reshape(-1, w).T, out.ravel(), lower=1).reshape(out.shape)


def _polynomials(b: BlaschkeProduct) -> tuple[np.ndarray, np.ndarray]:
    """Ascending coefficients of phase * prod_j (a_j - z) and of
    prod_j (1 - conj(a_j) z), B's numerator and denominator, computed once
    and kept on B."""
    polys = b._kept.get("polynomials")
    if polys is None:
        polys = b._kept["polynomials"] = (
            b.phase * _poly_from_roots(b.zeros),
            _denominator_from_zeros(b.zeros),
        )
        for poly in polys:
            poly.setflags(write=False)
    return polys


def blaschke_coefficients(b: BlaschkeProduct, order: int) -> np.ndarray:
    """Exact Taylor coefficients of B via polynomial long division, computed
    once per order and kept read-only on B."""
    taylor = b._kept.get(("taylor", order))
    if taylor is None:
        taylor = b._kept["taylor", order] = _frozen(_series_div(*_polynomials(b), order))
    return taylor


CANONICAL_CACHE_SIZE = 32


def canonical_blaschke(zeros) -> BlaschkeProduct:
    """Blaschke product with the given zeros, phase fixed so that the first
    nonzero Taylor coefficient is real positive.

    Zero arrays with equal bytes share one instance per process (_canonical),
    so everything the instance keeps, such as its model-space basis and its
    Taylor coefficients, is computed once for all the Schmidt blocks that
    share the inner function: theta = z, the inner function of every simple
    singular value, above all.
    """
    return _canonical(np.atleast_1d(np.asarray(zeros, dtype=np.complex128)).tobytes())


@functools.lru_cache(maxsize=CANONICAL_CACHE_SIZE)
def _canonical(key: bytes) -> BlaschkeProduct:
    """canonical_blaschke of the zeros whose bytes are key, built once while
    it stays among the CANONICAL_CACHE_SIZE most recently used."""
    zeros = np.frombuffer(key, dtype=np.complex128)
    raw = BlaschkeProduct(zeros, 1.0)
    c = blaschke_coefficients(raw, zeros.size + 1)
    return BlaschkeProduct(zeros, _lead_rotation(c, 1e-12))


# ---------------------------------------------------------------------------
# model spaces


def tm_basis(b: BlaschkeProduct, order: int, tail_tol: float = 1e-10) -> np.ndarray:
    """Orthonormal Takenaka-Malmquist basis of the model space K_B.

    Element k is the normalized Szego kernel at zero a_k times the partial
    Blaschke product over the earlier zeros,

        e_k = sqrt(1 - |a_k|^2) prod_{j<k} (a_j - z) / prod_{j<=k} (1 - conj(a_j) z),

    so each element follows from the one before by a single factor,

        e_k = e_{k-1} (a_{k-1} - z) sqrt(1 - |a_k|^2) / sqrt(1 - |a_{k-1}|^2)
              / (1 - conj(a_k) z),

    one multiplication by a linear polynomial and one division by another.
    Every element is computed to order + 64 coefficients, which are exact
    power-series coefficients (truncation commutes with both steps), by the
    one-row call of _tm_bases.  Rejects truncation orders at which
    the basis elements have not decayed to tail_tol: the tails of all
    elements are estimated in one pass, and the error names the first
    element whose tail exceeds tail_tol.  A basis that passes is the
    read-only, C-contiguous order x d matrix whose column k is e_k (order x 0
    for d = 0); it is kept on B per (order, tail_tol), and every call
    returns that same matrix.
    """
    kept = b._kept.get(("tm", order, tail_tol))
    if kept is not None:
        return kept
    d = b.degree
    if order < d + 1:
        raise ValueError(f"order {order} too small for a degree-{d} model space")
    elements = _tm_bases(b.zeros[None], order + 64)[0]
    # past order + 64 an element decays at least as fast as rate^n, rate its
    # largest zero modulus so far: a geometric bound from its last coefficient
    rate_sq = np.maximum.accumulate(np.abs(b.zeros)) ** 2
    sq = np.abs(elements[order:].T) ** 2
    tail = np.sqrt(sq.sum(axis=1) + sq[:, -1] * rate_sq / np.maximum(1 - rate_sq, 1e-16))
    failing = np.flatnonzero(tail > tail_tol)
    if failing.size:
        k = failing[0]
        raise ValueError(
            f"order {order} insufficient for model-space basis: tail estimate "
            f"{tail[k]:.3e} of element {k} exceeds {tail_tol:.1e}"
        )
    basis = b._kept["tm", order, tail_tol] = elements[:order].copy()
    basis.setflags(write=False)
    return basis


def _tm_bases(zeros: np.ndarray, n: int) -> np.ndarray:
    """The Takenaka-Malmquist bases of the zero sets in the rows of zeros (k x d)
    to n coefficients, k x n x d, no tail gate: tm_basis's recurrence over all
    rows at once, one stacked _series_div per element, each row with the bits
    of its one-row call."""
    r = np.sqrt(1 - np.abs(zeros) ** 2)
    ratio = r[:, 1:] / r[:, :-1]
    dens = np.ones(zeros.shape + (2,), dtype=np.complex128)
    dens[..., 1] = -np.conj(zeros)  # 1 - conj(a_j) z
    basis = np.empty((zeros.shape[1], zeros.shape[0], n), dtype=np.complex128)
    e = r[:, :1].astype(np.complex128)
    for j in range(zeros.shape[1]):
        if j:
            num = zeros[:, j - 1, None] * e
            num[:, 1:] -= e[:, :-1]
            e = num * ratio[:, j - 1, None]
        e = basis[j] = _series_div(e, dens[:, j], n)
    return basis.transpose(1, 2, 0)


# ---------------------------------------------------------------------------
# Frostman shifts


def frostman_shift(
    b: BlaschkeProduct, alpha: complex, order: int
) -> tuple[BlaschkeProduct, np.ndarray]:
    """Frostman shift of an inner function.

    Returns (B_alpha, g_alpha) with

        B_alpha = (alpha - B) / (1 - conj(alpha) B),
        g_alpha = (1 - conj(alpha) B) / sqrt(1 - |alpha|^2),

    g_alpha as an order-`order` coefficient vector.  With B = phase*P/Q,
    B_alpha = N/D for N = alpha*Q - phase*P and D = Q - conj(alpha)*phase*P:
    its zeros r_j are the roots of N, a multiple root given by the mean of
    its cluster (_cluster_means), D = D[0] prod_j (1 - conj(r_j) z), and
    its phase is c = (-1)^d N[d] / D[0].  The gate is the relative backward
    error of the zeros and phase: the l1 norms of N - c D[0] prod_j (r_j - z)
    and D - D[0] prod_j (1 - conj(r_j) z), summed and divided by
    (1 - |alpha|) (||N||_1 + ||D||_1), must be <= 1e-9.  On the circle the
    returned product then deviates by at most 2 (1 + |alpha|) ||Q||_1 / min|Q|
    times that error; the last factor is B's own conditioning, not the shift's.
    This is the one-parameter call of _frostman_shifts.
    """
    zeros, phases, g, (error,) = _frostman_shifts(b, np.array([complex(alpha)]), order)
    if error is not None:
        raise error
    return BlaschkeProduct(zeros[0], phases[0]), g[0]


def _frostman_shifts(b: BlaschkeProduct, alphas: np.ndarray, order: int) -> tuple:
    """frostman_shift of b at each parameter of the 1-D array alphas, every
    gate kept: the B_alpha's zeros (k x d) and phases, the g_alpha (k x
    order), and per parameter None or the ValueError of the first gate it
    fails (its rows then mean nothing).  Batched eigvals find all roots."""
    modulus = np.hypot(alphas.real, alphas.imag)  # rounded as abs() rounds a scalar; np.abs differs
    if not np.all(modulus < 1):
        raise ValueError(f"Frostman parameter must satisfy |alpha| < 1, got {modulus.max()}")
    (phase_p, q), d = _polynomials(b), b.degree
    num = alphas[:, None] * q - phase_p
    den = q - np.conj(alphas)[:, None] * phase_p
    roots = _stable_roots(num)
    count = np.count_nonzero(~np.isnan(roots), axis=1)
    roots[count == d] = _cluster_means(roots[count == d])
    largest = np.abs(roots).max(axis=1, initial=0.0)
    roots = np.sort_complex(roots)
    phase = (-1) ** d * num[:, d] / den[:, 0]
    phase /= np.hypot(phase.real, phase.imag)
    # prod_j (r_j - z) of each row, one factor at a time; prod_j (1 - conj(r_j) z)
    # has the coefficients (-1)^d conj(prod_j (r_j - z)) in reverse order
    prod = np.eye(1, d + 1, dtype=np.complex128).repeat(alphas.size, axis=0)
    for j in range(d):
        prod[:, 1:] = roots[:, j, None] * prod[:, 1:] - prod[:, :-1]
        prod[:, 0] *= roots[:, j]
    dev = np.abs(num - (phase * den[:, 0])[:, None] * prod).sum(axis=1)
    dev += np.abs(den - (-1) ** d * den[:, :1] * np.conj(prod[:, ::-1])).sum(axis=1)
    dev /= (1 - modulus) * (np.abs(num).sum(axis=1) + np.abs(den).sum(axis=1))
    errors = [None] * alphas.size
    for k in np.flatnonzero((count != d) | (largest > 1 - 1e-10) | ~(dev <= 1e-9)):
        errors[k] = ValueError(
            f"Frostman root finding returned {count[k]} roots, expected {d}" if count[k] != d
            else f"Frostman shift produced a zero of modulus {largest[k]:.12f}, too close to the circle"
            if largest[k] > 1 - 1e-10
            else f"Frostman shift deviates from its coefficients by {dev[k]:.3e} (relative)"
        )
    g = np.eye(1, order, dtype=np.complex128) - np.conj(alphas)[:, None] * blaschke_coefficients(b, order)
    return roots, phase, g / np.sqrt(1 - modulus**2)[:, None], errors


def _stable_roots(polys: np.ndarray) -> np.ndarray:
    """The roots np.roots finds for each row of ascending coefficients (k x (d + 1))
    once those below 1e-14 of the row's largest are cut off the top, k x d, NaN
    where roots are missing: one batched companion eigvals per degree left and
    count of exact zeros at the bottom, which np.roots strips and appends as 0."""
    d, kept = polys.shape[1] - 1, np.abs(polys) > 1e-14 * np.abs(polys).max(axis=1, keepdims=True)
    top, low = d - np.argmax(kept[:, ::-1], axis=1), np.argmax(polys != 0, axis=1)
    roots, live = np.full((polys.shape[0], d), np.nan, dtype=np.complex128), kept.any(axis=1)
    for t, z in sorted(set(zip(top[live], low[live]))):
        rows, n = np.flatnonzero(live & (top == t) & (low == z)), t - z
        if n:
            companion = np.repeat(np.eye(n, k=-1, dtype=np.complex128)[None], rows.size, axis=0)
            companion[:, 0] = -polys[rows, z:t][:, ::-1] / polys[rows, t : t + 1]
            roots[rows, :n] = np.linalg.eigvals(companion)
        roots[rows, n:t] = 0.0
    return roots


def _cluster_means(values: np.ndarray) -> np.ndarray:
    """The complex values with each cluster replaced by its mean, at tol = 1e-12;
    for a stack of rows, each row on its own.

    A k-fold root comes out of floating point as k values scattered by about
    eps^(1/k) around a mean that is right to rounding.  A cluster is a
    connected component under links of length 2 tol^(1/n), n = values.size
    (so k values within tol^(1/k) of their mean are linked), merged when
    prod_j (z - v_j) is within tol of (z - mean)^k in every coefficient:
    the merge moves that product by at most tol.
    """
    if values.ndim > 1:
        return np.array([_cluster_means(row) for row in values]).reshape(values.shape)
    n, tol = values.size, 1e-12
    if n < 2:
        return values
    near = np.abs(values[:, None] - values) <= 2 * tol ** (1 / n)
    if np.count_nonzero(near) == n:  # every value stands alone
        return values
    label = np.arange(n)
    for _ in range(n):  # single linkage: each pass follows one more link
        label = np.min(np.where(near, label, n), axis=1)
    out = values.copy()
    for c in np.unique(label):
        group = values[label == c]
        if group.size > 1 and np.max(np.abs(np.poly(group - group.mean())[2:])) <= tol:
            out[label == c] = group.mean()
    return out


# ---------------------------------------------------------------------------
# Moebius conjugation


def mobius_conjugate_function(f: np.ndarray, m: MobiusMap, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Unitary change of variable U f(z) = sqrt(1-|a|^2)/(1 - conj(a) z) * f(mu(z))
    of each coefficient column of the N x d matrix f.

    Computed on the boundary and projected, from one evaluation of all
    columns and one FFT.  Returns the matrix of conjugated columns and, per
    column, the energy dropped by the projection (f composed with mu is no
    longer a polynomial, so it grows as |alpha| -> 1).  This is the one-map
    call of _conjugate_functions.
    """
    return _conjugate_functions([f], [m], order)


def _conjugate_functions(fs: list, maps: list, order: int) -> tuple[np.ndarray, np.ndarray]:
    """mobius_conjugate_function of each matrix fs[i] at maps[i], the results
    side by side: one evaluation per matrix, one FFT for all columns."""
    cols = [_coefficient_matrix(f) for f in fs]
    z = grid_points(default_grid_size(max([order] + [c.shape[0] for c in cols])))
    weights = [np.sqrt(1 - abs(m.alpha) ** 2) / (1 - np.conj(m.alpha) * z) for m in maps]
    samples = np.hstack([w[:, None] * _horner(c, mobius_eval(m, z)) for w, c, m in zip(weights, cols, maps)])
    return _project(samples, order)


def mobius_conjugate_symbol(sym, m: MobiusMap, order: int) -> tuple[np.ndarray, float]:
    """Symbol of the conjugated Hankel operator: w = -S*((S u) o mu).

    Returns the first `order` Taylor coefficients of w together with the
    projection residual.  The input may be any rational symbol; evaluation on
    the boundary is exact.  This is the one-map call of _conjugate_symbols.
    """
    w, residual = _conjugate_symbols([sym], [m], order)
    return w[:, 0], float(residual[0])


def _conjugate_symbols(syms: list, maps: list, order: int) -> tuple[np.ndarray, np.ndarray]:
    """mobius_conjugate_symbol of each syms[i] at maps[i]: the coefficients
    as the columns of one matrix and the residuals, from one FFT."""
    z = grid_points(default_grid_size(order + 1))
    ws = (mobius_eval(m, z) for m in maps)
    g, residual = _project(np.column_stack([w * evaluate_symbol(s, w) for s, w in zip(syms, ws)]), order + 1)
    return -g[1:], residual


def compose_with_mobius(b: BlaschkeProduct, m: MobiusMap) -> BlaschkeProduct:
    """B o mu in closed form: with phi_a(z) = (a - z) / (1 - conj(a) z),
    phi_a o mu = -(1 - a conj(alpha)) / (1 - conj(a) alpha) * phi_{mu(a)},
    so the zeros move to mu(a_j) and the phase gains these unimodular factors."""
    a = b.zeros
    phase = b.phase * np.prod(-(1 - a * np.conj(m.alpha)) / (1 - np.conj(a) * m.alpha))
    return BlaschkeProduct(np.sort_complex(mobius_eval(m, a)), phase)
