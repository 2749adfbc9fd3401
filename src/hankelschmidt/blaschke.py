"""Finite Blaschke products, model spaces, Frostman shifts and Moebius conjugation.

A finite Blaschke product is stored by its zeros and a unimodular phase,

    B(z) = phase * prod_j (a_j - z) / (1 - conj(a_j) z),      |a_j| < 1,

so a zero at the origin contributes the factor (-z).  Products with B are
computed from its exact Taylor coefficients (blaschke_coefficients).  The
Takenaka-Malmquist basis of K_B (tm_basis) is one read-only N x d
coefficient matrix, column k holding e_k, the format of every family of
functions in the package; the Moebius conjugation of functions maps such a
matrix to another.  The conjugation C_B needs no coefficients of B: on the
basis it is C_B e_k = -phase * e~_(d-1-k), e~ the basis of the zeros in
reverse order, which verification reads in closed form.  Phases are
read from coefficients or zeros in closed form; the boundary grid is used
only by the Moebius conjugation of functions and symbols, which are
sampled and projected, and by the values of B that the suites' boundary
identity reads (_on_grid).  A product
keeps what depends on it alone, and canonical_blaschke returns one shared
instance per zero set, so Schmidt blocks with the same inner function
share that work.
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
    per order (blaschke_coefficients), its values per grid (_on_grid) and
    its model-space basis matrix per order and tail tolerance (tm_basis).
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
    """Evaluate B on |z| <= 1 (boundary included) in product form."""
    zs = np.asarray(z, dtype=np.complex128)
    if np.any(np.abs(zs) > 1 + 1e-12):
        raise ValueError("evaluation point outside the closed unit disk")
    w = zs[..., None]
    out = b.phase * np.prod((b.zeros - w) / (1 - np.conj(b.zeros) * w), axis=-1)
    return complex(out) if out.ndim == 0 else out


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
    """Taylor coefficients of num(z)/den(z) with den(0) != 0, by long division.

    Long division is forward substitution with the lower-triangular Toeplitz
    matrix of den, whose band den.size - 1 wide is solved by one BLAS tbsv.
    """
    den = np.asarray(den, dtype=np.complex128)
    out = np.zeros(order, dtype=np.complex128)
    k = min(order, np.size(num))
    out[:k] = np.asarray(num, dtype=np.complex128)[:k]
    band = np.repeat(den[:, None], order, axis=1)
    return scipy.linalg.blas.ztbsv(den.size - 1, band, out, lower=1)


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


def _on_grid(b: BlaschkeProduct, m: int) -> np.ndarray:
    """B at the m-th roots of unity (grid_points(m)), computed once per m and
    kept read-only on B."""
    values = b._kept.get(("grid", m))
    if values is None:
        values = b._kept["grid", m] = _frozen(blaschke_eval(b, grid_points(m)))
    return values


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
    power-series coefficients (truncation commutes with both steps), into
    one row of a d x (order + 64) array.  Rejects truncation orders at which
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
    extra = 64
    a = b.zeros
    r = np.sqrt(1 - np.abs(a) ** 2)
    elements = np.empty((d, order + extra), dtype=np.complex128)
    c = r[:1].astype(np.complex128)
    for k in range(d):
        if k:
            num = a[k - 1] * c
            num[1:] -= c[:-1]
            c = num * (r[k] / r[k - 1])
        c = elements[k] = _series_div(c, np.array([1.0, -np.conj(a[k])]), order + extra)
    # past order + 64 an element decays at least as fast as rate^n, rate its
    # largest zero modulus so far: a geometric bound from its last coefficient
    rate_sq = np.maximum.accumulate(np.abs(a)) ** 2
    sq = np.abs(elements[:, order:]) ** 2
    tail = np.sqrt(sq.sum(axis=1) + sq[:, -1] * rate_sq / np.maximum(1 - rate_sq, 1e-16))
    failing = np.flatnonzero(tail > tail_tol)
    if failing.size:
        k = failing[0]
        raise ValueError(
            f"order {order} insufficient for model-space basis: tail estimate "
            f"{tail[k]:.3e} of element {k} exceeds {tail_tol:.1e}"
        )
    basis = b._kept["tm", order, tail_tol] = elements[:, :order].T.copy()
    basis.setflags(write=False)
    return basis


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
    """
    alpha = complex(alpha)
    if not abs(alpha) < 1:
        raise ValueError(f"Frostman parameter must satisfy |alpha| < 1, got {abs(alpha)}")
    phase_p, q = _polynomials(b)
    d = b.degree
    num = alpha * q - phase_p
    den = q - np.conj(alpha) * phase_p
    roots = _cluster_means(_stable_roots(num))
    if roots.size != d:
        raise ValueError(f"Frostman root finding returned {roots.size} roots, expected {d}")
    if roots.size and np.max(np.abs(roots)) > 1 - 1e-10:
        raise ValueError(
            f"Frostman shift produced a zero of modulus {np.max(np.abs(roots)):.12f}, too close to the circle"
        )
    roots = _sort_complex(roots)
    phase = (-1) ** d * num[d] / den[0]
    phase /= abs(phase)
    dev = np.sum(np.abs(num - phase * den[0] * _poly_from_roots(roots))) + np.sum(
        np.abs(den - den[0] * _denominator_from_zeros(roots))
    )
    dev /= (1 - abs(alpha)) * (np.sum(np.abs(num)) + np.sum(np.abs(den)))
    if dev > 1e-9:
        raise ValueError(f"Frostman shift deviates from its coefficients by {dev:.3e} (relative)")
    g = np.zeros(order, dtype=np.complex128)
    g[0] = 1.0
    g -= np.conj(alpha) * blaschke_coefficients(b, order)
    return BlaschkeProduct(roots, phase), g / np.sqrt(1 - abs(alpha) ** 2)


def _stable_roots(poly_ascending: np.ndarray) -> np.ndarray:
    """Roots of a polynomial given by ascending coefficients, trailing zeros trimmed."""
    c = np.asarray(poly_ascending, dtype=np.complex128)
    scale = np.max(np.abs(c))
    if scale == 0:
        return np.empty(0, dtype=np.complex128)
    nz = np.flatnonzero(np.abs(c) > 1e-14 * scale)
    c = c[: nz[-1] + 1]
    if c.size <= 1:
        return np.empty(0, dtype=np.complex128)
    return np.roots(c[::-1])


def _sort_complex(values: np.ndarray) -> np.ndarray:
    order = np.lexsort((values.imag, values.real))
    return values[order]


def _cluster_means(values: np.ndarray) -> np.ndarray:
    """The complex values with each cluster replaced by its mean, at tol = 1e-12.

    A k-fold root comes out of floating point as k values scattered by about
    eps^(1/k) around a mean that is right to rounding.  A cluster is a
    connected component under links of length 2 tol^(1/n), n = values.size
    (so k values within tol^(1/k) of their mean are linked), merged when
    prod_j (z - v_j) is within tol of (z - mean)^k in every coefficient:
    the merge moves that product by at most tol.
    """
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
    longer a polynomial, so it grows as |alpha| -> 1).
    """
    cols = _coefficient_matrix(f)
    z = grid_points(default_grid_size(max(order, cols.shape[0])))
    weight = np.sqrt(1 - abs(m.alpha) ** 2) / (1 - np.conj(m.alpha) * z)
    samples = weight[:, None] * _horner(cols, mobius_eval(m, z))
    return _project(samples, order)


def mobius_conjugate_symbol(sym, m: MobiusMap, order: int) -> tuple[np.ndarray, float]:
    """Symbol of the conjugated Hankel operator: w = -S*((S u) o mu).

    Returns the first `order` Taylor coefficients of w together with the
    projection residual.  The input may be any rational symbol; evaluation on
    the boundary is exact.
    """
    z = grid_points(default_grid_size(order + 1))
    w = mobius_eval(m, z)
    samples = w * evaluate_symbol(sym, w)
    g, residual = _project(samples[:, None], order + 1)
    return -g[1:, 0], float(residual[0])


def compose_with_mobius(b: BlaschkeProduct, m: MobiusMap) -> BlaschkeProduct:
    """B o mu in closed form: with phi_a(z) = (a - z) / (1 - conj(a) z),
    phi_a o mu = -(1 - a conj(alpha)) / (1 - conj(a) alpha) * phi_{mu(a)},
    so the zeros move to mu(a_j) and the phase gains these unimodular factors."""
    a = b.zeros
    phase = b.phase * np.prod(-(1 - a * np.conj(m.alpha)) / (1 - np.conj(a) * m.alpha))
    return BlaschkeProduct(_sort_complex(mobius_eval(m, a)), phase)
