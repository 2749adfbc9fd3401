"""Finite Blaschke products, model spaces, Frostman shifts and Moebius conjugation.

A finite Blaschke product is stored by its zeros and a unimodular phase,

    B(z) = phase * prod_j (a_j - z) / (1 - conj(a_j) z),      |a_j| < 1,

so a zero at the origin contributes the factor (-z).  Products with B are
computed from its exact Taylor coefficients (blaschke_coefficients).  The
conjugation C_B needs neither: on the Takenaka-Malmquist basis of K_B
(tm_basis) it is C_B e_k = -phase * e~_(d-1-k), e~ the basis of the zeros
in reverse order, which verification reads in closed form.  Phases are
read from coefficients or zeros in closed form; the boundary grid is used
only by the Moebius conjugation of functions and symbols, which are
sampled and projected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .hardy import (
    BoundaryGrid,
    HardyVector,
    _lead_rotation,
    boundary_to_coefficients,
    default_grid_size,
    evaluate,
    grid_points,
    one,
)

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
    """Finite Blaschke product: unimodular phase times disk-automorphism factors."""

    zeros: np.ndarray
    phase: complex = 1.0 + 0.0j

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.zeros, dtype=np.complex128))
        if not np.all(np.abs(z) < 1):
            raise ValueError(f"Blaschke zeros must lie in the open disk, max |a| = {np.max(np.abs(z))}")
        p = complex(self.phase)
        if not abs(abs(p) - 1) <= 1e-12:
            raise ValueError(f"phase must be unimodular, got |phase| = {abs(p)}")
        object.__setattr__(self, "zeros", z)
        object.__setattr__(self, "phase", p / abs(p))
        self.zeros.setflags(write=False)

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


def blaschke_coefficients(b: BlaschkeProduct, order: int) -> HardyVector:
    """Exact Taylor coefficients of B via polynomial long division."""
    num = b.phase * _poly_from_roots(b.zeros)
    den = _denominator_from_zeros(b.zeros)
    return HardyVector(_series_div(num, den, order))


def canonical_blaschke(zeros) -> BlaschkeProduct:
    """Blaschke product with the given zeros, phase fixed so that the first
    nonzero Taylor coefficient is real positive."""
    zeros = np.atleast_1d(np.asarray(zeros, dtype=np.complex128))
    raw = BlaschkeProduct(zeros, 1.0)
    c = blaschke_coefficients(raw, zeros.size + 1).coeffs
    return BlaschkeProduct(zeros, _lead_rotation(c, 1e-12))


# ---------------------------------------------------------------------------
# model spaces


def tm_basis(b: BlaschkeProduct, order: int, tail_tol: float = 1e-10) -> list[HardyVector]:
    """Orthonormal Takenaka-Malmquist basis of the model space K_B.

    Element k is the normalized Szego kernel at zero a_k times the partial
    Blaschke product over the earlier zeros,

        e_k = sqrt(1 - |a_k|^2) prod_{j<k} (a_j - z) / prod_{j<=k} (1 - conj(a_j) z),

    so each element follows from the one before by a single factor,

        e_k = e_{k-1} (a_{k-1} - z) sqrt(1 - |a_k|^2) / sqrt(1 - |a_{k-1}|^2)
              / (1 - conj(a_k) z),

    one multiplication by a linear polynomial and one division by another.
    Every element is computed to order + 64 coefficients, which are exact
    power-series coefficients (truncation commutes with both steps).
    Rejects truncation orders at which the basis elements have not decayed
    to tail_tol.
    """
    d = b.degree
    if d == 0:
        return []
    if order < d + 1:
        raise ValueError(f"order {order} too small for a degree-{d} model space")
    extra = 64
    a = b.zeros
    r = np.sqrt(1 - np.abs(a) ** 2)
    out = []
    c = np.array([r[0]], dtype=np.complex128)
    for k in range(d):
        if k:
            num = a[k - 1] * c
            num[1:] -= c[:-1]
            c = num * (r[k] / r[k - 1])
        c = _series_div(c, np.array([1.0, -np.conj(a[k])]), order + extra)
        rate = float(np.max(np.abs(a[: k + 1])))
        tail_sq = float(np.sum(np.abs(c[order:]) ** 2))
        if rate > 0:
            tail_sq += abs(c[-1]) ** 2 * rate**2 / max(1 - rate**2, 1e-16)
        if np.sqrt(tail_sq) > tail_tol:
            raise ValueError(
                f"order {order} insufficient for model-space basis: tail estimate "
                f"{np.sqrt(tail_sq):.3e} exceeds {tail_tol:.1e}"
            )
        out.append(HardyVector(c[:order]))
    return out


# ---------------------------------------------------------------------------
# Frostman shifts


def frostman_shift(
    b: BlaschkeProduct, alpha: complex, order: int
) -> tuple[BlaschkeProduct, HardyVector]:
    """Frostman shift of an inner function.

    Returns (B_alpha, g_alpha) with

        B_alpha = (alpha - B) / (1 - conj(alpha) B),
        g_alpha = (1 - conj(alpha) B) / sqrt(1 - |alpha|^2),

    g_alpha as an order-`order` coefficient vector.  With B = phase*P/Q,
    B_alpha = N/D for N = alpha*Q - phase*P and D = Q - conj(alpha)*phase*P:
    its zeros r_j are the roots of N, D = D[0] prod_j (1 - conj(r_j) z), and
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
    phase_p = b.phase * _poly_from_roots(b.zeros)
    q = _denominator_from_zeros(b.zeros)
    d = b.degree
    num = alpha * q - phase_p
    den = q - np.conj(alpha) * phase_p
    roots = _stable_roots(num)
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
    return BlaschkeProduct(roots, phase), _frostman_multiplier(b, alpha, order)


def _frostman_multiplier(b: BlaschkeProduct, alpha: complex, order: int) -> HardyVector:
    """g_alpha = (1 - conj(alpha) B) / sqrt(1 - |alpha|^2) to the given order."""
    g = one(order).coeffs - np.conj(alpha) * blaschke_coefficients(b, order).coeffs
    return HardyVector(g / np.sqrt(1 - abs(alpha) ** 2))


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


# ---------------------------------------------------------------------------
# Moebius conjugation


def mobius_conjugate_function(
    f: HardyVector, m: MobiusMap, order: int | None = None
) -> tuple[HardyVector, float]:
    """Unitary change of variable U f(z) = sqrt(1-|a|^2)/(1 - conj(a) z) * f(mu(z)).

    Computed on the boundary and projected; the reported residual is the
    energy dropped by the projection (f composed with mu is no longer a
    polynomial, so the residual grows as |alpha| -> 1).
    """
    if order is None:
        order = f.order
    grid = default_grid_size(max(order, f.order))
    z = grid_points(grid)
    w = mobius_eval(m, z)
    samples = np.sqrt(1 - abs(m.alpha) ** 2) / (1 - np.conj(m.alpha) * z) * evaluate(f, w)
    return boundary_to_coefficients(BoundaryGrid(samples), order)


def mobius_conjugate_symbol(sym, m: MobiusMap, order: int) -> tuple[HardyVector, float]:
    """Symbol of the conjugated Hankel operator: w = -S*((S u) o mu).

    Returns the first `order` Taylor coefficients of w together with the
    projection residual.  The input may be any rational symbol; evaluation on
    the boundary is exact.
    """
    from .symbols import evaluate_symbol

    grid = default_grid_size(order + 1)
    z = grid_points(grid)
    w = mobius_eval(m, z)
    samples = w * evaluate_symbol(sym, w)
    g, residual = boundary_to_coefficients(BoundaryGrid(samples), order + 1)
    return HardyVector(-g.coeffs[1:]), residual


def compose_with_mobius(b: BlaschkeProduct, m: MobiusMap) -> BlaschkeProduct:
    """B o mu in closed form: with phi_a(z) = (a - z) / (1 - conj(a) z),
    phi_a o mu = -(1 - a conj(alpha)) / (1 - conj(a) alpha) * phi_{mu(a)},
    so the zeros move to mu(a_j) and the phase gains these unimodular factors."""
    a = b.zeros
    phase = b.phase * np.prod(-(1 - a * np.conj(m.alpha)) / (1 - np.conj(a) * m.alpha))
    return BlaschkeProduct(_sort_complex(mobius_eval(m, a)), phase)
