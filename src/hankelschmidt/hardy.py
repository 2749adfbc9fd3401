"""Truncated Hardy-space arithmetic on the unit disk.

Elements of H^2 are represented by their first N Taylor coefficients.
Products of analytic functions are truncated convolutions, so they do not
need the boundary.  Boundary values, for functions that really are
evaluated on the circle, live on equispaced grids
e^{2*pi*i*k/M}, built once per size and shared read-only (grid_points); the
analytic projection back to coefficients is a plain FFT that keeps the band
0..N-1 and reports the dropped energy.  Polynomials are evaluated at many
points by a blocked Horner scheme (_horner): one matrix product evaluates
every block of 16 coefficients, and Horner's scheme in z^16 runs over the
blocks, so the Python loop is N/16 steps long, not N.  A family of
functions, such as a model-space basis, is always an N x d coefficient
matrix whose column k holds function k; it is evaluated, multiplied on the
boundary or projected in one pass: one matrix product and one FFT for all
columns, whatever their number.  _support cuts a
coefficient vector after its last nonzero entry, so a convolution with a
vector that is exactly zero past order m costs O(N m), not O(N^2).
_lead_rotation is the package's one rule for fixing a vector's unimodular
constant, and _frozen its one rule for the arrays a value object keeps.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HardyVector",
    "BoundaryGrid",
    "TruncationWarning",
    "hardy",
    "one",
    "unit",
    "szego_kernel",
    "inner_product",
    "shift",
    "coshift",
    "evaluate",
    "grid_points",
    "default_grid_size",
    "sample_on_grid",
    "boundary_to_coefficients",
    "multiply_by_boundary",
]


class TruncationWarning(UserWarning):
    """Emitted when a shift pushes a nonzero coefficient past the truncation order."""


def _frozen(x) -> np.ndarray:
    """A read-only complex copy of x, at least 1-D, that no other array can
    write to: neither the caller's array, which stays writable, nor the base
    of a view."""
    a = np.array(x, dtype=np.complex128, ndmin=1)
    a.setflags(write=False)
    return a


def _as_coeffs(values) -> np.ndarray:
    c = _frozen(values)
    if c.ndim != 1:
        raise ValueError(f"coefficient array must be 1-D, got shape {c.shape}")
    if c.size == 0:
        raise ValueError("coefficient array must be nonempty")
    if not np.isfinite(c).all():
        raise ValueError("coefficients must be finite")
    return c


def _coefficient_matrix(f) -> np.ndarray:
    """f as a complex N x d matrix, the one format of a family of functions."""
    m = np.asarray(f, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected an N x d coefficient matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class HardyVector:
    """Order-N truncation of an H^2 element, stored by Taylor coefficients.

    The coefficients are a read-only copy of the input (_frozen), so no
    caller's array can change them.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.coeffs))

    @property
    def order(self) -> int:
        return self.coeffs.size

    def norm(self) -> float:
        """The l2 norm, by numpy's own formula for a complex vector."""
        re, im = self.coeffs.real, self.coeffs.imag
        return math.sqrt(re.dot(re) + im.dot(im))

    def padded(self, order: int) -> np.ndarray:
        """Coefficients zero-padded (never truncated) to the requested order."""
        if order < self.order:
            raise ValueError(f"cannot pad order {self.order} down to {order}")
        out = np.zeros(order, dtype=np.complex128)
        out[: self.order] = self.coeffs
        return out

    def __len__(self) -> int:
        return self.coeffs.size


def hardy(values) -> HardyVector:
    return values if isinstance(values, HardyVector) else HardyVector(values)


def _support(c: np.ndarray) -> np.ndarray:
    """c up to its last nonzero coefficient; its first coefficient when c is zero.

    A convolution with the result equals one with c wherever both are
    defined: the dropped terms are products with exact zeros.
    """
    nz = c.nonzero()[0]
    return c[: nz[-1] + 1 if nz.size else 1]


def _lead_rotation(c: np.ndarray, rel: float):
    """Unimodular rot making the first entry of c above rel * max|c| real
    positive in c * rot; 1.0 when there is none (c = 0)."""
    idx = np.flatnonzero(np.abs(c) > rel * np.abs(c).max())
    return np.conj(c[idx[0]]) / abs(c[idx[0]]) if idx.size else 1.0


def one(order: int) -> HardyVector:
    """The constant function 1 at the given truncation order."""
    return unit(0, order)


def unit(n: int, order: int) -> HardyVector:
    """The monomial z^n at the given truncation order."""
    if not 0 <= n < order:
        raise ValueError(f"monomial degree {n} outside truncation order {order}")
    c = np.zeros(order, dtype=np.complex128)
    c[n] = 1.0
    return HardyVector(c)


def szego_kernel(a: complex, order: int) -> HardyVector:
    """Truncated reproducing kernel k_a(z) = 1/(1 - conj(a) z), |a| < 1."""
    a = complex(a)
    if not abs(a) < 1:
        raise ValueError(f"kernel point must lie in the open disk, got |a| = {abs(a)}")
    return HardyVector(np.conj(a) ** np.arange(order))


def inner_product(f: HardyVector, g: HardyVector) -> complex:
    """Hermitian inner product sum_n f_n conj(g_n); shorter input is zero-padded."""
    n = max(f.order, g.order)
    return complex(np.vdot(g.padded(n), f.padded(n)))


def shift(f: HardyVector) -> HardyVector:
    """Multiplication by z: prepend a zero, dropping the top coefficient.

    A nonzero dropped coefficient is reported as a TruncationWarning; callers
    comparing interior blocks may safely ignore it.
    """
    lost = abs(f.coeffs[-1])
    scale = max(f.norm(), 1.0)
    if lost > 1e-12 * scale:
        warnings.warn(
            f"shift dropped coefficient of magnitude {lost:.3e}", TruncationWarning, stacklevel=2
        )
    out = np.empty_like(f.coeffs)
    out[0] = 0.0
    out[1:] = f.coeffs[:-1]
    return HardyVector(out)


def coshift(f: HardyVector) -> HardyVector:
    """Adjoint shift S*: drop the constant term, append a zero."""
    out = np.empty_like(f.coeffs)
    out[:-1] = f.coeffs[1:]
    out[-1] = 0.0
    return HardyVector(out)


def evaluate(f: HardyVector, z) -> complex | np.ndarray:
    """Evaluate the truncated Taylor series by Horner's scheme; requires |z| <= 1."""
    zs = np.asarray(z, dtype=np.complex128)
    if np.any(np.abs(zs) > 1 + 1e-12):
        raise ValueError("evaluation point outside the closed unit disk")
    acc = _horner(f.coeffs, zs)
    return complex(acc) if np.isscalar(z) or zs.ndim == 0 else acc


_HORNER_BLOCK = 16


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] z^k for ascending coefficients, by blocks of 16.

    coeffs is one coefficient vector, or a matrix with one polynomial per
    column; the result has z's shape, with one more axis for the columns of
    a matrix.  Trailing zero rows are dropped first, so padding a polynomial
    with zeros leaves every bit of the result unchanged.  The powers
    z^0 .. z^15 are formed once; one matrix product evaluates each block
    c[16 j : 16 j + 16] of every column as a polynomial P_j(z), and Horner's
    scheme in w = z^16 sums P_0 + w (P_1 + w (P_2 + ...)).  A vector is the
    one-column case of the same arithmetic.  For |z| <= 1 the rounding error
    stays within a small multiple of N eps sum_k |c_k|, as for the plain
    scheme.
    """
    z = np.asarray(z)
    dtype = np.result_type(z, coeffs)
    k = coeffs.shape[1] if coeffs.ndim == 2 else 1
    nz = np.flatnonzero(coeffs)  # row-major, so the row of a flat index i is i // k
    n = nz[-1] // k + 1 if nz.size else 1
    width = min(_HORNER_BLOCK, n)
    rows = -(-n // width)
    blocks = np.zeros((k, rows * width), dtype=coeffs.dtype)
    blocks[:, :n] = coeffs[:n].T
    powers = np.empty(z.shape + (width,), dtype=dtype)
    powers[..., 0] = 1.0
    powers[..., 1:] = z[..., None]
    np.cumprod(powers, axis=-1, out=powers)
    parts = powers @ blocks.reshape(k * rows, width).T  # column c * rows + j is P_j of column c
    zw = (powers[..., -1] * z)[..., None]
    acc = parts[..., rows - 1 :: rows]
    for j in range(rows - 2, -1, -1):
        acc = acc * zw + parts[..., j::rows]
    return acc if coeffs.ndim == 2 else acc[..., 0]


# ---------------------------------------------------------------------------
# boundary grids


@dataclass(frozen=True)
class BoundaryGrid:
    """Samples of a function at the M-th roots of unity, M a power of two."""

    samples: np.ndarray

    def __post_init__(self):
        s = _frozen(self.samples)
        if s.ndim != 1 or s.size < 2 or (s.size & (s.size - 1)) != 0:
            raise ValueError("samples must be a 1-D array of power-of-two length >= 2")
        object.__setattr__(self, "samples", s)

    @property
    def size(self) -> int:
        return self.samples.size


def default_grid_size(order: int) -> int:
    """Power-of-two grid size >= 4*order: Nyquist for the order, oversampled 2x.

    This is the package's one grid policy; every boundary computation sizes
    its grid here.
    """
    m = 1
    while m < 4 * order:
        m *= 2
    return m


@functools.lru_cache(maxsize=16)
def grid_points(m: int) -> np.ndarray:
    """The M-th roots of unity e^{2 pi i k / M}, one shared read-only array per M."""
    z = np.exp(2j * np.pi * np.arange(m) / m)
    z.setflags(write=False)
    return z


def sample_on_grid(f: HardyVector, m: int | None = None) -> BoundaryGrid:
    """Boundary samples of f via zero-padded inverse FFT."""
    if m is None:
        m = default_grid_size(f.order)
    return BoundaryGrid(_boundary_samples(f.coeffs[:, None], m)[:, 0])


def boundary_to_coefficients(grid: BoundaryGrid, order: int) -> tuple[HardyVector, float]:
    """Analytic projection of boundary samples onto coefficients 0..order-1.

    Returns the projected HardyVector together with the l2 norm of the
    discarded bins (negative frequencies and the positive tail alike).
    """
    coeffs, residuals = _project(grid.samples[:, None], order)
    return HardyVector(coeffs[:, 0]), float(residuals[0])


def multiply_by_boundary(
    f: np.ndarray, boundary_values: np.ndarray, order: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Project f(z) * g(z) for each coefficient column of the N x d matrix f,
    given g's samples on a grid of matching size.

    Returns the matrix of projected columns and one dropped l2 norm per
    column, from one inverse FFT and one FFT.
    """
    g = np.asarray(boundary_values, dtype=np.complex128)
    cols = _coefficient_matrix(f)
    samples = _boundary_samples(cols, g.size) * g[:, None]
    return _project(samples, cols.shape[0] if order is None else order)


def _boundary_samples(cols: np.ndarray, m: int) -> np.ndarray:
    """Samples at the m-th roots of unity of each column of cols, by one inverse FFT."""
    if m < cols.shape[0]:
        raise ValueError(f"grid size {m} below truncation order {cols.shape[0]}")
    padded = np.zeros((m, cols.shape[1]), dtype=np.complex128)
    padded[: cols.shape[0]] = cols
    return np.fft.ifft(padded, axis=0) * m


def _project(samples: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients 0..order-1 of each column of boundary samples (one FFT),
    and the l2 norm of each column's discarded bins."""
    m = samples.shape[0]
    if m < 2 * order:
        raise ValueError(f"grid size {m} < 2*order = {2 * order}: projection would alias")
    bins = np.fft.fft(samples, axis=0) / m
    return bins[:order], np.linalg.norm(bins[order:], axis=0)
