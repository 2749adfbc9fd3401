"""Truncated Hardy-space arithmetic on the unit disk.

A function in H^2 is a 1-D complex array of its first N Taylor
coefficients, and a family of functions, such as a model-space basis, is
an N x d coefficient matrix whose column k holds function k.  An array
that a value object or a cache keeps is a read-only copy (_frozen, the
package's one read-only rule); a fresh result is a plain array.  Products
of analytic functions are truncated convolutions, so they do not need the
boundary; _support cuts a coefficient vector after its last nonzero
entry, and _series_product convolves the supports of both factors, so a
product with a factor that is exactly zero past order m costs O(N m), not
O(N^2), and a product with z costs O(m).  Boundary values, for functions
that really are evaluated on the circle, live on equispaced grids
e^{2*pi*i*k/M}, built
once per size and shared read-only (grid_points).  A family is sampled
(_boundary_samples), multiplied on the boundary (multiply_by_boundary) or
projected back to coefficients (_project, which keeps the band 0..N-1 and
reports the dropped energy) in one pass: one FFT for all columns,
whatever their number.  Polynomials are evaluated at many points by a
blocked Horner scheme (_horner): one matrix product evaluates every block
of 16 coefficients, and Horner's scheme in z^16 runs over the blocks, so
the Python loop is N/16 steps long, not N.  _lead_rotation is the
package's one rule for fixing a vector's unimodular constant.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "evaluate",
    "grid_points",
    "default_grid_size",
    "multiply_by_boundary",
]


def _frozen(x) -> np.ndarray:
    """A read-only complex copy of x, at least 1-D, that no other array can
    write to: neither the caller's array, which stays writable, nor the base
    of a view."""
    a = np.array(x, dtype=np.complex128, ndmin=1)
    a.setflags(write=False)
    return a


def _as_coeffs(c: np.ndarray) -> np.ndarray:
    """c itself, once it is checked to be nonempty and finite."""
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


def _support(c: np.ndarray) -> np.ndarray:
    """c up to its last nonzero coefficient; its first coefficient when c is zero.

    A convolution with the result equals one with c wherever both are
    defined: the dropped terms are products with exact zeros.
    """
    nz = c.nonzero()[0]
    return c[: nz[-1] + 1 if nz.size else 1]


def _lead_rotation(c: np.ndarray, rel: float):
    """Unimodular rot making the first entry of c above rel * max|c| real
    positive in c * rot; 1.0 when there is none (c = 0).  For a stack of
    vectors, one rotation per vector along the last axis."""
    a = np.abs(c)
    above = a > rel * a.max(axis=-1, keepdims=True)
    lead = np.take_along_axis(c, above.argmax(axis=-1)[..., None], axis=-1)[..., 0]
    lead = np.where(above.any(axis=-1), lead, 1.0)
    return np.conj(lead) / np.abs(lead)


def _series_product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Coefficients 0..n-1 of the product of two power series: the
    convolution of their supports, so it costs O(supp a * supp b), padded
    with zeros to n."""
    out = np.zeros(n, dtype=np.complex128)
    c = np.convolve(_support(a), _support(b))[:n]
    out[: c.size] = c
    return out


def evaluate(f: np.ndarray, z) -> complex | np.ndarray:
    """Evaluate the truncated Taylor series f by Horner's scheme; requires |z| <= 1."""
    zs = np.asarray(z, dtype=np.complex128)
    if np.any(np.abs(zs) > 1 + 1e-12):
        raise ValueError("evaluation point outside the closed unit disk")
    acc = _horner(np.asarray(f), zs)
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


def multiply_by_boundary(
    f: np.ndarray, boundary_values: np.ndarray, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Project f(z) * g(z) for each coefficient column of the N x d matrix f,
    given g's samples on a grid of matching size.

    Returns the matrix of projected columns and one dropped l2 norm per
    column, from one inverse FFT and one FFT.
    """
    g = np.asarray(boundary_values, dtype=np.complex128)
    cols = _coefficient_matrix(f)
    samples = _boundary_samples(cols, g.size) * g[:, None]
    return _project(samples, order)


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
