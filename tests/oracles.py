"""Reference implementations that tests compare the package against, and
builders of test inputs that the package itself does not need."""

from __future__ import annotations

import numpy as np

from hankelschmidt.blaschke import BlaschkeProduct, blaschke_coefficients
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

    This is the loop that `tm_basis` runs with its elements in one array and
    their tails estimated in one pass; the arithmetic of each step is the
    same, so the elements must agree bit for bit.  Returns each element to
    `order` coefficients and its tail estimate.
    """
    from hankelschmidt.blaschke import _series_div

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
