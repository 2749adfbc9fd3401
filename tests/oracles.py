"""Reference implementations that tests compare the package against."""

from __future__ import annotations

import numpy as np


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
