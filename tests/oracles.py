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
