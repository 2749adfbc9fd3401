"""Truncated Hankel matrices and the operator identities they satisfy.

The anti-linear operator acts as f -> Gamma @ conj(f) on coefficient
vectors, where Gamma[n, m] = u_hat(n + m) is filled from 2N-1 exactly
generated coefficients.  The linear realization is f -> Gamma @ f, and the
two are linked by plain coefficientwise conjugation.

For a rational symbol Gamma[n, m] decays like |b|^(n + m), so the N x N matrix
is numerically its leading J x J block (_numerical_order); the identity
residuals here and the SVD in spectral work on that block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .hardy import HardyVector, hardy
from .symbols import _as_symbol, fourier_coefficients, tail_bound

__all__ = [
    "HankelMatrix",
    "IdentityResiduals",
    "build_hankel_matrix",
    "hankel_apply",
    "linear_hankel_apply",
    "conjugation_C",
    "identity_residuals",
    "residuals_from_matrix",
]


@dataclass(frozen=True)
class HankelMatrix:
    """N x N block of the Hankel matrix of a symbol, with its truncation tail."""

    gamma: np.ndarray
    tail: float = 0.0

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=np.complex128)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {g.shape}")
        object.__setattr__(self, "gamma", g)
        self.gamma.setflags(write=False)

    @property
    def order(self) -> int:
        return self.gamma.shape[0]


def build_hankel_matrix(sym, order: int) -> HankelMatrix:
    """Gamma[n, m] = u_hat(n + m) from 2*order - 1 exact coefficients.

    Accepts a RationalSymbol or a raw coefficient vector (treated as a
    polynomial symbol).
    """
    sym = _as_symbol(sym)
    u = fourier_coefficients(sym, 2 * order - 1).coeffs
    gamma = scipy.linalg.hankel(u[:order], u[order - 1 :])
    return HankelMatrix(gamma=gamma, tail=tail_bound(sym, order))


def hankel_apply(h: HankelMatrix, f: HardyVector) -> HardyVector:
    """Anti-linear action f -> Gamma @ conj(f)."""
    f = hardy(f)
    if f.order != h.order:
        raise ValueError(f"order mismatch: matrix {h.order}, vector {f.order}")
    return HardyVector(h.gamma @ np.conj(f.coeffs))


def linear_hankel_apply(h: HankelMatrix, f: HardyVector) -> HardyVector:
    """Linear action f -> Gamma @ f."""
    f = hardy(f)
    if f.order != h.order:
        raise ValueError(f"order mismatch: matrix {h.order}, vector {f.order}")
    return HardyVector(h.gamma @ f.coeffs)


def conjugation_C(f: HardyVector) -> HardyVector:
    """Coefficientwise conjugation, realizing C f(z) = conj(f(conj(z)))."""
    return HardyVector(np.conj(hardy(f).coeffs))


@dataclass(frozen=True)
class IdentityResiduals:
    """Interior-block operator-norm residuals of the Hankel identities."""

    shift_intertwine: float        # S* H = H S, entrywise on the interior block
    square_compression: float      # S* H^2 S = H^2 - (., u) u
    square_commutator: float       # S* H^2 - H^2 S* = (., 1) S* H u - (., S u) u
    symmetry: float                # (H f, g) = (H g, f), i.e. Gamma = Gamma^T

    def as_dict(self) -> dict:
        return {
            "shift_intertwine": self.shift_intertwine,
            "square_compression": self.square_compression,
            "square_commutator": self.square_commutator,
            "symmetry": self.symmetry,
        }

    def max(self) -> float:
        return max(self.as_dict().values())


def identity_residuals(sym, order: int) -> IdentityResiduals:
    """Residuals of the defining operator identities for the given symbol.

    All comparisons restrict to the leading (order-1) block so that exact
    identities are not polluted by the truncation edge.
    """
    sym = _as_symbol(sym)
    h = build_hankel_matrix(sym, order)
    u = fourier_coefficients(sym, order).coeffs
    return residuals_from_matrix(h.gamma, u)


def residuals_from_matrix(gamma: np.ndarray, u: np.ndarray) -> IdentityResiduals:
    """Identity residuals computed from an explicit matrix (fault injection entry point).

    Only the leading block of order J + 2 is used, J = _numerical_order(gamma, u).
    Every entry of a full difference matrix outside that block reads only
    terms with an index >= J: entries of gamma or u (at most eps^2 ||Gamma||),
    of gamma conj(gamma) (eps^2 ||Gamma||^2) or rank-one products with u
    (eps^2 ||Gamma|| ||u||).  The margin of two covers square_commutator, whose
    column j reads column j - 1 of gamma conj(gamma) and u[j - 1].  When
    J + 2 >= N this is the full computation.
    """
    gamma = np.asarray(gamma, dtype=np.complex128)
    u = np.asarray(u, dtype=np.complex128)
    m = min(gamma.shape[0], _numerical_order(gamma, u) + 2)
    gamma, u = gamma[:m, :m], u[:m]
    k = m - 1

    # Shift products are slices: (S^T A)[i, j] = A[i+1, j] and (A S)[i, j] = A[i, j+1].
    b2 = _opnorm(gamma[1:, :k] - gamma[:k, 1:])

    m2 = gamma @ np.conj(gamma)
    uu = np.outer(u[:k], np.conj(u[:k]))
    b3 = _opnorm(m2[1:, 1:] - (m2[:k, :k] - uu))

    # (A S^T)[i, j] = A[i, j-1]; the rank-one terms fill column 0 and (S u)[j] = u[j-1].
    d4 = m2[1:, :k].copy()
    d4[:, 0] -= (gamma @ np.conj(u))[1:]
    d4[:, 1:] -= m2[:k, : k - 1]
    d4[:, 1:] += uu[:, : k - 1]
    b4 = _opnorm(d4)

    b5 = _opnorm(gamma - gamma.T)

    return IdentityResiduals(
        shift_intertwine=b2,
        square_compression=b3,
        square_commutator=b4,
        symmetry=b5,
    )


def _opnorm(diff: np.ndarray) -> float:
    """Spectral norm, skipping the SVD when the matrix is exactly zero."""
    return float(np.linalg.norm(diff, 2)) if diff.any() else 0.0


def _numerical_order(gamma: np.ndarray, u: np.ndarray | None = None) -> int:
    """Smallest order J >= min(2, N) at which Gamma is numerically its leading J x J block.

    The entries of gamma outside that block, together with the entries of u
    from index J on, have l2 norm at most eps^2 times the largest column norm
    of gamma, itself at most ||Gamma||_2.  Entries are divided by the largest
    one before squaring, so J does not depend on the scale.  For a rational
    symbol, Gamma[n, m] decays like |b|^(n + m), so J is well below N when the
    poles stay well inside the disk; noise above that level, or a non-finite
    entry, gives J = N.
    """
    n = gamma.shape[0]
    floor = min(2, n)
    a = np.abs(gamma)
    v = np.zeros(n) if u is None else np.abs(u)
    scale = max(a.max(initial=0.0), v.max(initial=0.0))
    if scale == 0:
        return floor
    if not np.isfinite(scale):
        return n
    a = (a / scale) ** 2
    # shell[k]: squared entries with max(i, j) == k, and |u[k]|^2
    shell = np.tril(a).sum(axis=1) + np.triu(a, 1).sum(axis=0) + (v / scale) ** 2
    dropped = np.append(np.cumsum(shell[::-1])[::-1], 0.0)
    bound = np.finfo(float).eps ** 4 * a.sum(axis=0).max()
    fits = np.flatnonzero(dropped[floor:] <= bound)
    return floor + int(fits[0]) if fits.size else n
