"""Truncated Hankel matrices and the operator identities they satisfy.

The anti-linear operator acts as f -> Gamma @ conj(f) on coefficient
vectors, where Gamma[n, m] = u_hat(n + m): a HankelMatrix is its 2N-1
exactly generated coefficients, which fix every entry.

For a rational symbol Gamma[n, m] decays like |b|^(n + m), so the N x N matrix
is numerically its leading J x J block (HankelMatrix.numerical_order): the
part outside has l2 norm at most eps^2 c, c the largest column norm.  The
SVD in spectral works on that block, and hankel_apply applies it, Gamma_J,
so every product with Gamma costs O(J^2).  J is read once per matrix from
the coefficients in O(N), and kept.  The one J x J array, Gamma_J / 2^e
(HankelMatrix.block), is built from them once, and the full N x N Gamma only
when a caller asks for it, so an analysis allocates no N x N array.

The identity residuals hold exactly for every Hankel matrix, so
residuals_from_matrix returns their exact values in closed form, in O(N).
Given any square array instead, such as a fault-injected one, it compares
the identities entry by entry in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
import scipy.linalg

from .hardy import _as_coeffs, _frozen
from .symbols import RationalSymbol, fourier_coefficients

__all__ = [
    "HankelMatrix",
    "IdentityResiduals",
    "build_hankel_matrix",
    "hankel_apply",
    "residuals_from_matrix",
]

_EPS = float(np.finfo(float).eps)
_SQRT_MAX = float(np.sqrt(np.finfo(float).max))


class HankelMatrix:
    """N x N block of the Hankel matrix of a symbol, given by its 2N-1
    coefficients u_hat(0..2N-2), and nothing else: the truncation tail
    bound belongs to the symbol (symbols.tail_bound).

    The first N coefficients are Gamma's first column (`u`), so Gamma alone
    carries everything extraction and verification read.  No N x N array is
    built up front: the analysis reads only `block`, Gamma_J / 2^exponent,
    built from the 2J-1 scaled coefficients, and `u`; the full `gamma` is
    built on first access and kept.  The coefficients are copied and made
    read-only (_frozen), so no caller's array can change them, and refused
    unless finite (_as_coeffs).  The decay profile (_decay) and J are
    computed once, in O(N), and kept.  The profile is made of suffix sums,
    summed from the tail: the sums the cut compares are about eps^4 of the
    total, and a difference of prefix sums of order 1 would cancel them.
    They also give the block's column norms (column_norms).
    """

    def __init__(self, coeffs):
        c = _frozen(coeffs)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValueError(f"coeffs must hold 2N-1 values, got shape {c.shape}")
        self.__dict__.update(coeffs=_as_coeffs(c), order=(c.size + 1) // 2)

    def __setattr__(self, name, value):
        raise AttributeError(f"HankelMatrix is read-only: cannot set {name!r}")

    @cached_property
    def gamma(self) -> np.ndarray:
        """The full N x N matrix, built on first access."""
        return _hankel(self.coeffs, self.order)

    @cached_property
    def block(self) -> np.ndarray:
        """Gamma_J / 2^exponent, J = numerical_order(): the one array the
        analysis factors and multiplies by, read-only and C-contiguous, built
        from the 2J-1 scaled coefficients."""
        j, e = self.numerical_order(), self.exponent
        return _hankel(_ldexp(self.coeffs[: 2 * j - 1], -e), j)

    @property
    def exponent(self) -> int:
        """frexp exponent e of largest_entry, so |block| < 1; 0 if Gamma is 0.
        Found once, with the decay profile."""
        return self._decay[4]

    @property
    def u(self) -> np.ndarray:
        """u_hat(0..N-1), Gamma's first column: a read-only view of coeffs."""
        return self.coeffs[: self.order]

    @property
    def largest_entry(self) -> float:
        """max |Gamma[n, m]|."""
        return self._decay[0]

    def numerical_order(self) -> int:
        """Smallest order J >= min(2, N) at which Gamma is numerically its leading J x J block.

        Outside that block Gamma has l2 norm at most eps^2 times its largest
        column norm, itself at most ||Gamma||_2.  J does not depend on the
        scale of Gamma.  It is found once per matrix, with the decay profile.
        """
        return self._decay[1]

    def column_norms(self) -> np.ndarray:
        """The column norms of block, from the coefficients' suffix sums in
        O(J): column j of Gamma_J weighs Q[j] - Q[j + J].  Gamma must be
        finite and nonzero."""
        j, q = self.numerical_order(), self._decay[3]
        return np.sqrt(q[:j] - q[j : 2 * j]) * np.frexp(self.largest_entry)[0]

    @cached_property
    def _decay(self) -> tuple[float, int, float, np.ndarray | None, int]:
        """(largest |entry|, J, column, Q, e), sums on the scale of the largest
        entry, e its frexp exponent.

        With a_k = |u_hat(k)|^2 on that scale and Q[k] the sum of a_i over
        i >= k, the entries with max(i, j) = m add up to 2 (Q[m] - Q[2m]) +
        a_2m, and column j to Q[j] - Q[j + N].  J is the first order
        >= min(2, N) whose dropped[J], the sum of the squared entries outside
        the leading J x J block, is at most eps^4 column, the largest such sum
        over one column.  Q is None when Gamma is zero.
        """
        n, floor = self.order, min(2, self.order)
        a = np.abs(self.coeffs)
        largest = a.max(initial=0.0)
        if largest == 0:
            return largest, floor, 0.0, None, 0
        a = (a / largest) ** 2
        q = _suffix_sums(a)
        shell = 2 * (q[:n] - q[: 2 * n : 2]) + a[::2]  # the shells m = 0 .. N-1
        column = (q[:n] - q[n:]).max()
        fits = np.flatnonzero(_suffix_sums(shell)[floor:] <= _EPS**4 * column)
        return largest, floor + int(fits[0]) if fits.size else n, column, q, math.frexp(largest)[1]


def _hankel(coeffs: np.ndarray, j: int) -> np.ndarray:
    """The read-only j x j Hankel matrix of coeffs[:2j-1]."""
    g = scipy.linalg.hankel(coeffs[:j], coeffs[j - 1 : 2 * j - 1])
    g.setflags(write=False)
    return g


def _ldexp(z: np.ndarray, e: int) -> np.ndarray:
    """A read-only complex copy of z times 2^e, exact unless a part under- or overflows."""
    out = np.empty(z.shape, dtype=np.complex128)
    np.ldexp(z.real, e, out=out.real)
    np.ldexp(z.imag, e, out=out.imag)
    out.setflags(write=False)
    return out


def _suffix_sums(x: np.ndarray) -> np.ndarray:
    """s[k] = sum of x[i] over i >= k, for k = 0..len(x); s[len(x)] = 0."""
    return np.append(np.cumsum(x[::-1])[::-1], 0.0)


def build_hankel_matrix(sym: RationalSymbol, order: int) -> HankelMatrix:
    """Gamma[n, m] = u_hat(n + m) from the 2*order - 1 exact coefficients of
    a RationalSymbol; a coefficient vector c is the symbol
    RationalSymbol(poly=c).

    Raises ValueError when N max|u_hat| reaches sqrt(float max), where the
    closed-form identity residuals ||v||^2 can overflow
    (residuals_from_matrix); the factorization itself runs on Gamma_J / 2^e
    and would not.
    """
    if not isinstance(sym, RationalSymbol):
        raise TypeError(f"build_hankel_matrix takes a RationalSymbol, not {type(sym).__name__}")
    h = HankelMatrix(fourier_coefficients(sym, 2 * order - 1))
    if not order * h.largest_entry < _SQRT_MAX:
        raise ValueError(
            f"coefficients up to {h.largest_entry:.3e} overflow the square of Gamma at order "
            f"{order}: N max|u_hat| must stay below {_SQRT_MAX:.3e}"
        )
    return h


def hankel_apply(h: HankelMatrix, f: np.ndarray) -> np.ndarray:
    """Anti-linear action f -> Gamma_J @ conj(f), J = h.numerical_order(),
    on a coefficient vector f of length N, or on each column of an N x m
    matrix f by one matrix product; any other shape is refused.

    Gamma_J is Gamma with the entries outside its leading J x J block set to
    zero, the block the SVD in spectral factors: only f[:J] is read, rows
    J..N-1 of the result are zero, and the product costs O(J^2) per column.
    It multiplies by h.block = Gamma_J / 2^e and scales back, exact where normal.
    Outside the block Gamma has Frobenius norm at most eps^2 c,
    c <= ||Gamma|| its largest column norm, so the result is within
    eps^2 ||Gamma|| ||f|| of Gamma @ conj(f).  In an action residual,
    divided by a singular value s > RANK_TOL s_max = 1e-10 ||Gamma||, that
    is at most eps^2 1e10 ||f|| <= 5e-22 ||f||.
    """
    f = np.asarray(f)
    if f.ndim not in (1, 2) or f.shape[0] != h.order:
        raise ValueError(f"order mismatch: matrix {h.order}, input of shape {f.shape}")
    j = h.numerical_order()
    out = np.zeros(f.shape, dtype=np.complex128)
    out[:j] = _ldexp(h.block @ np.conj(f[:j]), h.exponent)
    return out


@dataclass(frozen=True)
class IdentityResiduals:
    """Interior-block operator-norm residuals of the Hankel identities."""

    shift_intertwine: float        # S* H = H S, entrywise on the interior block
    square_compression: float      # S* H^2 S = H^2 - (., u) u
    square_commutator: float       # S* H^2 - H^2 S* = (., 1) S* H u - (., S u) u
    symmetry: float                # (H f, g) = (H g, f), i.e. Gamma = Gamma^T

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def residuals_from_matrix(h) -> IdentityResiduals:
    """Residuals of the operator identities of Gamma, with u its first column.

    Each residual is the spectral norm of a difference matrix, compared one
    short of the truncation edge.  h is a HankelMatrix, or any square array
    Gamma (the fault-injection entry point, and the reference the closed
    form is tested against), whose differences are formed from Gamma and
    Gamma conj(Gamma) in full.

    For a HankelMatrix, with coefficients a_k = u_hat(k), k = 0..2N-2, the
    differences are known exactly.  Gamma[i, j] = a_(i+j), so the shift and
    symmetry differences vanish.  Gamma conj(Gamma) has the entries
    M[i, j] = sum over l < N of a_(i+l) conj(a_(l+j)), and moving i and j up
    by one moves the window of l by one: M[i+1, j+1] - M[i, j] =
    a_(i+N) conj(a_(j+N)) - a_i conj(a_j), where (., u) u adds a_i conj(a_j)
    back.  So, with v = (a_N, ..., a_(2N-2)), Gamma's last row without its
    first entry, the square-compression difference is v v^H, of norm
    ||v||^2.  In the square commutator, column j >= 1 is the same with j - 1
    in place of j, and in column 0, M[i+1, 0] = (Gamma conj(u))[i+1] cancels:
    the difference is v [0, w^H] with w = v[:-1], of norm ||v|| ||w||.
    These are read from v in O(N), with no product and no SVD.
    """
    if isinstance(h, HankelMatrix):
        v = h.coeffs[h.order :]
        nv, nw = np.linalg.norm(v), np.linalg.norm(v[:-1])
        return IdentityResiduals(0.0, float(nv * nv), float(nv * nw), 0.0)

    gamma = np.asarray(h)
    if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {gamma.shape}")
    u = gamma[:, 0]
    k = gamma.shape[0] - 1

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
