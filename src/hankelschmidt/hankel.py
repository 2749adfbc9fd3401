"""Truncated Hankel matrices and the operator identities they satisfy.

The anti-linear operator acts as f -> Gamma @ conj(f) on coefficient
vectors, where Gamma[n, m] = u_hat(n + m) is filled from 2N-1 exactly
generated coefficients.

For a rational symbol Gamma[n, m] decays like |b|^(n + m), so the N x N matrix
is numerically its leading J x J block (HankelMatrix.numerical_order): the
part outside has l2 norm at most eps^2 c, c the largest column norm, and the
SVD in spectral works on that block.  The identity residuals here are
rounding noise of about eps c^2 and work on a smaller block, cut where the
part outside is at most 1e-4 eps c (residuals_from_matrix).  Both cuts read
one decay profile per matrix.  For a matrix from build_hankel_matrix it
comes from the 2N-1 coefficients in O(N), since every entry of Gamma is one
of them; only a matrix given entry by entry is scanned in full.  A pole
near the circle, such as 0.99, keeps both blocks at order N.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .hardy import HardyVector, hardy
from .symbols import _as_symbol, fourier_coefficients, tail_bound

__all__ = [
    "HankelMatrix",
    "IdentityResiduals",
    "build_hankel_matrix",
    "hankel_apply",
    "residuals_from_matrix",
]

_EPS = float(np.finfo(float).eps)
# identity residuals cut Gamma where its dropped part is below this times c
_RESIDUAL_TOL = 1e-4 * _EPS


@dataclass(frozen=True)
class HankelMatrix:
    """N x N block of the Hankel matrix of a symbol, with its truncation tail.

    The symbol's coefficients u_hat(0..N-1) are Gamma's first column (`u`),
    so Gamma alone carries everything extraction and verification read.
    build_hankel_matrix also keeps all 2N-1 coefficients (`coeffs`), which
    must equal Gamma's first column followed by the rest of its last row; a
    matrix given entry by entry has none.  Gamma is read-only, copied first
    when given as a view (its base could still change it), and coeffs is a
    read-only copy, so the decay profile (_decay) is computed once and
    kept: from coeffs in O(N) when they are there, else by a scan of all of
    Gamma.  From coeffs it is made of suffix sums, summed from the tail:
    the sums the cuts compare are about eps^4 of the total, and a
    difference of prefix sums of order 1 would cancel them.
    """

    gamma: np.ndarray
    tail: float = 0.0
    coeffs: np.ndarray | None = None

    def __post_init__(self):
        g = _frozen(self.gamma)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {g.shape}")
        object.__setattr__(self, "gamma", g)
        if self.coeffs is None:
            return
        c = _frozen(np.array(self.coeffs, dtype=np.complex128))
        n = g.shape[0]
        if c.shape != (2 * n - 1,) or not (
            np.array_equal(c[:n], g[:, 0], equal_nan=True)
            and np.array_equal(c[n - 1 :], g[-1], equal_nan=True)
        ):
            raise ValueError("coeffs must be Gamma's first column followed by the rest of its last row")
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return self.gamma.shape[0]

    @property
    def u(self) -> np.ndarray:
        """u_hat(0..N-1), Gamma's first column as a contiguous copy."""
        return self.gamma[:, 0].copy()

    @property
    def largest_entry(self) -> float:
        """max |Gamma[n, m]|; inf or nan when Gamma is not finite."""
        return self._decay[0]

    def numerical_order(self, tol: float = _EPS**2) -> int:
        """Smallest order J >= min(2, N) at which Gamma is numerically its leading J x J block.

        Outside that block Gamma has l2 norm at most tol (eps^2 unless given)
        times its largest column norm, itself at most ||Gamma||_2.  J does
        not depend on the scale of Gamma.  Noise above that level, or a
        non-finite entry, gives J = N.
        """
        n = self.order
        floor = min(2, n)
        largest, dropped, column = self._decay
        if largest == 0:
            return floor
        if not np.isfinite(largest):
            return n
        fits = np.flatnonzero(dropped[floor:] <= tol**2 * column)
        return floor + int(fits[0]) if fits.size else n

    @cached_property
    def _decay(self) -> tuple[float, np.ndarray, float]:
        """(largest |entry|, dropped, column) on the scale of the largest entry.

        dropped[J] (J = 0..N) sums the squared entries outside the leading
        J x J block, and column is the largest such sum over one column.
        From coeffs, with a_k = |u_hat(k)|^2 on that scale and Q[k] the sum
        of a_i over i >= k: the entries with max(i, j) = m add up to
        2 (Q[m] - Q[2m]) + a_2m, and column j to Q[j] - Q[j + N].
        """
        n = self.order
        a = np.abs(self.gamma if self.coeffs is None else self.coeffs)
        largest = a.max(initial=0.0)
        if largest == 0 or not np.isfinite(largest):
            return largest, np.zeros(0), 0.0
        a = (a / largest) ** 2
        if self.coeffs is None:
            # shell[k]: squared entries with max(i, j) == k
            shell = np.tril(a).sum(axis=1) + np.triu(a, 1).sum(axis=0)
            column = a.sum(axis=0).max()
        else:
            q = _suffix_sums(a)
            m = np.arange(n)
            shell = 2 * (q[m] - q[2 * m]) + a[2 * m]
            column = (q[:n] - q[n:]).max()
        return largest, _suffix_sums(shell), column


def _frozen(x) -> np.ndarray:
    """x as a read-only complex array that no other array can write to."""
    a = np.asarray(x, dtype=np.complex128)
    if a.base is not None:
        a = a.copy()
    a.setflags(write=False)
    return a


def _suffix_sums(x: np.ndarray) -> np.ndarray:
    """s[k] = sum of x[i] over i >= k, for k = 0..len(x); s[len(x)] = 0."""
    return np.append(np.cumsum(x[::-1])[::-1], 0.0)


def build_hankel_matrix(sym, order: int) -> HankelMatrix:
    """Gamma[n, m] = u_hat(n + m) from 2*order - 1 exact coefficients.

    Accepts a RationalSymbol or a raw coefficient vector (treated as a
    polynomial symbol).
    """
    sym = _as_symbol(sym)
    u = fourier_coefficients(sym, 2 * order - 1).coeffs
    gamma = scipy.linalg.hankel(u[:order], u[order - 1 :])
    return HankelMatrix(gamma=gamma, tail=tail_bound(sym, order), coeffs=u)


def hankel_apply(h: HankelMatrix, f: HardyVector) -> HardyVector:
    """Anti-linear action f -> Gamma @ conj(f)."""
    f = hardy(f)
    if f.order != h.order:
        raise ValueError(f"order mismatch: matrix {h.order}, vector {f.order}")
    return HardyVector(h.gamma @ np.conj(f.coeffs))


@dataclass(frozen=True)
class IdentityResiduals:
    """Interior-block operator-norm residuals of the Hankel identities."""

    shift_intertwine: float        # S* H = H S, entrywise on the interior block
    square_compression: float      # S* H^2 S = H^2 - (., u) u
    square_commutator: float       # S* H^2 - H^2 S* = (., 1) S* H u - (., S u) u
    symmetry: float                # (H f, g) = (H g, f), i.e. Gamma = Gamma^T

    def as_dict(self) -> dict:
        return asdict(self)

    def max(self) -> float:
        return max(self.as_dict().values())


def residuals_from_matrix(h: HankelMatrix) -> IdentityResiduals:
    """Residuals of the operator identities of Gamma = h.gamma, with u its first column.

    Gamma may be any square matrix (the fault injection entry point).  The
    comparisons stop one short of the truncation edge, and only the leading
    block of order m = J_r + 2 is used, J_r = h.numerical_order(_RESIDUAL_TOL):
    outside the leading J_r x J_r block, gamma has l2 norm at most delta c,
    with delta = _RESIDUAL_TOL = 1e-4 eps and c the largest column norm of
    gamma.  The residuals are rounding noise of about eps c^2, so this cut
    is looser than the spectral one (eps^2 c), and any fault larger than
    delta c lies inside the block.  When m >= N this is the full computation.

    Why the values hold.  Let E = gamma - gamma_J, where gamma_J is zero at
    every index >= J_r, so ||E||_F <= delta c.  u and u_J are the first
    columns of gamma and gamma_J, so ||u|| <= c, and e = u - u_J is a slice
    of E: ||e|| <= ||E||_F <= delta c.  Use ||gamma||_2 <= ||gamma||_F <= sqrt(N) c.
    (1) For gamma_J every full difference matrix vanishes outside its
    leading block of order J_r + 1: an entry there reads an index >= J_r,
    square_commutator's column j reading gamma_J conj(gamma_J) and u_J at
    j - 1.  So the full residuals of gamma_J are the trimmed ones of its
    leading m x m block, m = J_r + 2.  (2) Replacing gamma_J by gamma, in
    the full computation or in the trimmed one, moves the difference
    matrices in Frobenius norm, and so each spectral norm, by at most:
    2 delta c for shift_intertwine and symmetry (each entry of E enters
    twice); for square_compression 2 delta c (||gamma|| + ||gamma_J||) from
    the two slices of gamma conj(gamma) = gamma_J conj(gamma_J) + E conj(gamma)
    + gamma_J conj(E), plus 2 ||u|| delta c from u u^H, together
    (4 sqrt(N) + 2) delta c^2; for square_commutator one more term,
    gamma conj(u) - gamma_J conj(u_J) = E conj(u) + gamma_J conj(e), so
    (5 sqrt(N) + 3) delta c^2.  (1) and (2) twice give |trimmed - full|
    <= 4 delta c for the two linear residuals and <= (10 sqrt(N) + 6)
    delta c^2 for the two squares, at most 7.3e-18 c^2 for N <= 1024.
    This bounds the exact values; the products inside the block round alike
    on both sides.
    """
    m = min(h.order, h.numerical_order(_RESIDUAL_TOL) + 2)
    gamma, u = h.gamma[:m, :m], h.u[:m]
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
