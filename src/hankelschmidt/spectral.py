"""Schmidt subspaces and subspace distances.

Schmidt subspaces ker(H^2 - s^2) are left singular subspaces of Gamma, so one
factorization per matrix gives the blocks, the singular values and the
numerical rank.  It works on Gamma's leading J x J block,
J = HankelMatrix.numerical_order(), whose outside entries are below
eps^2 ||Gamma||, and stops at that block's numerical rank k: a basis Q of its
range, certified by an explicit residual, and the SVD of the k x J matrix
Q^H Gamma_J.  For a rational symbol k is the degree, so the cost is O(J^2 k).
The pivoted QR and the SVD call LAPACK (zgeqp3 and zungqr, zgesdd) through
scipy.linalg.lapack directly, with the workspaces scipy's own qr and svd
query, so they give the same bits without scipy's per-call checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .hankel import HankelMatrix
from .hardy import _frozen

__all__ = [
    "SchmidtBlock",
    "SchmidtBlocks",
    "schmidt_decompose",
    "subspace_gap",
    "orthonormalize",
]

RANK_TOL = 1e-10  # singular values at or below RANK_TOL * s_max are the kernel
RANGE_TOL = 1e-3 * RANK_TOL  # range-basis residual, relative to the largest column norm
RANGE_BLOCK = 8  # columns taken by the first range-basis step


@dataclass(frozen=True)
class SchmidtBlock:
    """One singular value with an orthonormal basis of its Schmidt subspace
    (any basis: only its span carries meaning).  The basis is a read-only
    copy of the input, so no caller's array can change it.  A block is
    reliable exactly when it carries no warnings."""

    s: float
    basis: np.ndarray
    spread: float = 0.0
    separation: float = np.inf
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        b = _frozen(self.basis)
        if b.ndim != 2 or b.shape[1] == 0:
            raise ValueError(f"basis must be an N x d matrix with d >= 1, got shape {b.shape}")
        object.__setattr__(self, "basis", b)

    @property
    def reliable(self) -> bool:
        return not self.warnings

    @property
    def multiplicity(self) -> int:
        return self.basis.shape[1]

    @property
    def order(self) -> int:
        return self.basis.shape[0]


class SchmidtBlocks(list):
    """Schmidt blocks by descending s, with every singular value of Gamma.

    singular_values comes from the same factorization as the blocks: N values,
    descending.  The first k are the singular values of Q^H Gamma_J; the rest,
    all kernel, are exact zeros.
    """

    def __init__(self, blocks, singular_values: np.ndarray):
        super().__init__(blocks)
        self.singular_values = singular_values
        self.singular_values.setflags(write=False)


def _range_basis(a: np.ndarray, norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal Q (J x k) of the numerical range of a, and B = Q^H a, given a's column norms.

    Deterministic blocked column pivoting: each step takes the largest
    columns of the residual a - Q B, RANGE_BLOCK of them or as many as the
    rank so far, keeps those whose pivoted-QR diagonal exceeds tol / sqrt(J),
    and orthogonalizes them against Q twice; the first step's columns are
    the pivoted QR's own orthonormal Q, with nothing to orthogonalize
    against, and they start Q and B.  It stops once the residual, recomputed
    in place from Q and B at every step, has Frobenius norm at most
    tol = RANGE_TOL * (largest column norm of a), or once k = J.  The
    largest residual column always exceeds tol / sqrt(J), so every step adds
    a column, and a full-rank a takes O(log J) steps of matrix products.
    """
    j = a.shape[0]
    tol = RANGE_TOL * norms.max()
    resid, k = a, 0
    while True:
        pick = np.argsort(-norms, kind="stable")[: max(RANGE_BLOCK, k)]
        w, r, _ = _pivoted_qr(resid[:, pick])
        w = w[:, np.abs(np.diag(r)) > tol / np.sqrt(j)][:, : j - k]
        if k:
            for _ in range(2):
                w = w - q @ (q.conj().T @ w)
            w, _ = np.linalg.qr(w)
            q, b = np.hstack([q, w]), np.vstack([b, w.conj().T @ a])
        else:
            q, b = w, w.conj().T @ a
        k = q.shape[1]
        if k == j:
            break
        resid = q @ b
        np.subtract(a, resid, out=resid)
        if np.sqrt(np.vdot(resid, resid).real) <= tol:
            break
        norms = np.linalg.norm(resid, axis=0)
    return q, b


def _pivoted_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Q, R and the pivots of scipy.linalg.qr(a, mode="economic", pivoting=True)
    for a complex m x n matrix, R as the upper triangle of the min(m, n) x n
    array returned (zgeqp3's packed form, reflectors below the diagonal):
    zgeqp3, then zungqr on its first min(m, n) columns."""
    qr, pivots, tau = _lapack("zgeqp3", a)
    r = qr[: a.shape[1]].copy()
    (q,) = _lapack("zungqr", qr[:, : qr.shape[0]], tau, overwrite_a=1)
    return q, r, pivots - 1


def _svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U and s of scipy.linalg.svd(a, full_matrices=False) for a complex matrix: zgesdd."""
    work, _ = lapack.zgesdd_lwork(*a.shape, compute_uv=1, full_matrices=0)
    u, s, _, info = lapack.zgesdd(a, compute_uv=1, full_matrices=0, lwork=int(work.real))
    _check_info("zgesdd", info)
    return u, s


def _lapack(name: str, *args, **kwargs) -> list:
    """The outputs of the LAPACK routine scipy.linalg.lapack.<name>, which
    takes lwork, before its work array and info, run with the workspace its
    query (lwork = -1) asks for."""
    routine = getattr(lapack, name)
    lwork = int(routine(*args, lwork=-1, **kwargs)[-2][0].real)
    *out, _, info = routine(*args, lwork=lwork, **kwargs)
    _check_info(name, info)
    return out


def _check_info(name: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {name} failed: info = {info}")


def schmidt_decompose(h: HankelMatrix, cluster_tol: float = 1e-8) -> SchmidtBlocks:
    """Schmidt blocks of Gamma and all its singular values, from one factorization.

    Singular values s <= RANK_TOL * s_max are the kernel, so the blocks'
    multiplicities add up to the numerical rank.  The rest are split into
    runs that stay within cluster_tol (relative) of the run's first value,
    each yielding one block with s = sqrt(mean s^2) and its left singular
    vectors as the factorization gives them: no check or report reads more
    than their span.  There are no blocks when Gamma is zero.  Spread,
    separation and the noise floor eps * s_max * N are on the scale of s,
    where the factorization's error is about eps * s_max; clusters whose gap
    is within 10x of their spread or of the noise floor are flagged as
    unreliable.

    Only the leading J x J block is factored, J = h.numerical_order():
    the entries outside it move no singular value by more than eps^2 ||Gamma||,
    and a singular subspace by at most that over its gap.  Each of them is at
    most eps^2 c < c / sqrt(N) <= max |Gamma|, c the largest column norm, so
    Gamma's largest entry lies in the block.  h.block is the block divided
    by the power of two at that entry, exactly; _range_basis gives Q (J x k)
    and B = Q^H Gamma_J on that scale, with a residual E = Gamma_J - Q B of
    Frobenius norm at most RANGE_TOL times the largest column norm.
    Gamma_J^H Gamma_J = B^H B + E^H E, so every singular value
    left out is at most ||E||_F, far below the kernel cutoff, and every kept
    s^2 moves by at most ||E||_F^2.  The left singular vectors are Q U_B from
    the SVD of B, zero-padded to N rows; s is padded with N - k exact zeros.
    Each block's s is averaged on that scale, where its squares do not underflow.
    """
    if not 0 < cluster_tol < 1:
        raise ValueError(f"cluster_tol must lie in (0, 1), got {cluster_tol}")
    n, j = h.order, h.numerical_order()
    sing = np.zeros(n)
    if h.largest_entry == 0:
        return SchmidtBlocks([], sing)
    q, b = _range_basis(h.block, h.column_norms())
    u_b, sing_b = _svd(b)
    k = sing_b.size
    sing[:k] = np.ldexp(sing_b, h.exponent)
    # column-major, so each block's basis is F-contiguous: later products with
    # it round by their operands' layout, and the reports rely on those bits
    left = np.zeros((n, k), dtype=np.complex128, order="F")
    left[:j] = q @ u_b
    vals = sing[:k].tolist() + [0.0]  # the kernel's exact zero below the last
    s_max, e = vals[0], h.exponent
    starts: list[int] = []
    for stop, s in enumerate(vals):
        if s <= RANK_TOL * s_max:
            break
        if not (starts and vals[starts[-1]] - s < cluster_tol * vals[starts[-1]]):
            starts.append(stop)
    noise_floor = np.finfo(float).eps * s_max * n
    squares, blocks = sing_b**2, []  # each block's s: the root mean square of its run
    for first, end in zip(starts, starts[1:] + [stop]):
        spread = vals[first] - vals[end - 1]
        separation = vals[end - 1] - vals[end]
        if first > 0:
            separation = min(separation, vals[first - 1] - vals[first])
        warns = []
        if separation < 10 * max(spread, noise_floor):
            warns.append("ill-separated cluster: results near this gap are unreliable")
        if end - first > 1 and spread > 1e3 * noise_floor:
            warns.append("cluster spread far above noise floor: possible false merge")
        blocks.append(
            SchmidtBlock(
                s=math.ldexp(math.sqrt(squares[first:end].sum() / (end - first)), e),
                basis=left[:, first:end],
                spread=spread,
                separation=separation,
                warnings=tuple(warns),
            )
        )
    return SchmidtBlocks(blocks, sing)


# ---------------------------------------------------------------------------
# subspace geometry


def orthonormalize(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span (QR; assumes full column rank)."""
    q, full_rank = _orthonormal_columns(np.asarray(vectors, dtype=np.complex128))
    if not full_rank:
        raise ValueError("columns are numerically rank deficient")
    return q


def _orthonormal_columns(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q of the QR of an N x d matrix, or of each matrix in a stack, and
    whether it has full column rank: min |R_kk| >= 1e-12 max(1, max |R_kk|)."""
    q, r = np.linalg.qr(v)
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    return q, ~(diag.min(axis=-1) < 1e-12 * np.maximum(1.0, diag.max(axis=-1)))


def _nullspace_of_row(row: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as columns) of the vectors annihilated by a 1 x d row;
    for a nonzero row with one entry that is the empty 1 x 0 basis.  A stack
    of nonzero rows (m x 1 x d) gives the stack of their bases."""
    if np.linalg.norm(row) < 1e-14:
        return np.eye(row.shape[-1], dtype=np.complex128)
    if row.shape[-1] == 1:
        return np.zeros(row.shape[:-2] + (1, 0), dtype=np.complex128)
    _, _, vh = np.linalg.svd(row)
    return np.conj(vh[..., 1:, :]).swapaxes(-1, -2)


def subspace_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Operator-norm distance ||P_A - P_B|| between two subspaces.

    Both inputs are N x d matrices with orthonormal columns (checked to
    1e-8); the result lies in [0, 1], and for equal dimensions it is
    ||B - A A^* B||, the sine of the largest principal angle.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"ambient dimensions differ: {a.shape[0]} vs {b.shape[0]}")
    gap, not_orthonormal = _subspace_gaps(a, b)
    for name, bad in zip(("first", "second"), not_orthonormal):
        if bad:
            raise ValueError(f"{name} basis is not orthonormal to 1.0e-08")
    return float(gap)


def _subspace_gaps(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, tuple]:
    """subspace_gap of two N x d matrices, or of two stacks of them pair by
    pair, and for a and for b whether each fails the 1e-8 orthonormality
    check; a gap is only meaningful where neither does."""
    not_orthonormal = tuple(
        np.linalg.norm(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1]), axis=(-2, -1)) > 1e-8
        for m in (a, b)
    )
    if a.shape[-1] != b.shape[-1] or a.shape[-1] == 0:
        return np.full(a.shape[:-2], float(a.shape[-1] != b.shape[-1])), not_orthonormal
    resid = b - a @ (a.conj().swapaxes(-1, -2) @ b)
    return np.minimum(1.0, _largest_singular_value(resid)), not_orthonormal


def _largest_singular_value(a: np.ndarray) -> np.ndarray:
    """||a||_2 of an N x d matrix, or of each matrix in a stack: the square
    root of the largest eigenvalue of the d x d Gram matrix a^H a, which
    eigvalsh finds to within eps of itself, so the result is accurate to
    eps relative, as from an SVD, at the cost of a d x d problem."""
    top = np.linalg.eigvalsh(a.conj().swapaxes(-1, -2) @ a)[..., -1]
    return np.sqrt(np.maximum(top, 0.0))
