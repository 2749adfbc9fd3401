"""Schmidt subspaces and subspace distances.

Schmidt subspaces ker(H^2 - s^2) are left singular subspaces of Gamma, so one
SVD per matrix gives the blocks, the singular values and the numerical rank.  The SVD factors only
Gamma's leading J x J block, J = hankel._numerical_order(Gamma): the entries
outside it are below eps^2 ||Gamma||, so the cost follows J, not N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .hankel import HankelMatrix, _numerical_order

__all__ = [
    "SchmidtBlock",
    "SchmidtBlocks",
    "schmidt_decompose",
    "subspace_gap",
    "orthonormalize",
]

RANK_TOL = 1e-10  # singular values at or below RANK_TOL * s_max are the kernel


@dataclass(frozen=True)
class SchmidtBlock:
    """One singular value with an orthonormal basis of its Schmidt subspace."""

    s: float
    basis: np.ndarray
    spread: float = 0.0
    separation: float = np.inf
    reliable: bool = True
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=np.complex128)
        if b.ndim != 2 or b.shape[1] == 0:
            raise ValueError(f"basis must be an N x d matrix with d >= 1, got shape {b.shape}")
        object.__setattr__(self, "basis", b)
        self.basis.setflags(write=False)

    @property
    def multiplicity(self) -> int:
        return self.basis.shape[1]

    @property
    def order(self) -> int:
        return self.basis.shape[0]


class SchmidtBlocks(list):
    """Schmidt blocks by descending s, with every singular value of Gamma.

    singular_values comes from the same SVD as the blocks: all N values,
    descending, the kernel included.
    """

    def __init__(self, blocks, singular_values: np.ndarray):
        super().__init__(blocks)
        self.singular_values = singular_values
        self.singular_values.setflags(write=False)


def _canonical_column_phases(v: np.ndarray) -> np.ndarray:
    out = v.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        mags = np.abs(col)
        idx = np.flatnonzero(mags > 1e-8 * mags.max())
        if idx.size:
            c = col[idx[0]]
            out[:, j] = col * (np.conj(c) / abs(c))
    return out


def _canonical_cluster_basis(vectors: np.ndarray) -> np.ndarray:
    """Basis of span(vectors) that depends only on the subspace, barring exact ties.

    The QR of the projector columns V V^*[:, piv] is rotation-independent; V is
    an isometry, so the pivots of V^* are the projector's.  Exactly tied column
    norms (the symbol z at N=16) leave the pivot to rounding, so the input basis
    decides it.  Column phases are pinned by the first significant entry.
    """
    d = vectors.shape[1]
    vh = vectors.conj().T
    _, piv = scipy.linalg.qr(vh, mode="r", pivoting=True)
    q, _ = scipy.linalg.qr(vectors @ vh[:, piv[:d]], mode="economic")
    return _canonical_column_phases(q)


def schmidt_decompose(h: HankelMatrix, cluster_tol: float = 1e-8) -> SchmidtBlocks:
    """Schmidt blocks of Gamma and all its singular values, from one SVD.

    Singular values s <= RANK_TOL * s_max are the kernel, so the blocks'
    multiplicities add up to the numerical rank.  The rest are split into
    runs that stay within cluster_tol (relative) of the run's first value,
    each yielding one block with s = sqrt(mean s^2) and the canonical basis
    of its left singular vectors.  There are no blocks when s_max is not
    positive and finite.  Spread, separation and the noise floor
    eps * s_max * N are on the scale of s, where the SVD's error is about
    eps * s_max; clusters whose gap is within 10x of their spread or of the
    noise floor are flagged as unreliable.

    Only the leading J x J block is factored, J = _numerical_order(h.gamma):
    the entries outside it move no singular value by more than eps^2 ||Gamma||,
    and a singular subspace by at most that over its gap.  The left factor is
    completed to an N x N unitary by the identity on the trailing coordinates,
    and s by N - J exact zeros; the right singular vectors are freed at once.
    """
    if not 0 < cluster_tol < 1:
        raise ValueError(f"cluster_tol must lie in (0, 1), got {cluster_tol}")
    n, j = h.order, _numerical_order(h.gamma)
    left_j, sing_j = scipy.linalg.svd(h.gamma[:j, :j])[:2]
    left = np.eye(n, dtype=np.complex128)
    left[:j, :j] = left_j
    sing = np.zeros(n)
    sing[:j] = sing_j
    s_max = float(sing[0]) if sing.size else 0.0
    if s_max <= 0 or not np.isfinite(s_max):
        return SchmidtBlocks([], sing)
    clusters: list[list[int]] = []
    for i, s in enumerate(sing):
        if s <= RANK_TOL * s_max:
            break
        if clusters and sing[clusters[-1][0]] - s < cluster_tol * sing[clusters[-1][0]]:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    noise_floor = np.finfo(float).eps * s_max * n
    blocks = []
    for idx in clusters:
        vals = sing[idx]
        spread = float(vals[0] - vals[-1])
        below = sing[idx[-1] + 1] if idx[-1] + 1 < sing.size else 0.0
        separation = float(vals[-1] - below)
        if idx[0] > 0:
            separation = min(separation, float(sing[idx[0] - 1] - vals[0]))
        warns = []
        if separation < 10 * max(spread, noise_floor):
            warns.append("ill-separated cluster: results near this gap are unreliable")
        if len(idx) > 1 and spread > 1e3 * noise_floor:
            warns.append("cluster spread far above noise floor: possible false merge")
        basis = _canonical_cluster_basis(left[:, idx])
        blocks.append(
            SchmidtBlock(
                s=float(np.sqrt(np.mean(vals**2))),
                basis=basis,
                spread=spread,
                separation=separation,
                reliable=not warns,
                warnings=tuple(warns),
            )
        )
    return SchmidtBlocks(blocks, sing)


# ---------------------------------------------------------------------------
# subspace geometry


def orthonormalize(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span (QR; assumes full column rank)."""
    q, r = np.linalg.qr(np.asarray(vectors, dtype=np.complex128))
    if np.min(np.abs(np.diag(r))) < 1e-12 * max(1.0, np.max(np.abs(np.diag(r)))):
        raise ValueError("columns are numerically rank deficient")
    return q


def _nullspace_of_row(row: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as columns) of the vectors annihilated by a 1 x d row."""
    if np.linalg.norm(row) < 1e-14:
        return np.eye(row.shape[1], dtype=np.complex128)
    _, _, vh = np.linalg.svd(row)
    return np.conj(vh[1:, :]).T


def subspace_gap(a: np.ndarray, b: np.ndarray, gram_tol: float = 1e-8) -> float:
    """Operator-norm distance ||P_A - P_B|| between two subspaces.

    Both inputs are N x d matrices with orthonormal columns (checked to
    gram_tol); the result lies in [0, 1], and for equal dimensions it is
    ||B - A A^* B||, the sine of the largest principal angle.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"ambient dimensions differ: {a.shape[0]} vs {b.shape[0]}")
    for name, mat in (("first", a), ("second", b)):
        gram = mat.conj().T @ mat
        if np.linalg.norm(gram - np.eye(mat.shape[1])) > gram_tol:
            raise ValueError(f"{name} basis is not orthonormal to {gram_tol:.1e}")
    if a.shape[1] != b.shape[1] or a.shape[1] == 0:
        return float(a.shape[1] != b.shape[1])
    return float(min(1.0, np.linalg.norm(b - a @ (a.conj().T @ b), 2)))
