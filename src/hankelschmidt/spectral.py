"""Schmidt subspaces, Takagi factorization and subspace distances.

Schmidt subspaces are eigenspaces of the Hermitian matrix Gamma Gamma^*,
which is the numerically robust primitive; the complex-symmetric (Takagi)
structure is recovered per eigenvalue cluster afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .hankel import HankelMatrix, hankel_square

__all__ = [
    "SchmidtBlock",
    "schmidt_decompose",
    "takagi_factorize",
    "subspace_gap",
    "orthonormalize",
]


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


def _eigen_clusters(
    h: HankelMatrix, cluster_tol: float, kernel_tol: float
) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    """Eigenpairs of Gamma Gamma^* in descending order, grouped into clusters.

    Eigenvalues below kernel_tol * lambda_max are the kernel; the rest are
    split into runs that stay within cluster_tol (relative) of the run's
    first eigenvalue.  Clusters are lists of indices into the returned
    eigenvalues; there are none when lambda_max is not positive and finite.
    """
    eigvals, eigvecs = np.linalg.eigh(hankel_square(h))
    eigvals = eigvals[::-1]
    eigvecs = eigvecs[:, ::-1]
    lam_max = float(eigvals[0]) if eigvals.size else 0.0
    clusters: list[list[int]] = []
    if lam_max <= 0 or not np.isfinite(lam_max):
        return eigvals, eigvecs, clusters
    cutoff = kernel_tol * lam_max
    for i, lam in enumerate(eigvals):
        if lam < cutoff:
            break
        if clusters and eigvals[clusters[-1][0]] - lam < cluster_tol * eigvals[clusters[-1][0]]:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return eigvals, eigvecs, clusters


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
    """Basis of span(vectors) that depends only on the subspace.

    The QR of the projector columns V V^*[:, piv] is deterministic and
    rotation-independent; V is an isometry, so the pivots of V^* are those of
    the projector.  Column phases are pinned by the first significant entry.
    """
    d = vectors.shape[1]
    vh = vectors.conj().T
    _, piv = scipy.linalg.qr(vh, mode="r", pivoting=True)
    q, _ = scipy.linalg.qr(vectors @ vh[:, piv[:d]], mode="economic")
    return _canonical_column_phases(q)


def schmidt_decompose(h: HankelMatrix, cluster_tol: float = 1e-8) -> list[SchmidtBlock]:
    """Schmidt blocks of the operator, ordered by descending singular value.

    Eigenvalues of Gamma Gamma^* below cluster_tol * lambda_max are the
    kernel; the rest are grouped into clusters of relative spread below
    cluster_tol, each yielding one block with s = sqrt(cluster mean).
    Ill-separated clusters (gap within 10x of the internal spreads) are
    flagged as unreliable.
    """
    if not 0 < cluster_tol < 1:
        raise ValueError(f"cluster_tol must lie in (0, 1), got {cluster_tol}")
    eigvals, eigvecs, clusters = _eigen_clusters(h, cluster_tol, kernel_tol=cluster_tol)
    if not clusters:
        return []
    noise_floor = np.finfo(float).eps * float(eigvals[0]) * h.order
    blocks = []
    for idx in clusters:
        lams = eigvals[idx]
        spread = float(lams[0] - lams[-1])
        mean = float(np.mean(lams))
        below = eigvals[idx[-1] + 1] if idx[-1] + 1 < eigvals.size else 0.0
        above = eigvals[idx[0] - 1] if idx[0] > 0 else None
        separation = float(lams[-1] - below)
        if above is not None:
            separation = min(separation, float(above - lams[0]))
        warns = []
        if separation < 10 * max(spread, noise_floor):
            warns.append("ill-separated cluster: results near this gap are unreliable")
        if len(idx) > 1 and spread > 1e3 * noise_floor:
            warns.append("cluster spread far above noise floor: possible false merge")
        basis = _canonical_cluster_basis(eigvecs[:, idx])
        blocks.append(
            SchmidtBlock(
                s=float(np.sqrt(mean)),
                basis=basis,
                spread=spread,
                separation=separation,
                reliable=not warns,
                warnings=tuple(warns),
            )
        )
    return blocks


# ---------------------------------------------------------------------------
# Takagi factorization


def _takagi_cluster_rotation(small: np.ndarray) -> np.ndarray:
    """Unitary X with M = X X^T for a unitary symmetric M, via the real embedding.

    The real symmetric matrix [[Re M, Im M], [Im M, -Re M]] has +-1 eigenvalue
    pairs; eigenvectors (x; y) at +1 give complex-orthonormal v = x + i y with
    M conj(v) = v.
    """
    d = small.shape[0]
    re, im = small.real, small.imag
    big = np.block([[re, im], [im, -re]])
    vals, vecs = np.linalg.eigh(big)
    pos = np.argsort(vals)[::-1][:d]
    x = vecs[:d, pos]
    y = vecs[d:, pos]
    return x + 1j * y


def takagi_factorize(
    h: HankelMatrix, cluster_tol: float = 1e-8, residual_tol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray]:
    """Takagi form Gamma = U diag(sigma) U^T of the complex symmetric block.

    Eigenvalue clusters of Gamma Gamma^* are rotated so the restricted
    bilinear form becomes s times the identity; kernel columns complete U to
    a unitary.  Fails if the reconstruction residual exceeds residual_tol
    relative to ||Gamma||.
    """
    gamma = h.gamma
    n = gamma.shape[0]
    sym_defect = float(np.linalg.norm(gamma - gamma.T))
    scale = float(np.linalg.norm(gamma, 2)) if n else 0.0
    if scale > 0 and sym_defect > 1e-12 * scale:
        raise ValueError(f"matrix is not complex symmetric: ||G - G^T|| = {sym_defect:.3e}")

    eigvals, eigvecs, clusters = _eigen_clusters(
        h, cluster_tol, kernel_tol=max(cluster_tol, np.finfo(float).eps * n)
    )
    u_cols = np.zeros((n, n), dtype=np.complex128)
    sigma = np.zeros(n)
    if not clusters:
        return np.eye(n, dtype=np.complex128), sigma

    pos = 0
    for idx in clusters:
        v = eigvecs[:, idx]
        s = float(np.sqrt(np.mean(eigvals[idx])))
        small = v.conj().T @ gamma @ np.conj(v) / s
        x = _takagi_cluster_rotation(small)
        u_cols[:, pos : pos + len(idx)] = v @ x
        sigma[pos : pos + len(idx)] = s
        pos += len(idx)
    if pos < n:
        u_cols[:, pos:] = eigvecs[:, pos:]

    recon = u_cols @ (sigma[:, None] * u_cols.T)
    residual = float(np.linalg.norm(recon - gamma, 2))
    if residual > residual_tol * max(scale, 1e-300):
        raise ValueError(
            f"Takagi reconstruction residual {residual:.3e} exceeds "
            f"{residual_tol:.1e} * ||Gamma|| = {residual_tol * scale:.3e}"
        )
    return u_cols, sigma


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
