"""Constructive extraction of the model-space representation of a Schmidt subspace.

Every nontrivial Schmidt subspace E(s) of a finite-rank Hankel operator
equals p K_theta for an inner theta and an isometric multiplier p, with the
anti-linear action

    f = p h  |->  s e^{i phi} p conj(z) theta conj(h),    h in K_theta.

This module recovers (p, theta, phi) from a computed SchmidtBlock by one
route, at a base point alpha in the disk.  For the representative with
theta(alpha) = 0 the reproducing kernel of E(s) is p(z) conj(p(w)) k_w(z)
at w = alpha, so the projection of the Szego kernel k_alpha onto the block
is conj(p(alpha)) p k_alpha: dividing it by k_alpha gives p up to a
unimodular constant, and H applied to it gives theta.  The base point is 0
(the direct route) when the constant function has a usable component in
the block, otherwise a grid point where the block's pointwise energy is
largest.  Results are canonicalized to theta(0) = 0, p(0) >= 0 and
phi in (-pi, pi].  Verification works on coefficients: the weighted
model space p K_theta is the N x d matrix of the truncated convolutions
p e_k over the columns of theta's basis matrix (_weighted_model_space),
and C_theta e_k is read in closed form, -lambda times the
Takenaka-Malmquist basis of theta's zeros in reverse order, so it costs
one more basis per block, none when d = 1.  The work follows
Gamma's numerical order J, not N: Gamma acts as its leading J x J block
(hankel_apply), the block bases are zero past row J, and every
convolution with p reads p only up to its last nonzero coefficient, so on
the direct route, where p is zero past order J, each costs O(N J).  The
Frostman shift of canonicalization reads its phase from coefficients.
Only recover_theta evaluates on the boundary grid, for its inner gate and
the constant e^{i phi}; theta is inner by construction of BlaschkeProduct,
so verification does not re-check it.  theta comes from
canonical_blaschke, one instance per zero set, so its grid values, Taylor
coefficients and model-space basis are computed once for every block
that shares it: theta = z for every simple singular value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .blaschke import (
    BlaschkeProduct,
    _on_grid,
    blaschke_coefficients,
    blaschke_eval,
    canonical_blaschke,
    frostman_shift,
    tm_basis,
)
from .hardy import _frozen, _horner, _lead_rotation, _support, default_grid_size, grid_points
from .hankel import HankelMatrix, hankel_apply
from .spectral import SchmidtBlock, _nullspace_of_row, orthonormalize, subspace_gap

__all__ = [
    "Representation",
    "RepresentationResiduals",
    "ExtractionError",
    "extremal_projection",
    "base_point_select",
    "recover_theta",
    "extract_representation",
    "verify_representation",
    "DIRECT_BRANCH_THRESHOLD",
]

DIRECT_BRANCH_THRESHOLD = 0.1
BASE_POINT_RADII = (0.0, 0.15, 0.30, 0.45, 0.60, 0.75)
BASE_POINT_ANGLES = 16
# the selection grid: the origin, then each ring of radius r > 0 at 16 angles
_BASE_POINTS = np.array([
    r * np.exp(1j * (2 * np.pi * k / BASE_POINT_ANGLES))
    for r in BASE_POINT_RADII
    for k in range(BASE_POINT_ANGLES if r else 1)
])


class ExtractionError(RuntimeError):
    """Raised when a representation cannot be extracted to tolerance."""


@dataclass(frozen=True)
class Representation:
    """The triple (p, theta, phi) with E(s) = p K_theta, theta(0) = 0.

    p is the read-only array of the multiplier's Taylor coefficients.
    `residuals` is the verify_representation report that
    extract_representation gated on; None for a hand-built triple.
    """

    p: np.ndarray
    theta: BlaschkeProduct
    phi: float
    canonicalized_at: complex = 0.0 + 0.0j
    residuals: RepresentationResiduals | None = None


@dataclass(frozen=True)
class RepresentationResiduals:
    """Residual report of verify_representation; all entries are nonnegative."""

    subspace_gap: float
    isometry: float
    action: float
    near_invariance: float
    near_invariance_u: float
    u_s_cross: float
    p_origin: float

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def gated(self) -> dict:
        """The four checks gating acceptance; near-invariance only counts when
        the multiplier has a usable value at the origin (|p(0)| > 1e-3)."""
        out = {
            "subspace_gap": self.subspace_gap,
            "isometry": self.isometry,
            "action": self.action,
        }
        if self.p_origin > 1e-3:
            out["near_invariance"] = max(self.near_invariance, self.near_invariance_u)
        else:
            out["near_invariance"] = 0.0
        return out


def extremal_projection(block: SchmidtBlock) -> tuple[np.ndarray, float]:
    """Orthogonal projection of the constant function onto the block.

    With theta(0) = 0 this equals conj(p(0)) p, so its norm is |p(0)|; at
    or below DIRECT_BRANCH_THRESHOLD extraction moves off the origin.
    """
    q = block.basis @ np.conj(block.basis[0, :])
    return q, float(np.linalg.norm(q))


def base_point_select(block: SchmidtBlock) -> complex:
    """Deterministic base point for extraction.

    Returns 0 when the projection of the constant onto the block is already
    usable; otherwise the grid point (concentric rings, 16 angles) maximizing
    the block's pointwise energy sum_j |f_j(alpha)|^2, which must exceed 1e-6.
    All 81 points are evaluated by one product with the basis rows up to its
    last nonzero one; ties go to the first point in ring order.
    """
    _, nq = extremal_projection(block)
    if nq > DIRECT_BRANCH_THRESHOLD:
        return 0.0 + 0.0j
    m = _support(block.basis.any(axis=1)).size
    values = np.power(_BASE_POINTS[:, None], np.arange(m)) @ block.basis[:m]
    energy = np.sum(np.abs(values) ** 2, axis=1)
    best = int(np.argmax(energy))
    if energy[best] <= 1e-6:
        raise ExtractionError(
            "no base point on the selection grid carries energy above 1.0e-06; "
            "the subspace is numerically zero on the grid"
        )
    return complex(_BASE_POINTS[best])


# ---------------------------------------------------------------------------
# inner-function recovery


def recover_theta(
    p: np.ndarray, hq: np.ndarray, s: float, d: int, alpha: complex
) -> tuple[BlaschkeProduct, float, float]:
    """Recover theta (theta(alpha) = 0, degree d) and phi from p and H q, q = p k^_alpha.

    k^_alpha = sqrt(1 - |alpha|^2) / (1 - conj(alpha) z) is the unit kernel,
    and the action formula at h = k^_alpha reads
    H q = s e^{i phi} p theta sqrt(1 - |alpha|^2) / (z - alpha); at alpha = 0
    that is H p = s e^{i phi} p S* theta.  With rhs = H q / s, the smallest
    singular vector of the triangular convolution system

        [ T_p[:, :d] | -T_rhs[:, :d+1] ]

    gives polynomials (R, D) with p R = rhs D as power series, so
    e^{i phi} theta = (z - alpha) R / D / sqrt(1 - |alpha|^2), whose
    unimodular constant is then fitted on the boundary.  Rows at or past
    max(supp p, supp rhs) + d are zero, and dropping them leaves the null
    vector as it is, so only the rows before that are formed, and at least
    2d + 1 of them where N allows; with fewer rows than columns the null
    vector comes from the full V.  Returns (theta,
    phi, boundary fit residual).  Fails if the recovered function is not
    inner to 1e-6.
    """
    if d < 1:
        raise ValueError("theta degree must be at least 1")
    if s <= 0:
        raise ValueError("singular value must be positive")
    n = p.size
    nrm = float(np.linalg.norm(hq))
    if abs(nrm - s) > 0.01 * s:
        raise ExtractionError(
            f"inconsistent data: ||H q|| = {nrm:.6g} but s = {s:.6g}; "
            "the input is not a unit vector of this block"
        )
    rhs = hq / s
    width = 2 * d + 1
    rows = min(n, max(_support(p).size + d, _support(rhs).size + d, width))
    cols = np.zeros((rows, width), dtype=np.complex128)
    for j in range(d):
        cols[j:, j] = p[: rows - j]
    for j in range(d + 1):
        cols[j:, d + j] = -rhs[: rows - j]
    _, _, vh = np.linalg.svd(cols, full_matrices=rows < width)
    null = np.conj(vh[-1])
    num = null[:d]
    den = null[d:]
    if not abs(den[0]) > 1e-8 * np.linalg.norm(den):
        raise ExtractionError("degenerate rational fit: denominator vanishes at the origin")
    num = num / den[0]
    den = den / den[0]

    den_roots = _poly_roots(den)
    if den_roots.size and np.min(np.abs(den_roots)) <= 1.0:
        raise ExtractionError(
            "recovered denominator has a root inside the closed disk; theta is not inner"
        )
    zero_list = _poly_roots(num)
    if zero_list.size != d - 1:
        raise ExtractionError(
            f"recovered numerator has degree {zero_list.size}, expected {d - 1}; "
            "block multiplicity and inner degree disagree"
        )
    if zero_list.size and np.max(np.abs(zero_list)) >= 1.0:
        raise ExtractionError(
            f"recovered inner function has a zero of modulus "
            f"{np.max(np.abs(zero_list)):.6f} outside the open disk"
        )

    m = default_grid_size(max(16, 4 * (d + 1)))
    grid = grid_points(m)
    r = math.sqrt(1 - abs(alpha) ** 2)
    y = (grid - alpha) * _horner(num, grid) / _horner(den, grid) / r
    inner_dev = float(np.max(np.abs(np.abs(y) - 1.0)))
    if inner_dev > 1e-6:
        raise ExtractionError(
            f"fitted function deviates from unit boundary modulus by {inner_dev:.3e}; "
            "upstream data does not define an inner function"
        )
    zeros = np.concatenate([[alpha], zero_list])
    theta = canonical_blaschke(zeros)
    on_grid = _on_grid(theta, m)
    phase = np.vdot(on_grid, y)
    phase /= abs(phase)
    fit_residual = float(np.max(np.abs(y - phase * on_grid)))
    phi = _wrap_phase(np.angle(phase))
    return theta, phi, fit_residual


def _poly_roots(coeffs_ascending: np.ndarray) -> np.ndarray:
    c = np.asarray(coeffs_ascending, dtype=np.complex128)
    scale = np.max(np.abs(c))
    if scale == 0:
        return np.empty(0, dtype=np.complex128)
    nz = np.flatnonzero(np.abs(c) > 1e-10 * scale)
    c = c[: nz[-1] + 1]
    if c.size <= 1:
        return np.empty(0, dtype=np.complex128)
    roots = np.roots(c[::-1])
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


def _wrap_phase(phi: float) -> float:
    """phi modulo 2 pi in (-pi, pi].  Values within four ulps above -pi are
    reported as pi, so a phase of pi up to rounding cannot jump by 2 pi."""
    out = math.remainder(float(phi), 2 * math.pi)
    return math.pi if out <= -math.pi + 4 * math.ulp(math.pi) else out


# ---------------------------------------------------------------------------
# extraction


def extract_representation(
    gamma: HankelMatrix,
    block: SchmidtBlock,
    tol: float = 1e-7,
    base_point: complex | None = None,
) -> Representation:
    """Extract the canonical representation of a Schmidt block of Gamma.

    Only the operator is needed: the block is a singular subspace of gamma,
    and the symbol's coefficients, where verification needs them, are
    gamma's first column (gamma.u).  The multiplier is read off the
    projection of the unit reproducing kernel at the base point onto the
    block (_extract_at).  base_point None takes base_point_select's: 0, the
    direct route, when the projection of the constant onto the block exceeds
    the 0.1 threshold, otherwise a grid point of largest pointwise energy.
    The result is checked once by verify_representation, whose report is
    returned as `rep.residuals`; the multiplier isometry (to 0.1 * tol),
    subspace equality and action formula (to tol) are asserted on it before
    returning.
    """
    alpha = base_point_select(block) if base_point is None else complex(base_point)
    if not abs(alpha) < 1:
        raise ValueError("base point must lie in the open disk")
    p, theta, phi = _canonicalize(*_extract_at(gamma, block, alpha))
    if theta.degree != block.multiplicity:
        raise ExtractionError(
            f"inner degree {theta.degree} != block multiplicity {block.multiplicity}"
        )
    rep = Representation(p=p, theta=theta, phi=phi, canonicalized_at=alpha)
    res = verify_representation(
        gamma, block, rep, model_tail_tol=min(1e-8, max(1e-10, 1e-2 * tol))
    )
    if res.isometry > 0.1 * tol:
        raise ExtractionError(f"multiplier is not isometric: deviation {res.isometry:.3e}")
    if res.subspace_gap > tol:
        raise ExtractionError(f"subspace gap {res.subspace_gap:.3e} exceeds tolerance {tol:.1e}")
    if res.action > tol:
        raise ExtractionError(f"action residual {res.action:.3e} exceeds tolerance {tol:.1e}")
    return replace(rep, residuals=res)


def _extract_at(
    gamma: HankelMatrix, block: SchmidtBlock, alpha: complex
) -> tuple[np.ndarray, BlaschkeProduct, float]:
    """(p, theta, phi) for the representative with theta(alpha) = 0.

    q is the normalized projection of the unit kernel k^_alpha onto the
    block, p k^_alpha up to a unimodular constant; dividing by k^_alpha is
    the coefficient shift p_n = (q_n - conj(alpha) q_{n-1}) / sqrt(1 - |alpha|^2).
    """
    r = math.sqrt(1 - abs(alpha) ** 2)
    kernel = r * np.conj(alpha) ** np.arange(block.order)
    q = block.basis @ (block.basis.conj().T @ kernel)
    nq = float(np.linalg.norm(q))
    if nq < 1e-6:
        raise ExtractionError(
            f"projection of the kernel at the base point onto the block is {nq:.3e}; "
            "the multiplier cannot be normalized"
        )
    q = q / nq
    p = q.copy()
    p[1:] -= np.conj(alpha) * q[:-1]
    p /= r
    theta, phi, _ = recover_theta(p, hankel_apply(gamma, q), block.s, block.multiplicity, alpha)
    return p, theta, phi


def _canonicalize(
    p: np.ndarray, theta: BlaschkeProduct, phi: float
) -> tuple[np.ndarray, BlaschkeProduct, float]:
    """Normalize to theta(0) = 0 (Frostman shift, flipping the phase sign),
    canonical theta phase, p(0) >= 0, phi in (-pi, pi].

    theta comes from recover_theta with its canonical phase, so only a
    shifted theta needs it fixed again.  The shift multiplies p by
    g = (1 - conj(t0) theta) / sqrt(1 - |t0|^2); coefficient k of the
    product reads g only up to k, so the truncated convolution with g's
    first n coefficients is exact, and so is reading p only up to its last
    nonzero coefficient.
    """
    n = p.size
    t0 = complex(blaschke_eval(theta, 0.0))
    if abs(t0) > 1e-10:
        shifted, g = frostman_shift(theta, t0, n)
        p = np.convolve(_support(p), g)[:n]
        canon = canonical_blaschke(shifted.zeros)
        phi = phi + math.pi - np.angle(canon.phase / shifted.phase)
        theta = canon

    rot = _lead_rotation(p, 1e-8)
    phi = phi - 2 * np.angle(rot)
    return _frozen(p * rot), theta, _wrap_phase(phi)


# ---------------------------------------------------------------------------
# verification


def verify_representation(
    gamma: HankelMatrix,
    block: SchmidtBlock,
    rep: Representation,
    model_tail_tol: float = 1e-8,
) -> RepresentationResiduals:
    """Residual report for a representation against its block and Gamma.

    The symbol enters only through its coefficients u_hat(0..N-1), read
    from Gamma's first column (gamma.u).

    Checks, in order: the subspace equality, the isometric-multiplier
    property, the anti-linear action formula (divided by s, so a gate on it
    checks phi, p and theta to the same tolerance at every s),
    near-S*-invariance of the block (largest distance of S*f to the block
    and largest normalized pairing with the symbol, over unit f in the
    block orthogonal to constants), and the projection of the symbol onto
    the block against its closed form.  model_tail_tol relaxes the basis
    truncation gate; anything it admits stays far below the reported
    residual scale.

    Everything is computed in coefficient space: products are truncated
    convolutions, reading p up to its last nonzero coefficient, and
    C_theta e_k is read in closed form from theta's zeros
    (_conjugated_products).  The left side of the action comes from Gamma
    alone, which acts as Gamma_J (hankel_apply) and so moves the action
    residual by at most 5e-22 ||p e_k||; theta's Taylor coefficients are
    needed only to order N + 1, for the symbol projection.
    """
    n = block.order
    u = gamma.u
    s = block.s
    phase = np.exp(1j * rep.phi)

    prods = _weighted_model_space(rep.theta, rep.p, n, model_tail_tol)
    iso = max((abs(np.linalg.norm(pe) - 1.0) for pe in prods.T), default=0.0)
    gap = subspace_gap(block.basis, orthonormalize(prods))

    action = 0.0
    images = _conjugated_products(rep.theta, rep.p, prods, n, model_tail_tol)
    for pe, pce in zip(prods.T, images.T):
        lhs = hankel_apply(gamma, pe)
        action = max(action, float(np.linalg.norm(lhs - s * phase * pce)) / s)

    near_dist, near_u = _near_invariance(block, u)
    # the block projection of the symbol is s e^{i phi} p(0) p (theta / z), theta(0) = 0;
    # coefficient k <= n of p theta reads theta_hat only up to k
    u_s = block.basis @ (block.basis.conj().T @ u)
    theta_hat = blaschke_coefficients(rep.theta, n + 1)
    p_theta_over_z = np.convolve(_support(rep.p), theta_hat)[1 : n + 1]
    u_s_cross = float(np.linalg.norm(u_s - s * phase * rep.p[0] * p_theta_over_z))
    return RepresentationResiduals(
        subspace_gap=gap,
        isometry=iso,
        action=action,
        near_invariance=near_dist,
        near_invariance_u=near_u,
        u_s_cross=u_s_cross,
        p_origin=float(abs(rep.p[0])),
    )


def _weighted_model_space(
    theta: BlaschkeProduct, p: np.ndarray, n: int, model_tail_tol: float = 1e-8
) -> np.ndarray:
    """The n x d matrix of p e_k over the Takenaka-Malmquist basis e_k of
    K_theta (tm_basis at order n and model_tail_tol): column k is the
    truncated convolution of e_k with p up to its last nonzero coefficient."""
    c = _support(p)
    basis = tm_basis(theta, n, tail_tol=model_tail_tol)
    out = np.empty(basis.shape, dtype=np.complex128)
    for k, e in enumerate(basis.T):
        out[:, k] = np.convolve(c, e)[:n]
    return out


def _conjugated_products(
    theta: BlaschkeProduct,
    p: np.ndarray,
    prods: np.ndarray,
    n: int,
    model_tail_tol: float,
) -> np.ndarray:
    """The n x d matrix of p C_theta e_k, given prods = p e_k (_weighted_model_space).

    With theta = lambda prod_j b_(a_j), b_a = (a - z) / (1 - conj(a) z), and
    conj(b_a) = 1 / b_a on the circle, C_theta e_k = theta conj(z) conj(e_k)
    = lambda r_k prod_(j >= k) b_(a_j) / (z - a_k) = -lambda e~_(d-1-k),
    because b_(a_k) / (z - a_k) = -1 / (1 - conj(a_k) z): e~ is the
    Takenaka-Malmquist basis of theta's zeros in reverse order.  For d = 1,
    e~_0 = e_0, so the products are read from prods, with no new work.
    """
    flipped = prods if theta.degree == 1 else _weighted_model_space(
        BlaschkeProduct(theta.zeros[::-1]), p, n, model_tail_tol
    )
    return -theta.phase * flipped[:, ::-1]


def _near_invariance(block: SchmidtBlock, u: np.ndarray) -> tuple[float, float]:
    """Near-S*-invariance of the block, read from the subspace W of its
    functions that vanish at the origin: the operator norm of
    (I - V V^*) S^* on W, and the norm of the pairing w -> <S^* w, u> over
    the unit ball of W, divided by max(1, ||u||).  Both depend only on the
    span of the block, not on its basis."""
    v = block.basis
    w = v @ _nullspace_of_row(v[0:1, :])
    if w.shape[1] == 0:
        return 0.0, 0.0
    sw = np.zeros_like(w)
    sw[:-1] = w[1:]
    resid = sw - v @ (v.conj().T @ sw)
    u_scale = max(1.0, float(np.linalg.norm(u)))
    return float(np.linalg.norm(resid, 2)), float(np.linalg.norm(u.conj() @ sw)) / u_scale
