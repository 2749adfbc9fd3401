"""Constructive extraction of the model-space representation of Schmidt subspaces.

Every nontrivial Schmidt subspace E(s) of a finite-rank Hankel operator
equals p K_theta for an inner theta and an isometric multiplier p, with the
anti-linear action

    f = p h  |->  s e^{i phi} p conj(z) theta conj(h),    h in K_theta.

This module recovers (p, theta, phi) from a computed SchmidtBlock by one
route, at a base point alpha in the disk.  For the representative with
theta(alpha) = 0 the reproducing kernel of E(s) is p(z) conj(p(w)) k_w(z)
at w = alpha, so the projection q of the Szego kernel k_alpha onto the
block is conj(p(alpha)) p k_alpha: dividing it by k_alpha gives p up to a
unimodular constant.  theta follows from Hitt's theorem: E(s) is nearly
S*-invariant, and T f = (f - (f(alpha) / q(alpha)) q) / (z - alpha) maps it
into itself, unitarily equivalent to the backward shift at alpha on
K_theta, so theta's zeros other than alpha are read off the eigenvalues of
a (d - 1) x (d - 1) matrix; for d = 1, theta = b_alpha.  e^{i phi} is the
phase of one inner product with H q.  The base point is 0 (the direct
route) when the constant function has a usable component in the block,
otherwise a point of a fixed set of rings inside the disk where the
block's pointwise energy is largest.  Results are canonicalized to
theta(0) = 0, p(0) >= 0 and phi in (-pi, pi].

The blocks of one Gamma, or of many, are extracted and verified in one
batched pass (extract_representations).  Blocks are grouped by
multiplicity d, and within a group each step is one stacked array
operation over its blocks: the projection of the kernel (on the direct
route the extremal projection itself, formed once), Gamma's action as one
Gamma_J @ conj(.) product per distinct Gamma over its blocks' columns
(hankel_apply, for H q and for the action check),
Hitt's eigenproblem as one batched eigvals (none for d = 1), the
unimodular constant, and the isometry, subspace-gap, action and
near-invariance residuals.  Python loops remain only where the math
differs per block: the base-point search off the origin, the
canonical_blaschke lookups, the Frostman shift when theta(0) != 0, and
the products with each block's own p and theta.  One _Batch per group
holds every per-block array, from the base point to the gates; a block
that fails a check leaves all of them at once, with the error a lone
extraction of it raises, and the other blocks go on.  One block is a batch
of one.

Verification works on coefficients: the weighted model space p K_theta is
the N x d matrix of the truncated products p e_k over the columns of
theta's basis matrix (_weighted_model_space), each the convolution of the
two supports, and C_theta e_k is read in closed form, -lambda times the
Takenaka-Malmquist basis of theta's zeros in reverse order, so it costs
one more basis per block, none when d = 1.  The work follows Gamma's
numerical order J, not N: Gamma acts as its leading J x J block, the
block bases are zero past row J, and on the direct route p is zero past
order J, so a product with theta = z (e_0 = 1) costs O(J).  Verification
reads theta only through its basis and its phase, and nothing here
evaluates on the boundary grid: theta is inner by construction of
BlaschkeProduct, so no check of its modulus is needed, and a wrong theta
fails the isometry, subspace-gap or action gate.  theta comes from
canonical_blaschke, one instance per zero set, so its model-space basis
is computed once for every block that shares it: theta = z for every
simple singular value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .blaschke import (
    BlaschkeProduct,
    _cluster_means,
    blaschke_coefficients,
    canonical_blaschke,
    frostman_shift,
    tm_basis,
)
from .hardy import (
    _frozen,
    _horner,
    _lead_rotation,
    _series_product,
)
from .hankel import _ldexp, hankel_apply
from .spectral import (
    _largest_singular_value,
    _nullspace_of_row,
    _orthonormal_columns,
    _subspace_gaps,
)

__all__ = [
    "Representation",
    "RepresentationResiduals",
    "ExtractionError",
    "extract_representations",
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
    `residuals` is the verification report (_verify_stack) that extraction
    gated on; None for a hand-built triple.
    """

    p: np.ndarray
    theta: BlaschkeProduct
    phi: float
    canonicalized_at: complex = 0.0 + 0.0j
    residuals: RepresentationResiduals | None = None


@dataclass(frozen=True)
class RepresentationResiduals:
    """Residual report of the verification of one representation
    (_verify_stack); all entries are nonnegative."""

    subspace_gap: float
    isometry: float
    action: float
    near_invariance: float
    near_invariance_u: float
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


class _Batch:
    """The blocks of one multiplicity group that have passed every check so
    far, with their arrays.

    The constructor and `hold` set the arrays as attributes, each with one
    item (a row or a list item) per live entry.  `at` holds the live
    entries' positions in `results`, which has one slot per entry of the
    whole group.  An entry that fails a check gets its error there and
    leaves every held array at once, so no array can pair one block with
    another block's data; one that passes every check gets its result.
    """

    def __init__(self, size: int, **arrays):
        self.results: list = [None] * size
        self.at = np.arange(size)
        self._held: set[str] = set()
        self.hold(**arrays)

    def hold(self, **arrays) -> None:
        """Hold (or replace) arrays with one item per live entry."""
        self._held |= arrays.keys()
        self.__dict__.update(arrays)

    @property
    def empty(self) -> bool:
        return self.at.size == 0

    def drop(self, bad, error) -> bool:
        """Give each live entry k with bad[k] the exception error(k), remove
        those entries from every held array, and return whether the batch
        is now empty."""
        bad = np.asarray(bad, dtype=bool)
        if bad.any():
            keep = ~bad
            for k in np.flatnonzero(bad):
                self.results[self.at[k]] = error(k)
            self.at = self.at[keep]
            for name in self._held:
                a = getattr(self, name)
                setattr(self, name, a[keep] if isinstance(a, np.ndarray)
                        else [x for x, kept in zip(a, keep) if kept])
        return self.empty

    def drop_errors(self, name: str) -> bool:
        """drop the entries whose item in the held list `name` is an exception."""
        items = getattr(self, name)
        return self.drop([isinstance(x, Exception) for x in items], lambda k: items[k])



def _extremal(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projections of the constant function onto each basis of
    the stack v (m x N x d), as rows, and their norms.

    With theta(0) = 0 a projection equals conj(p(0)) p, so its norm is
    |p(0)|; at or below DIRECT_BRANCH_THRESHOLD extraction moves off the
    origin.
    """
    q = (v @ v[:, :1, :].conj().swapaxes(1, 2))[..., 0]
    return q, np.linalg.norm(q, axis=1)


def _base_point(basis: np.ndarray, nq: float) -> complex:
    """Deterministic base point for extraction, for an N x d block basis
    whose extremal projection (_extremal) has norm nq.

    Returns 0 when the projection of the constant onto the block is already
    usable; otherwise the grid point (concentric rings, 16 angles) maximizing
    the block's pointwise energy sum_j |f_j(alpha)|^2, which must exceed 1e-6.
    All 81 points are evaluated at once by _horner on the basis rows up to
    its last nonzero one; ties go to the first point in ring order.
    """
    if nq > DIRECT_BRANCH_THRESHOLD:
        return 0.0 + 0.0j
    values = _horner(basis, _BASE_POINTS)
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


def _inner_factors(b: _Batch) -> None:
    """theta (theta(alpha) = 0, degree d) and phi for each live entry of b,
    which holds the block bases v (m x N x d), the unit projections q of
    the kernel at the base points alpha onto the blocks, their images
    hq = H q and the singular values s: holds them as `theta` and `phi`,
    or drops the entry with its error.

    The functions of the block orthogonal to q are those that vanish at
    alpha, W = V U, U an orthonormal basis of the complement of V^* q.  On
    the block, T f = (f - (f(alpha) / q(alpha)) q) / (z - alpha) is unitarily
    equivalent to the backward shift at alpha on K_theta, with T q = 0, so
    theta's zeros other than alpha are a = conj(lam / (1 + lam alpha)) for
    the eigenvalues lam of the compression U^* V^* T V U.  On W, T is
    (I - alpha S^*)^{-1} S^*, and T W lies in the block, so
    V^* T W = (I - alpha M)^{-1} M U with M = V^* S^* V.  A k-fold zero,
    a Jordan block of the compression, comes out as k eigenvalues scattered
    by about eps^(1/k) around a mean that is right to rounding, and
    _cluster_means reports such a cluster by its mean.  The action formula
    at the unit kernel reads
    H q = s e^{i phi} sqrt(1 - |alpha|^2) p theta / (z - alpha)
        = -s e^{i phi} lambda q prod_(j >= 2) b_(a_j), lambda theta's phase, so
    e^{i phi} is the phase of <H q / s, -lambda q prod_(j >= 2) b_(a_j)>.
    """
    _, n, d = b.v.shape
    if b.drop(b.s <= 0, lambda k: ValueError("singular value must be positive")):
        return
    # ||H q|| / s from rhs = H q / s, whose squares do not underflow where those of H q do
    b.hold(rhs=b.hq / b.s[:, None])
    nrm = np.linalg.norm(b.rhs, axis=1)
    if b.drop(
        np.abs(nrm - 1) > 0.01,
        lambda k: ExtractionError(
            f"inconsistent data: ||H q|| = {nrm[k] * b.s[k]:.6g} but s = {b.s[k]:.6g}; "
            "the input is not a unit vector of this block"
        ),
    ):
        return
    image = b.q  # prod_(j >= 2) b_(a_j) q
    b.hold(rest=np.empty((b.at.size, d - 1), dtype=np.complex128))
    if d > 1:
        v, alpha = b.v, b.alpha
        u = _nullspace_of_row(b.q.conj()[:, None, :] @ v)
        shift = v[:, :-1].conj().swapaxes(1, 2) @ v[:, 1:]  # M = V^* S^* V
        tw = np.linalg.solve(np.eye(d) - alpha[:, None, None] * shift, shift @ u)
        lam = np.linalg.eigvals(u.conj().swapaxes(1, 2) @ tw)
        lam = _cluster_means(lam)
        rest = np.conj(lam / (1 + lam * alpha[:, None])) + 0.0  # no -0.0 in a report
        worst = np.abs(rest).max(axis=1)
        b.hold(rest=np.take_along_axis(rest, np.lexsort((rest.imag, rest.real)), axis=1))
        if b.drop(
            ~(worst < 1),
            lambda k: ExtractionError(
                f"recovered inner function has a zero of modulus {worst[k]:.6f} "
                "outside the open disk"
            ),
        ):
            return
        image = np.stack([
            _series_product(qk, blaschke_coefficients(BlaschkeProduct(z), n), n)
            for qk, z in zip(b.q, b.rest)
        ])
    theta = [canonical_blaschke(np.concatenate([[a], z])) for a, z in zip(b.alpha, b.rest)]
    phase = -np.conj([t.phase for t in theta]) * np.sum(b.rhs * image.conj(), axis=1)
    b.hold(theta=theta, phi=np.array([_wrap_phase(phi) for phi in np.angle(phase)]))


def _wrap_phase(phi: float) -> float:
    """phi modulo 2 pi in (-pi, pi].  Values within four ulps above -pi are
    reported as pi, so a phase of pi up to rounding cannot jump by 2 pi."""
    out = math.remainder(float(phi), 2 * math.pi)
    return math.pi if out <= -math.pi + 4 * math.ulp(math.pi) else out


# ---------------------------------------------------------------------------
# extraction


def extract_representations(pairs, tol: float = 1e-7) -> list[Representation | ExtractionError | ValueError]:
    """The canonical representation of the Schmidt block of each
    (gamma, block) pair, in one batched pass.

    Only the operator is needed: each block is a singular subspace of its
    gamma, and the symbol's coefficients, where verification needs them,
    are gamma's first column (gamma.u).  The multiplier is read off the
    projection of the unit reproducing kernel at the base point onto the
    block; the base point is 0, the direct route, when the projection of
    the constant onto the block exceeds the 0.1 threshold, otherwise a grid
    point of largest pointwise energy (_base_point).  Each result is checked
    once by the verification (_verify_stack), whose report is returned as
    `rep.residuals`; the multiplier isometry (to 0.1 * tol), subspace
    equality and action formula (to tol) are asserted on it.

    Returns, for each pair in order, its Representation or the
    ExtractionError or ValueError that stopped it, with the message it
    would stop with alone; one failing block does not stop the others.
    Blocks of one multiplicity are extracted and verified together, whatever
    their Gamma, each step one stacked array operation over them.
    """
    pairs = list(pairs)
    return _extract([g for g, _ in pairs], [b for _, b in pairs], [None] * len(pairs), tol)


def _extract(gammas: list, blocks: list, base_points: list, tol: float) -> list:
    """extract_representations of the blocks with their Gammas, each at its
    base point (None: _base_point's): the results of _extract_stack for the
    blocks grouped by basis shape, in block order; within a group the blocks
    of one Gamma are one run, in their order."""
    results, ids = [None] * len(blocks), [id(gamma) for gamma in gammas]
    groups: dict[tuple[int, int], list[int]] = {}
    for i in sorted(range(len(blocks)), key=lambda i: ids.index(ids[i])):
        groups.setdefault(blocks[i].basis.shape, []).append(i)
    for at in groups.values():
        out = _extract_stack(*([x[i] for i in at] for x in (gammas, blocks, base_points)), tol)
        for i, result in zip(at, out):
            results[i] = result
    return results


def _extract_stack(gammas: list, blocks: list, base_points: list, tol: float) -> list:
    """The results of _extract for blocks all of one basis shape, each with
    its Gamma and base point, carried by one batch from the base point to
    the gates.

    q is the normalized projection of the unit kernel k^_alpha onto the
    block, p k^_alpha up to a unimodular constant; dividing by k^_alpha is
    the coefficient shift p_n = (q_n - conj(alpha) q_{n-1}) / sqrt(1 - |alpha|^2).
    At alpha = 0 the kernel is the constant 1, so q is the extremal
    projection that chose the route.
    """
    v = np.stack([block.basis for block in blocks])
    m, n, _ = v.shape
    q, nq = _extremal(v)
    b = _Batch(m, gamma=list(gammas), v=v, s=np.array([block.s for block in blocks]), q=q, alpha=[
        _checked_base_point(bp, basis, nk) for bp, basis, nk in zip(base_points, v, nq)
    ])
    if b.drop_errors("alpha"):
        return b.results
    alpha = np.array(b.alpha, dtype=np.complex128)
    r = np.sqrt(1 - np.abs(alpha) ** 2)
    off = alpha != 0
    if off.any():
        kernel = r[off, None] * np.conj(alpha[off, None]) ** np.arange(n)
        vo = b.v[off]
        b.q[off] = (vo @ (vo.conj().swapaxes(1, 2) @ kernel[..., None]))[..., 0]
    nq = np.linalg.norm(b.q, axis=1)
    b.hold(alpha=alpha, r=r, nq=nq)
    if b.drop(
        nq < 1e-6,
        lambda k: ExtractionError(
            f"projection of the kernel at the base point onto the block is {nq[k]:.3e}; "
            "the multiplier cannot be normalized"
        ),
    ):
        return b.results
    q = b.q / b.nq[:, None]
    p = q.copy()
    p[:, 1:] -= np.conj(b.alpha)[:, None] * q[:, :-1]
    p /= b.r[:, None]
    b.hold(q=q, p=p, hq=_apply(b.gamma, q[:, :, None])[..., 0].T)
    _inner_factors(b)
    if b.empty:
        return b.results

    # theta(0) = phase * prod(zeros); a nonzero one is moved to 0 by a Frostman shift
    t0 = np.array([t.phase for t in b.theta]) * np.prod([t.zeros for t in b.theta], axis=1)
    for k in np.flatnonzero(np.abs(t0) > 1e-10):
        try:
            b.p[k], b.theta[k], b.phi[k] = _frostman_to_origin(b.p[k], b.theta[k], b.phi[k], t0[k])
        except ValueError as exc:
            b.theta[k] = exc
    if b.drop_errors("theta"):
        return b.results
    p, phi = _canonicalize(b.p, b.phi)
    b.hold(p=p, phi=phi)

    _verify_stack(b, model_tail_tol=min(1e-8, max(1e-10, 1e-2 * tol)))
    if b.empty:
        return b.results
    # the gates, in order: the isometry to 0.1 * tol, the subspace gap and the action to tol
    checks = np.stack([b.iso, b.gap, b.action])
    over = checks > np.array([[0.1 * tol], [tol], [tol]])
    first = over.argmax(axis=0)
    b.drop(
        over.any(axis=0),
        lambda k: ExtractionError(_GATES[first[k]].format(checks[first[k], k], tol)),
    )
    for at, pk, t, f, a, x in zip(b.at, b.p, b.theta, b.phi, b.alpha, b.residuals):
        b.results[at] = Representation(
            p=_frozen(pk), theta=t, phi=f, canonicalized_at=complex(a), residuals=x
        )
    return b.results


# the error for each gate of extraction, in the order checked
_GATES = (
    "multiplier is not isometric: deviation {:.3e}",
    "subspace gap {:.3e} exceeds tolerance {:.1e}",
    "action residual {:.3e} exceeds tolerance {:.1e}",
)


def _checked_base_point(base_point, basis: np.ndarray, nq: float):
    """The base point to use for one block, or the error choosing it raises."""
    try:
        alpha = _base_point(basis, nq) if base_point is None else complex(base_point)
    except ExtractionError as exc:
        return exc
    if not abs(alpha) < 1:
        return ValueError("base point must lie in the open disk")
    return alpha


def _frostman_to_origin(
    p: np.ndarray, theta: BlaschkeProduct, phi: float, t0: complex
) -> tuple[np.ndarray, BlaschkeProduct, float]:
    """The representative with theta(0) = 0 of one with theta(0) = t0 != 0:
    a Frostman shift, which flips the phase sign, with theta's canonical
    phase fixed again.  The shift multiplies p by
    g = (1 - conj(t0) theta) / sqrt(1 - |t0|^2); coefficient k of the
    product reads g only up to k, so the truncated product with g's first
    n coefficients is exact.
    """
    n = p.size
    shifted, g = frostman_shift(theta, t0, n)
    canon = canonical_blaschke(shifted.zeros)
    return _series_product(p, g, n), canon, phi + math.pi - np.angle(canon.phase / shifted.phase)


def _canonicalize(p: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Fix each row's unimodular constant: p(0) >= 0 (the first coefficient
    above 1e-8 max|p| real positive), phi moved to match and wrapped to
    (-pi, pi].  theta keeps its canonical phase."""
    rot = _lead_rotation(p, 1e-8)
    phi = phi - 2 * np.angle(rot)
    return p * rot[:, None], [_wrap_phase(f) for f in phi]


# ---------------------------------------------------------------------------
# verification


def _verify_stack(b: _Batch, model_tail_tol: float) -> None:
    """The residual report of each live entry of b against its block and
    Gamma: b holds the Gammas, block bases v (m x N x d), singular values
    s, multipliers p, thetas of one degree and phases phi.  Holds the
    isometry, subspace-gap and action residuals (`iso`, `gap`, `action`)
    and the reports (`residuals`), or drops the entry with its ValueError.

    The symbol enters only through its coefficients u_hat(0..N-1), read
    from Gamma's first column (gamma.u).

    Checks, in order: the subspace equality, the isometric-multiplier
    property, the anti-linear action formula (divided by s, so a gate on it
    checks phi, p and theta to the same tolerance at every s),
    and near-S*-invariance of the block (largest distance of S*f to the
    block and largest normalized pairing with the symbol, over unit f in
    the block orthogonal to constants).  theta's model-space basis must
    truncate at order N to model_tail_tol (tm_basis).  The projection of
    the symbol onto the block, s e^{i phi} p(0) p S*theta, is not checked
    on its own: Gamma's first row is u, so <u, f> = (Gamma conj(f))_0, and
    the action formula on f = p e_k gives that projection to within
    ||u|| (gap + isometry) + sqrt(d) s action.

    Everything is computed in coefficient space: products are truncated
    convolutions of the factors' supports, and C_theta e_k is read in
    closed form from theta's zeros (_conjugated_products).  The left side
    of the action comes from Gamma alone, which acts as Gamma_J
    (hankel_apply) and so moves the action residual by at most
    5e-22 ||p e_k||.
    """
    n = b.v.shape[1]
    b.hold(
        phase=np.exp(1j * np.asarray(b.phi)),
        bases=[_attempt(tm_basis, t, n, model_tail_tol) for t in b.theta],
    )
    if b.drop_errors("bases"):
        return
    prods = np.stack([_weighted_model_space(v, pk) for v, pk in zip(b.bases, b.p)])
    basis, full_rank = _orthonormal_columns(prods)
    gap, (bad_block, bad_basis) = _subspace_gaps(b.v, basis)
    failed = np.stack([~full_rank, bad_block, bad_basis])
    b.hold(prods=prods, iso=np.abs(np.linalg.norm(prods, axis=1) - 1.0).max(axis=1), gap=gap)
    b.drop(failed.any(axis=0), lambda k: ValueError(_UNUSABLE_PRODUCTS[failed[:, k].argmax()]))

    b.hold(images=[
        _attempt(_conjugated_products, t, pk, pr, n, model_tail_tol)
        for t, pk, pr in zip(b.theta, b.p, b.prods)
    ])
    if b.drop_errors("images"):
        return
    s = b.s
    lhs = _apply(b.gamma, b.prods)
    diff = lhs.transpose(1, 0, 2) - (s * b.phase)[:, None, None] * np.stack(b.images)
    e = np.frexp(s)[1]
    b.hold(action=_norm_on_scale(diff, e[:, None, None]).max(axis=1) / np.ldexp(s, -e))

    near, near_u = np.empty(s.size), np.empty(s.size)
    for gamma, at in _runs(b.gamma):
        near[at], near_u[at] = _near_invariance(b.v[at], gamma.u)
    # one row per entry, in the order of RepresentationResiduals' fields
    rows = np.stack([b.gap, b.iso, b.action, near, near_u, np.abs(b.p[:, 0])], axis=1)
    b.hold(residuals=[RepresentationResiduals(*map(float, row)) for row in rows])


def _runs(gammas: list) -> list:
    """(Gamma, slice) for each run of a batch's entries with one Gamma."""
    starts = [i for i, gamma in enumerate(gammas) if i == 0 or gamma is not gammas[i - 1]]
    return [(gammas[a], slice(a, b)) for a, b in zip(starts, starts[1:] + [len(gammas)])]


def _apply(gammas: list, f: np.ndarray) -> np.ndarray:
    """hankel_apply of each entry's Gamma to its columns in the stack f (m x N x k),
    as N x m x k: one product per run of entries with one Gamma, over their columns."""
    n, k = f.shape[1:]
    out = np.empty((n, len(f), k), dtype=np.complex128)
    for gamma, at in _runs(gammas):
        out[:, at] = hankel_apply(gamma, f[at].transpose(1, 0, 2).reshape(n, -1)).reshape(n, -1, k)
    return out


def _norm_on_scale(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The l2 norms along axis 1 of x / 2^e, e the frexp exponents of the
    singular values, broadcast against x: the scaling is exact, and on the
    scale of s the squares of a residual do not underflow."""
    return np.linalg.norm(_ldexp(x, -e), axis=1)


# why the products p e_k cannot be compared with a block, in the order checked
_UNUSABLE_PRODUCTS = (
    "columns are numerically rank deficient",
    "first basis is not orthonormal to 1.0e-08",
    "second basis is not orthonormal to 1.0e-08",
)


def _attempt(f, *args):
    """f(*args), or the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return exc


def _weighted_model_space(basis: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The n x d matrix of p e_k over the n x d Takenaka-Malmquist basis
    matrix of K_theta (tm_basis): column k is the truncated product of p
    and e_k, a convolution of their supports."""
    out = np.empty(basis.shape, dtype=np.complex128)
    for k, e in enumerate(basis.T):
        out[:, k] = _series_product(p, e, basis.shape[0])
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
        tm_basis(BlaschkeProduct(theta.zeros[::-1]), n, tail_tol=model_tail_tol), p
    )
    return -theta.phase * flipped[:, ::-1]


def _near_invariance(v: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Near-S*-invariance of each block basis of the stack v (m x N x d),
    read from the subspace W of its functions that vanish at the origin:
    the operator norm of (I - V V^*) S^* on W, and the norm of the pairing
    w -> <S^* w, u> over the unit ball of W, divided by ||u||, both taken on
    u / 2^e, e the frexp exponent of max |u|: the scaling is exact, so the
    pairing does not depend on the scale of u (it is 0 where u is).  Both
    depend only on the span of the block, not on its basis.  W is the whole
    block where its first row vanishes, else V times the null space of that
    row, which is {0} (both values 0) for d = 1."""
    m, _, d = v.shape
    dist, pairing = np.zeros(m), np.zeros(m)
    vanishing = np.linalg.norm(v[:, 0, :], axis=1) < 1e-14
    cases = [(vanishing, v[vanishing])]
    if d > 1:
        cases.append((~vanishing, v[~vanishing] @ _nullspace_of_row(v[~vanishing, :1, :])))
    u = _ldexp(u, -int(np.frexp(np.abs(u).max())[1]))
    u_norm = np.linalg.norm(u) or 1.0
    for rows, w in cases:
        if not w.shape[0]:
            continue
        vr = v[rows]
        sw = np.zeros_like(w)
        sw[:, :-1] = w[:, 1:]
        resid = sw - vr @ (vr.conj().swapaxes(1, 2) @ sw)
        dist[rows] = _largest_singular_value(resid)
        pairing[rows] = np.linalg.norm(u.conj() @ sw, axis=1) / u_norm
    return dist, pairing
