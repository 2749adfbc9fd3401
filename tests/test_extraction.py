import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hankelschmidt.blaschke import (
    BlaschkeProduct,
    MobiusMap,
    _conjugate_functions,
    blaschke_coefficients,
    mobius_conjugate_symbol,
    tm_basis,
)
from hankelschmidt import blaschke, extraction
from hankelschmidt.extraction import ExtractionError, Representation, extract_representations
from hankelschmidt.hankel import HankelMatrix, build_hankel_matrix, hankel_apply
from hankelschmidt.hardy import default_grid_size, multiply_by_boundary
from hankelschmidt.pipeline import AnalysisConfig, analyze_symbol
from hankelschmidt.spectral import SchmidtBlock, _orthonormal_columns, _subspace_gaps, schmidt_decompose
from hankelschmidt.suites import random_symbol
from hankelschmidt.symbols import (
    PoleTerm,
    RationalSymbol,
    parse_symbol,
    symbol_to_dict,
)
from oracles import (
    blaschke_eval,
    boundary_samples,
    hankel_product,
    one,
    symbol_from_inner,
    szego_kernel,
    unit,
    verify_representation,
)

BENCH_CASES = Path(__file__).resolve().parent.parent / "bench" / "hard_cases"


def block_from_columns(s, cols):
    return SchmidtBlock(s=s, basis=_orthonormal_columns(np.column_stack(cols))[0])


def at_base_point(gamma, block, alpha, tol=1e-7):
    """The extraction of one block at the base point alpha (None: the one
    it selects), or the error that stopped it."""
    (rep,) = extraction._extract([gamma], [block], [alpha], tol)
    return rep


def selected_base_point(block):
    """The base point that extraction selects for a block."""
    (nq,) = extraction._extremal(block.basis[None])[1]
    return extraction._base_point(block.basis, nq)


def rank_one_symbol(a=0.5):
    return RationalSymbol(poles=(PoleTerm(b=a, m=1, c=1.0),))


def two_poles(c):
    return RationalSymbol(poles=(PoleTerm(b=0.5, m=1, c=c), PoleTerm(b=-0.3 + 0.2j, m=1, c=1j * c)))


# ---------------------------------------------------------------------------
# extremal projection


def test_extremal_projection_constant_in_block():
    block = block_from_columns(1.0, [one(8), unit(1, 8)])
    (q,), (norm,) = extraction._extremal(block.basis[None])
    assert abs(norm - 1.0) < 1e-14
    assert np.linalg.norm(q - one(8)) < 1e-14


def test_extremal_projection_orthogonal_block():
    block = block_from_columns(1.0, [unit(1, 8)])
    (q,), (norm,) = extraction._extremal(block.basis[None])
    assert norm < 1e-15
    assert np.linalg.norm(q) < 1e-15


def test_extremal_projection_kernel_block():
    a = 0.5
    k = szego_kernel(a, 128)
    block = block_from_columns(4 / 3, [k * np.sqrt(1 - a**2)])
    (q,), (norm,) = extraction._extremal(block.basis[None])
    assert abs(norm - np.sqrt(3) / 2) < 1e-12
    expected = (1 - a**2) * k
    assert np.linalg.norm(q - expected) < 1e-12


# ---------------------------------------------------------------------------
# base point selection


def test_base_point_prefers_direct_branch():
    block = block_from_columns(1.0, [one(8), unit(1, 8)])
    assert selected_base_point(block) == 0


def test_base_point_on_grid_for_orthogonal_block():
    block = block_from_columns(1.0, [unit(1, 16)])
    alpha = selected_base_point(block)
    assert abs(alpha) >= 0.15  # |f(alpha)|^2 = |alpha|^2 grows outward


def test_base_point_avoids_common_zero():
    c = np.zeros(16, dtype=complex)
    c[1] = -0.3
    c[2] = 1.0  # f = z(z - 0.3), vanishes only at 0 and 0.3
    block = block_from_columns(1.0, [c / np.linalg.norm(c)])
    alpha = selected_base_point(block)
    assert abs(alpha) > 1e-3
    assert abs(alpha - 0.3) > 1e-3


def _base_point_by_loop(block):
    """Reference for the base point's grid search: one point at a time."""
    best_alpha, best_val = None, -1.0
    for r in extraction.BASE_POINT_RADII:
        angles = [0.0] if r == 0.0 else [
            2 * np.pi * k / extraction.BASE_POINT_ANGLES
            for k in range(extraction.BASE_POINT_ANGLES)
        ]
        for t in angles:
            alpha = r * np.exp(1j * t)
            vec = np.power(alpha, np.arange(block.basis.shape[0])) @ block.basis
            val = float(np.sum(np.abs(vec) ** 2))
            if val > best_val:
                best_val, best_alpha = val, alpha
    return complex(best_alpha)


def test_base_point_grid_product_matches_the_loop():
    # random blocks, zero past a random row and nearly orthogonal to the
    # constants, and blocks of random symbols; those that leave the origin
    rng = np.random.default_rng(21)
    blocks = []
    for _ in range(40):
        n, d = 64, int(rng.integers(1, 4))
        m = int(rng.integers(d + 1, n + 1))
        cols = np.zeros((n, d), dtype=complex)
        cols[:m] = rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))
        cols[0] *= rng.uniform(0.0, 0.05)
        blocks.append(SchmidtBlock(s=1.0, basis=_orthonormal_columns(cols)[0]))
    for _ in range(30):
        blocks += schmidt_decompose(build_hankel_matrix(random_symbol(rng), 128))
    blocks = [b for b in blocks if extraction._extremal(b.basis[None])[1][0] <= extraction.DIRECT_BRANCH_THRESHOLD]
    assert len(blocks) >= 30
    for block in blocks:
        assert selected_base_point(block) == _base_point_by_loop(block)


def test_base_point_fails_on_numerically_zero_block():
    # span{z^30}: the grid energy is at most 0.75^60 ~ 3e-8, below the 1e-6 floor
    block = block_from_columns(1.0, [unit(30, 128)])
    with pytest.raises(ExtractionError, match="numerically zero"):
        selected_base_point(block)


# ---------------------------------------------------------------------------
# inner function recovery


def test_recover_theta_shift_symbol():
    # u = z: E = span{1, z} = K_(z^2), p = 1, and Hitt's compression is the
    # 1 x 1 matrix of S^* on span{z}, whose eigenvalue 0 is the second zero
    n = 16
    gamma = build_hankel_matrix(RationalSymbol(poly=[0, 1]), n)
    (block,) = schmidt_decompose(gamma)
    (rep,) = extract_representations([(gamma, block)])
    assert rep.theta.degree == 2
    assert np.max(np.abs(rep.theta.zeros)) < 1e-15
    assert abs(rep.phi) < 1e-12
    assert rep.residuals.action < 1e-15
    # the canonical product with double zero at 0 is z^2 itself
    assert abs(blaschke_eval(rep.theta, 0.5) - 0.25) < 1e-12


def test_recover_theta_rank_one():
    # d = 1 needs no eigenproblem: theta = z, and phi is the phase of <H p / s, -p>
    n = 128
    gamma = build_hankel_matrix(rank_one_symbol(), n)
    (rep,) = extraction.extract_representations((gamma, b) for b in schmidt_decompose(gamma))
    assert np.array_equal(rep.theta.zeros, [0])
    assert rep.theta.phase == -1
    assert abs(rep.phi) < 1e-10
    assert rep.residuals.action < 1e-10


def test_recover_theta_output_is_inner():
    # u = S^* B: E = K_B, so theta is B, whose zeros are the eigenvalues
    n = 64
    zeros = [0.0, 0.3 + 0.2j]
    gamma = build_hankel_matrix(symbol_from_inner(BlaschkeProduct(zeros, 1.0)), n)
    block = schmidt_decompose(gamma)[0]
    (rep,) = extract_representations([(gamma, block)])
    assert np.max(np.abs(rep.theta.zeros - zeros)) < 1e-12
    z = np.exp(2j * np.pi * np.linspace(0, 1, 64, endpoint=False))
    assert np.max(np.abs(np.abs(blaschke_eval(rep.theta, z)) - 1)) < 1e-10
    assert max(rep.residuals.gated().values()) < 1e-12


def test_recover_theta_at_base_point_places_the_zero_there():
    # u = k_0.5: E = C k_0.5 with p = sqrt(3)/2 k_0.5 and theta = z; the
    # representative with theta(alpha) = 0 is b_alpha, which the Frostman
    # shift moves back to theta = z
    alpha = 0.3 + 0.1j
    gamma = build_hankel_matrix(rank_one_symbol(), 128)
    block = schmidt_decompose(gamma)[0]
    r = np.sqrt(1 - abs(alpha) ** 2)
    q = block.basis @ (block.basis.conj().T @ (r * np.conj(alpha) ** np.arange(128)))
    q /= np.linalg.norm(q)
    batch = extraction._Batch(
        1, v=block.basis[None], q=q[None], hq=hankel_apply(gamma, q)[None],
        s=np.array([block.s]), alpha=np.array([alpha]),
    )
    extraction._inner_factors(batch)
    (theta,) = batch.theta
    assert np.array_equal(theta.zeros, [alpha])
    rep = at_base_point(gamma, block, alpha)
    assert rep.canonicalized_at == alpha
    assert np.max(np.abs(rep.theta.zeros)) < 1e-15
    assert rep.residuals.action < 1e-12


def test_extract_monomials_up_to_the_order():
    # u = z^(d-1) at N = 16 is a polynomial of degree below N, so Gamma is the
    # whole operator: one block of multiplicity d, E = K_(z^d), p = 1 and
    # theta = z^d, up to d = 15; at d = N the model space does not fit.  The
    # d-fold zero scatters by eps^(1/d) as eigenvalues or roots, and is
    # reported by the cluster's mean at the origin and off it
    n = 16
    gammas = [build_hankel_matrix(RationalSymbol(poly=[0] * (d - 1) + [1]), n)
              for d in (8, 9, 10, 13, 16)]
    for gamma, d in zip(gammas, (8, 9, 10, 13)):
        (block,) = schmidt_decompose(gamma)
        assert block.multiplicity == d
        for alpha in (None, -0.45j):
            rep = at_base_point(gamma, block, alpha)
            assert rep.theta.degree == d
            assert np.max(np.abs(rep.theta.zeros)) < 1e-15
            assert rep.residuals.action < 1e-12
    (block,) = schmidt_decompose(gammas[-1])
    assert block.multiplicity == 16
    (err,) = extract_representations([(gammas[-1], block)])
    assert type(err) is ValueError and str(err) == "order 16 too small for a degree-16 model space"


def test_recover_theta_rejects_inconsistent_scale():
    n = 16
    gamma = build_hankel_matrix(RationalSymbol(poly=[0, 1]), n)
    (block,) = schmidt_decompose(gamma)
    (err,) = extract_representations([(gamma, replace(block, s=2.0))])
    assert isinstance(err, ExtractionError) and str(err).startswith("inconsistent data")


# ---------------------------------------------------------------------------
# full extraction


def test_extract_pure_inner_cube():
    sym = symbol_from_inner(BlaschkeProduct([0.0, 0.0, 0.0], 1.0))
    n = 64
    gamma = build_hankel_matrix(sym, n)
    blocks = schmidt_decompose(gamma)
    assert len(blocks) == 1 and blocks[0].multiplicity == 3
    (rep,) = extract_representations([(gamma, blocks[0])])
    # p is a unimodular constant
    assert abs(abs(rep.p[0]) - 1.0) < 1e-10
    assert np.linalg.norm(rep.p[1:]) < 1e-10
    assert np.allclose(rep.theta.zeros, 0)
    assert rep.residuals.action < 1e-9


def test_extract_rank_one_closed_forms():
    sym = rank_one_symbol()
    n = 128
    gamma = build_hankel_matrix(sym, n)
    block = schmidt_decompose(gamma)[0]
    assert abs(block.s - 4.0 / 3.0) < 1e-10
    (rep,) = extract_representations([(gamma, block)])
    assert rep.theta.degree == 1
    assert abs(rep.theta.zeros[0]) < 1e-12
    assert abs(rep.phi) < 1e-10
    expected = np.sqrt(3) / 2 * szego_kernel(0.5, n)
    assert np.linalg.norm(rep.p - expected) < 1e-10


def test_extracted_multiplier_is_a_read_only_vector():
    gamma = build_hankel_matrix(rank_one_symbol(a=0.7), 128)
    for base_point in (None, 0.3 + 0.1j):
        rep = at_base_point(gamma, schmidt_decompose(gamma)[0], base_point)
        assert type(rep.p) is np.ndarray and rep.p.ndim == 1 and rep.p.size == 128
        assert rep.p.dtype == np.complex128 and not rep.p.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rep.p[0] = 0.0


def test_extract_from_gamma_alone():
    # Gamma given directly by u_hat(n) = 2^{-n}; no symbol object exists
    n = 128
    gamma = HankelMatrix(2.0 ** -np.arange(2 * n - 1))
    (rep,) = extract_representations([(gamma, schmidt_decompose(gamma)[0])])
    assert np.array_equal(rep.theta.zeros, [0])
    expected = np.sqrt(3) / 2 * szego_kernel(0.5, n)
    assert np.max(np.abs(rep.p - expected)) < 1e-12
    built = build_hankel_matrix(rank_one_symbol(), n)
    (want,) = extract_representations([(built, schmidt_decompose(built)[0])])
    assert rep.residuals == want.residuals


@pytest.mark.parametrize("n", [128, 512])
@pytest.mark.parametrize("k", [-900, -520, 500])
def test_power_of_two_scaling_keeps_the_gated_residuals(k, n):
    # 2^k u scales Gamma exactly, and every gated residual is relative, so it
    # keeps its bits, also where the squares of s and of H q underflow (k < -511)
    def run(c):
        h = build_hankel_matrix(two_poles(c), n)
        blocks = schmidt_decompose(h)
        reps = extraction.extract_representations((h, b) for b in blocks)
        return blocks.singular_values, reps, analyze_symbol(two_poles(c), AnalysisConfig(n=n))

    ref_sing, ref_reps, ref_report = run(1.0)
    sing, reps, report = run(2.0**k)
    assert np.array_equal(sing, np.ldexp(ref_sing, k))
    assert len(reps) == len(ref_reps) == 2
    for rep, ref in zip(reps, ref_reps):
        assert rep.residuals.gated() == ref.residuals.gated()
    assert [b["pass"] for b in report["blocks"]] == [b["pass"] for b in ref_report["blocks"]]
    # at 2^500 the absolute truncation tail exceeds verify_tol
    assert report["pass"] == (k < 0) and ref_report["pass"]


# the report fields that carry the scale of u, with the power of 2^k that
# u -> 2^k u multiplies them by; "c" and "poly" are the symbol's own numbers
SCALED_FIELDS = {
    "s": 1, "singular_values": 1, "cluster_spread": 1, "cluster_separation": 1,
    "tail_bound": 1, "square_compression": 2, "square_commutator": 2,
    "c": 1, "poly": 1,
}


def assert_scaled_report(got, ref, k: int, power: int = 0, path: str = "report") -> None:
    """got equals ref, except that each float under a SCALED_FIELDS key is
    multiplied by 2^(power k): bit for bit where that product is a normal
    double, and not a normal double where it is not."""
    if isinstance(ref, dict):
        assert list(got) == list(ref), f"{path}: keys differ"
        for key in ref:
            assert_scaled_report(got[key], ref[key], k, SCALED_FIELDS.get(key, power), f"{path}.{key}")
    elif isinstance(ref, list):
        assert len(got) == len(ref), f"{path}: lengths differ"
        for i, (g, r) in enumerate(zip(got, ref)):
            assert_scaled_report(g, r, k, power, f"{path}[{i}]")
    elif isinstance(ref, float) and power:
        want = math.ldexp(ref, power * k)
        if ref != 0 and abs(want) < sys.float_info.min:
            assert abs(got) < sys.float_info.min, f"{path}: {got!r} is normal, 2^k times {ref!r} is not"
        else:
            assert got == want, f"{path}: {got!r} != {want!r}"
    else:
        assert got == ref and type(got) is type(ref), f"{path}: {got!r} != {ref!r}"


@pytest.mark.parametrize("k", [-900, -40, 20])
@pytest.mark.parametrize(
    "make, n",
    [(two_poles, 128), (lambda c: RationalSymbol(poly=np.array([0, 0.3, 0, 1]) * c), 16)],
    ids=["two-poles", "poly"],
)
def test_scale_moves_only_the_fields_that_carry_it(make, n, k):
    # Gamma of 2^k u is 2^k Gamma exactly, so every relative quantity keeps its
    # bits: the action is taken on the scale of s and near_invariance_u divides
    # by ||u||
    ref = analyze_symbol(make(1.0), AnalysisConfig(n=n))
    got = analyze_symbol(make(2.0**k), AnalysisConfig(n=n))
    assert ref["pass"]
    assert_scaled_report(got, ref, k)


def test_extract_theta_degree_equals_multiplicity():
    rng = np.random.default_rng(12)
    for _ in range(3):
        sym = random_symbol(rng)
        gamma = build_hankel_matrix(sym, 64)
        for block in schmidt_decompose(gamma):
            if not block.reliable:
                continue
            (rep,) = extract_representations([(gamma, block)])
            assert rep.theta.degree == block.multiplicity


def test_extract_canonical_form():
    rng = np.random.default_rng(13)
    sym = random_symbol(rng)
    gamma = build_hankel_matrix(sym, 64)
    for block in schmidt_decompose(gamma):
        (rep,) = extract_representations([(gamma, block)])
        assert abs(blaschke_eval(rep.theta, 0.0)) < 1e-10  # theta(0) = 0
        assert -np.pi < rep.phi <= np.pi
        p0 = rep.p[0]
        if abs(p0) > 1e-3:
            assert abs(p0.imag) < 1e-10 and p0.real > 0


def test_extract_mobius_branch_consistency_with_mapped_subspace():
    # conjugate the rank-one symbol and compare with the mapped original block
    alpha = 0.4
    n = 128
    sym0 = rank_one_symbol()
    gamma0 = build_hankel_matrix(sym0, n)
    block0 = schmidt_decompose(gamma0)[0]

    m = MobiusMap(alpha)
    w, _ = mobius_conjugate_symbol(sym0, m, 2 * n - 1)
    gamma_w = build_hankel_matrix(RationalSymbol(poly=w), n)
    block_w = schmidt_decompose(gamma_w)[0]
    assert abs(block_w.s - block0.s) < 1e-8

    (rep,) = extract_representations([(gamma_w, block_w)])
    assert max(rep.residuals.gated().values()) < 1e-7

    mapped, _ = _conjugate_functions([block0.basis[:, :1]], [m], n)
    gap, _ = _subspace_gaps(_orthonormal_columns(mapped)[0], block_w.basis)
    assert gap < 1e-7


def test_branch_independence_when_projection_moderate():
    # rank-one symbol at a = 0.7: the 1-projection of the block is in (0.1, 1)
    sym = rank_one_symbol(a=0.7)
    n = 128
    gamma = build_hankel_matrix(sym, n)
    block = schmidt_decompose(gamma)[0]
    (nq,) = extraction._extremal(block.basis[None])[1]
    assert 0.1 < nq < 1.0

    reps = extraction._extract([gamma] * 3, [block] * 3, [0.0, 0.3 + 0.1j, -0.5j], 1e-7)
    assert [rep.canonicalized_at for rep in reps] == [0.0, 0.3 + 0.1j, -0.5j]
    for rep in reps:
        assert max(rep.residuals.gated().values()) < 1e-6

    def weighted_basis(rep):
        cols = []
        ps = boundary_samples(rep.p, default_grid_size(n))
        for e in tm_basis(rep.theta, n).T:
            pe, _ = multiply_by_boundary(e[:, None], ps, n)
            cols.append(pe[:, 0])
        return _orthonormal_columns(np.column_stack(cols))[0]

    # the canonical triple does not depend on the base point
    first = reps[0]
    for rep in reps[1:]:
        assert _subspace_gaps(weighted_basis(first), weighted_basis(rep))[0] < 1e-12
        assert np.linalg.norm(rep.p - first.p) < 1e-12
        assert np.max(np.abs(rep.theta.zeros - first.theta.zeros)) < 1e-12
        assert abs(rep.theta.phase - first.theta.phase) < 1e-12
        assert abs(rep.phi - first.phi) < 1e-12

    # Hitt's eigenproblem at every base point, for d = 2, 3 and 5, for
    # B = b_a^2 b_(-0.5)^2 at base point a, where the representative
    # theta = B has double zeros, and for the blocks of two poles of
    # multiplicity 4; below 1e-6 s_max, down to 3.5e-9 s_max, the bound
    # widens by the error of about eps s_max / s the Schmidt vectors carry.
    # The direct route lists the zero at alpha = 0 first, so zeros are
    # compared as sets
    a = 0.3 + 0.2j
    double = build_hankel_matrix(symbol_from_inner(BlaschkeProduct([a, a, -0.5, -0.5])), n)
    cases = [(gamma, block, ()) for gamma, block in span_test_blocks() if block.multiplicity > 1]
    cases += [(double, block, (a,)) for block in schmidt_decompose(double)]
    poles = build_hankel_matrix(parse_symbol(MULTIPLE_POLES), n)
    cases += [(poles, block, ()) for block in schmidt_decompose(poles)]
    assert sorted({block.multiplicity for _, block, _ in cases}) == [1, 2, 3, 4, 5]
    for gamma, block, extra in cases:
        first = at_base_point(gamma, block, 0.0)
        s_max = schmidt_decompose(gamma)[0].s
        tol = 1e-10 if block.s >= 1e-6 * s_max else 1e-10 + np.finfo(float).eps * s_max / block.s
        for alpha in (0.3 + 0.1j, -0.5j, *extra):
            rep = at_base_point(gamma, block, alpha)
            assert rep.canonicalized_at == alpha
            assert max(rep.residuals.gated().values()) <= 1e-6
            assert np.max(np.abs(rep.p - first.p)) <= tol
            zeros = np.sort_complex(rep.theta.zeros) - np.sort_complex(first.theta.zeros)
            assert np.max(np.abs(zeros)) <= tol
            assert abs(rep.theta.phase - first.theta.phase) <= tol
            assert abs(math.remainder(rep.phi - first.phi, 2 * math.pi)) <= tol


def test_small_block_off_the_origin_is_exact():
    # block 3 of this draw (s = 0.12 s_max) is extracted at a base point off
    # the origin, at the block's own order
    report = analyze_symbol(random_symbol(np.random.default_rng(20)), AnalysisConfig(n=128))
    block = report["blocks"][2]
    assert block["representation"]["canonicalized_at"] != [0.0, 0.0]
    assert block["residuals"]["subspace_gap"] <= 1e-13
    assert block["residuals"]["action"] <= 1e-13


def test_wrap_phase_reports_pi_at_the_branch_cut():
    assert extraction._wrap_phase(-3.1415926535897927) == math.pi
    assert extraction._wrap_phase(-math.pi) == math.pi
    assert extraction._wrap_phase(3 * math.pi) == math.pi
    assert extraction._wrap_phase(-3.14159265358979) < 0  # 3e-15 above -pi stays


def test_triple_pole_phase_is_pi():
    path = BENCH_CASES / "triple-pole.json"
    report = analyze_symbol(parse_symbol(json.loads(path.read_text())), AnalysisConfig(n=128))
    assert report["blocks"][1]["representation"]["phi"] == math.pi


def test_verify_flags_perturbed_theta():
    sym = symbol_from_inner(BlaschkeProduct([0.0, 0.4], 1.0))
    n = 64
    gamma = build_hankel_matrix(sym, n)
    block = schmidt_decompose(gamma)[0]
    (rep,) = extract_representations([(gamma, block)])
    assert max(rep.residuals.gated().values()) < 1e-9

    bad_zeros = rep.theta.zeros.copy()
    bad_zeros[-1] += 0.1
    bad = Representation(
        p=rep.p,
        theta=BlaschkeProduct(bad_zeros, rep.theta.phase),
        phi=rep.phi,
        canonicalized_at=rep.canonicalized_at,
    )
    res_bad = verify_representation(gamma, block, bad)
    assert res_bad.subspace_gap > 1e-3
    assert res_bad.action > 1e-3


def test_verify_refuses_a_multiplier_whose_products_are_rank_deficient():
    # p = 0 makes every column p e_k zero, so no span can be compared with the block
    gamma = build_hankel_matrix(symbol_from_inner(BlaschkeProduct([0.0, 0.4], 1.0)), 64)
    block = schmidt_decompose(gamma)[0]
    (rep,) = extract_representations([(gamma, block)])
    with pytest.raises(ValueError, match="^columns are numerically rank deficient$"):
        verify_representation(gamma, block, replace(rep, p=np.zeros_like(rep.p)))


def test_verify_isometry_field_on_exact_input():
    sym = rank_one_symbol()
    gamma = build_hankel_matrix(sym, 128)
    block = schmidt_decompose(gamma)[0]
    (rep,) = extract_representations([(gamma, block)])
    assert rep.residuals.isometry < 1e-9


def test_near_invariance_property_when_p_usable():
    # Hitt-converse style check: |p(0)| > 1e-3 forces near-S*-invariance
    rng = np.random.default_rng(14)
    checked = 0
    for _ in range(5):
        sym = random_symbol(rng)
        gamma = build_hankel_matrix(sym, 128)
        for block in schmidt_decompose(gamma):
            if not block.reliable:
                continue
            (rep,) = extract_representations([(gamma, block)])
            res = rep.residuals
            if res.p_origin > 1e-3 and block.multiplicity > 0:
                assert res.near_invariance < 1e-7
                assert res.near_invariance_u < 1e-7
                checked += 1
    assert checked > 0


def symbol_projection_gap(gamma: HankelMatrix, block: SchmidtBlock, rep: Representation) -> float:
    """||P_E u - s e^{i phi} p(0) p S*theta||: the projection of the symbol
    onto the block against its closed form from the representation."""
    v, n = block.basis, block.basis.shape[0]
    projected = v @ (v.conj().T @ gamma.u)
    closed = np.convolve(rep.p, blaschke_coefficients(rep.theta, n + 1)[1:])[:n]
    return float(np.linalg.norm(projected - block.s * np.exp(1j * rep.phi) * rep.p[0] * closed))


def test_symbol_projection_follows_from_the_gated_checks():
    # Gamma's first row is u, so <u, f> = (Gamma conj(f))_0, and the action formula
    # on f = p e_k gives P_E u = s e^{i phi} p(0) p S*theta to within
    # ||u|| (gap + isometry) + sqrt(d) s action, with ||u|| <= s_max
    rng = np.random.default_rng(38)
    cases = [(rank_one_symbol(), 128),
             (symbol_from_inner(BlaschkeProduct([0.3 + 0.2j, -0.4, 0.1j])), 128)]
    cases += [(random_symbol(rng), n) for n in (128, 512) for _ in range(3)]
    checked = 0
    for sym, n in cases:
        gamma = build_hankel_matrix(sym, n)
        blocks = [b for b in schmidt_decompose(gamma) if b.reliable]
        s_max = max(b.s for b in blocks)
        for block, rep in zip(blocks, extraction.extract_representations((gamma, b) for b in blocks)):
            res = rep.residuals
            bound = (s_max * (res.subspace_gap + res.isometry)
                     + math.sqrt(block.multiplicity) * block.s * res.action)
            assert symbol_projection_gap(gamma, block, rep) <= 2 * bound + 1e-13 * s_max
            checked += 1
    assert checked >= 10


def test_conjugation_closed_form_matches_hankel_product():
    # C_theta e_k = -lambda e~_(d-1-k) against P_+(conj(z) theta conj(e_k)),
    # the Hankel product of theta's Taylor coefficients 1..2N-1 with e_k
    rng = np.random.default_rng(21)
    worst = 0.0
    for draw in range(200):
        n = (128, 256, 512)[draw % 3]
        d = int(rng.integers(1, 7))
        zeros = 0.8 * np.sqrt(rng.uniform(size=d)) * np.exp(2j * np.pi * rng.uniform(size=d))
        theta = BlaschkeProduct(zeros, np.exp(2j * np.pi * rng.uniform()))
        basis = tm_basis(theta, n, tail_tol=1e-8)
        theta_hat = blaschke_coefficients(theta, 2 * n)
        closed = extraction._conjugated_products(theta, one(n), basis, n, 1e-8)
        assert closed.shape == basis.shape
        for e, image in zip(basis.T, closed.T):
            worst = max(worst, float(np.linalg.norm(image - hankel_product(theta_hat[1:], e))))
    assert worst < 1e-13


def test_conjugated_products_of_degree_one_reuse_the_products():
    # for d = 1 the right side of the action is exactly -lambda p e_0
    rng = np.random.default_rng(4)
    p = rng.normal(size=64) + 1j * rng.normal(size=64)
    theta = BlaschkeProduct([0.3 - 0.5j], np.exp(0.7j))
    prods = extraction._weighted_model_space(tm_basis(theta, 64, tail_tol=1e-8), p)
    image = extraction._conjugated_products(theta, p, prods, 64, 1e-8)
    assert image.shape == (64, 1)
    assert np.array_equal(image, -theta.phase * prods)


def test_action_catches_each_fault_class():
    # A wrong phase, multiplier or inner factor breaks H(p e) = s e^{i phi} p C_theta e;
    # the action residual is divided by s, so it moves by about the fault at every s.
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(3):
        gamma = build_hankel_matrix(random_symbol(rng), 128)
        for block in schmidt_decompose(gamma):
            (rep,) = extract_representations([(gamma, block)])
            noise = rng.normal(size=128) + 1j * rng.normal(size=128)
            zeros = rep.theta.zeros.copy()
            zeros[-1] += 1e-3
            faults = [
                replace(rep, phi=rep.phi + 1e-3),
                replace(rep, p=rep.p + 1e-4 * noise / np.linalg.norm(noise)),
                replace(rep, theta=BlaschkeProduct(zeros, rep.theta.phase)),
                replace(rep, theta=BlaschkeProduct(rep.theta.zeros, rep.theta.phase * np.exp(1e-3j))),
            ]
            for bad in faults:
                res = verify_representation(gamma, block, bad)
                assert res.action > 1e-5
                assert max(res.gated().values()) > 1e-6
            checked += 1
    assert checked >= 6


def test_near_invariance_on_a_block_of_multiplicity_three():
    gamma = build_hankel_matrix(symbol_from_inner(BlaschkeProduct([0.3 + 0.2j, -0.4, 0.1j])), 128)
    (block,) = schmidt_decompose(gamma)
    assert block.multiplicity == 3 and abs(block.s - 1.0) < 1e-12
    (rep,) = extract_representations([(gamma, block)])
    res = rep.residuals
    assert res.near_invariance < 1e-12
    assert res.near_invariance_u < 1e-12

    # turn one basis column by 1e-3 towards a unit vector orthogonal to the block
    v = block.basis.copy()
    x = np.random.default_rng(5).normal(size=128).astype(np.complex128)
    w = x - v @ (v.conj().T @ x)
    w /= np.linalg.norm(w)
    v[:, 1] = math.cos(1e-3) * v[:, 1] + math.sin(1e-3) * w
    turned = replace(block, basis=v)
    res_turned = verify_representation(gamma, turned, rep)
    assert res_turned.near_invariance > 1e-4
    assert res_turned.near_invariance >= column_maxima(turned, gamma.u)[0][0]


def column_maxima(block, u):
    """Near-invariance as the largest values over the columns w_j of
    W = V null(V[0]), a figure that depends on which basis W has, and the
    number of columns."""
    v = block.basis
    w = v @ extraction._nullspace_of_row(v[0:1, :])
    sw = np.zeros_like(w)
    sw[:-1] = w[1:]
    dist = np.linalg.norm(sw - v @ (v.conj().T @ sw), axis=0)
    ip = np.abs(u.conj() @ sw) / np.linalg.norm(u)
    return (float(dist.max(initial=0.0)), float(ip.max(initial=0.0))), w.shape[1]


def span_test_blocks():
    """(gamma, block): multiplicities 2 (u = z, whose basis columns tie at N=16),
    3 and 5, and the blocks of multiplicity 1 of random symbols."""
    gammas = [
        build_hankel_matrix(RationalSymbol(poly=[0, 1]), 16),
        build_hankel_matrix(RationalSymbol(poly=[0, 0, 1]), 16),
        build_hankel_matrix(symbol_from_inner(BlaschkeProduct([0.3 + 0.2j, -0.4, 0.1j])), 128),
        build_hankel_matrix(
            symbol_from_inner(BlaschkeProduct([0.3 + 0.2j, -0.4, 0.1j, 0.5 - 0.3j, -0.2 - 0.6j])), 128
        ),
    ]
    rng = np.random.default_rng(30)
    gammas += [build_hankel_matrix(random_symbol(rng), 128) for _ in range(3)]
    return [(gamma, block) for gamma in gammas for block in schmidt_decompose(gamma)]


def test_extraction_depends_only_on_the_span():
    rng = np.random.default_rng(31)
    blocks = span_test_blocks()
    assert sorted({b.multiplicity for _, b in blocks}) == [1, 2, 3, 5]
    for gamma, block in blocks:
        (rep,) = extract_representations([(gamma, block)])
        near = extraction._near_invariance(block.basis[None], gamma.u)
        passed = max(rep.residuals.gated().values()) <= 1e-6
        d = block.multiplicity
        for _ in range(20):
            z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            turned = replace(block, basis=block.basis @ np.linalg.qr(z)[0])
            (got,) = extract_representations([(gamma, turned)])
            assert np.max(np.abs(got.p - rep.p)) < 1e-12
            assert np.max(np.abs(got.theta.zeros - rep.theta.zeros)) < 1e-12
            assert abs(got.theta.phase - rep.theta.phase) < 1e-12
            assert abs(math.remainder(got.phi - rep.phi, 2 * math.pi)) < 1e-12
            got_near = extraction._near_invariance(turned.basis[None], gamma.u)
            assert np.max(np.abs(np.subtract(got_near, near))) < 1e-12
            assert (max(got.residuals.gated().values()) <= 1e-6) == passed
            # never below the column maxima of any basis, equal to them on one column
            cols, width = column_maxima(turned, gamma.u)
            assert all(g >= (1 - 1e-12) * c for g, c in zip(got_near, cols))
            if width <= 1:
                assert np.max(np.abs(np.subtract(got_near, cols))) < 1e-15


# ---------------------------------------------------------------------------
# extraction gates on the verification report


@pytest.mark.parametrize("base_point", [None, 0.3 + 0.1j])
def test_extraction_residuals_equal_verify_representation(base_point):
    sym = rank_one_symbol(a=0.7)
    gamma = build_hankel_matrix(sym, 128)
    block = schmidt_decompose(gamma)[0]
    rep = at_base_point(gamma, block, base_point)
    assert rep.canonicalized_at == (base_point or 0)
    assert rep.residuals == verify_representation(gamma, block, rep)


def test_extract_isometry_gate_raises_on_scaled_multiplier(monkeypatch):
    # p scaled by 1 + 3e-10 deviates from an isometry by 3e-10 > 0.1 * tol;
    # the subspace gap and the action residual are unchanged by the scale
    sym = rank_one_symbol(a=0.7)
    gamma = build_hankel_matrix(sym, 128)
    block = schmidt_decompose(gamma)[0]
    (rep,) = extract_representations([(gamma, block)], tol=1e-9)
    assert rep.residuals.isometry < 1e-15
    canonicalize = extraction._canonicalize

    def scaled(p, phi):
        p, phi = canonicalize(p, phi)
        return p * (1 + 3e-10), phi

    monkeypatch.setattr(extraction, "_canonicalize", scaled)
    (err,) = extract_representations([(gamma, block)], tol=1e-9)
    assert isinstance(err, ExtractionError) and str(err).startswith("multiplier is not isometric: deviation 3.0")


@pytest.mark.parametrize("alpha", [1.0, float("nan"), complex(0.3, float("nan"))])
def test_extract_rejects_base_point_outside_disk(alpha):
    sym = rank_one_symbol()
    gamma = build_hankel_matrix(sym, 64)
    block = schmidt_decompose(gamma)[0]
    err = at_base_point(gamma, block, alpha)
    assert type(err) is ValueError and str(err) == "base point must lie in the open disk"


def test_extract_rejects_a_block_orthogonal_to_the_kernel_at_the_base_point():
    # f = (z - 0.3) k_0.2 vanishes at 0.3, so <f, k_0.3> = f(0.3) = 0 up to rounding
    n = 32
    kernel = 0.2 ** np.arange(n)
    f = np.concatenate([[0.0], kernel[:-1]]) - 0.3 * kernel
    block = SchmidtBlock(s=1.0, basis=(f / np.linalg.norm(f))[:, None])
    gamma = build_hankel_matrix(RationalSymbol(poly=[0, 1]), n)
    err = at_base_point(gamma, block, 0.3)
    assert isinstance(err, ExtractionError) and str(err) == (
        "projection of the kernel at the base point onto the block is 5.551e-17; "
        "the multiplier cannot be normalized")


def test_reports_are_identical_with_a_cold_or_a_warm_theta_cache():
    # theta = z and the other canonical inner functions are shared across
    # blocks and symbols (canonical_blaschke): a report must not depend on
    # which earlier analyses filled the cache
    rng = np.random.default_rng(21)
    docs = [json.dumps(symbol_to_dict(random_symbol(rng))) for _ in range(12)]
    docs += [p.read_text() for p in sorted(BENCH_CASES.glob("*.json"))]

    def report(doc):
        return json.dumps(analyze_symbol(parse_symbol(json.loads(doc)), AnalysisConfig(n=128)))

    blaschke._canonical.cache_clear()
    forward = {doc: report(doc) for doc in docs}
    assert blaschke._canonical.cache_info().hits > 0
    for doc in reversed(docs):
        assert report(doc) == forward[doc]
    cold = {}
    for doc in docs:
        blaschke._canonical.cache_clear()
        cold[doc] = report(doc)
    assert cold == forward


# ---------------------------------------------------------------------------
# the batched pass


MULTIPLE_POLES = {"poles": [
    {"b": [-0.5373490293139898, 0.5420310713300576], "m": 4, "c": [-0.1817340575870318, -0.7765437434910089]},
    {"b": [-0.6240873297441091, 0.35041257921138325], "m": 1, "c": [-0.26417203063295636, -0.3836678708723362]},
    {"b": [-0.23289309139962888, 0.276432820411099], "m": 4, "c": [0.32094578325073536, -0.1981513590391076]},
]}
# a symbol whose smallest block (2.9e-10 s_max) fails the action gate at N=128
SYMBOL_183 = {
    "poly": [[-0.08709895226163099, 2.30184206580847], [-1.2927582657112695, 0.627090644692311]],
    "poles": [
        {"b": [0.03746173516706306, 0.15628645771632382], "m": 2, "c": [0.1326310532547583, -0.8725106032481607]},
        {"b": [-0.2783057406397432, -0.13847367323902898], "m": 3, "c": [0.32019080346354917, 0.8667047455286133]},
        {"b": [-0.03616157438316852, -0.1492663171718748], "m": 3, "c": [-1.0297322814565903, -0.7549695283563244]},
    ],
}
Z_SQUARED = {"poly": [[0, 0], [0, 0], [1, 0]]}


def one_at_a_time(gamma, blocks):
    return [at_base_point(gamma, block, None, tol=1e-6) for block in blocks]


def assert_same_result(got, want, block, s_max):
    """The same outcome: the same error, or the same base point and inner
    degree with every float within 1e-12, widened by eps s_max / s, the
    error of the block's Schmidt vectors, which any change in rounding order
    can move a representation by."""
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
        return
    tol = 1e-12 + np.finfo(float).eps * s_max / block.s
    assert got.canonicalized_at == want.canonicalized_at
    assert got.theta.degree == want.theta.degree
    assert np.max(np.abs(got.p - want.p)) <= tol
    assert abs(math.remainder(got.phi - want.phi, 2 * math.pi)) <= tol
    assert np.max(np.abs(got.theta.zeros - want.theta.zeros)) <= tol
    assert abs(got.theta.phase - want.theta.phase) <= tol
    for name, value in want.residuals.as_dict().items():
        assert abs(getattr(got.residuals, name) - value) <= tol, name


@pytest.mark.parametrize("doc, n, count, off_origin, failing", [
    (MULTIPLE_POLES, 128, 9, 3, 0),
    (Z_SQUARED, 16, 1, 0, 0),
    (Z_SQUARED, 512, 1, 0, 0),
    (SYMBOL_183, 128, 8, 4, 1),
])
def test_batched_extraction_matches_one_block_at_a_time(doc, n, count, off_origin, failing):
    gamma = build_hankel_matrix(parse_symbol(doc), n)
    blocks = list(schmidt_decompose(gamma))
    assert len(blocks) == count
    want = one_at_a_time(gamma, blocks)
    forward = extraction.extract_representations(((gamma, b) for b in blocks), tol=1e-6)
    backward = extraction.extract_representations(((gamma, b) for b in blocks[::-1]), tol=1e-6)[::-1]
    errors = [w for w in want if isinstance(w, Exception)]
    assert len(errors) == failing
    assert all(str(e).startswith("action residual") for e in errors)
    assert not failing or isinstance(want[-1], ExtractionError)
    assert sum(not isinstance(w, Exception) and w.canonicalized_at != 0 for w in want) == off_origin
    if doc is Z_SQUARED:
        assert blocks[0].multiplicity == 3
    for block, w, f, b in zip(blocks, want, forward, backward):
        assert_same_result(f, w, block, blocks[0].s)
        assert_same_result(b, w, block, blocks[0].s)


def test_one_batch_over_several_gammas_matches_one_batch_per_gamma():
    # the blocks of four symbols, interleaved, in one call: each block is
    # extracted and verified against its own Gamma, to the bit, as long as
    # the blocks of one Gamma keep their order (one product per Gamma over
    # its blocks' columns)
    syms = [parse_symbol(doc) for doc in (MULTIPLE_POLES, SYMBOL_183, MULTIPLE_POLES)]
    gammas = [build_hankel_matrix(sym, 128) for sym in syms + [rank_one_symbol()]]
    per_gamma = [(g, list(schmidt_decompose(g))) for g in gammas]
    want = {(id(g), i): r for g, blocks in per_gamma
            for i, r in enumerate(extraction.extract_representations((g, b) for b in blocks))}
    pairs = sorted(((g, i, b) for g, blocks in per_gamma for i, b in enumerate(blocks)),
                   key=lambda pair: pair[1])
    got = extraction.extract_representations((g, b) for g, _, b in pairs)
    assert len(got) == len(want) == 27
    for (g, i, _), r in zip(pairs, got):
        w = want[id(g), i]
        if isinstance(w, Exception):
            assert type(r) is type(w) and str(r) == str(w)
            continue
        assert r.residuals == w.residuals and r.phi == w.phi
        assert np.array_equal(r.p, w.p) and np.array_equal(r.theta.zeros, w.theta.zeros)
