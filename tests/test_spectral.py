import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelschmidt.hankel import HankelMatrix, build_hankel_matrix
from hankelschmidt.pipeline import AnalysisConfig, analysis_exit_code, analyze_symbol
from hankelschmidt.spectral import (
    RANGE_BLOCK,
    SchmidtBlock,
    _nullspace_of_row,
    orthonormalize,
    schmidt_decompose,
    subspace_gap,
)
from hankelschmidt.suites import random_symbol
from hankelschmidt.symbols import PoleTerm, RationalSymbol


def test_shift_symbol_block():
    h = build_hankel_matrix(RationalSymbol(poly=[0, 1]), 16)
    blocks = schmidt_decompose(h)
    assert len(blocks) == 1
    b = blocks[0]
    assert abs(b.s - 1.0) < 1e-12
    assert b.multiplicity == 2
    target = np.zeros((16, 2), dtype=complex)
    target[0, 0] = 1.0
    target[1, 1] = 1.0
    assert subspace_gap(b.basis, target) < 1e-12


def test_schmidt_block_owns_its_basis():
    base = np.eye(4, dtype=complex)
    block = SchmidtBlock(s=1.0, basis=base[:, :1])
    base[0, 0] = 5.0
    assert block.basis[0, 0] == 1.0
    basis = np.eye(4, dtype=complex)[:, :2].copy()
    block = SchmidtBlock(s=1.0, basis=basis)
    basis[0, 0] = 5.0  # the caller's array stays writable
    assert block.basis[0, 0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        block.basis[0, 0] = 2.0


@pytest.mark.parametrize(
    "act, message",
    [
        (lambda: SchmidtBlock(s=1.0, basis=np.zeros((8, 0))),
         "basis must be an N x d matrix with d >= 1, got shape (8, 0)"),
        (lambda: schmidt_decompose(build_hankel_matrix(RationalSymbol(poly=[0, 1]), 16),
                                   cluster_tol=1.5),
         "cluster_tol must lie in (0, 1), got 1.5"),
        (lambda: subspace_gap(np.eye(4)[:, :1], np.eye(5)[:, :1]), "ambient dimensions differ: 4 vs 5"),
        (lambda: orthonormalize(np.ones((4, 2))), "columns are numerically rank deficient"),
    ],
    ids=["block-without-columns", "cluster-tol-above-one", "gap-dimension-mismatch",
         "rank-deficient-columns"],
)
def test_spectral_input_errors(act, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        act()


def test_rank_one_block():
    h = build_hankel_matrix(
        RationalSymbol(poles=(PoleTerm(b=0.5, m=1, c=1.0),)), 128
    )
    blocks = schmidt_decompose(h)
    assert len(blocks) == 1
    assert abs(blocks[0].s - 4.0 / 3.0) < 1e-12
    assert blocks[0].multiplicity == 1


def test_zero_symbol_no_blocks():
    h = build_hankel_matrix(RationalSymbol(poly=[0.0]), 16)
    blocks = schmidt_decompose(h)
    assert blocks == [] and np.array_equal(blocks.singular_values, np.zeros(16))


def test_multiplicities_and_kernel_account_for_dimension():
    rng = np.random.default_rng(0)
    n = 64
    h = build_hankel_matrix(random_symbol(rng), n)
    blocks = schmidt_decompose(h)
    total = sum(b.multiplicity for b in blocks)
    sing = np.linalg.svd(h.gamma, compute_uv=False)
    kernel_dim = int(np.sum(sing <= 1e-10 * sing[0]))
    assert total + kernel_dim == n


def test_blocks_invariant_under_antilinear_action():
    rng = np.random.default_rng(1)
    h = build_hankel_matrix(random_symbol(rng), 64)
    for b in schmidt_decompose(h):
        image = h.gamma @ np.conj(b.basis)
        resid = image - b.basis @ (b.basis.conj().T @ image)
        assert np.linalg.norm(resid) < 1e-8 * max(b.s, 1.0)


def test_eigenspace_residual():
    rng = np.random.default_rng(2)
    h = build_hankel_matrix(random_symbol(rng), 64)
    m = h.gamma @ np.conj(h.gamma)
    for b in schmidt_decompose(h):
        assert np.linalg.norm(m @ b.basis - b.s**2 * b.basis) < 1e-10 * max(b.s**2, 1.0)


def test_false_merge_is_flagged():
    # u_hat = (1, 0, lam) gives the diagonal Hankel matrix diag(1, lam); two
    # nearly equal singular values merge into one flagged cluster
    lam = 1.0 + 5e-9
    h = HankelMatrix(np.array([1.0, 0.0, lam], dtype=complex))
    blocks = schmidt_decompose(h)
    assert len(blocks) == 1
    assert blocks[0].multiplicity == 2
    assert not blocks[0].reliable


def test_reliable_is_read_from_the_warnings():
    basis = np.eye(4, 1)
    assert SchmidtBlock(s=1.0, basis=basis).reliable
    assert not SchmidtBlock(s=1.0, basis=basis, warnings=("ill-separated",)).reliable
    with pytest.raises(TypeError):
        SchmidtBlock(s=1.0, basis=basis, reliable=False)


def test_separation_is_on_the_singular_value_scale():
    # u_hat = (2, 0, 1) gives diag(2, 1): the gap is 1 in s, where on s^2 it would be 3
    h = HankelMatrix(np.array([2.0, 0.0, 1.0], dtype=complex))
    blocks = schmidt_decompose(h)
    assert [b.s for b in blocks] == [2.0, 1.0]
    assert [b.separation for b in blocks] == [1.0, 1.0]
    assert [b.spread for b in blocks] == [0.0, 0.0]


def test_decomposition_deterministic():
    rng = np.random.default_rng(3)
    sym = random_symbol(rng)
    h = build_hankel_matrix(sym, 64)
    a = schmidt_decompose(h)
    b = schmidt_decompose(h)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.basis, y.basis)
        assert x.s == y.s


def test_decompose_carries_all_singular_values():
    rng = np.random.default_rng(5)
    for n in (16, 64, 128):
        h = build_hankel_matrix(random_symbol(rng), n)
        blocks = schmidt_decompose(h)
        sing = blocks.singular_values
        assert sing.shape == (n,) and np.all(np.diff(sing) <= 0)
        assert not sing.flags.writeable
        ref = np.linalg.svd(h.gamma, compute_uv=False)
        assert np.max(np.abs(sing - ref)) <= 1e-12 * ref[0]
        for b in blocks:
            assert np.min(np.abs(sing - b.s)) <= 1e-8 * b.s


def exact_singular_values(bs, cs):
    """Nonzero singular values for the symbol sum c_j k_{b_j}, from its r x r Gram problem."""
    b = np.asarray(bs, dtype=complex)
    c = np.asarray(cs, dtype=complex)
    k = 1.0 / (1.0 - b[:, None] * np.conj(b[None, :]))
    m = np.diag(c) @ np.conj(k) @ np.diag(np.conj(c)) @ k
    return np.sort(np.sqrt(np.linalg.eigvals(m).real))[::-1]


def test_small_block_singular_value_is_exact():
    # eigenvalues of Gamma Gamma^* carry noise near eps * lambda_max, which is
    # large against s^2 for a block this small; the SVD resolves s directly
    bs, cs = (0.6, 0.5j), (1.0, 1e-3)
    sym = RationalSymbol(poles=tuple(PoleTerm(b=b, m=1, c=c) for b, c in zip(bs, cs)))
    blocks = schmidt_decompose(build_hankel_matrix(sym, 128))
    exact = exact_singular_values(bs, cs)
    assert len(blocks) == 2
    assert abs(exact[1] - 7.459432e-4) < 1e-9
    for block, s in zip(blocks, exact):
        assert abs(block.s - s) <= 1e-11 * s


def test_tiny_residues_keep_their_singular_values():
    # residues of 1e-160 give s near 1e-160, whose squares underflow: s is
    # averaged on the factored block's scale and multiplied back by 2^e, so
    # the blocks keep their values and the analysis passes
    def two_poles(c):
        return RationalSymbol(poles=(PoleTerm(b=0.5, m=1, c=c), PoleTerm(b=-0.3 + 0.2j, m=1, c=1j * c)))

    ref = schmidt_decompose(build_hankel_matrix(two_poles(1.0), 128))
    blocks = schmidt_decompose(build_hankel_matrix(two_poles(1e-160), 128))
    assert len(blocks) == len(ref) == 2
    for block, r in zip(blocks, ref):
        assert block.s == pytest.approx(1e-160 * r.s, rel=1e-12)
    report = analyze_symbol(two_poles(1e-160), AnalysisConfig(n=128))
    assert report["pass"] and analysis_exit_code(report) == 0


def record_factorizations(monkeypatch):
    """(kind, shape, compute_uv) of every SVD and eigh run from now on."""
    calls = []

    def counted(kind, fn):
        def wrapper(a, *args, **kwargs):
            calls.append((kind, np.shape(a), kwargs.get("compute_uv", True)))
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(scipy.linalg, "svd", counted("svd", scipy.linalg.svd))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    return calls


def assert_gamma_factored_once(calls, j, rank):
    """No SVD or eigh of order >= J, and one SVD with vectors of a k x J matrix, k near the rank."""
    assert all(min(shape) < j for _, shape, _ in calls)
    gamma_svds = [call for call in calls if call[0] == "svd" and call[1][1:] == (j,)]
    assert len(gamma_svds) == 1
    _, (k, _), compute_uv = gamma_svds[0]
    assert compute_uv and rank <= k <= rank + RANGE_BLOCK


def test_analyze_factors_gamma_once(monkeypatch):
    n = 64
    sym = RationalSymbol(poles=(PoleTerm(b=0.5, m=1, c=1.0), PoleTerm(b=-0.3j, m=1, c=0.7)))
    j = build_hankel_matrix(sym, n).numerical_order()
    calls = record_factorizations(monkeypatch)
    report = analyze_symbol(sym, AnalysisConfig(n=n))
    assert report["pass"] and report["numerical_rank"] == 2
    assert_gamma_factored_once(calls, j, 2)


# poles up to |b| = 0.8 and a double pole: Gamma is numerically of order J < N
# at N = 512 and 1024, with no subnormal entries in the full reference; the
# identity residuals of the same symbol are checked in test_hankel.py
TRIMMED_SYMBOL = RationalSymbol(poles=(
    PoleTerm(b=0.8, m=1, c=1.0),
    PoleTerm(b=-0.5j, m=1, c=0.7 - 0.2j),
    PoleTerm(b=0.3 + 0.2j, m=2, c=0.4),
))


def assert_matches_dense_svd(h, value_tol, gap_tol):
    blocks = schmidt_decompose(h)
    left, sing, _ = np.linalg.svd(h.gamma)
    assert np.max(np.abs(blocks.singular_values - sing)) <= value_tol * sing[0]
    first = 0
    for b in blocks:
        assert subspace_gap(b.basis, left[:, first : first + b.multiplicity]) <= gap_tol
        first += b.multiplicity
    return blocks


@pytest.mark.parametrize("n", [512, 1024])
def test_trimmed_factorization_matches_full_svd(n):
    h = build_hankel_matrix(TRIMMED_SYMBOL, n)
    assert h.numerical_order() < n
    blocks = assert_matches_dense_svd(h, 1e-12, 1e-12)
    assert [b.multiplicity for b in blocks] == [1, 1, 1, 1]


@pytest.mark.parametrize("n", [512, 1024])
def test_analyze_factors_leading_block_once(monkeypatch, n):
    j = build_hankel_matrix(TRIMMED_SYMBOL, n).numerical_order()
    assert j < n
    calls = record_factorizations(monkeypatch)
    report = analyze_symbol(TRIMMED_SYMBOL, AnalysisConfig(n=n))
    assert report["pass"] and report["numerical_rank"] == 4
    assert_gamma_factored_once(calls, j, 4)


@pytest.mark.parametrize("factor", [1e150, 1e-150, 2.0**500, 2.0**-500])
def test_factorization_is_scale_invariant(factor):
    h = build_hankel_matrix(random_symbol(np.random.default_rng(12)), 128)
    ref = schmidt_decompose(h)
    scaled = schmidt_decompose(HankelMatrix(h.coeffs * factor))
    if np.log2(factor).is_integer():
        # a power of two scales every entry exactly, so nothing else moves
        assert np.array_equal(scaled.singular_values, ref.singular_values * factor)
        assert all(np.array_equal(x.basis, y.basis) for x, y in zip(scaled, ref))
    else:
        # rounding c * Gamma moves each entry by eps / 2 relative, so s moves by about eps * s_max
        err = np.abs(scaled.singular_values - ref.singular_values * factor)
        assert np.max(err) <= 1e-14 * ref.singular_values[0] * factor
    assert [b.multiplicity for b in scaled] == [b.multiplicity for b in ref]
    for x, y in zip(scaled, ref):
        assert np.max(np.abs(x.basis - y.basis)) <= 1e-12


def test_full_numerical_rank_matches_dense_svd():
    # a degree-63 polynomial whose coefficients grow by 2 per degree: Gamma is
    # anti-triangular and well conditioned, so J = N = 64 and k = 64
    rng = np.random.default_rng(1)
    coeffs = (rng.normal(size=64) + 1j * rng.normal(size=64)) * 0.5 ** np.arange(63, -1, -1)
    h = build_hankel_matrix(RationalSymbol(poly=coeffs), 64)
    assert h.numerical_order() == 64
    blocks = assert_matches_dense_svd(h, 1e-12, 1e-10)
    assert sum(b.multiplicity for b in blocks) == 64
    assert np.all(blocks.singular_values > 0)


def test_graded_range_stays_orthonormal():
    # 14 poles with residues from 1 down to 1e-9: more directions than one
    # range step takes, and later ones come from residual columns far below
    # the largest, where a basis not orthogonalized again against Q loses
    # orthogonality and moves s by up to 1e-2 s_max
    rng = np.random.default_rng(0)
    bs = 0.75 * np.exp(2j * np.pi * np.arange(14) / 14)
    cs = 10.0 ** -rng.uniform(0, 9, size=14)
    sym = RationalSymbol(poles=tuple(PoleTerm(b=complex(b), m=1, c=float(c)) for b, c in zip(bs, cs)))
    blocks = assert_matches_dense_svd(build_hankel_matrix(sym, 128), 1e-12, 1e-6)
    v = np.hstack([b.basis for b in blocks])
    assert v.shape[1] >= 13
    assert np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])) <= 1e-13


def test_pole_near_circle_factors_at_its_rank():
    h = build_hankel_matrix(RationalSymbol(poles=(PoleTerm(b=0.99, m=1, c=1.0),)), 512)
    assert h.numerical_order() == 512
    blocks = schmidt_decompose(h)
    assert np.count_nonzero(blocks.singular_values) <= 2
    dense = scipy.linalg.svd(h.gamma, compute_uv=False)
    assert len(blocks) == 1 and abs(blocks[0].s - dense[0]) <= 1e-12 * dense[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_matrix_is_rejected(bad):
    # refused where it is built, so no scan, factorization or product sees it
    c = build_hankel_matrix(RationalSymbol(poly=[1.0, 0.5]), 16).coeffs.copy()
    c[7] = bad  # Gamma[3, 4] and every other entry on its antidiagonal
    with pytest.raises(ValueError, match="coefficients must be finite"):
        HankelMatrix(c)


# ---------------------------------------------------------------------------
# subspace gap


def test_gap_identical():
    q = orthonormalize(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    assert subspace_gap(q, q) == 0.0


def test_gap_orthogonal_lines():
    a = np.array([[1.0], [0.0]])
    b = np.array([[0.0], [1.0]])
    assert abs(subspace_gap(a, b) - 1.0) < 1e-14


def test_gap_rotated_line_closed_form():
    for t in (0.1, 0.4, 1.0, np.pi / 2):
        a = np.array([[1.0], [0.0]])
        b = np.array([[np.cos(t)], [np.sin(t)]])
        assert abs(subspace_gap(a, b) - abs(np.sin(t))) < 1e-12


def test_gap_rejects_non_orthonormal():
    a = np.array([[1.0], [1.0]])
    with pytest.raises(ValueError):
        subspace_gap(a, a)


def projector_gap(a, b):
    """||P_A - P_B|| from the N x N projectors."""
    return float(min(1.0, np.linalg.norm(a @ a.conj().T - b @ b.conj().T, 2)))


def random_isometry(rng, n, d):
    q, _ = np.linalg.qr(rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d)))
    return q


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 48),
    d_a=st.integers(0, 4),
    d_b=st.integers(0, 4),
    log_angles=st.lists(st.floats(-12.0, float(np.log10(np.pi / 2))), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_gap_matches_projector_formula(n, d_a, d_b, log_angles, seed):
    rng = np.random.default_rng(seed)
    d_a, d_b = min(d_a, n), min(d_b, n)
    if d_a == d_b and 2 * d_a <= n:
        # principal angles 10**log_angles between span(q[:, :d]) and span(b)
        angles = 10.0 ** np.array(log_angles[:d_a])
        q = random_isometry(rng, n, 2 * d_a)
        a = q[:, :d_a]
        b = (q[:, :d_a] * np.cos(angles) + q[:, d_a:] * np.sin(angles)) @ random_isometry(rng, d_a, d_a)
        expected = float(np.sin(angles.max())) if d_a else 0.0
        assert abs(subspace_gap(a, b) - expected) < 1e-14
    else:
        a, b = random_isometry(rng, n, d_a), random_isometry(rng, n, d_b)
    assert abs(subspace_gap(a, b) - projector_gap(a, b)) < 1e-14


def test_gap_tiny_rotation_is_resolved():
    rng = np.random.default_rng(8)
    q = random_isometry(rng, 32, 2)
    t = 1e-10
    b = q[:, :1] * np.cos(t) + q[:, 1:] * np.sin(t)
    assert abs(subspace_gap(q[:, :1], b) - t) < 1e-14


def test_gap_dimension_mismatch_and_empty():
    rng = np.random.default_rng(9)
    q = random_isometry(rng, 16, 3)
    assert subspace_gap(q[:, :2], q) == 1.0
    assert subspace_gap(q[:, :0], q[:, :1]) == 1.0
    assert subspace_gap(q[:, :0], q[:, :0]) == 0.0


def test_nullspace_of_row():
    assert _nullspace_of_row(np.array([[0.3 - 0.4j]])).shape == (1, 0)
    assert np.array_equal(_nullspace_of_row(np.zeros((1, 1))), np.eye(1))
    row = np.array([[1.0, 2j, -0.5]])
    w = _nullspace_of_row(row)
    assert w.shape == (3, 2)
    assert np.linalg.norm(row @ w) < 1e-14
    assert np.linalg.norm(w.conj().T @ w - np.eye(2)) < 1e-14
