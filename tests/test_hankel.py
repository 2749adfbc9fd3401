import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hankelschmidt.hardy import evaluate, grid_points
from hankelschmidt.hankel import (
    HankelMatrix,
    build_hankel_matrix,
    hankel_apply,
    residuals_from_matrix,
)
from hankelschmidt import pipeline
from hankelschmidt.pipeline import AnalysisConfig, analyze_symbol
from hankelschmidt.spectral import schmidt_decompose
from hankelschmidt.suites import random_symbol
from hankelschmidt.symbols import (
    PoleTerm,
    RationalSymbol,
    evaluate_symbol,
    fourier_coefficients,
    tail_bound,
)
from oracles import boundary_projection, boundary_samples, dense_decay, one, szego_kernel, unit


def rank_one_symbol(a=0.5, c=1.0):
    return RationalSymbol(poles=(PoleTerm(b=a, m=1, c=c),))


def test_build_shift_symbol():
    h = build_hankel_matrix(RationalSymbol(poly=[0, 1]), 2)
    assert np.array_equal(h.gamma, np.array([[0, 1], [1, 0]], dtype=complex))


def test_build_rank_one_outer_product():
    h = build_hankel_matrix(rank_one_symbol(), 32)
    v = 0.5 ** np.arange(32)
    assert np.linalg.norm(h.gamma - np.outer(v, v)) < 1e-14


@pytest.mark.parametrize("n", [16, 128, 512])
def test_u_is_the_exact_coefficient_vector(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        poles = tuple(PoleTerm(b=t.b, m=int(rng.integers(1, 5)), c=t.c)
                      for t in random_symbol(rng).poles)
        deg = int(rng.integers(0, 4))
        poly = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        sym = RationalSymbol(poly=poly, poles=poles)
        u = build_hankel_matrix(sym, n).u
        assert u.flags.c_contiguous
        assert np.array_equal(u, fourier_coefficients(sym, n))


def test_symmetry_exact():
    rng = np.random.default_rng(0)
    for _ in range(5):
        h = build_hankel_matrix(random_symbol(rng), 48)
        assert np.array_equal(h.gamma, h.gamma.T)


def test_apply_shift_symbol():
    h = build_hankel_matrix(RationalSymbol(poly=[0, 1]), 8)
    out = hankel_apply(h, one(8))
    assert np.allclose(out, unit(1, 8))


def test_apply_antilinear():
    h = build_hankel_matrix(RationalSymbol(poly=[0, 1]), 8)
    out = hankel_apply(h, 1j * one(8))
    assert np.allclose(out, -1j * unit(1, 8))


def test_apply_szego_closed_form():
    # H_u f = conj(f(a)) k_a for the kernel symbol at a
    n = 64
    h = build_hankel_matrix(rank_one_symbol(a=0.5), n)
    rng = np.random.default_rng(1)
    f = rng.normal(size=n) + 1j * rng.normal(size=n)
    out = hankel_apply(h, f)
    expected = np.conj(evaluate(f, 0.5)) * szego_kernel(0.5, n)
    assert np.linalg.norm(out - expected) < 1e-12 * np.linalg.norm(expected)


def test_square_shift_symbol_block_identity():
    h = build_hankel_matrix(RationalSymbol(poly=[0, 1]), 8)
    m = h.gamma @ np.conj(h.gamma)
    assert np.allclose(m[:2, :2], np.eye(2))
    assert np.allclose(m[2:, 2:], 0)


def test_square_rank_one_eigenvalue():
    n = 128
    h = build_hankel_matrix(rank_one_symbol(), n)
    m = h.gamma @ np.conj(h.gamma)
    vals = np.linalg.eigvalsh(m)
    assert abs(vals[-1] - (4.0 / 3.0) ** 2) < 1e-10
    assert np.all(np.abs(vals[:-1]) < 1e-12)


def test_square_hermitian_exactly():
    rng = np.random.default_rng(2)
    h = build_hankel_matrix(random_symbol(rng), 64)
    m = h.gamma @ np.conj(h.gamma)
    assert np.linalg.norm(m - m.conj().T) == 0.0


def test_identities_polynomial_symbol_exact():
    rng = np.random.default_rng(4)
    poly = rng.normal(size=16) + 1j * rng.normal(size=16)
    res = residuals_from_matrix(build_hankel_matrix(RationalSymbol(poly=poly), 64))
    assert res.max() < 1e-12


def test_identities_rank_one_within_tail_threshold():
    sym = rank_one_symbol()
    res = residuals_from_matrix(build_hankel_matrix(sym, 64))
    assert res.max() <= max(1e-10, 10 * tail_bound(sym, 64))


def test_identities_zero_symbol():
    res = residuals_from_matrix(build_hankel_matrix(RationalSymbol(poly=[0.0]), 32))
    assert res.max() == 0.0


def test_shift_intertwine_interior_exact():
    rng = np.random.default_rng(5)
    res = residuals_from_matrix(build_hankel_matrix(random_symbol(rng), 64))
    assert res.shift_intertwine == 0.0
    assert res.symmetry == 0.0


def shift_matrix_residuals(gamma):
    """The identity residuals written with explicit shift matrices S, S^T."""
    n = gamma.shape[0]
    u = gamma[:, 0]
    k = n - 1
    s = np.eye(n, k=-1, dtype=np.complex128)
    st = s.T
    e0 = np.zeros(n, dtype=np.complex128)
    e0[0] = 1.0
    m2 = gamma @ np.conj(gamma)
    hu = gamma @ np.conj(u)
    rank1 = np.outer(st @ hu, e0) - np.outer(u, np.conj(s @ u))
    diffs = {
        "shift_intertwine": (st @ gamma)[:k, :k] - (gamma @ s)[:k, :k],
        "square_compression": (st @ m2 @ s)[:k, :k] - (m2 - np.outer(u, np.conj(u)))[:k, :k],
        "square_commutator": (st @ m2 - m2 @ st)[:k, :k] - rank1[:k, :k],
        "symmetry": gamma - gamma.T,
    }
    return {name: float(np.linalg.norm(d, 2)) for name, d in diffs.items()}


def faulty_matrices(rng, n):
    """Non-Hankel, non-symmetric and fault-injected matrices."""
    h = build_hankel_matrix(random_symbol(rng), n)
    noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    flipped = h.gamma.copy()
    flipped[n // 2, n - 1] += 1e-6
    yield noise
    yield flipped
    yield noise + noise.T
    yield h.gamma + 1e-9 * noise


@pytest.mark.parametrize("n", [2, 3, 17, 64])
def test_residuals_equal_shift_matrix_formulation(n):
    cases = list(faulty_matrices(np.random.default_rng(n), n))
    for gamma in cases:
        assert residuals_from_matrix(gamma).as_dict() == shift_matrix_residuals(gamma)
    noise = residuals_from_matrix(cases[0])
    assert min(noise.shift_intertwine, noise.square_compression, noise.square_commutator, noise.symmetry) > 0


EPS2 = np.finfo(float).eps ** 2


def dropped_norm(gamma, j):
    """l2 norm of the entries of gamma outside its leading j x j block."""
    outside = np.ones(gamma.shape, dtype=bool)
    outside[:j, :j] = False
    return float(np.linalg.norm(gamma[outside]))


pole_terms = st.builds(
    lambda r, t, m, c, phase: PoleTerm(b=r * np.exp(1j * t), m=m, c=c * np.exp(1j * phase)),
    st.floats(0.0, 0.95), st.floats(0.0, 2 * np.pi), st.integers(1, 3),
    st.floats(1e-3, 2.0), st.floats(0.0, 2 * np.pi),
)


@settings(max_examples=200, deadline=None)
@given(poles=st.lists(pole_terms, min_size=1, max_size=4), n=st.sampled_from([16, 64, 128, 256]))
def test_numerical_order_is_the_smallest_order_within_bound(poles, n):
    h = build_hankel_matrix(RationalSymbol(poles=tuple(poles)), n)
    gamma = h.gamma
    bound = EPS2 * np.max(np.linalg.norm(gamma, axis=0))
    j = h.numerical_order()
    assert min(2, n) <= j <= n
    assert dropped_norm(gamma, j) <= bound * (1 + 1e-9)
    if j > min(2, n):
        assert dropped_norm(gamma, j - 1) > bound * (1 - 1e-9)
    assert HankelMatrix(h.coeffs * 1e-200).numerical_order() == j
    assert HankelMatrix(h.coeffs * 1e200).numerical_order() == j


def dense_tolerance(gamma):
    """N eps c^2, c the largest column norm: the rounding of the dense products."""
    c = np.max(np.linalg.norm(gamma, axis=0))
    return gamma.shape[0] * np.finfo(float).eps * c**2


@settings(max_examples=20, deadline=None)
@given(poles=st.lists(pole_terms, min_size=1, max_size=4), n=st.sampled_from([64, 128, 256, 512]))
def test_closed_form_residuals_are_the_tail_norms(poles, n):
    h = build_hankel_matrix(RationalSymbol(poles=tuple(poles)), n)
    gamma = h.gamma
    # Gamma's last row without its first entry, in norms that do not underflow
    v = np.abs(gamma[-1, 1:])
    norm_v, norm_w = math.hypot(*v), math.hypot(*v[:-1])
    got = residuals_from_matrix(h)
    assert got.shift_intertwine == got.symmetry == 0.0
    assert got.square_compression == pytest.approx(norm_v * norm_v, rel=1e-14, abs=1e-300)
    assert got.square_commutator == pytest.approx(norm_v * norm_w, rel=1e-14, abs=1e-300)
    dense = residuals_from_matrix(gamma).as_dict()
    for name, value in got.as_dict().items():
        assert abs(dense[name] - value) <= dense_tolerance(gamma)

    # when J < N, one entry of 1e-3 eps c at index N - 1 is not lost to
    # rounding: on the dense path it breaks the symmetry by its size
    fault = 1e-3 * np.finfo(float).eps * np.max(np.linalg.norm(gamma, axis=0))
    faulty = gamma.copy()
    faulty[0, -1] += fault
    if h.numerical_order() < n:
        assert residuals_from_matrix(faulty).symmetry > 0.9 * fault


@pytest.mark.parametrize("n", [1, 2, 3, 16])
def test_numerical_order_of_zero_matrix_is_floor(n):
    h = HankelMatrix(np.zeros(2 * n - 1))
    assert h.numerical_order() == min(2, n)


def test_entrywise_fault_near_the_order_reaches_square_commutator():
    # square_commutator's column J is square_compression's column J - 1: a
    # symmetric fault at index J - 1, where the closed form's v is zero, must
    # still show on the dense path, which an array given entry by entry takes
    n = 256
    sym = RationalSymbol(poles=(PoleTerm(b=0.4, m=1, c=1.0), PoleTerm(b=-0.3j, m=2, c=0.5)))
    h = build_hankel_matrix(sym, n)
    j = h.numerical_order()
    assert j + 2 < n
    # the fault in Gamma[j - 1, 0] is one in u as well
    faulty = h.gamma.copy()
    faulty[j - 1, 0] += 1e-7
    faulty[0, j - 1] += 1e-7
    got = residuals_from_matrix(faulty).as_dict()
    assert got == shift_matrix_residuals(faulty)
    assert got["square_commutator"] > 1e-8
    assert residuals_from_matrix(h).square_commutator < 1e-30


def gaussian_integer_hankel(rng, n):
    coeffs = rng.integers(-5, 6, 2 * n - 1) + 1j * rng.integers(-5, 6, 2 * n - 1)
    return HankelMatrix(coeffs)


@pytest.mark.parametrize("n", [2, 3, 17, 64])
def test_closed_form_equals_shift_matrix_formulation(n):
    # small Gaussian integers make every dense product exact, so the oracle
    # carries only the rounding of its SVDs
    rng = np.random.default_rng(n)
    for _ in range(20):
        h = gaussian_integer_hankel(rng, n)
        got = residuals_from_matrix(h).as_dict()
        for name, value in shift_matrix_residuals(h.gamma).items():
            assert abs(got[name] - value) <= 4 * np.spacing(value)


@pytest.mark.parametrize("n, draws", [(64, 10), (512, 2)])
def test_closed_form_agrees_with_dense_oracle(n, draws):
    rng = np.random.default_rng(n + 1)
    for _ in range(draws):
        h = build_hankel_matrix(random_symbol(rng), n)
        got = residuals_from_matrix(h).as_dict()
        for name, value in shift_matrix_residuals(h.gamma).items():
            assert abs(got[name] - value) <= dense_tolerance(h.gamma)


@pytest.mark.parametrize("n", [512, 1024])
def test_closed_form_matches_full_oracle_on_a_trimmed_symbol(n):
    # the symbol of test_spectral.py's trimmed-path tests: J < N at both
    # orders, so v is far below eps c and the oracle is all rounding
    sym = RationalSymbol(poles=(
        PoleTerm(b=0.8, m=1, c=1.0),
        PoleTerm(b=-0.5j, m=1, c=0.7 - 0.2j),
        PoleTerm(b=0.3 + 0.2j, m=2, c=0.4),
    ))
    h = build_hankel_matrix(sym, n)
    gamma = h.gamma
    assert h.numerical_order() + 2 < n
    got = residuals_from_matrix(h).as_dict()
    assert max(got.values()) < 1e-90
    for name, value in shift_matrix_residuals(gamma).items():
        assert abs(got[name] - value) <= dense_tolerance(gamma)


def test_built_matrix_residuals_take_no_spectral_norm(monkeypatch):
    # the pole at 0.99 has J = N; only the dense path on an array reaches a 2-norm
    h = build_hankel_matrix(rank_one_symbol(a=0.99), 128)
    assert h.numerical_order() == 128
    norm = np.linalg.norm
    calls = []

    def counted(x, ord=None, *args, **kwargs):
        calls.append((np.ndim(x), ord))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    residuals_from_matrix(h)
    assert all(ndim == 1 and ord is None for ndim, ord in calls)
    residuals_from_matrix(h.gamma)
    assert (2, 2) in calls


@pytest.mark.parametrize("b, trimmed", [(0.5, True), (0.99, False)])
def test_analyze_scans_gamma_decay_once(monkeypatch, b, trimmed):
    # analyze reads the cut from Gamma's 2N-1 coefficients: no N x N scan,
    # whose shells would come from np.tril
    n = 128
    sym = rank_one_symbol(a=b)
    assert (build_hankel_matrix(sym, n).numerical_order() < n) == trimmed
    tril = np.tril
    scans = []

    def counted(*args, **kwargs):
        scans.append(args[0].shape)
        return tril(*args, **kwargs)

    monkeypatch.setattr(np, "tril", counted)
    analyze_symbol(sym, AnalysisConfig(n=n))
    assert scans == []


symbols_with_origin = st.builds(
    lambda poles, origin, c, poly: RationalSymbol(
        poly=np.asarray(poly, dtype=complex) if poly else np.zeros(1),
        poles=tuple(poles) + ((PoleTerm(b=0.0, m=origin, c=c),) if origin else ()),
    ),
    st.lists(pole_terms, max_size=3),
    st.integers(0, 3),
    st.floats(1e-3, 2.0),
    st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False), max_size=4),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sym=symbols_with_origin, n=st.sampled_from([16, 64, 512, 1024]))
@example(sym=RationalSymbol(), n=16)
@example(sym=RationalSymbol(poles=(PoleTerm(b=0.0, m=3, c=1.0),)), n=1024)
def test_decay_from_coefficients_matches_dense_scan(sym, n):
    h = build_hankel_matrix(sym, n)
    largest, j, dense_column = dense_decay(h.gamma)
    assert h.numerical_order() == j
    assert h.largest_entry == largest
    assert abs(h._decay[2] - dense_column) <= 1e-14 * dense_column


def test_coefficients_must_match_gamma():
    # 2N-1 coefficients fix every entry of Gamma; any other count is refused
    h = build_hankel_matrix(rank_one_symbol(), 8)
    u = h.coeffs.copy()
    kept = HankelMatrix(u)
    assert np.array_equal(kept.gamma, scipy.linalg.hankel(u[:8], u[7:]))
    for bad in (u[:-1], np.append(u, 0.0), u[:, None]):
        with pytest.raises(ValueError, match="2N-1"):
            HankelMatrix(bad)
    assert not kept.coeffs.flags.writeable
    u[3] = 7.0  # the matrix keeps its own copy
    assert kept.coeffs[3] == h.coeffs[3]


@pytest.mark.parametrize(
    "act, error, message",
    [
        (lambda: setattr(build_hankel_matrix(rank_one_symbol(), 8), "order", 4), AttributeError,
         "HankelMatrix is read-only: cannot set 'order'"),
        (lambda: residuals_from_matrix(np.zeros((4, 3))), ValueError,
         "expected a square matrix, got shape (4, 3)"),
    ],
    ids=["assign-attribute", "non-square-residuals"],
)
def test_hankel_input_errors(act, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        act()


def test_interior_fault_breaks_shift_intertwine():
    # a symmetric fault at Gamma[400, 400] is no Hankel matrix: on the dense
    # path it shows in the shift identity by its size, not in the symmetry
    h = build_hankel_matrix(rank_one_symbol(), 512)
    faulty = h.gamma.copy()
    faulty[400, 400] += 0.5
    res = residuals_from_matrix(faulty)
    assert res.symmetry == 0.0
    assert res.shift_intertwine == pytest.approx(0.5)


def test_view_of_writable_matrix_is_copied():
    # a base that changes after the decay profile is cached must not change Gamma
    n = 64
    base = np.zeros(2 * n - 1, dtype=complex)
    base[:3] = [1, 0.5, 0.25]
    h = HankelMatrix(base[:])
    assert h.numerical_order() == 3
    base[-1] = 1.0
    assert h.gamma[-1, -1] == 0.0
    blocks = schmidt_decompose(h)
    expected = np.linalg.svd(build_hankel_matrix(RationalSymbol(poly=[1, 0.5, 0.25]), n).gamma, compute_uv=False)[:3]
    assert np.allclose(blocks.singular_values[:3], expected, rtol=1e-12)


def test_writable_matrix_and_coefficients_are_copied():
    # the caller's array stays writable, and writing to it does not reach Gamma
    coeffs = np.array([1.0, 0.5, 0.25, 0.0, 0.0, 0.0, 0.0], dtype=complex)
    h = HankelMatrix(coeffs)
    coeffs[0] = 2.0
    assert coeffs.flags.writeable
    assert h.gamma[0, 0] == 1.0 and h.u[0] == 1.0


def test_pairing_symmetry_random_vectors():
    rng = np.random.default_rng(6)
    h = build_hankel_matrix(random_symbol(rng), 128)
    for _ in range(10):
        f = rng.normal(size=128) + 1j * rng.normal(size=128)
        g = rng.normal(size=128) + 1j * rng.normal(size=128)
        f /= np.linalg.norm(f)
        g /= np.linalg.norm(g)
        lhs = np.vdot(g, hankel_apply(h, f))
        rhs = np.vdot(f, hankel_apply(h, g))
        assert abs(lhs - rhs) < 1e-12


def test_boundary_route_agreement():
    # Gamma conj(f) against sample-multiply-project, 50 random symbols
    rng = np.random.default_rng(7)
    n = 64
    z = grid_points(4 * n)
    for _ in range(50):
        sym = random_symbol(rng)
        h = build_hankel_matrix(sym, n)
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        f /= np.linalg.norm(f)
        direct = hankel_apply(h, f)
        samples = evaluate_symbol(sym, z) * np.conj(boundary_samples(f, 4 * n))
        projected, _ = boundary_projection(samples, n)
        assert np.linalg.norm(direct - projected) < 10 * tail_bound(sym, n) + 1e-10


def ldexp(z, e):
    """z * 2^e, part by part: exact for finite z unless a part under- or overflows."""
    return np.ldexp(z.real, e) + 1j * np.ldexp(z.imag, e)


def test_analyze_builds_no_full_matrix(monkeypatch):
    # a pole at 0.5 at N=512 has J << N: analyze reads only Gamma_J and u
    n = 512
    built = []
    hankel_builder = scipy.linalg.hankel

    def recording(c, r):
        built.append((len(c), len(r)))
        return hankel_builder(c, r)

    monkeypatch.setattr(scipy.linalg, "hankel", recording)
    matrices = []

    def keep(sym, order):
        matrices.append(build_hankel_matrix(sym, order))
        return matrices[-1]

    monkeypatch.setattr(pipeline, "build_hankel_matrix", keep)
    report = analyze_symbol(rank_one_symbol(), AnalysisConfig(n=n))
    (h,) = matrices
    j = h.numerical_order()
    assert report["pass"] and j < n // 4
    # one J x J array per matrix, built once from its coefficients
    assert built == [(j, j)]
    assert "gamma" not in vars(h)

    monkeypatch.undo()
    c = h.coeffs
    assert np.array_equal(h.gamma, scipy.linalg.hankel(c[:n], c[n - 1 :]))
    assert not h.gamma.flags.writeable and h.gamma is h.gamma
    assert np.array_equal(ldexp(h.block, h.exponent), h.gamma[:j, :j])
    assert h.block.flags.c_contiguous and not h.block.flags.writeable
    assert np.array_equal(h.u, h.gamma[:, 0])


@pytest.mark.parametrize("n", [16, 128, 512])
def test_block_is_gamma_j_scaled_by_a_power_of_two(n):
    # block is Gamma_J / 2^e with its entries within 1, and the factorization's
    # first-step column norms, from suffix sums, are the block's own
    rng = np.random.default_rng(n)
    for sym in (random_symbol(rng), random_symbol(rng), rank_one_symbol(c=1e-160)):
        h = build_hankel_matrix(sym, n)
        j = h.numerical_order()
        assert 0.5 <= np.abs(h.block).max() < 1
        assert np.array_equal(ldexp(h.block, h.exponent), h.gamma[:j, :j])
        assert h.block.flags.c_contiguous and not h.block.flags.writeable
        norms = np.linalg.norm(h.block, axis=0)
        assert np.max(np.abs(h.column_norms() - norms)) <= 1e-14 * norms.max()


def test_numerical_order_is_found_once(monkeypatch):
    h = build_hankel_matrix(rank_one_symbol(), 512)
    j = h.numerical_order()

    def scan(*args):
        raise AssertionError("the numerical order was searched again")

    monkeypatch.setattr(np, "flatnonzero", scan)
    assert h.numerical_order() == j
    hankel_apply(h, one(512))
    hankel_apply(h, np.ones((512, 2)))
    schmidt_decompose(h)


def test_apply_is_gamma_j_within_its_bound():
    # hankel_apply reads f[:J] and leaves rows J..N-1 zero; outside the
    # leading J x J block Gamma has Frobenius norm <= eps^2 c, and the dense
    # product itself rounds within N eps ||Gamma|| ||f||
    n, eps = 512, np.finfo(float).eps
    rng = np.random.default_rng(8)
    for _ in range(4):
        h = build_hankel_matrix(random_symbol(rng), n)
        j = h.numerical_order()
        assert j < n
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        out = hankel_apply(h, f)
        assert not out[j:].any()
        c = np.linalg.norm(h.gamma, axis=0).max()
        nf = np.linalg.norm(f)
        bound = eps**2 * c * nf + n * eps * np.linalg.norm(h.gamma, 2) * nf
        assert np.linalg.norm(out - h.gamma @ np.conj(f)) <= bound


def test_apply_to_a_matrix_applies_each_column():
    # an N x m input is m coefficient vectors, applied by one matrix product;
    # a column differs from its lone application only by rounding
    n, eps = 512, np.finfo(float).eps
    rng = np.random.default_rng(10)
    h = build_hankel_matrix(random_symbol(rng), n)
    j = h.numerical_order()
    f = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    out = hankel_apply(h, f)
    assert out.shape == (n, 3) and not out[j:].any()
    scale = n * eps * np.linalg.norm(ldexp(h.block, h.exponent), 2)
    for k in range(3):
        assert np.linalg.norm(out[:, k] - hankel_apply(h, f[:, k])) <= scale * np.linalg.norm(f[:, k])


def test_order_mismatch_rejected():
    h = build_hankel_matrix(RationalSymbol(poly=[0, 1]), 8)
    with pytest.raises(ValueError, match="order mismatch"):
        hankel_apply(h, one(4))
    with pytest.raises(ValueError, match="order mismatch"):
        hankel_apply(h, one(4)[:, None])
    with pytest.raises(ValueError, match="order mismatch"):
        hankel_apply(h, one(8)[:, None, None])
