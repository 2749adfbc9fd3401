import re

import numpy as np
import pytest
import scipy.signal

from hankelschmidt import blaschke
from hankelschmidt.blaschke import (
    BlaschkeProduct,
    _series_div,
    MobiusMap,
    blaschke_coefficients,
    blaschke_eval,
    canonical_blaschke,
    compose_with_mobius,
    frostman_shift,
    mobius_conjugate_function,
    mobius_conjugate_symbol,
    mobius_eval,
    tm_basis,
)
from hankelschmidt.hardy import default_grid_size, grid_points
from hankelschmidt.extraction import _conjugated_products
from hankelschmidt.suites import random_blaschke
from hankelschmidt.symbols import (
    PoleTerm,
    RationalSymbol,
    fourier_coefficients,
)
from oracles import (
    boundary_projection,
    boundary_samples,
    hankel_product,
    one,
    stable_roots,
    szego_kernel,
    tm_basis_recurrence,
    unit,
)

GRID = grid_points(256)


def test_sign_convention_zero_at_origin():
    b = BlaschkeProduct([0.0], -1.0)
    z = 0.3 - 0.4j
    assert abs(blaschke_eval(b, z) - z) < 1e-15


def test_boundary_modulus_one():
    rng = np.random.default_rng(0)
    for _ in range(5):
        b = random_blaschke(rng)
        vals = blaschke_eval(b, GRID)
        assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-10


def test_single_zero_values():
    b = BlaschkeProduct([0.5], 1.0)
    assert abs(blaschke_eval(b, 0.5)) < 1e-15
    assert abs(abs(blaschke_eval(b, 0.0)) - 0.5) < 1e-15


def test_blaschke_product_owns_its_zeros():
    zeros = np.array([0.5, 0.2j])
    b = BlaschkeProduct(zeros)
    zeros[0] = 0.9  # the caller's array stays writable
    assert b.zeros[0] == 0.5
    base = np.array([0.5, 0.2j, -0.3])
    b = BlaschkeProduct(base[:2])
    base[0] = 0.9
    assert b.zeros[0] == 0.5
    with pytest.raises(ValueError, match="read-only"):
        b.zeros[0] = 0.1


def test_blaschke_product_keeps_its_coefficients():
    b = BlaschkeProduct([0.5, 0.2j, -0.3], 1j)
    c = blaschke_coefficients(b, 64)
    assert blaschke_coefficients(b, 64) is c
    fresh = blaschke_coefficients(BlaschkeProduct(b.zeros.copy(), b.phase), 64)
    assert np.array_equal(c, fresh)
    for kept in (*blaschke._polynomials(b), c):
        assert not kept.flags.writeable


def test_zeros_must_stay_inside():
    with pytest.raises(ValueError):
        BlaschkeProduct([1.0], 1.0)
    with pytest.raises(ValueError):
        BlaschkeProduct([0.5], 0.0)  # zero phase


@pytest.mark.parametrize("z", [1.5, np.array([0.0, 1.1j])], ids=["point", "array"])
def test_blaschke_eval_rejects_points_outside_the_disk(z):
    with pytest.raises(ValueError, match="^evaluation point outside the closed unit disk$"):
        blaschke_eval(BlaschkeProduct([0.5]), z)


def test_series_matches_boundary_sampling():
    rng = np.random.default_rng(1)
    for _ in range(5):
        b = random_blaschke(rng)
        n = 64
        series = blaschke_coefficients(b, n)
        sampled, _ = boundary_projection(blaschke_eval(b, GRID), n)
        assert np.linalg.norm(series - sampled) < 1e-10


def long_division(num, den, order):
    """Taylor coefficients of num/den, one coefficient at a time."""
    out = np.zeros(order, dtype=np.complex128)
    for n in range(order):
        acc = num[n] if n < len(num) else 0.0
        kmax = min(n, len(den) - 1)
        if kmax:
            acc -= np.dot(den[1 : kmax + 1], out[n - kmax : n][::-1])
        out[n] = acc / den[0]
    return out


def test_series_div_matches_long_division():
    rng = np.random.default_rng(12)
    cases = [([1.0], [1.0], 1), ([1.0, 2.0, 3.0], [1.0, 0.5], 1), ([0.0, 1.0], [2.0], 5)]
    for _ in range(20):
        zeros = random_blaschke(rng).zeros
        lead = rng.normal() + 1j * rng.normal()  # den[0] != 1
        den = lead * np.poly(1 / np.conj(zeros))[::-1] / np.prod(-1 / np.conj(zeros))
        size = rng.integers(1, 6)
        num = rng.normal(size=size) + 1j * rng.normal(size=size)
        cases.append((num, den, int(rng.integers(1, 400))))
    for num, den, order in cases:
        num, den = np.asarray(num, dtype=complex), np.asarray(den, dtype=complex)
        ref = long_division(num, den, order)
        out = _series_div(num, den, order)
        assert out.shape == (order,)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
    # stacks of k rows laid end to end: a band left uncut at a row's end would
    # leak into the next row, and a zero of modulus 0.99 in every row leaves
    # each row's tail large there
    for width in (2, 3, 4, 5):
        for order in (1, 3, 40, 300):
            k, size = int(rng.integers(2, 7)), int(rng.integers(1, 6))
            angles = np.exp(2j * np.pi * rng.uniform(size=(k, width - 1)))
            zeros = 0.9 * np.sqrt(rng.uniform(size=(k, width - 1))) * angles
            zeros[:, 0] = 0.99 * angles[:, 0]
            dens = np.array([np.poly(1 / np.conj(z))[::-1] / np.prod(-1 / np.conj(z)) for z in zeros])
            dens *= (rng.normal(size=k) + 1j * rng.normal(size=k))[:, None]
            nums = rng.normal(size=(k, size)) + 1j * rng.normal(size=(k, size))
            out = _series_div(nums, dens, order)
            assert out.shape == (k, order)
            for row, num, den in zip(out, nums, dens):
                assert row.tobytes() == _series_div(num, den, order).tobytes()
                ref = long_division(num, den, order)
                assert np.max(np.abs(row - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_canonical_blaschke_leading_coefficient_positive():
    rng = np.random.default_rng(2)
    for _ in range(5):
        b = canonical_blaschke(random_blaschke(rng).zeros)
        c = blaschke_coefficients(b, b.degree + 1)
        lead = c[np.flatnonzero(np.abs(c) > 1e-12)[0]]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_canonical_blaschke_is_shared_and_equals_a_fresh_build():
    rng = np.random.default_rng(5)
    for zeros in ([0.0], [0.0, 0.3 - 0.2j], random_blaschke(rng, max_degree=4).zeros):
        b = canonical_blaschke(zeros)
        assert canonical_blaschke(np.array(zeros)) is b
        fresh = blaschke._canonical.__wrapped__(np.asarray(zeros, dtype=np.complex128).tobytes())
        assert fresh is not b
        assert np.array_equal(b.zeros, fresh.zeros) and b.phase == fresh.phase
        assert np.array_equal(blaschke_coefficients(b, 64), blaschke_coefficients(fresh, 64))
        assert np.array_equal(tm_basis(b, 64), tm_basis(fresh, 64))


def test_canonical_blaschke_cache_is_bounded():
    rng = np.random.default_rng(6)
    first = canonical_blaschke([0.25j])
    for _ in range(blaschke.CANONICAL_CACHE_SIZE):
        canonical_blaschke(rng.uniform(-0.5, 0.5, size=2))
    assert blaschke._canonical.cache_info().currsize <= blaschke.CANONICAL_CACHE_SIZE
    again = canonical_blaschke([0.25j])
    assert again is not first  # evicted, then built again
    assert np.array_equal(again.zeros, first.zeros) and again.phase == first.phase


# ---------------------------------------------------------------------------
# model spaces


def test_tm_basis_monomials():
    # with every a_j = 0 the formula gives e_k = (-z)^k
    basis = tm_basis(BlaschkeProduct([0.0, 0.0, 0.0]), 16)
    for k, e in enumerate(basis.T):
        assert np.allclose(e, (-1) ** k * unit(k, 16))


def test_tm_basis_single_zero_is_normalized_kernel():
    a = 0.5
    basis = tm_basis(BlaschkeProduct([a]), 64)
    expected = np.sqrt(1 - a**2) * szego_kernel(a, 64)
    assert np.linalg.norm(basis[:, 0] - expected) < 1e-12


def test_tm_basis_gram_identity():
    rng = np.random.default_rng(3)
    for _ in range(5):
        b = random_blaschke(rng)
        v = tm_basis(b, 128)
        gram = v.conj().T @ v
        assert np.linalg.norm(gram - np.eye(b.degree)) < 1e-12


def test_tm_basis_membership_in_model_space():
    rng = np.random.default_rng(4)
    n = 128
    b = random_blaschke(rng, max_degree=4)
    theta = blaschke_coefficients(b, n)
    for e in tm_basis(b, n).T:
        # orthogonal to theta * z^j for all j with room
        for j in range(0, n - b.degree - 1, 7):
            shifted = np.zeros(n, dtype=complex)
            shifted[j:] = theta[: n - j]
            ip = np.vdot(shifted, e)
            assert abs(ip) < 1e-9


def test_tm_basis_insufficient_order_rejected():
    b = BlaschkeProduct([0.97], 1.0)
    with pytest.raises(ValueError):
        tm_basis(b, 32)


def test_tm_basis_is_one_kept_read_only_matrix():
    b = BlaschkeProduct([0.5, -0.2j, 0.1])
    first = tm_basis(b, 64)
    assert isinstance(first, np.ndarray) and first.shape == (64, b.degree)
    assert first.flags.c_contiguous and not first.flags.writeable
    expected = first.copy()
    with pytest.raises(ValueError, match="read-only"):
        first[0, 0] = 1.0
    assert tm_basis(b, 64) is first
    assert np.array_equal(first, expected)
    assert np.array_equal(tm_basis(BlaschkeProduct(b.zeros.copy()), 64), expected)


@pytest.mark.parametrize("order", [1, 16, 128])
def test_tm_basis_of_degree_zero_is_an_empty_matrix(order):
    b = BlaschkeProduct([], 1j)
    basis = tm_basis(b, order)
    assert basis.shape == (order, 0) and not basis.flags.writeable
    assert tm_basis(b, order) is basis


def test_tm_basis_keeps_no_basis_that_failed_its_tail_gate():
    b = BlaschkeProduct([0.97])
    for _ in range(2):
        with pytest.raises(ValueError, match="insufficient"):
            tm_basis(b, 32)
    assert not any(key[0] == "tm" for key in b._kept)
    loose = tm_basis(b, 32, tail_tol=1.0)  # the same order passes a looser gate
    assert b._kept["tm", 32, 1.0] is loose and loose.shape == (32, 1)
    with pytest.raises(ValueError, match="insufficient"):
        tm_basis(b, 32)


def test_tm_basis_names_the_first_failing_element():
    b = BlaschkeProduct([0.1, 0.97, 0.99])
    _, tails = tm_basis_recurrence(b, 32)
    assert tails[0] <= 1e-10 < min(tails[1:])
    message = f"tail estimate {tails[1]:.3e} of element 1 exceeds 1.0e-10"
    with pytest.raises(ValueError, match=re.escape(message)):
        tm_basis(b, 32)


def test_tm_basis_elements_equal_the_per_element_recurrence():
    rng = np.random.default_rng(29)
    verdicts = []
    for order in (16, 128, 512):
        for _ in range(30):
            b = random_blaschke(rng, max_degree=6, max_radius=0.99)
            want, tails = tm_basis_recurrence(b, order)
            got = tm_basis(b, order, tail_tol=np.inf)
            assert got.shape == (order, len(want))
            assert all(np.array_equal(e, w) for e, w in zip(got.T, want))
            try:
                tm_basis(b, order)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == (max(tails) <= 1e-10)
            verdicts.append(accepted)
    assert 0 < sum(verdicts) < len(verdicts)


def conjugate(b, h):
    """C_B h = P_+(conj(z) B conj(h)) by the Hankel-product oracle, from B's
    Taylor coefficients to order 2N."""
    theta = blaschke_coefficients(b, 2 * h.size)
    return hankel_product(theta[1:], h)


def closed_form(b, order):
    """The Takenaka-Malmquist basis e_k of K_B and C_B e_k in closed form."""
    basis = tm_basis(b, order)
    return basis, _conjugated_products(b, one(order), basis, order, 1e-10)


def test_conjugation_on_monomial_space():
    b = BlaschkeProduct([0.0, 0.0], 1.0)  # z^2 up to the product sign
    z = grid_points(128)
    expected, _ = boundary_projection(np.conj(z) * blaschke_eval(b, z), 32)
    assert np.linalg.norm(conjugate(b, one(32)) - expected) < 1e-12
    # one(32) is e_0, whose image is -phase * e~_1 = z
    basis, images = closed_form(b, 32)
    assert np.array_equal(basis[:, 0], one(32))
    assert np.array_equal(images[:, 0], unit(1, 32))


def test_conjugation_is_isometric_involution():
    rng = np.random.default_rng(5)
    n = 128
    b = random_blaschke(rng, max_degree=5)
    basis, images = closed_form(b, n)
    coefs = rng.normal(size=b.degree) + 1j * rng.normal(size=b.degree)
    h = basis @ coefs
    image = conjugate(b, h)
    assert abs(np.linalg.norm(image) - np.linalg.norm(h)) < 1e-10
    again = conjugate(b, image)
    assert np.linalg.norm(again - h) < 1e-10
    # image stays inside the model space
    resid = image - basis @ (basis.conj().T @ image)
    assert np.linalg.norm(resid) < 1e-10
    # C_B is anti-linear, so the closed form on the basis gives the same image
    assert np.linalg.norm(images @ np.conj(coefs) - image) < 1e-10


def test_conjugation_matches_boundary_formula():
    # oracle: conj(z) theta(z) conj(h(z)) sampled on 4N points, then projected;
    # both the Hankel product and the closed form must match it
    rng = np.random.default_rng(11)
    n = 128
    z = grid_points(default_grid_size(n))
    worst = 0.0
    for _ in range(50):
        b = random_blaschke(rng)
        theta_z = blaschke_eval(b, z)
        basis, images = closed_form(b, n)
        for e, closed in zip(basis.T, images.T):
            samples = np.conj(z) * theta_z * np.conj(boundary_samples(e, z.size))
            expected, _ = boundary_projection(samples, n)
            for out in (conjugate(b, e), closed):
                worst = max(worst, float(np.linalg.norm(out - expected)))
    assert worst < 1e-13


# ---------------------------------------------------------------------------
# Frostman shifts


def test_frostman_alpha_zero():
    b = BlaschkeProduct([0.3, -0.2j], np.exp(0.7j))
    shifted, g = frostman_shift(b, 0.0, 32)
    vals = blaschke_eval(shifted, GRID) + blaschke_eval(b, GRID)
    assert np.max(np.abs(vals)) < 1e-12  # B_0 = -B
    assert abs(shifted.phase + b.phase) < 1e-15
    assert np.linalg.norm(g - one(32)) < 1e-14


@pytest.mark.parametrize(
    "phase, alpha, want",
    [(1j, 0.3 + 0.1j, 0.6 - 0.8j), (1j, 0.5j, -1j), (1.0, 0.5, -1.0), (-1.0, 0.0, 1.0)],
)
def test_frostman_degree_zero_is_the_constant_shift(phase, alpha, want):
    # B = phase is constant, so B_alpha = (alpha - phase) / (1 - conj(alpha) phase)
    shifted, _ = frostman_shift(BlaschkeProduct([], phase), alpha, 16)
    assert shifted.degree == 0
    assert abs(shifted.phase - want) < 1e-15


def test_frostman_gate_rejects_roots_off_by_1e_6(monkeypatch):
    stable_roots = blaschke._stable_roots
    monkeypatch.setattr(blaschke, "_stable_roots", lambda poly: stable_roots(poly) + 1e-6)
    b = BlaschkeProduct([0.3, -0.2j], np.exp(0.7j))
    with pytest.raises(ValueError, match="deviates"):
        frostman_shift(b, 0.25 - 0.1j, 32)


def test_stacked_products_match_blaschke_eval_row_by_row():
    rng = np.random.default_rng(14)
    zeros = 0.7 * np.sqrt(rng.uniform(size=(4, 3))) * np.exp(2j * np.pi * rng.uniform(size=(4, 3)))
    phases = np.exp(2j * np.pi * rng.uniform(size=4))
    got = blaschke._products(zeros, phases, GRID)
    assert got.shape == (4, GRID.size)
    for row, phase, values in zip(zeros, phases, got):
        assert np.array_equal(values, blaschke_eval(BlaschkeProduct(row, phase), GRID))


def test_batched_roots_match_np_roots_row_by_row():
    # one companion eigvals per stack gives np.roots' roots bit for bit,
    # with exact zero roots appended and tiny top coefficients cut off
    rng = np.random.default_rng(12)
    polys = rng.normal(size=(9, 5)) + 1j * rng.normal(size=(9, 5))
    polys[1, 0] = 0.0  # one root at 0
    polys[2, :2] = 0.0  # two
    polys[3, -1] = 1e-16  # the top coefficient is cut: three roots
    polys[4, 1:] = 0.0  # a constant has none
    polys[5] = 0.0
    polys[6, [0, -1]] = 0.0, 1e-16  # cut at the top and a root at 0
    polys[7, :-1] = 0.0  # only roots at 0
    got = blaschke._stable_roots(polys)
    assert got.shape == (9, 4)
    for row, roots in zip(polys, got):
        want = stable_roots(row)
        assert np.array_equal(roots[: want.size], want)
        assert np.isnan(roots[want.size :]).all()


def test_stacked_frostman_shifts_match_one_at_a_time():
    rng = np.random.default_rng(13)
    b = random_blaschke(rng, max_degree=4)
    alphas = np.array([0.3j, -0.2 + 0.1j, 0.45, 1.0])
    with pytest.raises(ValueError, match="Frostman parameter"):
        blaschke._frostman_shifts([b] * 4, alphas, 32)
    z = BlaschkeProduct([0.0, 0.0])  # z^2: a shift by 1 - 1e-11 has a zero near the circle
    zeros, phases, g, errors = blaschke._frostman_shifts([z] * 3, np.array([0.3, 1 - 1e-11, -0.4j]), 32)
    assert errors[0] is None and errors[2] is None and "circle" in str(errors[1])
    # a stack of several products of one degree, each at its own parameters
    bs = [b, *(BlaschkeProduct(0.6 * random_blaschke(rng).zeros[:1].repeat(b.degree) ** (k + 1), 1j)
               for k in range(2))]
    stack = [bs[0]] * 3 + [bs[1], bs[2], bs[1]]
    params = np.concatenate([alphas[:3], [0.1, -0.3j, 0.2 - 0.2j]])
    zeros, phases, g, errors = blaschke._frostman_shifts(stack, params, 32)
    for k, (bk, alpha) in enumerate(zip(stack, params)):
        shifted, gk = frostman_shift(bk, alpha, 32)
        assert errors[k] is None
        assert np.array_equal(shifted.zeros, zeros[k])
        assert shifted.phase == BlaschkeProduct(zeros[k], phases[k]).phase
        assert np.array_equal(gk, g[k])


@pytest.mark.parametrize(
    "zeros, alpha",
    [
        ([0.999, -0.999, 0.999j], 0.3),
        ([0.999, -0.999, 0.999j], 0.3 + 0.2j),
        ([0.9999, 0.9999j, -0.9999, -0.9999j], 0.4),
        (0.99 * np.exp(1j * np.linspace(0, 6, 8)), 0.5),
    ],
)
def test_frostman_accepts_zeros_near_the_circle(zeros, alpha):
    # The gate must not collapse with prod_j (1 - |a_j|): these shifts hold
    # to 1e-10 on a fine boundary grid, where every zero's feature is resolved
    b = BlaschkeProduct(zeros, np.exp(0.4j))
    shifted, _ = frostman_shift(b, alpha, 32)
    z = grid_points(1 << 16)
    bz = blaschke_eval(b, z)
    target = (alpha - bz) / (1 - np.conj(alpha) * bz)
    assert np.max(np.abs(blaschke_eval(shifted, z) - target)) < 1e-10


def test_frostman_degree_one_cancellation():
    # For B = z: g_alpha times the normalized kernel at alpha is the constant
    alpha = 0.37 - 0.21j
    b = BlaschkeProduct([0.0], -1.0)  # B(z) = z
    shifted, g = frostman_shift(b, alpha, 64)
    k = np.sqrt(1 - abs(alpha) ** 2) * szego_kernel(alpha, 64)
    prod_samples = boundary_samples(g, 256) * boundary_samples(k, 256)
    prod, _ = boundary_projection(prod_samples, 64)
    assert np.linalg.norm(prod - one(64)) < 1e-10
    assert abs(blaschke_eval(shifted, 0.0) - 0.0) != 0 or shifted.degree == 1


def test_frostman_boundary_identity():
    rng = np.random.default_rng(6)
    for _ in range(5):
        b = random_blaschke(rng)
        alpha = 0.5 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        shifted, _ = frostman_shift(b, alpha, 64)
        g = (1 - np.conj(alpha) * blaschke_eval(b, GRID)) / np.sqrt(1 - abs(alpha) ** 2)
        resid = g * blaschke_eval(shifted, GRID) + blaschke_eval(b, GRID) * np.conj(g)
        assert np.max(np.abs(resid)) < 1e-10


def test_frostman_near_circle_root_is_hard_error():
    b = BlaschkeProduct([0.0, 0.0], 1.0)  # z^2; preimages of alpha have modulus sqrt|alpha|
    with pytest.raises(ValueError, match="circle"):
        frostman_shift(b, 1.0 - 1e-11, 32)


def test_frostman_preserves_degree_and_innerness():
    rng = np.random.default_rng(7)
    b = random_blaschke(rng, max_degree=4, max_radius=0.6)
    shifted, _ = frostman_shift(b, 0.4j, 64)
    assert shifted.degree == b.degree
    assert np.max(np.abs(np.abs(blaschke_eval(shifted, GRID)) - 1)) < 1e-10


@pytest.mark.parametrize("zeros", [[0.3, 0.3, 0.3, -0.5j], [0.3, 0.301, -0.5j]])
def test_frostman_reports_a_multiple_zero_by_its_cluster_mean(zeros):
    # the shift by alpha is an involution; the roots of its numerator scatter
    # a triple zero by about eps^(1/3) (1.3e-5 here), and their mean holds it
    # to 1e-14, while two zeros 1e-3 apart, each 1.3e-12 off, are told apart
    # and stay as they are
    alpha = 0.4 - 0.2j
    there, _ = frostman_shift(BlaschkeProduct(zeros), alpha, 32)
    back, _ = frostman_shift(there, alpha, 32)
    assert np.max(np.abs(np.sort_complex(back.zeros) - np.sort_complex(zeros))) < 1e-11


# ---------------------------------------------------------------------------
# Moebius conjugation


def test_mobius_function_alpha_zero_is_parity():
    rng = np.random.default_rng(8)
    f = rng.normal(size=(32, 1))
    out, res = mobius_conjugate_function(f, MobiusMap(0.0), 32)
    assert np.linalg.norm(out[:, 0] - f[:, 0] * (-1.0) ** np.arange(32)) < 1e-12
    assert res[0] < 1e-12


def test_mobius_function_isometry():
    rng = np.random.default_rng(9)
    for _ in range(5):
        f = rng.normal(size=(24, 1)) + 1j * rng.normal(size=(24, 1))
        out, _ = mobius_conjugate_function(f, MobiusMap(0.4), 128)
        assert abs(np.linalg.norm(out) - np.linalg.norm(f)) < 1e-9


def test_batched_mobius_conjugation_matches_each_column_alone():
    rng = np.random.default_rng(31)
    n, k = 128, 5
    decay = 0.9 ** np.arange(n)
    cols = (rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))) * decay[:, None]
    for alpha, order in ((0.3 - 0.2j, n), (0.45j, 64), (-0.1, 2 * n)):
        m = MobiusMap(alpha)
        mapped, residuals = mobius_conjugate_function(cols, m, order)
        assert mapped.shape == (order, k) and residuals.shape == (k,)
        for j in range(k):
            single, residual = mobius_conjugate_function(cols[:, j : j + 1], m, order)
            assert single.shape == (order, 1) and residual.shape == (1,)
            bound = 1e-14 * np.linalg.norm(cols[:, j])
            assert np.linalg.norm(mapped[:, j] - single[:, 0]) <= bound
            assert abs(residuals[j] - residual[0]) <= bound


def test_mobius_function_involution():
    rng = np.random.default_rng(10)
    f = rng.normal(size=(16, 1))
    m = MobiusMap(0.35 - 0.1j)
    once, _ = mobius_conjugate_function(f, m, 192)
    twice, _ = mobius_conjugate_function(once, m, 192)
    assert np.linalg.norm(twice[:16] - f) < 1e-9


def test_mobius_symbol_alpha_zero_is_parity():
    sym = RationalSymbol(poles=(PoleTerm(b=0.5, m=1, c=1.0),))
    w, _ = mobius_conjugate_symbol(sym, MobiusMap(0.0), 32)
    u = fourier_coefficients(sym, 32)
    assert np.linalg.norm(w - u * (-1.0) ** np.arange(32)) < 1e-12


def test_mobius_symbol_spectrum_invariance():
    from hankelschmidt.hankel import build_hankel_matrix

    sym = RationalSymbol(
        poles=(PoleTerm(b=0.5, m=1, c=1.0), PoleTerm(b=-0.3j, m=1, c=0.5j))
    )
    n = 96
    w, _ = mobius_conjugate_symbol(sym, MobiusMap(0.25 + 0.25j), 2 * n - 1)
    s1 = np.linalg.svd(build_hankel_matrix(sym, n).gamma, compute_uv=False)
    s2 = np.linalg.svd(build_hankel_matrix(RationalSymbol(poly=w), n).gamma, compute_uv=False)
    assert np.max(np.abs(s1[:4] - s2[:4])) < 1e-8


def test_mobius_symbol_double_conjugation():
    sym = RationalSymbol(poles=(PoleTerm(b=0.6, m=1, c=1.0 - 0.2j),))
    n = 64
    m = MobiusMap(0.3)
    w, _ = mobius_conjugate_symbol(sym, m, 2 * n - 1)
    w2, _ = mobius_conjugate_symbol(RationalSymbol(poly=w), m, n)
    u = fourier_coefficients(sym, n)
    assert np.linalg.norm(w2 - u) < 1e-9


def test_compose_with_mobius_agrees_pointwise():
    rng = np.random.default_rng(11)
    b = random_blaschke(rng, max_degree=4, max_radius=0.5)
    m = MobiusMap(0.2 - 0.3j)
    composed = compose_with_mobius(b, m)
    assert composed.degree == b.degree
    for radius in (0.8, 1.0):
        pts = radius * np.exp(2j * np.pi * np.linspace(0, 1, 17))
        direct = blaschke_eval(b, mobius_eval(m, pts))
        assert np.max(np.abs(blaschke_eval(composed, pts) - direct)) < 1e-10


def test_compose_with_mobius_moves_the_zero_at_alpha_to_the_origin():
    alpha = 0.35 - 0.2j
    b = BlaschkeProduct([alpha, 0.1 + 0.4j], np.exp(0.3j))
    m = MobiusMap(alpha)
    composed = compose_with_mobius(b, m)
    assert np.min(np.abs(composed.zeros)) < 1e-15
    pts = np.concatenate([GRID, 0.6 * GRID[::8]])
    direct = blaschke_eval(b, mobius_eval(m, pts))
    assert np.max(np.abs(blaschke_eval(composed, pts) - direct)) < 1e-13


def test_compose_with_mobius_alpha_zero_is_reflection():
    # mu(z) = -z, so B o mu has zeros -a_j and phase (-1)^d times B's
    b = BlaschkeProduct([0.3, -0.2j, 0.5 + 0.1j], np.exp(1.1j))
    composed = compose_with_mobius(b, MobiusMap(0.0))
    assert np.array_equal(np.sort_complex(composed.zeros), np.sort_complex(-b.zeros))
    assert abs(composed.phase + b.phase) < 1e-15
    direct = blaschke_eval(b, -GRID)
    assert np.max(np.abs(blaschke_eval(composed, GRID) - direct)) < 1e-13


def test_mobius_map_involution_on_grid():
    m = MobiusMap(0.4 + 0.1j)
    z = GRID
    assert np.max(np.abs(mobius_eval(m, mobius_eval(m, z)) - z)) < 1e-12


NAN = float("nan")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: BlaschkeProduct([NAN]), "open disk"),
        (lambda: BlaschkeProduct([0.3, complex(0.1, NAN)]), "open disk"),
        (lambda: BlaschkeProduct([0.3], NAN), "unimodular"),
        (lambda: MobiusMap(NAN), "Moebius parameter"),
        (lambda: MobiusMap(complex(0.2, NAN)), "Moebius parameter"),
        (lambda: frostman_shift(BlaschkeProduct([0.3]), NAN, 16), "Frostman parameter"),
    ],
    ids=["zero", "zero-imag", "phase", "mobius", "mobius-imag", "frostman"],
)
def test_nan_parameters_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def product_formula_element(zeros, k, n):
    """Coefficients 0..n-1 of sqrt(1 - |a_k|^2) prod_{j<k} (a_j - z) / prod_{j<=k} (1 - conj(a_j) z)."""
    num = np.array([np.sqrt(1 - abs(zeros[k]) ** 2)], dtype=complex)
    for a in zeros[:k]:
        num = np.convolve(num, [a, -1.0])
    den = np.array([1.0 + 0j])
    for a in zeros[: k + 1]:
        den = np.convolve(den, [1.0, -np.conj(a)])
    impulse = np.zeros(n, dtype=complex)
    impulse[0] = 1.0
    return scipy.signal.lfilter(num, den, impulse)


def product_formula_accepts(zeros, order, tail_tol=1e-10):
    """The tail gate of tm_basis, applied to the product-formula elements."""
    for k in range(zeros.size):
        c = product_formula_element(zeros, k, order + 64)
        rate = float(np.max(np.abs(zeros[: k + 1])))
        tail_sq = float(np.sum(np.abs(c[order:]) ** 2))
        if rate > 0:
            tail_sq += abs(c[-1]) ** 2 * rate**2 / max(1 - rate**2, 1e-16)
        if np.sqrt(tail_sq) > tail_tol:
            return False
    return True


def test_tm_recurrence_matches_product_formula_near_the_circle():
    rng = np.random.default_rng(17)
    n = 256
    worst = 0.0
    for _ in range(40):
        b = random_blaschke(rng, max_degree=6, max_radius=0.999)
        for k, e in enumerate(tm_basis(b, n, tail_tol=np.inf).T):
            worst = max(worst, np.max(np.abs(e - product_formula_element(b.zeros, k, n))))
    assert worst < 1e-13


def test_tm_recurrence_accepts_and_rejects_as_the_product_formula():
    rng = np.random.default_rng(23)
    draws = [random_blaschke(rng, max_degree=5, max_radius=0.99) for _ in range(60)]
    verdicts = []
    for order in (16, 64, 256, 1024):
        for b in draws:
            try:
                tm_basis(b, order)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == product_formula_accepts(b.zeros, order)
            verdicts.append(accepted)
    assert 0 < sum(verdicts) < len(verdicts)
