import numpy as np
import pytest
import scipy.linalg

from hankelschmidt.blaschke import MobiusMap, mobius_conjugate_function
from hankelschmidt.hardy import (
    _as_coeffs,
    _boundary_samples,
    _frozen,
    _horner,
    _project,
    evaluate,
    grid_points,
    multiply_by_boundary,
)
from oracles import hankel_product, one, szego_kernel


def test_evaluate_simple():
    f = np.array([1.0, 1.0])
    assert evaluate(f, 0.5) == 1.5
    assert evaluate(f, 0.0) == 1.0


def test_evaluate_truncated_kernel_geometric_oracle():
    # sum |a|^{2n} over n < 64 differs from 1/(1-|a|^2) by ~4^{-64}
    k = szego_kernel(0.5, 64)
    assert abs(evaluate(k, 0.5) - 4.0 / 3.0) < 1e-14


def test_evaluate_rejects_outside_disk():
    with pytest.raises(ValueError):
        evaluate(one(4), 1.5)


def test_finite_validation():
    with pytest.raises(ValueError, match="finite"):
        _as_coeffs(np.array([np.nan, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        _as_coeffs(np.array([np.inf]))
    with pytest.raises(ValueError, match="nonempty"):
        _as_coeffs(np.zeros(0))


def test_frozen_copy_owns_its_coefficients():
    x = np.zeros(4, dtype=complex)
    f = _frozen(x)
    x[0] = 1.0  # the caller's array stays writable
    assert f[0] == 0.0
    base = np.zeros(8, dtype=complex)
    f = _frozen(base[:4])
    base[0] = 1.0
    assert f[0] == 0.0
    with pytest.raises(ValueError, match="read-only"):
        f[0] = 2.0


def test_batched_boundary_product_matches_each_column_alone():
    rng = np.random.default_rng(6)
    n, k = 64, 4
    cols = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    g = 1.0 / (1.0 - 0.5 * np.conj(grid_points(256)))
    for order in (n, 32, 128):
        product, residuals = multiply_by_boundary(cols, g, order)
        assert product.shape == (order, k) and residuals.shape == (k,)
        for j in range(k):
            single, residual = multiply_by_boundary(cols[:, j : j + 1], g, order)
            assert single.shape == (order, 1) and residual.shape == (1,)
            bound = 1e-14 * np.linalg.norm(cols[:, j])
            assert np.linalg.norm(product[:, j] - single[:, 0]) <= bound
            assert abs(residuals[j] - residual[0]) <= bound


def test_boundary_product_takes_one_multiplier_per_column():
    rng = np.random.default_rng(7)
    n, k = 64, 3
    cols = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    gs = np.column_stack([1.0 / (1.0 - a * np.conj(grid_points(256))) for a in (0.5, -0.3j, 0.0)])
    product, residuals = multiply_by_boundary(cols, gs, 32)
    assert product.shape == (32, k) and residuals.shape == (k,)
    for j in range(k):
        single, residual = multiply_by_boundary(cols[:, j : j + 1], gs[:, j], 32)
        bound = 1e-14 * np.linalg.norm(cols[:, j])
        assert np.linalg.norm(product[:, j] - single[:, 0]) <= bound
        assert abs(residuals[j] - residual[0]) <= bound


def test_boundary_maps_refuse_a_coefficient_vector():
    f = np.ones(16, dtype=complex)
    with pytest.raises(ValueError, match="N x d coefficient matrix"):
        multiply_by_boundary(f, np.ones(64), 16)
    with pytest.raises(ValueError, match="N x d coefficient matrix"):
        mobius_conjugate_function(f, MobiusMap(0.2), 16)


def test_boundary_polynomial_exact_recovery():
    rng = np.random.default_rng(4)
    f = rng.normal(size=16) + 1j * rng.normal(size=16)
    samples = _boundary_samples(f[:, None], 32)  # M = 2N
    back, residual = _project(samples, 16)
    assert np.linalg.norm(back[:, 0] - f) < 1e-12
    assert residual[0] < 1e-12


def test_boundary_constant_samples():
    back, residual = _project(np.ones((64, 1)), 8)
    assert np.allclose(back[:, 0], one(8))
    assert residual[0] < 1e-14


def test_boundary_antianalytic_projection_oracle():
    # 1/(1 - (1/2) e^{-it}) = sum_{n>=0} 2^{-n} e^{-int}: the analytic part is
    # the constant 1, and the dropped energy is sqrt(sum_{n>=1} 4^{-n}) = 1/sqrt(3).
    m, n = 256, 32
    z = grid_points(m)
    samples = 1.0 / (1.0 - 0.5 * np.conj(z))
    back, residual = _project(samples[:, None], n)
    assert np.linalg.norm(back[:, 0] - one(n)) < 1e-12
    assert abs(residual[0] - 1.0 / np.sqrt(3.0)) < 1e-12


def test_boundary_requires_headroom():
    with pytest.raises(ValueError, match="alias"):
        _project(np.ones((16, 1)), 16)


def test_parseval_on_grid():
    rng = np.random.default_rng(5)
    f = rng.normal(size=32) + 1j * rng.normal(size=32)
    samples = _boundary_samples(f[:, None], 128)
    assert abs(np.mean(np.abs(samples) ** 2) - np.vdot(f, f).real) < 1e-12


def test_grid_size_validation():
    with pytest.raises(ValueError, match="below truncation order"):
        _boundary_samples(np.ones((16, 1)), 8)


@pytest.mark.parametrize("n", [1, 2, 17, 128])
def test_hankel_product_matches_explicit_hankel_matrix(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=2 * n - 1) + 1j * rng.normal(size=2 * n - 1)
    f = rng.normal(size=n) + 1j * rng.normal(size=n)
    expected = scipy.linalg.hankel(a[:n], a[n - 1 : 2 * n - 1]) @ np.conj(f)
    assert np.linalg.norm(hankel_product(a, f) - expected) < 1e-12 * np.linalg.norm(expected)


def test_hankel_product_reads_only_2n_minus_1_coefficients():
    rng = np.random.default_rng(3)
    a = rng.normal(size=40) + 1j * rng.normal(size=40)
    f = rng.normal(size=8) + 1j * rng.normal(size=8)
    assert np.array_equal(hankel_product(a, f), hankel_product(a[:15], f))


def test_hankel_product_rejects_short_symbol():
    with pytest.raises(ValueError, match="needs 15"):
        hankel_product(np.ones(14), np.ones(8))


@pytest.mark.parametrize("a", [1.0, float("nan"), complex(0.2, float("nan"))])
def test_szego_kernel_point_in_open_disk(a):
    # the kernel oracle of the tests; the package forms k_alpha only at a
    # base point that extract_representation has checked the same way
    with pytest.raises(ValueError, match="open disk"):
        szego_kernel(a, 8)


def plain_horner(coeffs, z):
    acc = np.zeros_like(z)
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


@pytest.mark.parametrize("n", [1, 15, 16, 17, 128, 255, 1025])
def test_blocked_horner_matches_plain_horner(n):
    rng = np.random.default_rng(n)
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    radius = np.sqrt(rng.uniform(size=200))
    interior = radius * np.exp(2j * np.pi * rng.uniform(size=200))
    bound = n * np.finfo(float).eps * np.sum(np.abs(c))
    # a matrix is evaluated column by column, a shorter column padded with zeros
    cols = np.column_stack([c, 2j * c, np.concatenate([c[: n // 2], np.zeros(n - n // 2)])])
    for z in (interior, grid_points(512), np.asarray(0.6 - 0.7j)):
        blocked = _horner(c, z)
        assert blocked.shape == z.shape
        assert np.max(np.abs(blocked - plain_horner(c, z))) <= bound
        batched = _horner(cols, z)
        assert batched.shape == z.shape + (3,)
        for j in range(3):
            assert np.max(np.abs(batched[..., j] - plain_horner(cols[:, j], z))) <= 2 * bound
    assert complex(_horner(c, np.asarray(0.0j))) == c[0]


def test_blocked_horner_ignores_trailing_zeros_bit_for_bit():
    rng = np.random.default_rng(0)
    z = grid_points(256)
    for n in (1, 15, 16, 17, 40):
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        for extra in (1, 15, 16, 100):
            padded = np.concatenate([c, np.zeros(extra)])
            assert np.array_equal(_horner(padded, z), _horner(c, z))
    assert np.array_equal(_horner(np.zeros(5, dtype=complex), z), np.zeros(256))


def test_grid_points_are_one_shared_read_only_array():
    z = grid_points(64)
    assert z is grid_points(64)
    assert not z.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        z[0] = 2.0
    assert np.allclose(z, np.exp(2j * np.pi * np.arange(64) / 64), rtol=0, atol=1e-15)
