import time
from fractions import Fraction

import numpy as np
import pytest

from hankelschmidt.blaschke import BlaschkeProduct, blaschke_coefficients
from hankelschmidt.hardy import grid_points
from hankelschmidt.symbols import (
    PoleTerm,
    RationalSymbol,
    SymbolFormatError,
    evaluate_symbol,
    fourier_coefficients,
    kronecker_rank_bound,
    parse_symbol,
    symbol_to_dict,
    tail_bound,
    _binomial_weights,
    _pole_tail,
)
from oracles import boundary_projection, symbol_from_inner


def geometric_symbol(b=0.5, c=1.0, m=1):
    return RationalSymbol(poles=(PoleTerm(b=b, m=m, c=c),))


def test_geometric_coefficients():
    u = fourier_coefficients(geometric_symbol(), 12)
    assert np.allclose(u, 0.5 ** np.arange(12))


def test_monomial_coefficients():
    sym = RationalSymbol(poly=[0, 0, 0, 1])
    u = fourier_coefficients(sym, 8)
    expected = np.zeros(8)
    expected[3] = 1.0
    assert np.allclose(u, expected)


def test_double_pole_binomial_oracle():
    # 1/(1 - z/2)^2 = sum (n+1) 2^{-n} z^n, so u_hat(2) = 3/4
    u = fourier_coefficients(geometric_symbol(m=2), 4)
    assert abs(u[2] - 0.75) < 1e-15


@pytest.mark.parametrize("b", [0.75 + 0.5j, -0.5 + 0.625j, 0.875j])
def test_pole_coefficients_match_exact_powers(b):
    # b = (x + y i) / 2^k is dyadic, so conj(b)^n = (x - y i)^n / 2^(k n) is exact
    # in integers, and Fraction takes each coefficient's error without rounding
    order = 1023
    k = 3
    x, y = int(b.real * 2**k), int(b.imag * 2**k)
    u = fourier_coefficients(geometric_symbol(b=b), order)
    re, im = 1, 0
    worst = 0.0
    for n in range(order):
        scale = 2 ** (k * n)
        err_re = Fraction(float(u[n].real)) - Fraction(re, scale)
        err_im = Fraction(float(u[n].imag)) - Fraction(im, scale)
        exact = abs(complex(Fraction(re, scale), Fraction(im, scale)))
        worst = max(worst, abs(complex(err_re, err_im)) / exact)
        re, im = re * x + im * y, im * x - re * y
    assert worst < 1e-14


def test_coefficients_additive_in_terms():
    t1 = PoleTerm(b=0.3, m=1, c=1.0 + 1j)
    t2 = PoleTerm(b=-0.6j, m=2, c=0.5)
    joint = fourier_coefficients(RationalSymbol(poles=(t1, t2)), 32)
    split = (
        fourier_coefficients(RationalSymbol(poles=(t1,)), 32)
        + fourier_coefficients(RationalSymbol(poles=(t2,)), 32)
    )
    assert np.allclose(joint, split)


def test_symbol_keeps_a_read_only_copy_of_the_callers_array():
    from hankelschmidt.hankel import build_hankel_matrix

    b = np.array([1, 0.5j, 0.25])
    sym = RationalSymbol(poly=b)
    build_hankel_matrix(sym, 4)
    with pytest.raises(TypeError, match="takes a RationalSymbol, not ndarray"):
        build_hankel_matrix(b, 4)  # a coefficient array is RationalSymbol(poly=b)
    assert b.flags.writeable  # the caller's array stays writable
    b[0] = 7.0
    assert sym.poly[0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        sym.poly[0] = 2.0
    base = np.zeros(4, dtype=complex)
    view = RationalSymbol(poly=base[:2])
    base[0] = 1.0
    assert view.poly[0] == 0.0
    with pytest.raises(SymbolFormatError, match="finite"):
        RationalSymbol(poly=[1.0, np.nan])
    with pytest.raises(SymbolFormatError, match="1-D"):
        RationalSymbol(poly=np.zeros((2, 2)))


def test_pole_inside_disk_required():
    with pytest.raises(SymbolFormatError):
        PoleTerm(b=1.0, m=1, c=1.0)
    with pytest.raises(SymbolFormatError):
        PoleTerm(b=1.2j, m=1, c=1.0)


def test_multiplicity_cap():
    with pytest.raises(SymbolFormatError):
        PoleTerm(b=0.5, m=5, c=1.0)
    with pytest.raises(SymbolFormatError):
        PoleTerm(b=0.5, m=0, c=1.0)


def test_tail_bound_simple_pole_closed_form():
    for n in (8, 32, 128):
        bound = tail_bound(geometric_symbol(b=0.5, c=2.0), n)
        assert abs(bound - 2.0 * 0.5**n / np.sqrt(1 - 0.25)) < 1e-18 * max(1.0, bound)


def test_tail_bound_polynomial_zero():
    sym = RationalSymbol(poly=[1.0, 2.0, 3.0])
    assert tail_bound(sym, 8) == 0.0


def test_tail_bound_sums_over_terms():
    t1 = PoleTerm(b=0.4, m=1, c=1.0)
    t2 = PoleTerm(b=0.7, m=1, c=-2.0j)
    joint = tail_bound(RationalSymbol(poles=(t1, t2)), 16)
    split = tail_bound(RationalSymbol(poles=(t1,)), 16) + tail_bound(
        RationalSymbol(poles=(t2,)), 16
    )
    assert abs(joint - split) < 1e-18


def test_tail_bound_monotone_and_valid_for_multiplicity():
    sym = geometric_symbol(b=0.8, c=1.5, m=3)
    prev = np.inf
    for n in (16, 32, 64, 128, 256):
        bound = tail_bound(sym, n)
        true_tail = np.sqrt(
            sum(
                abs(1.5 * (k + 1) * (k + 2) / 2 * 0.8**k) ** 2
                for k in range(n, n + 4000)
            )
        )
        assert bound >= true_tail  # rigorous upper bound
        assert bound <= prev
        prev = bound


def test_kronecker_rank_bound_never_exceeded():
    rng = np.random.default_rng(7)
    from hankelschmidt.hankel import build_hankel_matrix

    for _ in range(10):
        k = int(rng.integers(1, 4))
        poles = tuple(
            PoleTerm(
                b=complex(rng.uniform(0.1, 0.7) * np.exp(2j * np.pi * rng.uniform())),
                m=int(rng.integers(1, 3)),
                c=complex(rng.normal() + 1j * rng.normal()),
            )
            for _ in range(k)
        )
        deg = int(rng.integers(0, 3))
        poly = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        sym = RationalSymbol(poly=poly, poles=poles)
        gamma = build_hankel_matrix(sym, 64).gamma
        sing = np.linalg.svd(gamma, compute_uv=False)
        numerical = int(np.sum(sing > 1e-10 * sing[0]))
        assert numerical <= kronecker_rank_bound(sym)


def test_kronecker_rank_bound_attained_for_separated_simple_poles():
    rng = np.random.default_rng(8)
    from hankelschmidt.hankel import build_hankel_matrix
    from hankelschmidt.suites import random_symbol

    for _ in range(10):
        sym = random_symbol(rng)
        gamma = build_hankel_matrix(sym, 64).gamma
        sing = np.linalg.svd(gamma, compute_uv=False)
        numerical = int(np.sum(sing > 1e-10 * sing[0]))
        assert numerical == kronecker_rank_bound(sym)


def test_symbol_from_inner_monomials():
    # S* z^2 = z
    sym = symbol_from_inner(BlaschkeProduct([0.0, 0.0], 1.0))
    u = fourier_coefficients(sym, 6)
    expected = np.zeros(6)
    expected[1] = 1.0
    assert np.allclose(u, expected, atol=1e-12)


def test_symbol_from_inner_degree_one_gives_constant():
    # S* z = 1; the associated 1x1 Hankel matrix has the single entry 1
    sym = symbol_from_inner(BlaschkeProduct([0.0], -1.0))
    u = fourier_coefficients(sym, 4)
    assert np.allclose(u, [1, 0, 0, 0], atol=1e-12)


def test_symbol_from_inner_boundary_sampling_oracle():
    b = BlaschkeProduct(np.array([0.0, 0.5]), 1.0)
    sym = symbol_from_inner(b)
    n = 64
    u = fourier_coefficients(sym, n)
    # oracle: sample B on the boundary, project, and shift down by one
    m = 512
    z = grid_points(m)
    from hankelschmidt.blaschke import blaschke_eval

    samples = blaschke_eval(b, z)
    coeffs, _ = boundary_projection(samples, n + 1)
    assert np.linalg.norm(u - coeffs[1:]) < 1e-10


def test_symbol_from_inner_random_blaschke_consistency():
    rng = np.random.default_rng(11)
    for _ in range(5):
        d = int(rng.integers(1, 6))
        zeros = 0.7 * np.sqrt(rng.uniform(size=d)) * np.exp(2j * np.pi * rng.uniform(size=d))
        b = BlaschkeProduct(zeros, np.exp(2j * np.pi * rng.uniform()))
        sym = symbol_from_inner(b)
        u = fourier_coefficients(sym, 80)
        series = blaschke_coefficients(b, 81)
        assert np.linalg.norm(u - series[1:]) < 1e-10


def test_evaluate_symbol_matches_coefficients():
    sym = RationalSymbol(
        poly=np.array([0.5, -1.0j]),
        poles=(PoleTerm(b=0.4 + 0.2j, m=2, c=1.0 - 0.5j),),
    )
    u = fourier_coefficients(sym, 256)
    for z in (0.0, 0.3, -0.5j, 0.7 * np.exp(0.4j)):
        direct = evaluate_symbol(sym, z)
        series = np.sum(u * z ** np.arange(256))
        assert abs(direct - series) < 1e-10


def test_parse_symbol_roundtrip():
    sym = RationalSymbol(
        poly=np.array([1.0, 2.0j]),
        poles=(PoleTerm(b=0.5 - 0.1j, m=2, c=-1.0j),),
    )
    again = parse_symbol(symbol_to_dict(sym))
    assert np.allclose(again.poly, sym.poly)
    assert again.poles == sym.poles


def test_parse_symbol_rejects_bad_pole_with_name():
    doc = {"poly": [], "poles": [{"b": [1.2, 0.0], "m": 1, "c": [1.0, 0.0]}]}
    with pytest.raises(SymbolFormatError, match=r"poles\[0\]"):
        parse_symbol(doc)


def test_parse_symbol_rejects_unknown_fields():
    with pytest.raises(SymbolFormatError, match="unknown"):
        parse_symbol({"poly": [], "polez": []})
    with pytest.raises(SymbolFormatError, match=r"poles\[0\]"):
        parse_symbol({"poles": [{"b": [0.5, 0], "radius": 2}]})


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"poles": [{"b": [0.5, 0.0], "m": True, "c": [1.0, 0.0]}]}, r"poles\[0\]\.m"),
        ({"poles": [{"b": [0.5, 0.0], "m": 1, "c": True}]}, r"poles\[0\]\.c"),
        ({"poles": [{"b": [0.5, 0.0], "m": 1, "c": [1.0, False]}]}, r"poles\[0\]\.c"),
        ({"poles": [{"b": [True, 0.0], "m": 1, "c": [1.0, 0.0]}]}, r"poles\[0\]\.b"),
        ({"poly": [True]}, r"poly\[0\]"),
        ({"poly": [[0.0, True]]}, r"poly\[0\]"),
    ],
)
def test_parse_symbol_rejects_booleans(doc, field):
    with pytest.raises(SymbolFormatError, match=field):
        parse_symbol(doc)


@pytest.mark.parametrize("value", [True, np.True_, False])
@pytest.mark.parametrize("field", ["b", "m", "c"])
def test_pole_term_rejects_booleans(field, value):
    fields = {"b": 0.5, "m": 1, "c": 1.0, field: value}
    with pytest.raises(SymbolFormatError, match=rf"{field}=(np\.)?{bool(value)}"):
        PoleTerm(**fields)


@pytest.mark.parametrize("c", [float("nan"), float("inf"), complex(1.0, float("-inf"))])
def test_non_finite_residue_rejected(c):
    with pytest.raises(SymbolFormatError, match="residue"):
        PoleTerm(b=0.5, m=1, c=c)


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"poles": [{"b": [0.5, 0.0], "m": 1, "c": [float("nan"), 0.0]}]}, r"poles\[0\]\.c"),
        ({"poles": [{"b": [0.5, 0.0], "m": 1, "c": float("inf")}]}, r"poles\[0\]\.c"),
        ({"poly": [[1.0, 0.0], [0.0, 0.0], [0.0, float("-inf")]]}, r"poly\[2\]"),
    ],
)
def test_parse_symbol_names_non_finite_field(doc, field):
    with pytest.raises(SymbolFormatError, match=field + ": expected finite"):
        parse_symbol(doc)


@pytest.mark.parametrize("b", [[float("nan"), 0.0], [0.5, float("nan")]])
def test_nan_pole_rejected(b):
    with pytest.raises(SymbolFormatError, match="pole parameter"):
        PoleTerm(b=complex(*b), m=1, c=1.0)
    with pytest.raises(SymbolFormatError, match=r"poles\[0\]\.b"):
        parse_symbol({"poles": [{"b": b, "m": 1, "c": [1.0, 0.0]}]})


def looped_pole_tail(c, b, m, start):
    """The ratio majorant of _pole_tail, giving up only after 100 000 steps."""
    acc = 0.0
    n = start
    while (n + m) / (n + 1) * b >= 1.0 - 1e-12:
        acc += (float(_binomial_weights(np.array([n]), m)[0]) * b**n) ** 2
        n += 1
        if n - start > 100_000:
            return float("inf")
    rho = (n + m) / (n + 1) * b
    acc += (float(_binomial_weights(np.array([n]), m)[0]) * b**n) ** 2 / (1 - rho * rho)
    return c * float(np.sqrt(acc))


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("b", [0.5, 0.99, 0.9999, 0.99998])
def test_pole_tail_equals_the_looped_majorant(m, b):
    for start in (0, 16, 1000):
        assert _pole_tail(1.5, b, m, start) == looped_pole_tail(1.5, b, m, start)


def test_pole_tail_gives_up_near_the_circle_without_looping():
    sym = geometric_symbol(b=0.99999999, c=1.0, m=3)
    best = np.inf
    for _ in range(3):
        start = time.perf_counter()
        assert tail_bound(sym, 16) == np.inf
        best = min(best, time.perf_counter() - start)
    assert best < 0.01
