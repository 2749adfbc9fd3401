"""Property: analyze is correct or flags its report, never silently wrong.

The oracle builds Gamma = W M W^T for u = poly + sum c / (1 - conj(b) z)^m
without the package.  The columns of W are e_0..e_d for the polynomial part
and C(n + j, j) conj(b)^n, j < m, for each pole; M is block diagonal, with
the Hankel block [a_{i+j}] (zero below the anti-diagonal) for the
polynomial a and c C_m for each pole, where the coupling C_m satisfies
C(n + l + m - 1, m - 1) = sum_{i,j} C_m[i, j] C(n + i, i) C(l + j, j).
With W = QR the nonzero singular values of Gamma are those of R M R^T.
"""

from __future__ import annotations

from math import comb

import numpy as np
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from hankelschmidt.pipeline import AnalysisConfig, analysis_exit_code, analyze_symbol
from hankelschmidt.symbols import PoleTerm, RationalSymbol

N = 128
KERNEL = 1e-10  # exact values at or below KERNEL * s_max are the kernel
LENGTH = 1 << 12  # C(n + 3, 3) 0.98^n < 1e-25 for n >= LENGTH


def coupling(m: int) -> np.ndarray:
    a = np.array([[comb(n + i, i) for i in range(m)] for n in range(m)], dtype=float)
    g = np.array([[comb(n + l + m - 1, m - 1) for l in range(m)] for n in range(m)], dtype=float)
    a_inv = np.linalg.inv(a)
    return a_inv @ g @ a_inv.T


def exact_singular_values(poly: np.ndarray, poles: list[tuple[complex, int, complex]]) -> np.ndarray:
    """Descending singular values above KERNEL * s_max, from the r x r problem."""
    n = np.arange(LENGTH, dtype=float)
    d = poly.size
    cols = [np.eye(LENGTH, d, dtype=complex)]
    mid_blocks = [np.array([[poly[i + j] if i + j < d else 0.0 for j in range(d)]
                            for i in range(d)], dtype=complex)]
    for b, m, c in poles:
        weight = np.conj(b) ** n
        for j in range(m):
            if j:
                weight = weight * (n + j) / j  # C(n + j, j) conj(b)^n
            cols.append(weight[:, None])
        mid_blocks.append(c * coupling(m))
    w = np.hstack(cols)
    r = w.shape[1]
    mid = np.zeros((r, r), dtype=complex)
    k = 0
    for blk in mid_blocks:
        mid[k : k + blk.shape[0], k : k + blk.shape[0]] = blk
        k += blk.shape[0]
    upper = np.linalg.qr(w, mode="r")
    s = np.linalg.svd(upper @ mid @ upper.T, compute_uv=False)
    return s[s > KERNEL * s[0]]


def matches(values: list[float], exact: np.ndarray, atol: float) -> bool:
    got = np.sort(np.asarray(values, dtype=float))[::-1]
    return got.size == exact.size and bool(np.all(np.abs(got - exact) <= atol))


def outcome(report: dict, exit_code: int, exact: np.ndarray) -> str:
    if exit_code != 0 or not report["pass"]:
        return "flagged"
    atol = report["config"]["verify_tol"] * exact[0]
    blocks = [b["s"] for b in report["blocks"] for _ in range(b["multiplicity"])]
    if matches(blocks, exact, atol) and matches(report["singular_values"], exact, atol):
        return "correct"
    return "silently wrong"


def polar(modulus):
    return st.tuples(modulus, st.floats(0.0, 2 * np.pi)).map(lambda t: t[0] * np.exp(1j * t[1]))


@st.composite
def symbols(draw):
    """1-4 poles of multiplicity 1-4, |b| <= 0.98, chained at spacing down to 0.005."""
    bs = [draw(polar(st.floats(0.0, 0.98)))]
    for _ in range(draw(st.integers(0, 3))):
        spacing = draw(st.one_of(st.floats(0.005, 0.02), st.floats(0.02, 1.0)))
        bs.append(bs[draw(st.integers(0, len(bs) - 1))] + draw(polar(st.just(spacing))))
    assume(all(abs(b) <= 0.98 for b in bs))
    assume(all(abs(x - y) >= 0.005 for i, x in enumerate(bs) for y in bs[:i]))
    poles = [(complex(b), draw(st.integers(1, 4)), complex(draw(polar(st.floats(0.05, 2.0)))))
             for b in bs]
    degree = draw(st.integers(-1, 3))
    poly = np.array([draw(polar(st.floats(0.1, 1.0))) for _ in range(degree + 1)])
    return poly, poles


def layout(poly: np.ndarray, poles: list[tuple[complex, int, complex]]) -> str:
    bs = [b for b, _, _ in poles]
    if any(abs(x - y) < 0.02 for i, x in enumerate(bs) for y in bs[:i]):
        return "near-colliding"
    if max(abs(b) for b in bs) > 0.8:
        return "near the circle"
    if any(m > 1 for _, m, _ in poles):
        return "multiple poles"
    return "polynomial part" if poly.size else "simple poles"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(symbols())
def test_analyze_is_correct_or_flagged(case):
    poly, poles = case
    sym = RationalSymbol(
        poly=poly if poly.size else np.zeros(1),
        poles=tuple(PoleTerm(b=b, m=m, c=c) for b, m, c in poles),
    )
    report = analyze_symbol(sym, AnalysisConfig(n=N))
    result = outcome(report, analysis_exit_code(report), exact_singular_values(poly, poles))
    event(f"{layout(poly, poles)}: {result}")
    assert result != "silently wrong", report


def test_multiple_poles_with_small_blocks_are_correct():
    # three poles of multiplicity 4, 1 and 4: the three smallest blocks, at
    # 4.7e-7 to 3.5e-9 s_max, are extracted at base points off the origin
    poles = [
        (complex(-0.5373490293139898, 0.5420310713300576), 4,
         complex(-0.1817340575870318, -0.7765437434910089)),
        (complex(-0.6240873297441091, 0.35041257921138325), 1,
         complex(-0.26417203063295636, -0.3836678708723362)),
        (complex(-0.23289309139962888, 0.276432820411099), 4,
         complex(0.32094578325073536, -0.1981513590391076)),
    ]
    sym = RationalSymbol(poles=tuple(PoleTerm(b=b, m=m, c=c) for b, m, c in poles))
    report = analyze_symbol(sym, AnalysisConfig(n=N))
    exact = exact_singular_values(np.zeros(0), poles)
    assert outcome(report, analysis_exit_code(report), exact) == "correct", report


def test_block_at_the_kernel_cutoff_is_flagged():
    # the smallest block, at 2.9e-10 s_max, carries a Schmidt-vector error of
    # about eps s_max / s = 8e-7 from the factorization; its action residual
    # fails the gate, so the report is flagged, not wrong
    poly = np.array([complex(-0.08709895226163099, 2.30184206580847),
                     complex(-1.2927582657112695, 0.627090644692311)])
    poles = [
        (complex(0.03746173516706306, 0.15628645771632382), 2,
         complex(0.1326310532547583, -0.8725106032481607)),
        (complex(-0.2783057406397432, -0.13847367323902898), 3,
         complex(0.32019080346354917, 0.8667047455286133)),
        (complex(-0.03616157438316852, -0.1492663171718748), 3,
         complex(-1.0297322814565903, -0.7549695283563244)),
    ]
    sym = RationalSymbol(poly=poly, poles=tuple(PoleTerm(b=b, m=m, c=c) for b, m, c in poles))
    report = analyze_symbol(sym, AnalysisConfig(n=N))
    smallest = report["blocks"][-1]
    assert smallest["s"] < 1e-9 * report["blocks"][0]["s"]
    assert smallest["pass"] is False and smallest["error"].startswith("action residual")
    assert all(block["pass"] for block in report["blocks"][:-1])
    assert analysis_exit_code(report) != 0
    exact = exact_singular_values(poly, poles)
    assert outcome(report, analysis_exit_code(report), exact) == "flagged"
