"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance below is fixed, nothing is calibrated at run time.
"""

import time

import numpy as np

from hankelschmidt.blaschke import (
    BlaschkeProduct,
    MobiusMap,
    _conjugate_functions,
    mobius_conjugate_symbol,
    tm_basis,
)
from hankelschmidt.cli import main
from hankelschmidt.extraction import Representation, _weighted_model_space, extract_representations
from hankelschmidt.hankel import build_hankel_matrix
from hankelschmidt.hardy import default_grid_size, evaluate, multiply_by_boundary
from hankelschmidt.pipeline import AnalysisConfig, analyze_symbol
from hankelschmidt.spectral import _orthonormal_columns, _subspace_gaps, schmidt_decompose
from hankelschmidt.suites import (
    random_blaschke,
    random_symbol,
    suite_identities,
    suite_mobius,
    suite_model_spaces,
    suite_theorem,
)
from hankelschmidt.symbols import PoleTerm, RationalSymbol
from oracles import boundary_samples, symbol_from_inner, szego_kernel

N = 128


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _weighted_basis_from_report(block_entry: dict, order: int) -> np.ndarray:
    rep = block_entry["representation"]
    p = np.zeros(order, dtype=complex)
    for i, (re, im) in enumerate(rep["p"]):
        p[i] = complex(re, im)
    zeros = np.array([complex(re, im) for re, im in rep["theta"]["zeros"]])
    phase = complex(*rep["theta"]["phase"])
    theta = BlaschkeProduct(zeros, phase)
    p_samples = boundary_samples(p, default_grid_size(order))
    cols = []
    for e in tm_basis(theta, order, tail_tol=1e-8).T:
        pe, _ = multiply_by_boundary(e[:, None], p_samples, order)
        cols.append(pe[:, 0])
    return _orthonormal_columns(np.column_stack(cols))[0]


def test_criterion_1_pure_inner_symbols():
    start = time.perf_counter()
    config = AnalysisConfig(n=N)
    rng = np.random.default_rng(110)
    inputs = [BlaschkeProduct(np.zeros(d), 1.0) for d in range(1, 6)]
    inputs += [random_blaschke(rng, max_degree=5, max_radius=0.7) for _ in range(20)]
    worst_s = 0.0
    worst_gap = 0.0
    worst_action = 0.0
    for b in inputs:
        sym = symbol_from_inner(b)
        report = analyze_symbol(sym, config)
        assert len(report["blocks"]) == 1, f"expected one block, got {len(report['blocks'])}"
        blk = report["blocks"][0]
        assert blk["multiplicity"] == b.degree
        assert blk["pass"], blk.get("error", blk["residuals"])
        worst_s = max(worst_s, abs(blk["s"] - 1.0))
        worst_action = max(worst_action, blk["residuals"]["action"])
        extracted = _weighted_basis_from_report(blk, N)
        reference = _orthonormal_columns(tm_basis(b, N))[0]
        worst_gap = max(worst_gap, float(_subspace_gaps(extracted, reference)[0]))
    elapsed = time.perf_counter() - start
    ok = worst_s < 1e-9 and worst_gap < 1e-7 and worst_action < 1e-7 and elapsed < 5.0
    _report(
        "criterion 1: pure inner symbols recover their model space",
        ok,
        f"|s-1| {worst_s:.1e}, gap {worst_gap:.1e}, action {worst_action:.1e}, {elapsed:.2f}s",
    )


def test_criterion_2_rank_one_closed_form():
    start = time.perf_counter()
    a = 0.5
    sym = RationalSymbol(poles=(PoleTerm(b=a, m=1, c=1.0),))
    report = analyze_symbol(sym, AnalysisConfig(n=N))
    blk = report["blocks"][0]

    # independent oracle: dense eigensolve of Gamma Gamma^*
    gamma = build_hankel_matrix(sym, N)
    lam = np.linalg.eigvalsh(gamma.gamma @ np.conj(gamma.gamma))[-1]
    s_oracle = float(np.sqrt(lam))
    s_analytic = 1.0 / (1.0 - a * a)

    zeros = blk["representation"]["theta"]["zeros"]
    p = np.array([complex(re, im) for re, im in blk["representation"]["p"]])
    k = szego_kernel(a, len(p))
    points = 0.6 * np.exp(2j * np.pi * np.arange(10) / 10)
    ratio0 = evaluate(p, 0.0) / evaluate(k, 0.0)
    rel = max(
        abs(evaluate(p, z) / evaluate(k, z) - ratio0) / abs(ratio0)
        for z in points
    )
    elapsed = time.perf_counter() - start
    ok = (
        abs(blk["s"] - s_analytic) < 1e-10
        and abs(blk["s"] - s_oracle) < 1e-10
        and len(zeros) == 1
        and abs(complex(*zeros[0])) < 1e-10
        and rel < 1e-8
        and elapsed < 1.0
    )
    _report(
        "criterion 2: rank-one closed form (s = 4/3, p ~ Szego kernel)",
        ok,
        f"|s-4/3| {abs(blk['s'] - s_analytic):.1e}, kernel rel err {rel:.1e}, {elapsed:.2f}s",
    )


def test_criterion_3_identity_suite():
    start = time.perf_counter()
    result = suite_identities(301, count=50, order=N)
    elapsed = time.perf_counter() - start
    ok = result["pass"] and sum(result["failures"].values()) == 0 and elapsed < 20.0
    _report(
        "criterion 3: operator identity suite on 50 random symbols",
        ok,
        f"max residuals {max(result['max_residuals'].values()):.1e}, {elapsed:.2f}s",
    )


def test_criterion_4_model_space_suite():
    start = time.perf_counter()
    result = suite_model_spaces(401, n_blaschke=30, n_alpha=3, order=N)
    elapsed = time.perf_counter() - start
    res = result["max_residuals"]
    ok = (
        res["backward_shift_identity"] < 1e-8
        and res["frostman_subspace_gap"] < 1e-8
        and res["frostman_boundary_identity"] < 1e-10
        and result["pass"]
        and elapsed < 10.0
    )
    _report(
        "criterion 4: backward-shift identity and Frostman invariance",
        ok,
        f"gaps {max(res['backward_shift_identity'], res['frostman_subspace_gap']):.1e}, "
        f"boundary {res['frostman_boundary_identity']:.1e}, {elapsed:.2f}s",
    )


def test_criterion_5_mobius_covariance():
    start = time.perf_counter()
    result = suite_mobius(501, count=20, order=N)
    elapsed = time.perf_counter() - start
    ok = result["pass"] and elapsed < 15.0
    res = result["max_residuals"]
    _report(
        "criterion 5: Moebius covariance of spectra and Schmidt bases",
        ok,
        f"sigma {res['singular_values']:.1e}, gap {res['mapped_basis_gap']:.1e}, "
        f"double {res['double_conjugation']:.1e}, {elapsed:.2f}s",
    )


def test_criterion_6_structure_theorem_suite():
    start = time.perf_counter()
    result = suite_theorem(601, count=100, order=N, tol=1e-6)
    elapsed = time.perf_counter() - start
    ok = result["pass"] and result["n_blocks"] >= 100 and elapsed < 60.0
    _report(
        "criterion 6: end-to-end representation suite (100 symbols)",
        ok,
        f"{result['n_blocks']} blocks, max residual "
        f"{max(result['max_residuals'].values()):.1e}, {elapsed:.2f}s",
    )


def suite_branch_b(seed: int, count: int = 20, order: int = 128, tol: float = 1e-6) -> dict:
    """Extraction off the origin, via conjugation at an interior zero of a Schmidt vector.

    Two-pole symbols whose top Schmidt vectors vanish at some z* with
    |z*| <= 0.6 are conjugated at alpha = z*; the conjugated block is then
    orthogonal to constants, so extraction must take a base point other
    than 0, and the recovered subspace is compared with the mapped original.
    """
    rng = np.random.default_rng(seed)
    cases = 0
    attempts = 0
    worst_gap = 0.0
    worst_res = 0.0
    failures: list[str] = []
    n_off_origin = 0
    while cases < count and attempts < 500:
        attempts += 1
        sym = random_symbol(rng, max_poles=2)
        if len(sym.poles) != 2:
            continue
        gamma = build_hankel_matrix(sym, order)
        blocks = schmidt_decompose(gamma)
        hit = None
        for block in blocks:
            if block.multiplicity != 1 or not block.reliable:
                continue
            zstar = _kernel_combination_zero(sym, block.basis[:, 0])
            if zstar is not None and abs(zstar) <= 0.6:
                hit = (block, zstar)
                break
        if hit is None:
            continue
        block, zstar = hit
        cases += 1
        m = MobiusMap(zstar)
        w, _ = mobius_conjugate_symbol(sym, m, 2 * order - 1)
        gamma_w = build_hankel_matrix(RationalSymbol(poly=w), order)
        blocks_w = [bw for bw in schmidt_decompose(gamma_w)
                    if abs(bw.s - block.s) < 1e-3 * max(block.s, 1.0)]
        if len(blocks_w) != 1:
            failures.append(f"case {cases}: no unique matching block after conjugation")
            continue
        (rep,) = extract_representations([(gamma_w, blocks_w[0])], tol=tol)
        if not isinstance(rep, Representation):
            failures.append(f"case {cases}: {rep}")
            continue
        n_off_origin += rep.canonicalized_at != 0
        worst_res = max(worst_res, max(rep.residuals.gated().values()))
        mapped, _ = _conjugate_functions([block.basis[:, :1]], [m], order)
        prods = _weighted_model_space(tm_basis(rep.theta, order, tail_tol=1e-8), rep.p)
        gap = float(_subspace_gaps(*(_orthonormal_columns(x)[0] for x in (mapped, prods)))[0])
        worst_gap = max(worst_gap, gap)
        if gap > tol:
            failures.append(f"case {cases}: image gap {gap:.3e}")
    ok = cases == count and not failures and n_off_origin == count
    return {
        "count": cases,
        "requested": count,
        "attempts": attempts,
        "order": order,
        "base_point_off_origin": n_off_origin,
        "max_residuals": {"image_gap": worst_gap, "verification": worst_res},
        "failures": failures[:20],
        "pass": bool(ok),
    }


def _kernel_combination_zero(sym: RationalSymbol, f: np.ndarray) -> complex | None:
    """Interior zero of a two-kernel combination, from its expansion coefficients."""
    b1, b2 = (t.b for t in sym.poles)
    n = np.arange(f.size)
    k1 = np.conj(b1) ** n
    k2 = np.conj(b2) ** n
    beta, *_ = np.linalg.lstsq(np.column_stack([k1, k2]), f, rcond=None)
    denom = beta[0] * np.conj(b2) + beta[1] * np.conj(b1)
    if abs(denom) < 1e-12:
        return None
    z = (beta[0] + beta[1]) / denom
    return complex(z)


def test_criterion_7_mobius_branch_coverage():
    start = time.perf_counter()
    result = suite_branch_b(701, count=20, order=N, tol=1e-6)
    elapsed = time.perf_counter() - start
    ok = (
        result["pass"]
        and result["count"] == 20
        and result["base_point_off_origin"] == 20
        and result["max_residuals"]["image_gap"] < 1e-6
    )
    _report(
        "criterion 7: extraction off the origin for blocks orthogonal to constants",
        ok,
        f"20 cases, image gap {result['max_residuals']['image_gap']:.1e}, {elapsed:.2f}s",
    )


def test_criterion_8_verify_determinism(tmp_path):
    out1 = tmp_path / "verify1.json"
    out2 = tmp_path / "verify2.json"
    code1 = main(["verify", "--seed", "7", "--out", str(out1)])
    code2 = main(["verify", "--seed", "7", "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = identical and code1 == 0 and code2 == 0
    _report(
        "criterion 8: verify --seed 7 reports are byte-identical",
        ok,
        f"exit codes ({code1}, {code2}), identical={identical}",
    )
