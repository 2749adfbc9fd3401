"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hankelschmidt import build_hankel_matrix, parse_symbol  # noqa: E402

HARD = {p.stem: json.loads(p.read_text()) for p in workloads.HARD_CASES_DIR.glob("*.json")}


def _pole(b: complex, m: int, c: complex) -> dict:
    return {"b": [b.real, b.imag], "m": m, "c": [c.real, c.imag]}


@pytest.mark.parametrize(
    "doc",
    [
        {"poles": [_pole(0.6j, 1, 1.0), _pole(-0.45, 1, 0.3 - 0.8j), _pole(0.2 + 0.3j, 1, -1.1j)]},
        HARD["triple-pole"],
        HARD["double-plus-simple"],
        {"poles": [_pole(0.55 - 0.1j, 2, 0.7 + 0.2j), _pole(0.1j, 1, 2.0)]},
    ],
)
def test_reference_matches_truncated_svd(doc):
    assert max(abs(complex(*p["b"])) for p in doc["poles"]) <= 0.6
    exact = reference.exact_singular_values(doc)
    gamma = build_hankel_matrix(parse_symbol(doc), 1024).gamma
    truncated = np.linalg.svd(gamma, compute_uv=False)
    assert exact.size == sum(p["m"] for p in doc["poles"])
    np.testing.assert_allclose(truncated[: exact.size], exact, rtol=0, atol=1e-10 * exact[0])
    assert truncated[exact.size] < 1e-10 * exact[0]


def _report(blocks, svals, exit_pass=True):
    return {
        "config": {"verify_tol": 1e-6},
        "blocks": [{"s": s, "multiplicity": m} for s, m in blocks],
        "singular_values": svals,
        "pass": exit_pass,
    }


def test_classify_outcomes():
    exact = np.array([2.0, 1.0, 1e-6])
    good = _report([(2.0, 1), (1.0, 1), (1e-6, 1)], [2.0, 1.0, 1e-6])
    assert reference.classify_analysis(good, 0, exact) == "correct"
    assert reference.classify_analysis(good, 2, exact) == "flagged"
    assert reference.classify_analysis(_report([(2.0, 1)], [2.0], False), 2, exact) == "flagged"
    missing = _report([(2.0, 1), (1.0, 1)], [2.0, 1.0, 1e-6])
    assert reference.classify_analysis(missing, 0, exact) == "silently_wrong"
    off = _report([(2.0 + 1e-5, 1), (1.0, 1), (1e-6, 1)], [2.0, 1.0, 1e-6])
    assert reference.classify_analysis(off, 0, exact) == "silently_wrong"
    merged = _report([(2.0, 1), (1.0, 2)], [2.0, 1.0, 1e-6])
    assert reference.classify_analysis(merged, 0, exact) == "silently_wrong"
    assert reference.sv_rel_err(off, exact) == pytest.approx(5e-6)


def test_rounds_are_seeded_and_stratified():
    wl = workloads.WORKLOADS["analyze-n128"]
    first = next(workloads.rounds(wl, 3))
    assert first == next(workloads.rounds(wl, 3))
    assert first != next(workloads.rounds(wl, 4))
    random_docs = [d for d in first if d not in HARD.values()]
    timed_hard = [d for d in HARD.values() if workloads.in_domain(d)]
    assert len(first) == len(random_docs) + len(timed_hard)
    assert all(workloads.in_domain(d) for d in first)
    counts = [len(d["poles"]) for d in random_docs]
    assert all(counts.count(k) == wl.per_count for k in workloads.POLE_COUNTS)
    for doc in random_docs:
        bs = [complex(*p["b"]) for p in doc["poles"]]
        assert all(workloads.MIN_RADIUS <= abs(b) <= workloads.MAX_RADIUS for b in bs)
        assert all(abs(a - b) >= workloads.MIN_SEPARATION for i, a in enumerate(bs) for b in bs[:i])


def test_known_defects_are_outside_the_timed_domain():
    assert set(workloads.outside_domain_cases()) == {"pole-0.99", "small-block"}
    tiny = {"poles": [_pole(0.5, 1, 1.0), _pole(-0.3, 1, 1e-4)]}
    assert not workloads.in_domain(tiny)
    assert workloads.in_domain({"poles": [_pole(0.5, 1, 1.0), _pole(-0.3, 1, 1e-2)]})


def test_self_times_sum_to_wall_time():
    wl = workloads.WORKLOADS["analyze-n128"]
    docs = list(HARD.values())
    start = time.perf_counter()
    untraced = [workloads.run_op(wl, doc) for doc in docs]
    untraced_s = time.perf_counter() - start
    tracer = spans.Tracer(wl.n, 1e-6)
    tracer.install()
    walls = []
    try:
        for i, doc in enumerate(docs):
            start = time.perf_counter()
            text, _, _ = tracer.run_op(i, workloads.run_op, wl, doc)
            walls.append(time.perf_counter() - start)
            assert text == untraced[i][0]
    finally:
        tracer.uninstall()
    assert workloads.pipeline.analyze_symbol.__name__ == "analyze_symbol"
    assert not hasattr(workloads.pipeline.analyze_symbol, "__wrapped__")
    overhead = max(sum(walls) / untraced_s - 1, 0.0)
    self_times = tracer.self_times()
    assert min(self_times) > -1e-6
    for i, wall in enumerate(walls):
        total = sum(t for s, t in zip(tracer.spans, self_times) if s[5] == i)
        assert abs(total - wall) <= max(overhead, 0.01) * wall
    metrics = tracer.metrics()
    assert metrics["hankel.residuals_calls"] == len(docs)
    assert metrics["spectral.blocks"] == sum(len(report["blocks"]) for _, report, _ in untraced)
    assert metrics["kernel.dense_calls"] > 0


def test_traced_run_reports_every_declared_metric():
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "analyze-n128", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        check=True, capture_output=True, text=True, cwd=BENCH_DIR.parent, timeout=300,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert result["correct"] and result["metrics"]["extraction.mobius_blocks"]["value"] > 0


def test_untraced_run_reports_every_declared_metric():
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "analyze-n128", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        check=True, capture_output=True, text=True, cwd=BENCH_DIR.parent, timeout=300,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
