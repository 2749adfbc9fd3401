"""Seeded inputs and operations for the benchmark workloads.

Each workload is a stream of rounds; a round is a fixed-composition list of
inputs drawn from the workload seed, and a run measures whole rounds.  The
analyze generator follows the distribution of `suites.random_symbol` (1-4
simple poles, radius uniform in [0.1, 0.8], pairwise separation >= 0.05,
complex-normal residues) without calling it, so a change to the library
cannot change the workload.  The radii are fixed per round to keep a
run's median steady across seeds: every round holds the same number of
symbols with 1, 2, 3 and 4 poles; within each pole count the largest
radius sits at the midpoints of equal-probability strata of its
distribution, and the other radii at the midpoints of equal strata of
[0.1, largest radius], where they are uniform.  The seed draws the angles
and the residues.  The radii set the cost of a symbol more than its rank
does: when every pole has |b| < 0.5 the N=512 Hankel entries underflow
into subnormal numbers, which the dense kernels process 2-3x slower, and
with random other radii the median N=512 operation varied by 12% across
seeds.

Timed inputs lie in a domain on which no operation fails: every
|b| <= MAX_RADIUS, and an exact smallest singular value of at least
MIN_SV_RATIO times the largest.  The package counts s below 1e-4 * s_max
as kernel (cluster_tol = 1e-8 on s^2), so it reports a symbol with a
smaller block without that block and with exit code 0; at N=128 it also
truncates a pole at 0.99 badly.  Random draws outside the domain are drawn
again.  The hard cases outside it (the pole at 0.99, the 1e-5 small block)
are never timed; run.py analyses them on every run and reports their
outcomes, so these defects stay visible.

The package is imported by the caller (run.py) once the BLAS thread count
is fixed; this module reaches it through module attributes, so the span
wrappers in spans.py see every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hankelschmidt import pipeline, symbols
from reference import exact_singular_values

HARD_CASES_DIR = Path(__file__).resolve().parent / "hard_cases"
MIN_RADIUS, MAX_RADIUS, MIN_SEPARATION = 0.1, 0.8, 0.05
MIN_SV_RATIO = 2e-4
POLE_COUNTS = (1, 2, 3, 4)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "analyze" or "verify"
    n: int
    per_count: int = 0   # analyze: symbols per pole count in a round
    hard_cases: bool = False
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analyze-n128", "analyze", 128, per_count=10, hard_cases=True,
            why="everyday analyze at the default N=128: extraction, verification and FFT "
                "work weigh as much as the dense layers; includes the fixed hard cases",
        ),
        Workload(
            "analyze-n512", "analyze", 512, per_count=2,
            why="analyze at N=512, where dense O(N^3) Hankel residuals, spectrum and SVD "
                "do most of the work",
        ),
        Workload(
            "verify-n128", "verify", 128,
            why="verify_suites at default sizes: many small subspace gaps and canonical "
                "QRs, and the only workload where Blaschke/Frostman/Moebius tools matter",
        ),
    )
}


def load_hard_cases() -> dict[str, dict]:
    return {p.stem: json.loads(p.read_text()) for p in sorted(HARD_CASES_DIR.glob("*.json"))}


def in_domain(doc: dict) -> bool:
    """Whether a symbol document lies in the timed domain (see the module docstring)."""
    if max(abs(complex(*p["b"])) for p in doc["poles"]) > MAX_RADIUS:
        return False
    exact = exact_singular_values(doc)
    return exact[-1] >= MIN_SV_RATIO * exact[0]


def outside_domain_cases() -> dict[str, dict]:
    """The hard cases that are checked on every run but never timed."""
    return {name: doc for name, doc in load_hard_cases().items() if not in_domain(doc)}


def random_symbol_doc(rng: np.random.Generator, k: int, q: float) -> dict:
    """In-domain symbol document with k simple poles whose largest radius has quantile q."""
    span = MAX_RADIUS - MIN_RADIUS
    r_max = MIN_RADIUS + span * q ** (1.0 / k)  # the max of k uniforms has CDF x^k
    while True:
        doc = _draw_symbol_doc(rng, k, r_max)
        if in_domain(doc):
            return doc


def _draw_symbol_doc(rng: np.random.Generator, k: int, r_max: float) -> dict:
    others = (np.arange(k - 1) + 0.5) / max(k - 1, 1)
    radii = [r_max, *(MIN_RADIUS + (r_max - MIN_RADIUS) * others)]
    bs: list[complex] = []
    for r in rng.permutation(radii):
        while True:
            b = complex(r * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            if all(abs(b - other) >= MIN_SEPARATION for other in bs):
                break
        bs.append(b)
    cs = (rng.normal(size=k) + 1j * rng.normal(size=k)) / np.sqrt(2)
    return {
        "poles": [
            {"b": [b.real, b.imag], "m": 1, "c": [float(c.real), float(c.imag)]}
            for b, c in zip(bs, cs)
        ]
    }


def rounds(workload: Workload, seed: int):
    """Endless stream of rounds of inputs; the same seed gives the same stream.

    A verify round is one verify_suites call, its input the suite seed.
    """
    rng = np.random.default_rng(seed)
    hard = [d for d in load_hard_cases().values() if in_domain(d)] if workload.hard_cases else []
    while True:
        if workload.kind == "verify":
            yield [int(rng.integers(0, 2**31))]
            continue
        docs = []
        for k in POLE_COUNTS:
            quantiles = (np.arange(workload.per_count) + 0.5) / workload.per_count
            docs += [random_symbol_doc(rng, k, q) for q in quantiles]
        docs += hard
        yield [docs[i] for i in rng.permutation(len(docs))]


def run_op(workload: Workload, item) -> tuple[str, dict, int]:
    """One operation through the public API: (JSON text, report, exit code)."""
    if workload.kind == "verify":
        report = pipeline.verify_suites(pipeline.AnalysisConfig(n=workload.n, seed=item))
        return json.dumps(report), report, pipeline.verify_exit_code(report)
    report = pipeline.analyze_symbol(symbols.parse_symbol(item), pipeline.AnalysisConfig(n=workload.n))
    return json.dumps(report), report, pipeline.analysis_exit_code(report)


def is_mobius_block(block: dict) -> bool:
    """A report block whose representation was extracted by the Moebius branch."""
    rep = block.get("representation")
    return rep is not None and rep["canonicalized_at"] != [0.0, 0.0]
