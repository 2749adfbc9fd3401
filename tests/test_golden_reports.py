"""analyze_symbol reports stay within 1e-9 of a stored reference run.

tests/golden_reports.json holds the reports of the four bench/hard_cases at
N=128 and of six seeded suites.random_symbol draws at N=128 and N=512, as
written by commit 43899d4, which extracts every block by projecting the
reproducing kernel at its base point.  The linear_form, theta_inner and
u_s_cross residuals it held were later deleted from the file key by key,
leaving every other value as written.  Two reports with a block of multiplicity 4,
so that Hitt's eigenproblem is guarded too, were appended as written by
commit 910a5bd: u = z^3 at N=16 (theta = z^4) and u = S* B at N=128, B with
double zeros at 0.3+0.2i and -0.5 (theta's zeros off the origin).
Keys, list lengths, strings (warnings included), booleans (pass and
reliable flags) and integers (multiplicities, ranks) must be identical;
every float must lie within 1e-9 * max(1, |reference|), the phase phi
modulo 2 pi.  To rebuild the file from a checkout:

    PYTHONPATH=src python tests/test_golden_reports.py > tests/golden_reports.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hankelschmidt.blaschke import BlaschkeProduct
from hankelschmidt.pipeline import AnalysisConfig, _vector_pairs, analyze_symbol, complex_pair
from hankelschmidt.suites import random_symbol
from hankelschmidt.symbols import parse_symbol, symbol_to_dict
from oracles import symbol_from_inner

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"
REL_TOL = 1e-9


def golden_inputs():
    """(name, n, symbol document) of every stored case."""
    for path in sorted((ROOT / "bench" / "hard_cases").glob("*.json")):
        yield path.stem, 128, json.loads(path.read_text())
    for seed in range(6):
        doc = symbol_to_dict(random_symbol(np.random.default_rng(seed)))
        for n in (128, 512):
            yield f"random-{seed}", n, doc
    yield "cube", 16, {"poly": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}
    a = 0.3 + 0.2j
    yield "double-zeros-inner", 128, symbol_to_dict(symbol_from_inner(BlaschkeProduct([a, a, -0.5, -0.5])))


def assert_close(got, want, path: str) -> None:
    assert type(got) is type(want), f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys differ"
        for key in want:
            assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        diff = got - want
        if path.endswith(".phi"):
            # an angle in (-pi, pi]: at the cut, rounding picks either end
            diff = (diff + np.pi) % (2 * np.pi) - np.pi
        assert abs(diff) <= REL_TOL * max(1.0, abs(want)), f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


# the generator below must run before the file exists (or while it is truncated)
CASES = [] if __name__ == "__main__" else json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES, ids=[f"{c['name']}-n{c['n']}" for c in CASES])
def test_report_matches_reference(case):
    report = analyze_symbol(parse_symbol(case["symbol"]), AnalysisConfig(n=case["n"]))
    assert_close(json.loads(json.dumps(report)), case["report"], "report")


def test_vector_pairs_write_the_stored_bytes():
    # one column_stack per vector writes the same JSON as one complex_pair
    # per coefficient; zero padding and entries below 1e-14 are cut off
    checked = 0
    for case in CASES:
        for block in case["report"]["blocks"]:
            if "representation" not in block:
                continue
            stored = block["representation"]["p"]
            c = np.array([complex(re, im) for re, im in stored] + [1e-15, 0.0])
            assert json.dumps(_vector_pairs(c)) == json.dumps(stored)
            assert json.dumps(_vector_pairs(c)) == json.dumps([complex_pair(z) for z in c[: len(stored)]])
            checked += 1
    assert checked > 0


def test_reference_covers_every_input():
    stored = [(c["name"], c["n"], c["symbol"]) for c in CASES]
    assert stored == list(golden_inputs())


if __name__ == "__main__":
    cases = [
        {"name": name, "n": n, "symbol": doc,
         "report": analyze_symbol(parse_symbol(doc), AnalysisConfig(n=n))}
        for name, n, doc in golden_inputs()
    ]
    sys.stdout.write("[\n" + ",\n".join(json.dumps(c) for c in cases) + "\n]\n")
