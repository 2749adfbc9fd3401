"""analyze_symbol reports stay within 1e-9 of a stored reference run.

tests/golden_reports.json holds the reports of the four bench/hard_cases at
N=128 and of six seeded suites.random_symbol draws at N=128 and N=512, as
written by commit b5c198b, which factored Gamma with a dense J x J SVD.
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

from hankelschmidt.pipeline import AnalysisConfig, analyze_symbol
from hankelschmidt.suites import random_symbol
from hankelschmidt.symbols import parse_symbol, symbol_to_dict

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
