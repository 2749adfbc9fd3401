"""End-to-end runs of the command line: repeatable bytes, exit codes and strict JSON.

Every run but two goes through cli.main in process, by `run`, which
writes the report with --out and reads it back as strict RFC 8259 JSON
(no NaN or Infinity token).  The two that cannot run in process compare
reports under one and two OpenBLAS threads: OpenBLAS reads its thread
count once, when it is loaded, so each count needs a process of its own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hankelschmidt.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

POLE = {"poles": [{"b": [0.5, 0.0], "m": 1, "c": [1.0, 0.0]}]}
Z2 = {"poly": [[0, 0], [0, 0], [1, 0]]}
# two poles of multiplicity 4 and a simple one
MULTIPLE_POLES = {
    "poles": [
        {"b": [-0.5373490293139898, 0.5420310713300576], "m": 4,
         "c": [-0.1817340575870318, -0.7765437434910089]},
        {"b": [-0.6240873297441091, 0.35041257921138325], "m": 1,
         "c": [-0.26417203063295636, -0.3836678708723362]},
        {"b": [-0.23289309139962888, 0.276432820411099], "m": 4,
         "c": [0.32094578325073536, -0.1981513590391076]},
    ]
}


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def strict_json(data: bytes):
    def reject(token):
        raise ValueError(f"not RFC 8259 JSON: {token}")

    return json.loads(data, parse_constant=reject)


def run(tmp_path: Path, *argv: str) -> tuple[int, bytes, dict]:
    """main(argv) with --out: its exit code, the bytes it wrote and their strict parse."""
    out = tmp_path / f"out-{len(list(tmp_path.glob('out-*.json')))}.json"
    code = main([*argv, "--out", str(out)])
    data = out.read_bytes()
    return code, data, strict_json(data)


@pytest.mark.parametrize("n", [128, 512])
def test_report_does_not_depend_on_blas_threads(tmp_path, n):
    # the blocks are extracted by batched matrix products, whose rounding
    # must not follow the thread count
    symbol = write_json(tmp_path / "multiple-poles.json", MULTIPLE_POLES)
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.json"
        subprocess.run(
            [sys.executable, "-m", "hankelschmidt.cli", "analyze", symbol, "--n", str(n),
             "--out", str(out)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(SRC)},
            check=True,
            timeout=120,
        )
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    strict_json(reports[0])


@pytest.mark.parametrize(
    "doc, n",
    [(MULTIPLE_POLES, 128), (POLE, 512), (Z2, 16), (Z2, 512)],
    ids=["multiple-poles-128", "pole-512", "z2-16", "z2-512"],
)
def test_analyze_repeats_its_bytes(tmp_path, doc, n):
    # u = z^2 has one block of multiplicity 3, whatever basis the factorization gives it
    symbol = write_json(tmp_path / "symbol.json", doc)
    first, second = (run(tmp_path, "analyze", symbol, "--n", str(n)) for _ in range(2))
    assert first[0] == 0
    assert first[1] == second[1]


def test_z2_at_512_reads_c_theta_of_degree_3(tmp_path):
    # J < N at N=512, so the action check reads C_theta on the reversed basis of theta's zeros
    code, _, report = run(tmp_path, "analyze", write_json(tmp_path / "z2.json", Z2), "--n", "512")
    (block,) = report["blocks"]
    assert code == 0
    assert block["multiplicity"] == 3 and block["residuals"]["action"] <= 1e-12


@pytest.mark.parametrize("n", [128, 64])
def test_verify_repeats_its_bytes(tmp_path, n):
    # at N=64 most shifted model-space bases have not decayed by N, and the
    # Frostman check reads them at N all the same
    first, second = (run(tmp_path, "verify", "--n", str(n)) for _ in range(2))
    assert first[0] == 0
    assert first[1] == second[1]


def test_verify_fails_under_fault_injection(tmp_path):
    code, _, report = run(tmp_path, "verify", "--perturb", "1e-3")
    assert code == 3 and report["pass"] is False


def test_tinier_residues_pass_with_nonzero_residuals(tmp_path):
    # residues of 1e-300: the squares of s, of H q and of the action
    # difference all underflow unless taken on the scale of s
    doc = {"poles": [{"b": [0.5, 0.0], "m": 1, "c": [1e-300, 0.0]},
                     {"b": [-0.3, 0.2], "m": 1, "c": [0.0, 1e-300]}]}
    code, _, report = run(tmp_path, "analyze", write_json(tmp_path / "tinier.json", doc))
    assert code == 0 and len(report["blocks"]) == 2
    for block in report["blocks"]:
        assert block["residuals"]["action"] > 0


def test_frostman_shifts_a_constant_phase(tmp_path):
    # B = i is constant, so B_alpha = (alpha - i) / (1 - conj(alpha) i): 0.6 - 0.8i at 0.3 + 0.1i
    path = write_json(tmp_path / "constant.json", {"phase": [0, 1], "zeros": []})
    code, _, report = run(tmp_path, "frostman", path, "--alpha", "0.3,0.1")
    assert code == 0
    assert abs(complex(*report["shifted"]["phase"]) - (0.6 - 0.8j)) < 1e-12


@pytest.mark.parametrize(
    "command, doc, options",
    [
        ("analyze", POLE, []),
        ("analyze", {"poles": [{"b": [0.5, 0.0], "m": 1, "c": [1.0, 0.0]},
                               {"b": [-0.3, 0.0], "m": 1, "c": [1e-05, 0.0]}]}, []),
        ("analyze", {"poly": [[0, 0]] * 7 + [[1, 0]]}, ["--n", "16"]),
        ("frostman", {"phase": [1.0, 0.0], "zeros": [[0.5, 0.0]]}, ["--alpha", "0.2"]),
        ("conjugate", {"poly": [[0.0, 0.0], [1.0, 0.0]]}, ["--alpha", "-0.2,0.1", "--n", "16"]),
    ],
    ids=["pole", "small-block", "z7", "frostman", "conjugate"],
)
def test_written_file_is_strict_json(tmp_path, command, doc, options):
    # run() parses what was written strictly; these are the files no other test here writes
    assert run(tmp_path, command, write_json(tmp_path / "input.json", doc), *options)[0] == 0
