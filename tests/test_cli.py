import json
import re
import warnings

import numpy as np
import pytest

from hankelschmidt.cli import main
from hankelschmidt.pipeline import (
    AnalysisConfig,
    analysis_exit_code,
    analyze_symbol,
    verify_exit_code,
    verify_suites,
)
from hankelschmidt.symbols import PoleTerm, RationalSymbol


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_config_validation():
    with pytest.raises(ValueError):
        AnalysisConfig(n=100)  # not a power of two
    with pytest.raises(ValueError):
        AnalysisConfig(n=8)
    with pytest.raises(ValueError):
        AnalysisConfig(n=2048)
    with pytest.raises(ValueError):
        AnalysisConfig(cluster_tol=2.0)
    AnalysisConfig(n=256)  # fine


def test_analyze_shift_symbol_report():
    report = analyze_symbol(RationalSymbol(poly=[0, 1]), AnalysisConfig(n=16))
    assert report["pass"] is True
    assert analysis_exit_code(report) == 0
    assert len(report["blocks"]) == 1
    blk = report["blocks"][0]
    assert abs(blk["s"] - 1.0) < 1e-9
    assert blk["multiplicity"] == 2
    zeros = blk["representation"]["theta"]["zeros"]
    assert all(abs(complex(re, im)) < 1e-9 for re, im in zeros)
    assert blk["pass"] is True


def test_analyze_zero_symbol():
    report = analyze_symbol(RationalSymbol(poly=[0.0]), AnalysisConfig(n=16))
    assert report["blocks"] == []
    assert report["pass"] is True
    assert analysis_exit_code(report) == 0


def strict_json(text):
    """json.loads that rejects the NaN and Infinity tokens RFC 8259 does not have."""
    def reject(token):
        raise ValueError(f"not RFC 8259 JSON: {token}")

    return json.loads(text, parse_constant=reject)


def test_analyze_report_fields_finite(tmp_path, capsys):
    sym = RationalSymbol(poles=(PoleTerm(b=0.5, m=1, c=1.0),))
    report = strict_json(json.dumps(analyze_symbol(sym, AnalysisConfig(n=32))))
    assert report["numerical_rank"] == 1
    assert report["kronecker_rank_bound"] == 1
    assert report["tail_bound"] >= 0.0

    # a triple pole this near the circle has no finite tail bound: the
    # report reads null and still fails on the tail
    near_circle = write_json(
        tmp_path / "near.json", {"poles": [{"b": [0.99999999, 0.0], "m": 3, "c": [1.0, 0.0]}]}
    )
    assert main(["analyze", near_circle, "--n", "16"]) == 2
    report = strict_json(capsys.readouterr().out)
    assert report["tail_bound"] is None
    assert report["pass"] is False
    assert any("truncation tail bound" in w for w in report["warnings"])


def test_cli_analyze_exit_codes(tmp_path, capsys):
    good = write_json(tmp_path / "z.json", {"poly": [[0, 0], [1, 0]], "poles": []})
    code = main(["analyze", good, "--n", "16"])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["blocks"][0]["s"] == pytest.approx(1.0, abs=1e-9)

    bad = write_json(
        tmp_path / "bad.json", {"poly": [], "poles": [{"b": [1.2, 0.0], "m": 1, "c": [1, 0]}]}
    )
    code = main(["analyze", bad, "--n", "16"])
    captured = capsys.readouterr()
    assert code == 1
    assert "poles[0]" in captured.err


def test_cli_analyze_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 1
    assert "JSON" in capsys.readouterr().err


def assert_one_error_line(err, path):
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path in err


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
def test_cli_analyze_names_an_unreadable_input(tmp_path, capsys, name):
    path = str(tmp_path / name)
    assert main(["analyze", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err, path)


def test_cli_analyze_names_an_unwritable_out(tmp_path, capsys):
    symbol = write_json(tmp_path / "z.json", {"poly": [[0, 0], [1, 0]]})
    out = str(tmp_path / "no-such-dir" / "report.json")
    assert main(["analyze", symbol, "--n", "16", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err, out)


def test_cli_conjugate(tmp_path, capsys):
    good = write_json(tmp_path / "z.json", {"poly": [[0, 0], [1, 0]], "poles": []})
    code = main(["conjugate", good, "--alpha", "0.4", "--n", "16"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    # w = -S*((Su) o mu) for u = z has leading coefficient 2a(1 - a^2)/... : check
    # against the direct series of mu(z)^2
    lead = complex(*out["coefficients"][0])
    assert lead == pytest.approx(0.672, abs=1e-12)


def test_cli_frostman(tmp_path, capsys):
    doc = {"phase": [1.0, 0.0], "zeros": [[0.5, 0.0]]}
    path = write_json(tmp_path / "b.json", doc)
    code = main(["frostman", path, "--alpha", "0.2,0.1", "--n", "16"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(out["shifted"]["zeros"]) == 1


def test_cli_frostman_rejects_bad_file(tmp_path, capsys):
    path = write_json(tmp_path / "b.json", {"phase": [1, 0], "zeros": [[1.5, 0]]})
    assert main(["frostman", path, "--alpha", "0.1"]) == 1
    assert "zeros[0]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"zeros": [[0.1, False]]}, "zeros[0]"),
        ({"phase": [True, 0], "zeros": [[0.5, 0.0]]}, "phase"),
        ({"zeros": [["0.5", 0.0]]}, "zeros[0]"),
    ],
    ids=["boolean-zero", "boolean-phase", "string-zero"],
)
def test_cli_frostman_names_non_numeric_field(tmp_path, capsys, doc, field):
    path = write_json(tmp_path / "b.json", doc)
    assert main(["frostman", path, "--alpha", "0.2", "--n", "16"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: expected [re, im]") and "Traceback" not in err


@pytest.mark.parametrize("command", ["conjugate", "frostman"])
@pytest.mark.parametrize("joined", [True, False], ids=["equals", "space"])
def test_cli_reads_negative_alpha(tmp_path, capsys, command, joined):
    if command == "frostman":
        path = write_json(tmp_path / "b.json", {"phase": [1.0, 0.0], "zeros": [[0.5, 0.0]]})
    else:
        path = write_json(tmp_path / "z.json", {"poly": [[0, 0], [1, 0]], "poles": []})
    flag = ["--alpha=-0.2,0.1"] if joined else ["--alpha", "-0.2,0.1"]
    assert main([command, path, *flag, "--n", "16"]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == [-0.2, 0.1]


def test_cli_alpha_outside_disk(tmp_path, capsys):
    good = write_json(tmp_path / "z.json", {"poly": [[0, 0], [1, 0]], "poles": []})
    assert main(["conjugate", good, "--alpha", "1.5"]) == 1
    capsys.readouterr()


def test_verify_suites_small_deterministic():
    cfg = AnalysisConfig(n=32, seed=5)
    r1 = verify_suites(cfg, identity_count=3, blaschke_count=2, alpha_count=1,
                       mobius_count=2, theorem_count=2)
    r2 = verify_suites(cfg, identity_count=3, blaschke_count=2, alpha_count=1,
                       mobius_count=2, theorem_count=2)
    assert json.dumps(r1) == json.dumps(r2)
    assert r1["pass"] is True
    assert verify_exit_code(r1) == 0


@pytest.mark.xfail(strict=True, reason=(
    "known defect: at N <= 64 verify fails with correct code; at (64, seed 4) "
    "suite_mobius' mapped_basis_gap 1.63e-6 exceeds 1e-6 + 100 tail_w, and the "
    "energy that mobius_conjugate_function drops is not in the allowance"))
def test_verify_passes_at_order_64_seed_4():
    assert verify_suites(AnalysisConfig(n=64, seed=4))["pass"] is True


def test_verify_perturbation_fails():
    cfg = AnalysisConfig(n=32, seed=5)
    report = verify_suites(cfg, perturb=1e-3, identity_count=3, blaschke_count=1,
                           alpha_count=1, mobius_count=1, theorem_count=1)
    assert report["suites"]["identities"]["pass"] is False
    assert verify_exit_code(report) == 3


@pytest.mark.parametrize(
    "perturb, joined",
    [("-1e-3", True), ("nan", True), ("-1e-3", False), ("nan", False)],
    ids=["-1e-3", "nan", "space--1e-3", "space-nan"],
)
def test_cli_verify_rejects_negative_or_nan_perturbation(perturb, joined, capsys):
    # neither injects a fault, so a report would claim a check that never ran
    flag = [f"--perturb={perturb}"] if joined else ["--perturb", perturb]
    assert main(["verify", "--n", "16", *flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: perturb must be finite and >= 0" in captured.err
    with pytest.raises(ValueError, match="perturb"):
        verify_suites(AnalysisConfig(n=16), perturb=float(perturb))


def test_analysis_exit_code_two_for_unreliable():
    report = {"pass": True, "blocks": [{"reliable": False}]}
    assert analysis_exit_code(report) == 2
    report = {"pass": False, "blocks": [{"reliable": True}]}
    assert analysis_exit_code(report) == 2


def test_analyze_warns_on_an_ill_separated_cluster(tmp_path, capsys):
    # u = 1e-3 z + z^2 at N=16 has singular values 1 +- 7.07e-4; cluster_tol
    # 1e-3 merges them into one block of multiplicity 2 whose separation from
    # the next value is no more than its spread, so the block is unreliable
    sym = RationalSymbol(poly=[0, 1e-3, 1])
    report = analyze_symbol(sym, AnalysisConfig(n=16, cluster_tol=1e-3))
    merged = report["blocks"][0]
    assert merged["multiplicity"] == 2
    assert "ill-separated cluster: results near this gap are unreliable" in merged["warnings"]
    assert merged["reliable"] is False
    path = write_json(tmp_path / "u.json", {"poly": [[0.0, 0.0], [1e-3, 0.0], [1.0, 0.0]]})
    assert main(["analyze", path, "--n", "16", "--cluster-tol", "1e-3"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["blocks"][0]["reliable"] is False
    assert any("ill-separated cluster" in w for w in out["warnings"])


def test_analyze_finds_small_block(tmp_path, capsys):
    # k_0.5 + 1e-5 k_-0.3: a block at about 4e-6 s_max, far above the kernel
    bs, cs = np.array([0.5, -0.3]), np.array([1.0, 1e-5])
    doc = {"poles": [{"b": [b, 0.0], "m": 1, "c": [c, 0.0]} for b, c in zip(bs, cs)]}
    code = main(["analyze", write_json(tmp_path / "small.json", doc), "--n", "128"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["pass"] is True and report["warnings"] == []
    assert report["numerical_rank"] == 2 and len(report["blocks"]) == 2
    assert all(b["pass"] and b["reliable"] for b in report["blocks"])
    # s^2 are the eigenvalues of diag(c) K diag(c) K with K = 1 / (1 - b_i b_j)
    k = 1.0 / (1.0 - np.outer(bs, bs))
    exact = np.sqrt(np.sort(np.linalg.eigvals(np.diag(cs) @ k @ np.diag(cs) @ k).real))
    assert abs(report["blocks"][1]["s"] - exact[0]) <= 1e-9 * exact[0]


def test_analyze_flags_truncation_tail(tmp_path, capsys):
    # a pole at 0.99 is far from resolved at N=128: tail bound about 2
    doc = {"poles": [{"b": [0.99, 0.0], "m": 1, "c": [1.0, 0.0]}]}
    code = main(["analyze", write_json(tmp_path / "pole.json", doc), "--n", "128"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["pass"] is False
    assert report["tail_bound"] > 1.0
    assert any("tail bound" in w for w in report["warnings"])


@pytest.mark.parametrize(
    "command, zeros, alpha, message",
    [
        ("frostman", [[0.5, 0.0]], "nan", "--alpha"),
        ("frostman", [[float("nan"), 0.0]], "0.2", r"zeros\[0\]"),
        ("conjugate", None, "nan", "--alpha"),
    ],
    ids=["frostman-alpha", "frostman-zero", "conjugate-alpha"],
)
def test_cli_rejects_nan_inputs(tmp_path, capsys, command, zeros, alpha, message):
    if command == "frostman":
        path = write_json(tmp_path / "b.json", {"phase": [1.0, 0.0], "zeros": zeros})
    else:
        path = write_json(tmp_path / "z.json", {"poly": [[0, 0], [1, 0]], "poles": []})
    assert main([command, path, "--alpha", alpha, "--n", "16"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert re.search(message, err)


@pytest.mark.parametrize(
    "argv",
    [
        ["conjugate", "z.json", "--alpha", "0.2", "--cluster-tol", "1e-8"],
        ["conjugate", "z.json", "--alpha", "0.2", "--verify-tol", "1e-6"],
        ["frostman", "b.json", "--alpha", "0.2", "--cluster-tol", "1e-8"],
        ["frostman", "b.json", "--alpha", "0.2", "--verify-tol", "1e-6"],
        ["verify", "--cluster-tol", "1e-8"],
    ],
)
def test_cli_rejects_flags_the_command_does_not_apply(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_report_config_lists_applied_settings(tmp_path, capsys):
    path = write_json(tmp_path / "z.json", {"poly": [[0, 0], [1, 0]], "poles": []})
    main(["analyze", path, "--n", "16", "--cluster-tol", "1e-7", "--verify-tol", "1e-5"])
    config = json.loads(capsys.readouterr().out)["config"]
    assert config == {"n": 16, "cluster_tol": 1e-7, "verify_tol": 1e-5}
    assert list(config) == ["n", "cluster_tol", "verify_tol"]
    report = verify_suites(AnalysisConfig(n=32, verify_tol=1e-5, seed=5), identity_count=1,
                           blaschke_count=1, alpha_count=1, mobius_count=1, theorem_count=1)
    assert report["config"] == {"n": 32, "verify_tol": 1e-5, "seed": 5}
    assert list(report["config"]) == ["n", "verify_tol", "seed"]


@pytest.mark.parametrize("n", ["0", "3", "-4", "2048"])
@pytest.mark.parametrize("command", ["conjugate", "frostman"])
def test_cli_rejects_bad_truncation_order(tmp_path, capsys, command, n):
    if command == "frostman":
        path = write_json(tmp_path / "b.json", {"phase": [1.0, 0.0], "zeros": [[0.5, 0.0]]})
    else:
        path = write_json(tmp_path / "z.json", {"poly": [[0, 0], [1, 0]], "poles": []})
    assert main([command, path, "--alpha", "0.2", "--n", n]) == 1
    err = capsys.readouterr().err
    assert err == f"error: truncation order must be a power of two in [16, 1024], got {n}\n"


def test_cli_analyzes_a_block_wider_than_half_the_order(tmp_path, capsys):
    # u = z^7 at N = 16: a block of multiplicity 8, more than half of N
    path = write_json(tmp_path / "z7.json", {"poly": [[0, 0]] * 7 + [[1, 0]]})
    assert main(["analyze", path, "--n", "16"]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    block = json.loads(captured.out)["blocks"][0]
    assert block["multiplicity"] == 8 and block["pass"] is True


def test_cli_names_non_finite_residue(tmp_path, capsys):
    doc = {"poles": [{"b": [0.5, 0.0], "m": 1, "c": [float("nan"), 0.0]}]}
    assert main(["analyze", write_json(tmp_path / "nan.json", doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "poles[0].c" in err


def test_cli_rejects_a_residue_whose_square_overflows(tmp_path, capsys):
    # the tail bound sums its squares without the residue, and Gamma's
    # entries of 2.5e300 are refused before any square of them is formed
    doc = {"poles": [{"b": [0.5, 0.0], "m": 4, "c": [1e300, 0.0]}]}
    assert main(["analyze", write_json(tmp_path / "big.json", doc), "--n", "16"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: coefficients up to 2.500e+300 overflow")
    assert "Traceback" not in captured.err


def test_cli_reports_overflowing_coefficients_without_warnings(tmp_path, capsys):
    # 1.7e308 times the binomial weights overflows to inf, and inf times a
    # zero imaginary part to nan; the coefficients are refused as non-finite
    doc = {"poles": [{"b": [0.5, 0.0], "m": 4, "c": [1.7e308, 0.0]}]}
    path = write_json(tmp_path / "huge.json", doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["analyze", path, "--n", "16"]) == 1
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Warning" not in captured.err and "Traceback" not in captured.err
