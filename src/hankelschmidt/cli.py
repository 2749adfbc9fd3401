"""Command-line driver.

Subcommands:
    analyze    full pipeline on a symbol file, JSON report to stdout or --out
    verify     seeded identity/lemma suites across all modules
    conjugate  Moebius-conjugated symbol coefficients
    frostman   Frostman shift of a Blaschke product file

Exit codes: 0 pass, 1 input error, 2 unreliable or failing blocks,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from .blaschke import BlaschkeProduct, MobiusMap, frostman_shift, mobius_conjugate_symbol
from .pipeline import (
    AnalysisConfig,
    analysis_exit_code,
    analyze_symbol,
    check_order,
    complex_pair,
    verify_exit_code,
    verify_suites,
)
from .symbols import SymbolFormatError, _parse_complex, parse_symbol


def _emit(report: dict, out_path: str | None) -> None:
    # strict JSON: a NaN or infinite float is an error, never a bare token
    text = json.dumps(report, indent=2, allow_nan=False)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SymbolFormatError(f"{path} is not valid JSON: {exc}")


def _parse_alpha(text: str) -> complex:
    """--alpha RE or RE,IM, a point of the open disk."""
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) not in (1, 2):
        raise SymbolFormatError(f"--alpha expects RE or RE,IM, got {text!r}")
    alpha = complex(*parts)
    if not abs(alpha) < 1:
        raise SymbolFormatError(f"--alpha must lie in the open disk, got |alpha| = {abs(alpha):.6g}")
    return alpha


def _parse_blaschke_file(doc: dict) -> BlaschkeProduct:
    if not isinstance(doc, dict) or set(doc) - {"phase", "zeros"}:
        raise SymbolFormatError("Blaschke file must be an object with fields 'phase' and 'zeros'")
    zeros_raw = doc.get("zeros", [])
    if not isinstance(zeros_raw, list):
        raise SymbolFormatError("'zeros' must be a list of [re, im] pairs")
    zeros = [_parse_complex(z, f"zeros[{i}]") for i, z in enumerate(zeros_raw)]
    for i, z in enumerate(zeros):
        if not abs(z) < 1:
            raise SymbolFormatError(f"zeros[{i}] has modulus {abs(z):.6g} >= 1")
    phase = _parse_complex(doc.get("phase", [1.0, 0.0]), "phase")
    try:
        return BlaschkeProduct(np.array(zeros, dtype=np.complex128), phase)
    except ValueError as exc:
        raise SymbolFormatError(str(exc))


def _cmd_analyze(args) -> int:
    sym = parse_symbol(_load_json(args.symbol))
    config = AnalysisConfig(n=args.n, cluster_tol=args.cluster_tol, verify_tol=args.verify_tol)
    report = analyze_symbol(sym, config)
    _emit(report, args.out)
    return analysis_exit_code(report)


def _cmd_verify(args) -> int:
    config = AnalysisConfig(n=args.n, verify_tol=args.verify_tol, seed=args.seed)
    report = verify_suites(config, perturb=args.perturb)
    _emit(report, args.out)
    return verify_exit_code(report)


def _cmd_conjugate(args) -> int:
    check_order(args.n)
    sym = parse_symbol(_load_json(args.symbol))
    alpha = _parse_alpha(args.alpha)
    w, residual = mobius_conjugate_symbol(sym, MobiusMap(alpha), args.n)
    report = {
        "alpha": complex_pair(alpha),
        "order": args.n,
        "projection_residual": float(residual),
        "coefficients": [complex_pair(c) for c in w],
    }
    _emit(report, args.out)
    return 0


def _cmd_frostman(args) -> int:
    check_order(args.n)
    b = _parse_blaschke_file(_load_json(args.blaschke))
    alpha = _parse_alpha(args.alpha)
    shifted, g = frostman_shift(b, alpha, args.n)
    report = {
        "alpha": complex_pair(alpha),
        "shifted": {
            "zeros": [complex_pair(z) for z in shifted.zeros],
            "phase": complex_pair(shifted.phase),
        },
        "multiplier_coefficients": [complex_pair(c) for c in g],
    }
    _emit(report, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads '-1e-3' and '-0.2,0.1' as values, not options."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern misses '-1e-3'; no option here starts with '-' and a digit
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=128, help="truncation order (power of two)")
    parser.add_argument("--out", default=None, help="write the JSON report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hankelschmidt",
        description="Schmidt subspaces of finite-rank Hankel operators: analysis and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze a rational symbol file")
    p_analyze.add_argument("symbol", help="JSON symbol file")
    _add_common(p_analyze)
    p_analyze.add_argument("--cluster-tol", dest="cluster_tol", type=float, default=1e-8)
    p_analyze.add_argument("--verify-tol", dest="verify_tol", type=float, default=1e-6)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_verify = sub.add_parser("verify", help="run the seeded verification suites")
    _add_common(p_verify)
    p_verify.add_argument("--verify-tol", dest="verify_tol", type=float, default=1e-6)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--perturb", type=float, default=0.0,
        help="corrupt the Hankel symmetry by this amount (fault injection)",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_conj = sub.add_parser("conjugate", help="Moebius-conjugate a symbol")
    p_conj.add_argument("symbol", help="JSON symbol file")
    p_conj.add_argument("--alpha", required=True, help="base point RE or RE,IM")
    _add_common(p_conj)
    p_conj.set_defaults(func=_cmd_conjugate)

    p_fro = sub.add_parser("frostman", help="Frostman-shift a Blaschke product file")
    p_fro.add_argument("blaschke", help="JSON file {\"phase\": [re, im], \"zeros\": [[re, im], ...]}")
    p_fro.add_argument("--alpha", required=True, help="shift parameter RE or RE,IM")
    _add_common(p_fro)
    p_fro.set_defaults(func=_cmd_frostman)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # SymbolFormatError, unreadable input, unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
