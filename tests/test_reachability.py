"""The package is what the commands run: every module-level function and
every method in src/hankelschmidt runs under one of the CLI's commands.

A sys.setprofile hook records every Python function that starts while
cli.main runs `analyze` on the golden inputs, `verify` at N = 128, 64 and
32 and with `--perturb 1e-3`, and `conjugate` and `frostman`.  `verify`
runs serially (os.sched_getaffinity reports one CPU), since the hook does
not follow a forked child.  The recorded code objects are matched with the
defs that an ast scan finds at module level and directly in module-level
classes.  A def no command reaches belongs in tests/, not in the package;
the failure lists each one with its file and line.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import sys
from pathlib import Path

import hankelschmidt
from hankelschmidt.cli import main
from test_golden_reports import golden_inputs

PACKAGE = Path(hankelschmidt.__file__).resolve().parent  # the code that runs

# defs that no command reaches on a one-CPU run, and why they stay
ALLOWED = {
    "pipeline._run_forked": "forks the suite child where the process has two CPUs or more",
    "pipeline._child_payload": "runs in the forked suite child, which the hook does not follow",
    "hankel.HankelMatrix.__setattr__": "refuses every attribute write: it guards immutability",
}


def package_defs() -> dict[tuple[str, int], str]:
    """(file, first line) -> "module.name" of every module-level def and of
    every def directly in a module-level class ("module.Class.name").  The
    first line is the one a code object reports: a decorator's, if any."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            members = [(node, "")]
            if isinstance(node, ast.ClassDef):
                members = [(m, f"{node.name}.") for m in node.body]
            for m, prefix in members:
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([m.lineno] + [d.lineno for d in m.decorator_list])
                    out[str(path), first] = f"{path.stem}.{prefix}{m.name}"
    return out


def run_commands(tmp_path: Path) -> set[tuple[str, int]]:
    """(file, first line) of every Python function that starts while the
    commands run."""
    symbol = tmp_path / "symbol.json"
    symbol.write_text(json.dumps({"poles": [{"b": [0.5, 0.2], "m": 1, "c": [1.0, -0.5]},
                                            {"b": [-0.3, 0.4], "m": 2, "c": [0.2, 0.1]}]}))
    inner = tmp_path / "blaschke.json"
    inner.write_text(json.dumps({"phase": [0.6, 0.8], "zeros": [[0.3, 0.1], [-0.2, 0.5], [0.0, 0.0]]}))
    runs = [["conjugate", str(symbol), "--alpha", "0.3,-0.2", "--n", "64"],
            ["frostman", str(inner), "--alpha", "-0.25,0.1", "--n", "64"]]
    for i, (_, n, doc) in enumerate(golden_inputs()):
        path = tmp_path / f"golden-{i}.json"
        path.write_text(json.dumps(doc))
        runs.append(["analyze", str(path), "--n", str(n)])
    runs += [["verify", "--n", str(n)] for n in (128, 64, 32)]
    runs.append(["verify", "--perturb", "1e-3"])

    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    # a function whose results are cached from earlier tests would not start
    for path in PACKAGE.glob("*.py"):
        for obj in vars(importlib.import_module(f"hankelschmidt.{path.stem}")).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    before = sys.getprofile()
    sys.setprofile(hook)
    try:
        for i, argv in enumerate(runs):
            main([*argv, "--out", str(tmp_path / f"out-{i}.json")])
    finally:
        sys.setprofile(before)
    return {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in codes}


def test_the_commands_reach_every_package_function(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    defs = package_defs()
    reached = run_commands(tmp_path)
    unreached = [f"{name} ({Path(file).name}:{line})" for (file, line), name in sorted(defs.items())
                 if (file, line) not in reached and name not in ALLOWED]
    assert not unreached, "no command reaches:\n  " + "\n  ".join(unreached)
    allowed_reached = sorted(name for key, name in defs.items() if key in reached and name in ALLOWED)
    assert allowed_reached == [], f"allowed as unreached, yet reached: {allowed_reached}"
    assert set(ALLOWED) <= set(defs.values())
