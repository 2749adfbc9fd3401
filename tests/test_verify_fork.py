"""verify_suites runs two of its suites in a forked child when the host gives
the process two CPUs, and all four in order otherwise.

The two paths must write byte-identical reports, an exception on either
side must reach the caller with its type and message, and no child process
(or zombie) may outlive the call.  Each test picks its path by patching
os.sched_getaffinity, so both paths run on any POSIX host, one CPU or many.
"""

from __future__ import annotations

import json
import os

import pytest

from hankelschmidt import pipeline
from hankelschmidt.pipeline import AnalysisConfig, verify_exit_code, verify_suites

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the fork path needs os.fork")

SMALL = dict(identity_count=3, blaschke_count=2, alpha_count=1, mobius_count=2, theorem_count=2)


@pytest.fixture
def forks(monkeypatch):
    """Count the forks verify_suites makes."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def run(monkeypatch, cpus, config, **kwargs) -> dict:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    return verify_suites(config, **kwargs)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "n, seed, perturb",
    [(128, s, 0.0) for s in range(5)] + [(64, s, 0.0) for s in range(5)] + [(128, 0, 1e-3)],
)
def test_forked_and_in_order_reports_are_byte_identical(monkeypatch, forks, n, seed, perturb):
    config = AnalysisConfig(n=n, seed=seed)
    forked = run(monkeypatch, {0, 1}, config, perturb=perturb)
    assert len(forks) == 1
    in_order = run(monkeypatch, {0}, config, perturb=perturb)
    assert len(forks) == 1
    assert json.dumps(forked) == json.dumps(in_order)
    assert list(forked["suites"]) == ["identities", "model_spaces", "mobius_covariance",
                                      "structure_theorem"]
    if perturb:
        assert forked["pass"] is False
        assert verify_exit_code(forked) == 3
    assert_no_child_left()


def test_suites_run_in_order_without_sched_getaffinity(monkeypatch, forks):
    # macOS and Windows have no os.sched_getaffinity
    config = AnalysisConfig(n=32, seed=5)
    expected = json.dumps(run(monkeypatch, {0, 1}, config, **SMALL))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert json.dumps(verify_suites(config, **SMALL)) == expected
    assert len(forks) == 1


def test_a_failed_fork_runs_every_suite_here(monkeypatch):
    config = AnalysisConfig(n=32, seed=5)
    expected = json.dumps(run(monkeypatch, {0}, config, **SMALL))

    def no_fork():
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert json.dumps(run(monkeypatch, {0, 1}, config, **SMALL)) == expected


@pytest.mark.parametrize("suite", ["suite_theorem", "suite_mobius"], ids=["child", "parent"])
def test_a_suite_error_reaches_the_caller_and_leaves_no_child(monkeypatch, forks, suite):
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(pipeline, suite, boom)
    with pytest.raises(ValueError, match="^boom$") as info:
        run(monkeypatch, {0, 1}, AnalysisConfig(n=32, seed=5), **SMALL)
    assert len(forks) == 1
    if suite == "suite_theorem":  # the child's traceback comes along as the cause
        assert "boom" in str(info.value.__cause__)
    assert_no_child_left()


def test_a_child_error_that_does_not_pickle_keeps_its_type_name(monkeypatch):
    class LocalError(Exception):  # a local class cannot be pickled
        pass

    def boom(*args, **kwargs):
        raise LocalError("boom")

    monkeypatch.setattr(pipeline, "suite_model_spaces", boom)
    with pytest.raises(RuntimeError, match="^LocalError: boom$"):
        run(monkeypatch, {0, 1}, AnalysisConfig(n=32, seed=5), **SMALL)
    assert_no_child_left()
