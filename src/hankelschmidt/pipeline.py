"""Analysis pipeline and report assembly.

Reports are plain dicts with fixed key order and complex numbers rendered
as [re, im] pairs, so serialized output is diffable and deterministic for a
fixed (input, config, seed).
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback
from dataclasses import dataclass
from functools import partial

import numpy as np

from .extraction import Representation, extract_representations
from .hankel import build_hankel_matrix, residuals_from_matrix
from .spectral import schmidt_decompose
from .suites import suite_identities, suite_mobius, suite_model_spaces, suite_theorem
from .symbols import RationalSymbol, kronecker_rank_bound, symbol_to_dict, tail_bound

__all__ = [
    "AnalysisConfig",
    "check_order",
    "analyze_symbol",
    "analysis_exit_code",
    "verify_suites",
    "verify_exit_code",
    "complex_pair",
]


def check_order(n: int) -> None:
    """Reject a truncation order that is not a power of two in [16, 1024]."""
    if n < 16 or n > 1024 or (n & (n - 1)) != 0:
        raise ValueError(f"truncation order must be a power of two in [16, 1024], got {n}")


@dataclass(frozen=True)
class AnalysisConfig:
    """Settings of a run; defaults are desk-scale.

    analyze_symbol applies n, cluster_tol and verify_tol; verify_suites
    applies n, verify_tol and seed.  Each report lists only what it applied.
    cluster_tol only decides which singular values merge into one block; the
    kernel cutoff is spectral.RANK_TOL.
    """

    n: int = 128
    cluster_tol: float = 1e-8
    verify_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        check_order(self.n)
        for name in ("cluster_tol", "verify_tol"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ValueError(f"{name} must lie in (0, 1), got {v}")


def complex_pair(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _vector_pairs(coeffs: np.ndarray) -> list[list[float]]:
    c = np.asarray(coeffs)
    nz = np.flatnonzero(np.abs(c) > 1e-14)
    c = c[: int(nz[-1]) + 1 if nz.size else 1]
    return np.column_stack([c.real, c.imag]).tolist()


def _representation_entry(rep: Representation) -> dict:
    return {
        "p": _vector_pairs(rep.p),
        "theta": {
            "zeros": [complex_pair(z) for z in rep.theta.zeros],
            "phase": complex_pair(rep.theta.phase),
        },
        "phi": float(rep.phi),
        "canonicalized_at": complex_pair(rep.canonicalized_at),
    }


def analyze_symbol(sym: RationalSymbol, config: AnalysisConfig | None = None) -> dict:
    """Full pipeline: coefficients, Hankel matrix, Schmidt blocks, representations.

    schmidt_decompose decides the kernel, so the numerical rank is the
    blocks' total multiplicity.  Block pass/fail flags come from verify_tol
    alone; numerically suspect clusters are carried through but marked
    unreliable.  The report fails as a whole when the truncation tail bound
    exceeds verify_tol; a bound that is not finite reads null, so the
    report stays strict JSON.
    """
    config = config or AnalysisConfig()
    n = config.n
    gamma = build_hankel_matrix(sym, n)
    tail = tail_bound(sym, n)
    blocks = schmidt_decompose(gamma, config.cluster_tol)
    numerical_rank = sum(b.multiplicity for b in blocks)
    sing = blocks.singular_values[:numerical_rank]
    identities = residuals_from_matrix(gamma)

    block_entries = []
    warnings: list[str] = []
    all_pass = True
    reps = extract_representations(gamma, blocks, tol=config.verify_tol)
    for block, rep in zip(blocks, reps):
        entry = {
            "s": float(block.s),
            "multiplicity": int(block.multiplicity),
            "cluster_spread": float(block.spread),
            "cluster_separation": float(block.separation),
            "reliable": bool(block.reliable),
            "warnings": list(block.warnings),
        }
        if isinstance(rep, Representation):
            passed = all(v <= config.verify_tol for v in rep.residuals.gated().values())
            entry["representation"] = _representation_entry(rep)
            entry["residuals"] = {k: float(v) for k, v in rep.residuals.as_dict().items()}
            entry["pass"] = bool(passed)
        else:
            entry["error"] = str(rep)
            entry["pass"] = False
            entry["reliable"] = False
        if not entry["pass"]:
            all_pass = False
        if not entry["reliable"]:
            warnings.extend(f"s = {block.s:.6g}: {w}" for w in block.warnings)
        block_entries.append(entry)

    if tail > config.verify_tol:
        all_pass = False
        warnings.append(
            f"truncation tail bound {tail:.3e} exceeds verify_tol "
            f"{config.verify_tol:.1e}: increase n"
        )

    return {
        "symbol": symbol_to_dict(sym),
        "config": {
            "n": config.n,
            "cluster_tol": config.cluster_tol,
            "verify_tol": config.verify_tol,
        },
        "tail_bound": float(tail) if np.isfinite(tail) else None,
        "kronecker_rank_bound": int(kronecker_rank_bound(sym)),
        "numerical_rank": numerical_rank,
        "singular_values": [float(s) for s in sing],
        "blocks": block_entries,
        "identity_residuals": {k: float(v) for k, v in identities.as_dict().items()},
        "warnings": warnings,
        "pass": bool(all_pass),
    }


def analysis_exit_code(report: dict) -> int:
    if report["pass"] and not any(not b["reliable"] for b in report["blocks"]):
        return 0
    return 2


def _child_payload(calls) -> bytes:
    """The pickled results of calls, or the exception one of them raised."""
    try:
        return pickle.dumps(("ok", [call() for call in calls]))
    except BaseException as exc:  # re-raised in the parent, whatever it is
        tb = traceback.format_exc()
        try:
            return pickle.dumps(("error", exc, tb))
        except Exception:  # an exception that does not pickle keeps its type's name
            return pickle.dumps(("error", RuntimeError(f"{type(exc).__name__}: {exc}"), tb))


def _run_forked(child_calls, parent_calls) -> tuple[list, list]:
    """Results of child_calls, run in one forked child, and of parent_calls,
    run here meanwhile.

    The child sends its results through a pipe and always leaves by
    os._exit, so it runs no exit handler of the parent.  An exception in
    the child is raised here with its type and message (one that does not
    pickle as a RuntimeError that names its type), from a RuntimeError that
    carries the child's traceback.  The child is reaped before this
    returns or raises; if parent_calls raise, it is killed first.  Where
    the fork itself fails, every call runs here.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: run every call here
        os.close(read_fd)
        os.close(write_fd)
        return [call() for call in child_calls], [call() for call in parent_calls]
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(_child_payload(child_calls))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    data = None
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            here = [call() for call in parent_calls]
            data = pipe.read()
    finally:
        if data is None:
            os.kill(pid, signal.SIGKILL)
        _, wait_status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"suite child process sent no result (wait status {wait_status})")
    kind, *payload = pickle.loads(data)  # bytes written by the child forked above
    if kind == "error":
        exc, tb = payload
        raise exc from RuntimeError(f"in the suite child process:\n{tb}")
    return payload[0], here


def verify_suites(
    config: AnalysisConfig | None = None,
    perturb: float = 0.0,
    identity_count: int = 50,
    blaschke_count: int = 30,
    alpha_count: int = 3,
    mobius_count: int = 20,
    theorem_count: int = 20,
) -> dict:
    """Seeded identity and lemma suites across all modules.

    Deterministic for a fixed seed; the perturbation knob corrupts the
    Hankel symmetry inside the identity suite so that failure paths are
    exercised.  It must be finite and nonnegative.

    When os.sched_getaffinity gives the process two CPUs or more, one forked
    child runs the model-space and structure-theorem suites while this
    process runs the identity and Moebius suites, and the child's two dicts
    come back pickled through a pipe.  Each suite draws only from its own
    default_rng(seed + i), and the module caches (canonical_blaschke,
    grid_points) change only speed, so the report is the same, byte for
    byte, whichever process runs a suite.  On one CPU, and where
    os.sched_getaffinity does not exist (macOS, Windows), the four suites
    run in order in this process.  No process outlives the call, whether it
    returns or raises.
    """
    if not (np.isfinite(perturb) and perturb >= 0):
        raise ValueError(f"perturb must be finite and >= 0, got {perturb!r}")
    config = config or AnalysisConfig()
    seed, n = config.seed, config.n
    calls = {
        "identities": partial(suite_identities, seed, identity_count, n, perturb=perturb),
        "model_spaces": partial(suite_model_spaces, seed + 1, blaschke_count, alpha_count, n),
        "mobius_covariance": partial(suite_mobius, seed + 2, mobius_count, n),
        "structure_theorem": partial(suite_theorem, seed + 3, theorem_count, n, tol=config.verify_tol),
    }
    affinity = getattr(os, "sched_getaffinity", None)  # looked up per call
    if affinity is not None and len(affinity(0)) >= 2:
        in_child = ("model_spaces", "structure_theorem")
        here = ("identities", "mobius_covariance")
        from_child, from_here = _run_forked([calls[k] for k in in_child], [calls[k] for k in here])
        done = dict(zip(in_child + here, from_child + from_here))
        suites = {k: done[k] for k in calls}
    else:
        suites = {k: call() for k, call in calls.items()}
    return {
        "config": {
            "n": config.n,
            "verify_tol": config.verify_tol,
            "seed": config.seed,
        },
        "perturb": float(perturb),
        "suites": suites,
        "pass": bool(all(s["pass"] for s in suites.values())),
    }


def verify_exit_code(report: dict) -> int:
    return 0 if report["pass"] else 3
