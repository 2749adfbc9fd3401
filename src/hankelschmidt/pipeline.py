"""Analysis pipeline and report assembly.

Reports are plain dicts with fixed key order and complex numbers rendered
as [re, im] pairs, so serialized output is diffable and deterministic for a
fixed (input, config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extraction import Representation, extract_representations
from .hankel import build_hankel_matrix, residuals_from_matrix
from .spectral import schmidt_decompose
from .suites import suite_identities, suite_mobius, suite_model_spaces, suite_theorem
from .symbols import RationalSymbol, kronecker_rank_bound, symbol_to_dict

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

    if gamma.tail > config.verify_tol:
        all_pass = False
        warnings.append(
            f"truncation tail bound {gamma.tail:.3e} exceeds verify_tol "
            f"{config.verify_tol:.1e}: increase n"
        )

    return {
        "symbol": symbol_to_dict(sym),
        "config": {
            "n": config.n,
            "cluster_tol": config.cluster_tol,
            "verify_tol": config.verify_tol,
        },
        "tail_bound": float(gamma.tail) if np.isfinite(gamma.tail) else None,
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
    """
    if not (np.isfinite(perturb) and perturb >= 0):
        raise ValueError(f"perturb must be finite and >= 0, got {perturb!r}")
    config = config or AnalysisConfig()
    identity = suite_identities(config.seed, identity_count, config.n, perturb=perturb)
    model = suite_model_spaces(config.seed + 1, blaschke_count, alpha_count, config.n)
    mobius = suite_mobius(config.seed + 2, mobius_count, config.n)
    theorem = suite_theorem(config.seed + 3, theorem_count, config.n, tol=config.verify_tol)
    suites = {
        "identities": identity,
        "model_spaces": model,
        "mobius_covariance": mobius,
        "structure_theorem": theorem,
    }
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
