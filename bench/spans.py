"""Span tracing of the package's layers from outside its source.

`Tracer.install` replaces every public function of each layer module with a
wrapper at every binding in the loaded package modules (the defining module
and each `from .x import f` copy), so calls inside a module and across
modules both open a span.  It also wraps numpy.linalg.{svd,eigh,norm} and
scipy.linalg.qr, which the package reaches by attribute lookup; these are
counted, not spanned, and their time is attributed to the innermost open
layer span.  `uninstall` puts every original back.

A span is [name, layer, start, end, parent index, op id], kept in memory.
A span's self time is its duration minus the durations of its direct
children, so the self times of one operation sum to its root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy.linalg
import scipy.linalg

LAYERS = ("pipeline", "hankel", "spectral", "extraction", "hardy", "blaschke", "symbols", "suites")
ROOT = "op"

# Metric name -> function names whose outermost spans it sums (inclusive time).
TIMED = {
    "hankel.residuals_s": ("hankel.residuals_from_matrix",),
    "hankel.build_s": ("hankel.build_hankel_matrix",),
    "spectral.decompose_s": ("spectral.schmidt_decompose",),
    "spectral.gap_s": ("spectral.subspace_gap",),
    "extraction.extract_representation_s": ("extraction.extract_representation",),
    "extraction.verify_representation_s": ("extraction.verify_representation",),
    "hardy.projection_s": ("hardy.boundary_to_coefficients",),
    "blaschke.tm_basis_s": ("blaschke.tm_basis",),
    "blaschke.mobius_s": (
        "blaschke.mobius_conjugate_function",
        "blaschke.mobius_conjugate_symbol",
        "blaschke.compose_with_mobius",
    ),
    "blaschke.frostman_s": ("blaschke.frostman_shift",),
    "blaschke.conjugation_s": ("blaschke.conjugation_c_theta",),
    "symbols.parse_s": ("symbols.parse_symbol",),
    "symbols.coefficients_s": ("symbols.fourier_coefficients",),
    "symbols.tail_bound_s": ("symbols.tail_bound",),
    "suites.identities_s": ("suites.suite_identities",),
    "suites.model_spaces_s": ("suites.suite_model_spaces",),
    "suites.mobius_s": ("suites.suite_mobius",),
    "suites.theorem_s": ("suites.suite_theorem",),
}

# Metric name -> function names whose calls it counts.
CALLS = {
    "hankel.residuals_calls": ("hankel.residuals_from_matrix",),
    "hankel.apply_calls": ("hankel.hankel_apply", "hankel.linear_hankel_apply"),
    "spectral.gap_calls": ("spectral.subspace_gap",),
    "hardy.projection_calls": ("hardy.boundary_to_coefficients",),
    "blaschke.tm_basis_calls": ("blaschke.tm_basis",),
}

EXTRACTION_RAISES = ("extraction.extract_representation", "extraction.verify_representation")


def _is_dense(threshold: int, a) -> bool:
    shape = getattr(a, "shape", None)
    return shape is not None and len(shape) >= 2 and min(shape[-2:]) >= threshold


def _is_dense_norm(threshold: int, args, kwargs) -> bool:
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    return ord_ in (2, -2, "nuc") and _is_dense(threshold, args[0])


class Tracer:
    """Spans and counters for one run; `n` sets the dense-kernel threshold N/2."""

    def __init__(self, n: int, verify_tol: float):
        self.threshold = n // 2
        self.verify_tol = verify_tol
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.raised: Counter = Counter()
        self.blocks = Counter()          # direct / mobius / passing / schmidt
        self.max_dropped = 0.0
        self.kernel: Counter = Counter()  # (layer, "calls" | "s") -> value
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, layer: str) -> list:
        rec = [name, layer, perf_counter(), 0.0, self.stack[-1] if self.stack else None, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = perf_counter()
        self.stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as operation op_id under a root span."""
        self.op = op_id
        rec = self._open(ROOT, ROOT)
        try:
            return fn(*args)
        finally:
            self._close(rec)

    def _observe(self, name: str, result) -> None:
        if name == "spectral.schmidt_decompose":
            self.blocks["schmidt"] += len(result)
        elif name == "hardy.boundary_to_coefficients":
            self.max_dropped = max(self.max_dropped, result[1])
        elif name == "extraction.extract_representation":
            self.blocks["mobius" if result.canonicalized_at != 0 else "direct"] += 1
        elif name == "extraction.verify_representation":
            if max(result.gated().values()) <= self.verify_tol:
                self.blocks["passing"] += 1

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised[name] += 1
                raise
            finally:
                self._close(rec)
            self._observe(name, result)
            return result

        return wrapper

    def _wrap_kernel(self, fn, dense):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not dense(args, kwargs):
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                layer = self.spans[self.stack[-1]][1] if self.stack else ROOT
                self.kernel[layer, "calls"] += 1
                self.kernel[layer, "s"] += perf_counter() - start

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"hankelschmidt.{layer}")
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[fn] = self._wrap(layer, fn)
        for modname, mod in list(sys.modules.items()):
            if modname == "hankelschmidt" or modname.startswith("hankelschmidt."):
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in wrapped:
                        self._patch(mod, attr, wrapped[val])
        t = self.threshold
        for attr in ("svd", "eigh"):
            self._patch(numpy.linalg, attr, self._wrap_kernel(
                getattr(numpy.linalg, attr), lambda a, k: _is_dense(t, a[0])))
        self._patch(scipy.linalg, "qr", self._wrap_kernel(
            scipy.linalg.qr, lambda a, k: _is_dense(t, a[0])))
        self._patch(numpy.linalg, "norm", self._wrap_kernel(
            numpy.linalg.norm, lambda a, k: _is_dense_norm(t, a, k)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- metrics ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        out = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] is not None:
                out[s[4]] -= s[3] - s[2]
        return out

    def _inclusive(self, names: tuple[str, ...]) -> float:
        total = 0.0
        for s in self.spans:
            if s[0] not in names:
                continue
            parent = s[4]
            while parent is not None and self.spans[parent][0] not in names:
                parent = self.spans[parent][4]
            if parent is None:
                total += s[3] - s[2]
        return total

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far."""
        out: dict[str, float] = {}
        self_by_layer = Counter()
        for s, t in zip(self.spans, self.self_times()):
            self_by_layer[s[1]] += t
        for layer in (ROOT, *LAYERS):
            out[f"{layer}.self_s"] = self_by_layer[layer]
        calls = Counter(s[0] for s in self.spans)
        for metric, names in TIMED.items():
            out[metric] = self._inclusive(names)
        for metric, names in CALLS.items():
            out[metric] = sum(calls[n] for n in names)
        attempted = calls["extraction.extract_representation"]
        out["spectral.blocks"] = self.blocks["schmidt"]
        out["extraction.direct_blocks"] = self.blocks["direct"]
        out["extraction.mobius_blocks"] = self.blocks["mobius"]
        out["extraction.errors"] = sum(self.raised[n] for n in EXTRACTION_RAISES)
        out["extraction.pass_ratio"] = self.blocks["passing"] / attempted if attempted else 0.0
        out["hardy.max_dropped_energy"] = self.max_dropped
        out["kernel.dense_calls"] = sum(v for (_, kind), v in self.kernel.items() if kind == "calls")
        out["kernel.dense_s"] = sum(v for (_, kind), v in self.kernel.items() if kind == "s")
        for layer in LAYERS:
            out[f"kernel.{layer}.dense_calls"] = self.kernel[layer, "calls"]
            out[f"kernel.{layer}.dense_s"] = self.kernel[layer, "s"]
        return out
