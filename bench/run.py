"""Benchmark of the hankelschmidt `analyze` and `verify` paths.

    python3 bench/run.py --workload analyze-n128 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all              # every workload, one table

One process runs a closed loop with one operation in flight, on one BLAS
thread.  An analyze operation is parse_symbol -> analyze_symbol -> json.dumps
-> analysis_exit_code; a verify operation is verify_suites -> json.dumps ->
verify_exit_code.  The loop runs whole rounds of inputs (see workloads.py)
and starts another round only while it can finish within --seconds.  Each
output is classified against the exact reference (reference.py) outside the
operation's timing and then dropped, so peak memory is the program's; after
the loop the first operation is repeated to check that its JSON is
byte-identical.

--trace 0 reports the end-to-end metrics.  Operation times are reported
relative to a speed gauge (SpeedGauge), a fixed computation timed between
operations about once a second: op_p50_rel and op_mean_rel are the median
and the mean operation time divided by the run's median gauge time.  The
times in seconds, the tail percentile and operations per second are
printed beside them.  --trace 1 runs one round
untraced, then the same round under span tracing (spans.py), and reports
the per-layer metrics and the tracing overhead; the spans are written to
bench/out/.  Human-readable lines come first; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.

"failed" counts operations that were silently wrong or raised (or, for
verify, reported "pass": false); a flagged analyze report (exit code 2) is
a visible refusal, not a failure; a repeat whose JSON differs counts both
operations as errors.  "correct" is false when an analyze-n128 run saw no
Moebius-branch block; about 10% of its random blocks take that branch.

Timed analyze inputs lie in the domain of workloads.in_domain.  The hard
cases outside it are analysed at N=128 on every run, after the measurement:
their outcomes are printed and counted in accuracy.outside_domain_wrong,
and they are neither timed nor part of "attempted" and "failed".
"""

from __future__ import annotations

import os

# One BLAS thread: on a 2-core machine two threads made N=128 analyses about
# 3.5x slower and far noisier.  Must be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

SETUP_PROBES = 6
WARMUP_DOC = {"poles": [{"b": [0.5, 0.0], "m": 1, "c": [1.0, 0.0]}]}
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
GAUGE_INTERVAL_S = 1.0
GAUGE_REPEATS = 3
VERIFY_TOL = 1e-6  # AnalysisConfig's default, used by every operation


def _import_package():
    """Import the package from this checkout's src/ (never an installed copy) and the helpers."""
    src = BENCH_DIR.parent / "src"
    try:
        import hankelschmidt
    except ImportError as exc:
        sys.exit(f"cannot import hankelschmidt from {src}: {exc}")
    if not Path(hankelschmidt.__file__).resolve().is_relative_to(src):
        sys.exit(f"hankelschmidt was imported from {hankelschmidt.__file__}, not from {src}")
    import reference
    import spans
    import workloads

    return reference, spans, workloads


def setup_probes(count: int) -> list[float]:
    """Times from spawning a fresh interpreter to the end of its warm-up call.

    Each probe (--probe) imports the package, makes one warm-up call and
    prints the wall-clock time at its end.
    """
    samples = []
    for _ in range(count):
        start = time.time()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe"],
            check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append(float(out.stdout.split()[-1]) - start)
    return samples


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """Highest listed percentile with at least ten samples beyond it: (p, value, beyond)."""
    ordered = sorted(samples)
    for p in TAIL_PERCENTILES:
        idx = max(0, math.ceil(p / 100 * len(ordered)) - 1)
        beyond = len(ordered) - 1 - idx
        if beyond >= 10:
            return p, ordered[idx], beyond
    return None


class Run:
    """Timings and outcomes of one run's operations, in execution order."""

    def __init__(self, workload, wl, ref):
        self.workload, self.wl, self.ref = workload, wl, ref
        self.times: list[float] = []
        self.outcomes: list[str] = []
        self.sv_errs: list[float] = []
        self.exit_codes: list[int] = []
        self.mobius_blocks = 0

    def execute(self, item, tracer=None, op_id: int = 0) -> str | None:
        """Time one operation (as traced operation op_id when a tracer is
        given), classify its output and return its JSON text."""
        start = time.perf_counter()
        try:
            if tracer is None:
                text, report, code = self.wl.run_op(self.workload, item)
            else:
                text, report, code = tracer.run_op(op_id, self.wl.run_op, self.workload, item)
        except Exception:  # an operation that raises is an outcome, not a crash
            text, report, code = None, None, -1
        self.times.append(time.perf_counter() - start)
        self.exit_codes.append(code)
        err = 0.0
        if report is None:
            outcome = "error"
        elif self.workload.kind == "verify":
            outcome = "correct" if report["pass"] else "flagged"
        else:
            exact = self.ref.exact_singular_values(item)
            outcome = self.ref.classify_analysis(report, code, exact)
            if outcome != "flagged":
                err = self.ref.sv_rel_err(report, exact)
            self.mobius_blocks += sum(map(self.wl.is_mobius_block, report["blocks"]))
        self.outcomes.append(outcome)
        self.sv_errs.append(err)
        return text

    def check_repeat(self, i: int, j: int, text_i: str | None, text_j: str | None) -> bool:
        """Operations i and j ran the same input; different JSON makes both errors."""
        if text_i == text_j:
            return True
        self.outcomes[i] = self.outcomes[j] = "error"
        return False

    def failed(self) -> int:
        failing = ("silently_wrong", "error")
        if self.workload.kind == "verify":
            failing += ("flagged",)
        return sum(o in failing for o in self.outcomes)


class SpeedGauge:
    """A fixed computation timed between operations, to track the machine's speed.

    It does the kinds of work an analysis does, at N=128: dense
    factorisations, FFTs and small-array numpy calls.  The host this
    benchmark was written on slowed down and sped up by 15-30% over
    minutes, and a fixed numpy loop slowed and sped up with it.  Dividing
    an operation's time by the run's median gauge time cut the spread over
    seeds of verify-n128 from 22% to 6%; the large N=512 kernels drift
    less than the gauge (README.md has the figures).
    """

    def __init__(self):
        import numpy as np
        import scipy.linalg

        self.np, self.qr = np, scipy.linalg.qr
        rng = np.random.default_rng(0)
        self.a = rng.normal(size=(128, 128))
        self.v = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        self.samples: list[float] = []
        self.last = -math.inf

    def sample(self) -> None:
        """Time the computation GAUGE_REPEATS times in a row."""
        np, a = self.np, self.a
        for _ in range(GAUGE_REPEATS):
            start = time.perf_counter()
            np.linalg.svd(a)
            np.linalg.eigh(a @ a.T)
            self.qr(a, pivoting=True)
            for _ in range(8):
                np.fft.ifft(np.fft.fft(self.v))
            x = a[0, :8]
            for _ in range(300):
                x = np.abs(x * 0.5 + np.dot(x, x) * 1e-3)
            self.last = time.perf_counter()
            self.samples.append(self.last - start)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= GAUGE_INTERVAL_S:
            self.sample()


def timed_loop(run: Run, rounds, seconds: float, gauge: SpeedGauge) -> tuple[float, tuple]:
    """Run whole rounds while the next one is expected to end within `seconds`,
    sampling the gauge between operations at most once a GAUGE_INTERVAL_S.

    Returns the loop's duration and the first operation's (input, JSON text).
    """
    start = time.perf_counter()
    first = None
    while True:
        round_start = time.perf_counter()
        for item in next(rounds):
            gauge.maybe_sample()
            text = run.execute(item)
            first = first or (item, text)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            gauge.sample()
            return now - start, first


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


def declared_metrics(kind: str) -> dict[str, str]:
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def end_to_end(run: Run, rounds, seconds: float) -> tuple[dict, bool]:
    """End-to-end metrics of a timed loop, and whether the repeated operation matched."""
    # Half the set-up probes run before the loop and half after it, so that
    # their median spans the run's drift in machine speed.
    setup = setup_probes(SETUP_PROBES // 2)
    gauge = SpeedGauge()
    elapsed, (item, first_text) = timed_loop(run, rounds, seconds, gauge)
    gauge_s = statistics.median(gauge.samples)
    times = list(run.times)
    repeat_ok = run.check_repeat(0, len(times), first_text, run.execute(item))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += setup_probes(SETUP_PROBES - len(setup))
    setup_s = statistics.median(setup)
    p50_s, mean_s = statistics.median(times), sum(times) / len(times)
    values = {
        "setup_s": setup_s,
        "op_p50_rel": p50_s / gauge_s,
        "op_mean_rel": mean_s / gauge_s,
        "peak_rss_mb": peak_rss_mb,
    }
    op = "verify_suites call" if run.workload.kind == "verify" else "analyze operation"
    print(f"setup_s      {setup_s:.4f} s  (median of {SETUP_PROBES} fresh processes to the end "
          "of a warm-up call, half before and half after the loop)")
    print(f"gauge_s      {gauge_s:.5f} s  (median of {len(gauge.samples)} speed-gauge samples)")
    print(f"op_p50_rel   {values['op_p50_rel']:.4f} x  (op_p50_s / gauge_s)")
    print(f"op_mean_rel  {values['op_mean_rel']:.4f} x  (mean {op} / gauge_s)")
    print(f"op_p50_s     {p50_s:.4f} s  (median {op}, {len(times)} samples)")
    t = tail(times)
    if t:
        print(f"op_tail_s    {t[1]:.4f} s  (p{t[0]:g}, {t[2]} samples beyond, {len(times)} samples)")
    else:
        print(f"op_tail_s    n/a  (under 10 samples beyond every percentile, {len(times)} samples)")
    print(f"ops_per_s    {1 / mean_s:.4f} 1/s  ({len(times)} ops, {sum(times):.2f} s "
          f"in operations, {elapsed:.2f} s in the loop)")
    print(f"peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
    return values, repeat_ok


def per_layer(run: Run, rounds, spans, seed: int) -> tuple[dict, bool]:
    """One round untraced, then traced: per-layer metrics, and whether every output matched."""
    items = next(rounds)
    texts = [run.execute(item) for item in items]
    tracer = spans.Tracer(run.workload.n, VERIFY_TOL)
    tracer.install()
    try:
        traced = [run.execute(item, tracer, i) for i, item in enumerate(items)]
    finally:
        tracer.uninstall()
    k = len(items)
    repeats_ok = all([run.check_repeat(i, k + i, texts[i], traced[i]) for i in range(k)])
    values = tracer.metrics()
    values["trace.overhead_share"] = sum(run.times[k:]) / sum(run.times[:k]) - 1
    values["trace.ops"] = k
    values["pipeline.flagged_share"] = sum(c != 0 for c in run.exit_codes[k:]) / k
    values.update({f"accuracy.{o}": run.outcomes[k:].count(o) for o in run.ref.OUTCOMES})
    values["accuracy.sv_max_rel_err"] = max(run.sv_errs[k:])
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{run.workload.name}-seed{seed}.spans.json"
    path.write_text(json.dumps({"fields": ["name", "layer", "start", "end", "parent", "op"],
                                "spans": tracer.spans}))
    print(f"spans        {len(tracer.spans)} written to {path.relative_to(BENCH_DIR.parent)}")
    print(f"overhead     traced round took {values['trace.overhead_share']:+.1%} over untraced")
    return values, repeats_ok


def check_outside_domain(ref, wl) -> dict[str, str]:
    """Outcome of each out-of-domain hard case analysed at N=128."""
    workload = wl.WORKLOADS["analyze-n128"]
    outcomes = {}
    for name, doc in wl.outside_domain_cases().items():
        try:
            _, report, code = wl.run_op(workload, doc)
        except Exception:  # an analysis that raises is an outcome, not a crash
            outcomes[name] = "error"
            continue
        outcomes[name] = ref.classify_analysis(report, code, ref.exact_singular_values(doc))
    return outcomes


def run_workload(args, ref, spans, wl) -> dict:
    workload = wl.WORKLOADS[args.workload]
    print(f"workload     {workload.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"machine      {json.dumps(machine())}")
    wl.run_op(wl.WORKLOADS["analyze-n128"], WARMUP_DOC)
    run = Run(workload, wl, ref)
    rounds = wl.rounds(workload, args.seed)
    if args.trace:
        values, repeats_ok = per_layer(run, rounds, spans, args.seed)
    else:
        values, repeats_ok = end_to_end(run, rounds, args.seconds)
    outside = check_outside_domain(ref, wl)
    values["accuracy.outside_domain_wrong"] = sum(
        o in ("silently_wrong", "error") for o in outside.values())
    print("outside      " + "  ".join(f"{n}={o}" for n, o in outside.items())
          + "  (hard cases outside the timed domain, N=128, not timed)")
    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    if args.trace:
        for name, unit in units.items():
            print(f"{name:40s} {values[name]:.6g} {unit}")
    attempted, failed = len(run.outcomes), run.failed()
    print("outcomes     " + "  ".join(f"{o}={run.outcomes.count(o)}" for o in ref.OUTCOMES)
          + f"  failed_share={failed / attempted:.4f}")
    print(f"checks       byte-identical repeats: {repeats_ok}  moebius-branch blocks: "
          f"{run.mobius_blocks}  sv_max_rel_err: {max(run.sv_errs):.3e}")
    return {
        "correct": not workload.hard_cases or run.mobius_blocks > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args, names) -> int:
    """Each workload in its own process (so peak RSS is its own), then one table."""
    rows = []
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True)
        print(out.stdout, end="")
        rows.append((name, json.loads(out.stdout.strip().splitlines()[-1])))
    print("\nsummary")
    for name, res in rows:
        share = res["failed"] / res["attempted"]
        metrics = "  ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"{name:14s} correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} failed_share={share:.4f}  {metrics}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ref, spans, wl = _import_package()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*wl.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        wl.run_op(wl.WORKLOADS["analyze-n128"], WARMUP_DOC)
        print(repr(time.time()))
        return 0
    if args.workload == "all":
        return run_all(args, list(wl.WORKLOADS))
    print(json.dumps(run_workload(args, ref, spans, wl)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
