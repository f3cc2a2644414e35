"""ratn benchmark: three closed-loop workloads, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload train_step --seed 0 --seconds 10 --trace 0

Workloads (see workloads.py for why each was chosen):
  train_step       Phase.TRAIN steps of the criterion-12 desk model
  ilm_cell         the criterion-12 grid through run_experiment, one seed
  window_classify  WindowClassifier training with fuzzy window relaxation

The library is imported from ``src/`` of the checkout this file sits in;
without it the run fails. BLAS is pinned to one thread, so ilm_cell's two
workers use no more threads than two CPUs.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics:

  setup_s      the median of SETUP_REPEATS imports of the library, each in
               a fresh interpreter, plus the median of SETUP_REPEATS rounds
               of data generation, model construction and warm-up
  op_ms.p50    median wall time of one operation: a train step (train_step,
  op_ms.p95    window_classify) or a whole run_experiment call (ilm_cell,
               whose one or two calls a run fits make p95 their slowest)
  items_per_s  target tokens trained, beam decodes made, or training samples
               seen, per second of operation time
  peak_rss_mb  peak resident memory; for ilm_cell the parent plus each
               worker at the largest worker's peak

The same numbers are also printed under the per-workload names
(train_step_ms.p50, cell_wall_s, window_samples_per_s, ...) with
failed_share, the share of operations whose output check failed.

``--trace 1`` runs two copies of the workload for ``--seconds``, alternating
op by op: one untraced, one with every layer wrapped (tracing.py; ilm_cell
with one worker in both, so every span is in this process). Both see the
same inputs and the same host load, so it checks that tracing changed no
output and reports, besides the per-layer metrics, the tracing overhead as
the traced median op time minus the untraced one. Spans are written to
.bench_out/ (gzipped JSON lines) when the run ends.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("train_step", "ilm_cell", "window_classify")
# Times the workloads' whole import set in a fresh interpreter; argv[1] is src/.
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); "
                "sys.path.insert(0, sys.argv[1]); import ratn.experiment; "
                "print(time.perf_counter() - t)")
E2E_UNITS = {"setup_s": "s", "op_ms.p50": "ms", "op_ms.p95": "ms",
             "items_per_s": "1/s", "peak_rss_mb": "MB"}
# The end-to-end metrics under their per-workload names: (name, unit, scale).
WORKLOAD_ALIASES = {
    "train_step": {"op_ms.p50": ("train_step_ms.p50", "ms", 1.0),
                   "op_ms.p95": ("train_step_ms.p95", "ms", 1.0),
                   "items_per_s": ("train_tokens_per_s", "1/s", 1.0)},
    "ilm_cell": {"op_ms.p50": ("cell_wall_s", "s", 1e-3)},
    "window_classify": {"op_ms.p50": ("window_step_ms.p50", "ms", 1.0),
                        "items_per_s": ("window_samples_per_s", "1/s", 1.0)},
}


@dataclass
class Run:
    durations: list[float] = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)


    def attempt(self, wl, i: int, span=None) -> bool:
        """Record wl's operation i; False if it raised."""
        self.attempted += 1
        try:
            dt, items, ok, out = wl.op(i) if span is None else wl.op(i, span)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return False
        self.durations.append(dt)
        self.items += items
        self.failed += not ok
        self.outputs.append(out)
        return True


def closed_loop(seconds: float, step) -> None:
    """Call step(0), step(1), ..., each once the previous one has returned,
    until `seconds` have passed (at least one call) or a call returns False."""
    start = time.perf_counter()
    i = 0
    while (i == 0 or time.perf_counter() - start < seconds) and step(i):
        i += 1


def host_probe_ms(repeats: int = 9) -> float:
    """Median time of a fixed NumPy loop, in ms. Other tenants' load makes
    this host's speed drift by tens of percent over minutes; the probe
    records how fast it was when a run ended."""
    import numpy as np

    x0 = np.random.default_rng(0).normal(size=(32, 9, 32))
    w = np.random.default_rng(1).normal(size=(32, 32)) / 6
    times = []
    for _ in range(repeats):
        x = x0
        t = time.perf_counter()
        for _ in range(100):
            a = x @ w
            e = np.exp(a - a.max(-1, keepdims=True))
            x = (e / e.sum(-1, keepdims=True)) @ w.T
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment(workload: str, seed: int, input_set: int, workers: int) -> dict:
    """Where and how the run was made; called when the measurement is done."""
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    git = {"sha": "unknown", "dirty": "unknown"}
    if (ROOT / ".git").exists():
        def git_out(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd], check=True,
                                  capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        try:
            git = {"sha": git_out("rev-parse", "HEAD"),
                   "dirty": bool(git_out("status", "--porcelain",
                                         "--untracked-files=no"))}
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": git["sha"], "git_dirty": git["dirty"],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(), "workers": workers,
        "workload": workload, "seed": seed, "input_set": input_set,
        "host_probe_ms": host_probe_ms(),
    }


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<38} {m['value']:>14.6g} {m['unit']}")


def bootstrap() -> None:
    """Pin BLAS to one thread and import ratn from this checkout's src/;
    raise ImportError when the checkout has no ratn sources."""
    src = ROOT / "src"
    if not (src / "ratn" / "__init__.py").is_file():
        raise ImportError(f"no ratn sources at {src / 'ratn'}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import ratn
    if Path(ratn.__file__).resolve().parent != (src / "ratn").resolve():
        raise ImportError(f"imported ratn from {ratn.__file__}, not {src}")


def import_times(repeats: int) -> list[float]:
    """Import time of the library in `repeats` fresh interpreters, which
    inherit the BLAS pinning bootstrap() put in the environment."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                              check=True, capture_output=True, text=True, timeout=60)
        times.append(float(proc.stdout))
    return times


def reference_key(smoke: bool, workload: str, input_set: int) -> str:
    return f"{'smoke' if smoke else 'full'}/{workload}/{input_set}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny operations, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    try:
        bootstrap()
    except ImportError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    input_set = workloads.input_set(args.seed)
    reference = json.loads((HERE / "reference.json").read_text())[
        reference_key(args.smoke, args.workload, input_set)]
    OUT.mkdir(exist_ok=True)

    def new_workload():
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, reference)
        if args.workload == "ilm_cell":
            wl.workers = 1 if args.trace else min(2, os.cpu_count() or 1)
            wl.out_root = OUT
        return wl

    wl = new_workload()
    workers = getattr(wl, "workers", 1)

    repeats = 1 if args.smoke else SETUP_REPEATS
    setup_times = []
    for _ in range(repeats):
        t = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t)
    imports = import_times(repeats)

    result: dict = {"setup_times_s": setup_times, "import_times_s": imports}
    if args.trace:
        twin = new_workload()
        twin.setup()
        untraced, traced, tracer = Run(), Run(), tracing.Tracer()

        def pair(i: int) -> bool:
            if not untraced.attempt(wl, i):
                return False
            with tracer.installed(workloads):
                return traced.attempt(twin, i, tracer.span)

        closed_loop(args.seconds, pair)
        values = tracing.layer_metrics(tracer, wl.step_span)
        base = statistics.median(untraced.durations) if untraced.durations else 0.0
        extra = (statistics.median(traced.durations) - base
                 if traced.durations else 0.0)
        values["trace.overhead_ms"] = 1e3 * extra
        values["trace.overhead_share"] = extra / base if base else 0.0
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in tracing.PER_LAYER_UNITS.items()}
        identical = traced.outputs == untraced.outputs
        attempted = untraced.attempted + traced.attempted + 1
        failed = untraced.failed + traced.failed + (not identical)
        result.update(ops=len(untraced.durations), tracing_changed_output=not identical)
        spans_path = OUT / f"{args.workload}_seed{args.seed}_spans.jsonl.gz"
        with gzip.open(spans_path, "wt") as f:
            for s in tracer.spans:
                f.write(json.dumps(s) + "\n")
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        run = Run()
        closed_loop(args.seconds, lambda i: run.attempt(wl, i))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if workers > 1:
            rss += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        d = run.durations or [float("nan")]
        values = {"setup_s": statistics.median(imports) + statistics.median(setup_times),
                  "op_ms.p50": 1e3 * statistics.median(d),
                  "op_ms.p95": 1e3 * percentile(d, 95),
                  "items_per_s": run.items / sum(d),
                  "peak_rss_mb": rss / 1024.0}
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
        attempted, failed = run.attempted, run.failed
        named = {alias: {"value": values[k] * scale, "unit": unit}
                 for k, (alias, unit, scale) in WORKLOAD_ALIASES[args.workload].items()}
        named["failed_share"] = {"value": failed / attempted, "unit": "share"}
        result.update(ops=len(run.durations), workload_metrics=named)

    env = environment(args.workload, args.seed, input_set, workers)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"ops {result['ops']}, attempted {attempted}, failed {failed}")
    print_metrics("metrics:", metrics)
    if "workload_metrics" in result:
        print_metrics(f"{args.workload} metrics:", result["workload_metrics"])
    line = {"correct": failed == 0 and attempted >= 1, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    record = {"env": env, **result, **line}
    path = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
