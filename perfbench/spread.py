"""Run the benchmark repeatedly and summarise each metric across the runs.

From the repository root:

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--traced]
                                [--first-seed N] [--out FILE]

Each untraced run uses the next seed. For every end-to-end metric it prints
the median, the quartiles (statistics.quantiles(values, n=4)) and their
distance as a share of the median, next to the metric's bound from
BENCHMARK.json. With --traced it also makes one traced run per workload.
--out writes everything as JSON, with the environment of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import ROOT

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict, float]:
    """One benchmark run: its environment, its result line and its wall time."""
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    return env, json.loads(lines[-1]), wall


def summarise(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound, "values": values}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    report = {"run_seconds": BENCH["run_seconds"], "workloads": {}}
    for workload in args.workload or [w["name"] for w in BENCH["workloads"]]:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        values: dict[str, list[float]] = {}
        walls = []
        for seed in seeds:
            env, result, wall = run_once(workload, seed, 0)
            walls.append(wall)
            report.setdefault("env", env)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: checks failed: {result}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        entry = {"seeds": seeds, "run_wall_s": walls,
                 "end_to_end": {k: summarise(v, bounds[k]) for k, v in values.items()}}
        for name, s in entry["end_to_end"].items():
            flag = "" if name == "setup_s" or s["spread"] < s["bound"] / 3 else "  <-- wide"
            print(f"{workload:<16} {name:<12} median {s['median']:>12.5g}  "
                  f"spread {s['spread']:.3f}  bound {s['bound']}{flag}", flush=True)
        if args.traced:
            _, result, entry["traced_run_wall_s"] = run_once(workload, seeds[0], 1)
            entry["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
            entry["traced_correct"] = result["correct"]
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            f.write(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
