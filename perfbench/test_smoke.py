"""Smoke tests of the benchmark itself.

Each workload runs at a tiny length (``--smoke``), untraced and traced; the
tests assert that every metric BENCHMARK.json names, and every metric the
workload reports under its own name, is printed with its unit, and that
every output check passes. Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# The end-to-end metrics under each workload's own names, with their units.
WORKLOAD_METRICS = {
    "train_step": {"setup_s": "s", "train_tokens_per_s": "1/s",
                   "train_step_ms.p50": "ms", "train_step_ms.p95": "ms",
                   "peak_rss_mb": "MB", "failed_share": "share"},
    "ilm_cell": {"setup_s": "s", "cell_wall_s": "s", "peak_rss_mb": "MB",
                 "failed_share": "share"},
    "window_classify": {"setup_s": "s", "window_samples_per_s": "1/s",
                        "window_step_ms.p50": "ms", "peak_rss_mb": "MB",
                        "failed_share": "share"},
}


def run_bench(cwd: Path, workload: str, trace: int, smoke: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "21", "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(cmd + (["--smoke"] if smoke else []), cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def printed_units(stdout: str) -> dict[str, str]:
    """{name: unit} from the report lines `  <name>  <value> <unit>`."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            float(parts[1])
            out[parts[0]] = parts[2]
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_reports_every_metric_and_passes_checks(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = {m["name"]: m["unit"]
                for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name

    printed = printed_units(proc.stdout)
    expected = dict(declared)
    if not trace:
        expected.update(WORKLOAD_METRICS[workload])
    assert {k: printed.get(k) for k in expected} == expected


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "train_step", 0, smoke=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
