"""Record the reference outputs the benchmark checks against.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record_reference.py [--mode full|smoke] [--workload NAME]

For every input set it records what the library itself produces: the loss
trajectory of ``training.train`` (train_step), the losses and test accuracy
of ``window_classifier.train_classifier`` (window_classify), and the
results.jsonl rows of ``run_experiment`` (ilm_cell). Entries not selected
are kept as they are in reference.json, which holds one entry per line,
keyed "<mode>/<workload>/<input set>".
"""

from __future__ import annotations

import argparse
import json

from run import HERE, OUT, WORKLOAD_NAMES, bootstrap, reference_key


def dump(refs: dict) -> str:
    entries = (f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
               for k, v in sorted(refs.items()))
    return "{\n" + ",\n".join(entries) + "\n}\n"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--mode", choices=("full", "smoke"), action="append")
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, action="append")
    args = ap.parse_args()
    bootstrap()
    import workloads

    path = HERE / "reference.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    OUT.mkdir(exist_ok=True)
    for mode in args.mode or ("full", "smoke"):
        for name in args.workload or WORKLOAD_NAMES:
            for s in range(workloads.N_INPUT_SETS):
                wl = workloads.WORKLOADS[name](s, mode == "smoke", {})
                wl.out_root = OUT
                refs[reference_key(mode == "smoke", name, s)] = wl.record()
                print(f"{mode} {name} input set {s} recorded", flush=True)
                path.write_text(dump(refs))


if __name__ == "__main__":
    main()
