"""Command-line entry points.

Subcommands: train, decode, eval, experiment, sweep-gamma, report-ilm. All
take an experiment spec (JSON); corpora are regenerated deterministically
from the spec, so decode/eval never need separate data files. The default
output root comes from $RATN_OUTPUT_ROOT (falling back to the current
directory), joined with the spec's output_dir. Every file is written
through checkpoint.write_atomic.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

from .checkpoint import load_model, save_model, write_atomic
from .decoding import bigram_lm_train, decode_corpus
from .experiment import (LM_CORPORA, LM_NONE, TASKS, ExperimentSpec,
                         build_task_data, gamma_sweep, ilm_suppression_report,
                         provenance, resolve_model_config, run_experiment,
                         run_sequence_cell)
from .metrics import corpus_bleu, wer
from .training import TrainConfig, train
from .transformer import Seq2SeqModel

OUTPUT_ROOT_ENV = "RATN_OUTPUT_ROOT"
SEQ2SEQ_COMMANDS = ("train", "decode", "eval")  # for the sequence tasks only


def _out_dir(args, spec: ExperimentSpec | None = None) -> Path:
    if args.output_dir:
        return Path(args.output_dir)
    root = Path(os.environ.get(OUTPUT_ROOT_ENV, "."))
    return root / (spec.output_dir if spec else ".")


def _load_spec(args) -> ExperimentSpec:
    try:  # unreadable, not JSON, an unknown key or an invalid value
        spec = ExperimentSpec.load(args.spec)
    except (OSError, ValueError, TypeError) as err:
        raise SystemExit(f"--spec {args.spec} does not load: {err}") from None
    if (args.command in SEQ2SEQ_COMMANDS
            and TASKS[spec.task].run_cell is not run_sequence_cell):
        raise SystemExit(f"use `ratn experiment` for the {spec.task} task")
    if args.seed is not None:
        spec = dataclasses.replace(spec, seeds=(args.seed,))
    return spec


def _config_hash(spec: ExperimentSpec) -> str:
    blob = json.dumps(provenance(spec), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def cmd_train(args) -> int:
    spec = _load_spec(args)
    out = _out_dir(args, spec)
    if not 0 <= args.setting < len(spec.relax_grid):
        raise SystemExit(f"--setting must be in 0..{len(spec.relax_grid) - 1}")
    data = build_task_data(spec.task, spec.task_params)
    setting = spec.relax_grid[args.setting]
    seed = spec.seeds[0]
    cfg = resolve_model_config(spec, data, setting)
    model = Seq2SeqModel(cfg, seed=seed)
    records = train(model, data.train.sources, data.train.targets,
                    TrainConfig(**{**spec.train, "seed": seed}),
                    dev=(data.dev.sources, data.dev.targets))
    ckpt = out / "model.ratn"
    save_model(model, ckpt)
    write_atomic(out / "metrics.jsonl",
                 "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records))
    final = records[-1]
    print(f"trained {setting.label} seed={seed}: loss={final['loss']:.4f} "
          f"eval_acc={final['eval_acc']}")
    print(f"checkpoint: {ckpt}")
    return 0


def cmd_decode(args) -> int:
    if args.beam is not None and args.beam < 1:
        raise SystemExit(f"--beam must be >= 1, got {args.beam}")
    if args.lm != LM_NONE and not args.lm_lambda >= 0:  # NaN too
        raise SystemExit(f"--lm-lambda must be >= 0, got {args.lm_lambda}")
    spec = _load_spec(args)
    out = _out_dir(args, spec)
    try:
        model = load_model(args.checkpoint)
    except (OSError, ValueError) as err:  # missing, or not a checkpoint
        raise SystemExit(f"--checkpoint {args.checkpoint} does not load: "
                         f"{err}") from None
    data = build_task_data(spec.task, spec.task_params)
    sizes = TASKS[spec.task].sizes(data)
    for name in sizes:  # as resolve_model_config sets them for `ratn train`
        have, want = getattr(model.config, name), spec.model.get(name, sizes[name])
        if have != want:
            raise SystemExit(f"--checkpoint {args.checkpoint} does not fit the "
                             f"spec: its {name} is {have}, the spec's is {want}")
    corpus = getattr(data, args.split)
    lm = None
    if args.lm != LM_NONE:
        if spec.lm is None:
            raise SystemExit("spec has no lm section")
        if args.lm not in data.text:
            raise SystemExit(f"task {spec.task!r} has no {args.lm!r} LM corpus")
        lm = bigram_lm_train(data.text[args.lm], model.config.vocab_size,
                             spec.lm.k)
    lam = args.lm_lambda if lm is not None else 0.0
    decoded = decode_corpus(model, corpus.sources,
                            spec.beam if args.beam is None else args.beam,
                            lm=lm, lam=lam,
                            max_len=corpus.targets.shape[1] + 2,
                            eos_margin=spec.eos_margin)
    path = out / f"decoded.{args.split}.jsonl"
    write_atomic(path, "".join(
        json.dumps({"id": i, "tokens": tokens, "score": score, "lm_lambda": lam},
                   sort_keys=True) + "\n" for i, (tokens, score) in enumerate(decoded)))
    print(f"decoded {len(decoded)} sequences -> {path}")
    return 0


def cmd_eval(args) -> int:
    spec = _load_spec(args)
    out = _out_dir(args, spec)
    data = build_task_data(spec.task, spec.task_params)
    corpus = getattr(data, args.split)
    refs = [list(map(int, t)) for t in corpus.targets]
    try:
        f = open(args.hyps)
    except OSError as err:  # missing or unreadable
        raise SystemExit(f"--hyps {args.hyps} does not load: {err}") from None
    with f:
        try:
            hyps = [json.loads(line)["tokens"] for line in f]
        except (ValueError, KeyError, TypeError) as err:  # not JSON, no tokens
            raise SystemExit(f"--hyps lines must be JSON objects with tokens: {err!r}")
    if len(hyps) != len(refs):
        raise SystemExit(f"--hyps has {len(hyps)} hypotheses but the "
                         f"{args.split} split has {len(refs)} sentences")
    # argparse admits only the two metric names
    value = (wer if args.metric == "wer" else corpus_bleu)(refs, hyps)
    report = {"metric": args.metric, "value": value, "n_utterances": len(hyps),
              "config_hash": _config_hash(spec)}
    print(json.dumps(report, sort_keys=True))
    write_atomic(out / f"eval.{args.metric}.json",
                 json.dumps(report, sort_keys=True, indent=1))
    return 0


def cmd_experiment(args) -> int:
    spec = _load_spec(args)
    paths = run_experiment(spec, workers=args.workers,
                           output_dir=str(_out_dir(args, spec)))
    print(f"results: {paths['results']}")
    print(f"summary: {paths['summary']}")
    return 0


def cmd_sweep_gamma(args) -> int:
    spec = _load_spec(args)
    try:
        path = gamma_sweep(spec, workers=args.workers,
                           output_dir=str(_out_dir(args, spec)))
    except RuntimeError as err:  # a failed cell, named in err
        raise SystemExit(f"--spec {args.spec}: {err}") from None
    print(f"sweep: {path}")
    return 0


def cmd_report_ilm(args) -> int:
    try:  # missing, unreadable, not JSON lines, or no test result rows
        report = ilm_suppression_report(args.results)
    except (OSError, ValueError) as err:
        raise SystemExit(f"--results {args.results} does not load: "
                         f"{err}") from None
    text = json.dumps(report, indent=1, sort_keys=True)
    print(text)
    if args.output_dir:
        write_atomic(Path(args.output_dir) / "ilm_report.json", text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ratn",
        description="Train, decode, and sweep relaxed-attention transformers "
                    "on synthetic tasks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, workers=False):
        p.add_argument("--spec", required=True, help="experiment spec (JSON)")
        p.add_argument("--output-dir", default=None)
        p.add_argument("--seed", type=int, default=None,
                       help="override the spec's seed list")
        if workers:
            p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("train", help="train one model (first grid setting)")
    add_common(p)
    p.add_argument("--setting", type=int, default=0,
                   help="index into the spec's relax_grid")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("decode", help="decode a split with a checkpoint")
    add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=["dev", "test"])
    p.add_argument("--lm", default=LM_NONE,
                   choices=[LM_NONE, *LM_CORPORA])
    p.add_argument("--lm-lambda", type=float, default=0.4,
                   help="fusion weight when --lm is set (speech-recipe "
                        "default 0.4); ignored without an LM")
    p.add_argument("--beam", type=int, default=None)
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("eval", help="score decoded output against references")
    add_common(p)
    p.add_argument("--hyps", required=True, help="decoded JSON-lines file")
    p.add_argument("--split", default="test", choices=["dev", "test"])
    p.add_argument("--metric", default="wer", choices=["wer", "bleu"])
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("experiment", help="run the full (setting x seed) grid")
    add_common(p, workers=True)
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("sweep-gamma", help="metric-vs-gamma curves as CSV")
    add_common(p, workers=True)
    p.set_defaults(fn=cmd_sweep_gamma)

    p = sub.add_parser("report-ilm", help="LM-induced improvement table")
    p.add_argument("--results", required=True, help="results.jsonl from experiment")
    p.add_argument("--output-dir", default=None)
    p.set_defaults(fn=cmd_report_ilm)

    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
