"""Declarative experiment runner.

An ExperimentSpec names a synthetic task, model/training settings, a grid of
relaxation settings, seeds, and optional LM fusion. Running it trains one
model per (setting, seed) cell, decodes dev and test splits with and without
the LM (fusion weight chosen on dev only), and writes JSON-lines results plus
a mean/std summary. Identical specs produce byte-identical files: no
timestamps, sorted keys, sorted rows, and every default materialized into
the output for provenance.

TASKS, the one table of tasks, owns every per-task decision; no other code
tests a task's name. run_experiment and gamma_sweep both run their cells
through _run_cells: task data built once (build_task_data), one _cell_job per
cell, which runs the task's cell runner (in process at workers=1, above that
on a pool of fresh interpreters that each load BLAS with one thread, so N
workers keep to N CPUs), a cell_failed row for a cell that raises. Splits are
decoded by decoding.decode_corpus, without taping. Output files are replaced
atomically (checkpoint.write_atomic).
"""

from __future__ import annotations

import dataclasses
import json
import os
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import tasks
from .attention import MODE_TRAIN_ONLY, RelaxationConfig, _MODES
from .checkpoint import write_atomic
from .decoding import BigramLm, bigram_lm_train, decode_corpus
from .metrics import wer
from .tensor import no_grad
from .training import TrainConfig, train
from .transformer import ModelConfig, Phase, Seq2SeqModel
from .window_classifier import (WindowClassifier, WindowClassifierConfig,
                                train_classifier)

LM_NONE = "none"
LM_CORPORA = ("in_domain", "extended")  # the text corpora a task may offer
# read by BLAS when it loads, so they are set before a worker starts
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

DEFAULT_GAMMA_GRID = {
    "self": (0.0, 0.0001, 0.001, 0.01, 0.05, 0.1),
    "cross": (0.0, 0.1, 0.15, 0.2, 0.25, 0.3),
}
DEFAULT_LAMBDA_GRID = (0.05, 0.1, 0.15, 0.2)
# fuzzy-relaxation defaults for the window-classification leg
DEFAULT_FUZZY_GAMMA0 = 0.1
DEFAULT_FUZZY_SIGMA2 = 0.03 ** 2


@dataclass(frozen=True)
class RelaxSetting:
    """One point of the relaxation grid: where and how much to relax."""

    site: str = "none"  # none | self | cross | window
    gamma: float | None = None  # None: DEFAULT_FUZZY_GAMMA0 if fuzzy, else 0
    sigma2: float = 0.0
    mode: str = MODE_TRAIN_ONLY
    fuzzy: bool = False

    def __post_init__(self):
        if self.site not in ("none", "self", "cross", "window"):
            raise ValueError(f"unknown relaxation site {self.site!r}")
        if self.mode not in _MODES:
            raise ValueError(f"unknown relaxation mode {self.mode!r}")
        if self.gamma is None:
            object.__setattr__(self, "gamma",
                               DEFAULT_FUZZY_GAMMA0 if self.fuzzy else 0.0)
        if self.fuzzy and self.sigma2 <= 0.0:
            object.__setattr__(self, "sigma2", DEFAULT_FUZZY_SIGMA2)

    def relaxation(self) -> RelaxationConfig:
        if self.site == "none":
            return RelaxationConfig()
        return RelaxationConfig(gamma0=self.gamma, sigma2=self.sigma2,
                                mode=self.mode, fuzzy=self.fuzzy)

    @property
    def label(self) -> str:
        if self.site == "none":
            return "baseline"
        parts = [self.site, f"g{self.gamma:g}", self.mode]
        if self.fuzzy:
            parts.append(f"fuzzy{self.sigma2:g}")
        return "_".join(parts)


@dataclass(frozen=True)
class LmSpec:
    """Which LM corpora to fuse and the fusion-weight search grid."""

    corpora: tuple[str, ...] = ("in_domain",)
    k: float = 0.5
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID

    def __post_init__(self):
        if not self.corpora:
            raise ValueError("lm.corpora must be non-empty")
        for c in self.corpora:
            if c not in LM_CORPORA:
                raise ValueError(f"unknown lm corpus {c!r}")
        if not self.lambda_grid:
            raise ValueError("lm.lambda_grid must be non-empty")
        if any(l < 0 for l in self.lambda_grid):
            raise ValueError("fusion weights must be >= 0")

    @classmethod
    def from_dict(cls, d: dict) -> "LmSpec":
        d = dict(d)
        corpus = d.pop("corpus", None)
        if corpus is not None:
            d["corpora"] = [corpus] if isinstance(corpus, str) else corpus
        if "corpora" in d:
            d["corpora"] = tuple(d["corpora"])
        if "lambda_grid" in d:
            d["lambda_grid"] = tuple(d["lambda_grid"])
        return cls(**d)


@dataclass(frozen=True)
class ExperimentSpec:
    task: str
    seeds: tuple[int, ...] = (0,)
    relax_grid: tuple[RelaxSetting, ...] = (RelaxSetting(),)
    task_params: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    lm: LmSpec | None = None
    beam: int = 4
    eos_margin: float = 0.0
    gamma_grid: dict | None = None
    output_dir: str = "."

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; know {tuple(TASKS)}")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if not self.relax_grid:
            raise ValueError("relax_grid must be non-empty")
        for name, keys in (("seed", self.seeds),
                           ("setting label", [s.label for s in self.relax_grid])):
            repeated = sorted({k for k in keys if keys.count(k) > 1})
            if repeated:  # their cells would merge in the results
                raise ValueError(f"repeated {name}s: {repeated}")
        if self.beam < 1:
            raise ValueError("beam must be >= 1")
        try:
            TASKS[self.task].params(**self.task_params)
        except TypeError as err:  # an unknown key
            raise ValueError(f"bad task_params for {self.task!r}: {err}") from None

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        d = dict(d)
        d["seeds"] = tuple(d.get("seeds", (0,)))
        d["relax_grid"] = tuple(RelaxSetting(**s) for s in d.get("relax_grid",
                                                                 ({"site": "none"},)))
        if d.get("lm") is not None:
            d["lm"] = LmSpec.from_dict(d["lm"])
        return cls(**d)

    @classmethod
    def load(cls, path) -> "ExperimentSpec":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    return x


# ---------------------------------------------------------------------------
# model configs


def resolve_model_config(spec: ExperimentSpec, data,
                         setting: RelaxSetting) -> ModelConfig:
    overrides = dict(spec.model)
    src_len = data.train.sources.shape[1]
    tgt_len = data.train.targets.shape[1]
    overrides.setdefault("vocab_size", data.vocab_size)
    overrides.setdefault("max_len", max(src_len, tgt_len + 4))
    if setting.site != "none":
        if setting.site not in TASKS[spec.task].gamma_grid:
            owners = ", ".join(t for t, row in TASKS.items()
                               if setting.site in row.gamma_grid)
            raise ValueError(f"site {setting.site!r} applies to the {owners} "
                             "task only")
        overrides[f"relax_{setting.site}"] = setting.relaxation()
    return ModelConfig(**overrides)


def resolve_classifier_config(spec: ExperimentSpec, data,
                              setting: RelaxSetting) -> WindowClassifierConfig:
    if setting.site not in ("none", *TASKS[spec.task].gamma_grid):
        raise ValueError(f"site {setting.site!r} does not apply to {spec.task}")
    overrides = dict(spec.model)
    for name in ("channels", "window", "n_classes"):
        overrides.setdefault(name, getattr(data.spec, name))
    overrides["relax"] = setting.relaxation()
    return WindowClassifierConfig(**overrides)


# ---------------------------------------------------------------------------
# cells


def _base_row(setting: RelaxSetting, seed: int) -> dict:
    return {"type": "result", "setting": setting.label, "site": setting.site,
            "gamma": setting.gamma, "sigma2": setting.sigma2,
            "mode": setting.mode, "fuzzy": setting.fuzzy, "seed": seed}


def run_sequence_cell(spec: ExperimentSpec, data: tasks.SequenceTaskData,
                      setting: RelaxSetting, seed: int) -> list[dict]:
    """Train one model and produce result rows for every decode performed.

    Decodes: dev without LM, dev per (corpus, lambda) on the grid, test
    without LM, and test once per corpus at the dev-selected lambda (ties go
    to the earlier lambda of the grid). Test is never used for selection.
    Each split is encoded once and its encoder output reused by every decode.
    """
    cfg = resolve_model_config(spec, data, setting)
    corpora = spec.lm.corpora if spec.lm is not None else ()
    for name in corpora:  # before training, which a missing corpus would waste
        if name not in data.text:
            raise ValueError(f"task {spec.task!r} has no {name!r} text corpus")
    train_cfg = TrainConfig(**{**spec.train, "seed": seed})
    model = Seq2SeqModel(cfg, seed=seed)
    train(model, data.train.sources, data.train.targets, train_cfg)
    lms: dict[str, BigramLm] = {
        name: bigram_lm_train(data.text[name], cfg.vocab_size, spec.lm.k)
        for name in corpora}
    max_len = data.train.targets.shape[1] + 2
    rows: list[dict] = []
    with no_grad():
        encoded = {"dev": model.encode(data.dev.sources, Phase.EVAL),
                   "test": model.encode(data.test.sources, Phase.EVAL)}

    def decode_and_score(split: str, corpus: tasks.ParallelCorpus, lm_name: str,
                         lam: float) -> float:
        decoded = decode_corpus(model, corpus.sources, spec.beam,
                                lm=lms.get(lm_name), lam=lam, max_len=max_len,
                                eos_margin=spec.eos_margin, h=encoded[split])
        hyps = [tokens for tokens, _ in decoded]
        value = wer([list(map(int, t)) for t in corpus.targets], hyps)
        rows.append({**_base_row(setting, seed), "split": split, "lm": lm_name,
                     "lambda": lam, "metric": "wer", "value": value})
        return value

    decode_and_score("dev", data.dev, LM_NONE, 0.0)
    selected: dict[str, float] = {}
    for name in lms:
        lams = [float(lam) for lam in spec.lm.lambda_grid]
        values = [decode_and_score("dev", data.dev, name, lam) for lam in lams]
        selected[name] = lams[values.index(min(values))]  # first of a tie
    decode_and_score("test", data.test, LM_NONE, 0.0)
    for name, lam in selected.items():
        decode_and_score("test", data.test, name, lam)
    return rows


def run_classify_cell(spec: ExperimentSpec, data, setting: RelaxSetting,
                      seed: int) -> list[dict]:
    cfg = resolve_classifier_config(spec, data, setting)
    train_cfg = TrainConfig(**{**spec.train, "seed": seed})
    model = WindowClassifier(cfg, seed=seed)
    train_classifier(model, data.train.inputs, data.train.labels, train_cfg)
    rows = []
    for split, corpus in (("dev", data.dev), ("test", data.test)):
        err = 1.0 - model.accuracy(corpus.inputs, corpus.labels)
        rows.append({**_base_row(setting, seed), "split": split, "lm": LM_NONE,
                     "lambda": 0.0, "metric": "error_rate", "value": err})
    return rows


@dataclass(frozen=True)
class Task:
    """One row of TASKS: everything that sets a task apart. `ratn train`,
    `decode` and `eval` apply to the tasks whose run_cell is
    run_sequence_cell."""

    params: type  # the task's parameter spec
    build: Callable  # params -> the data its cells consume
    run_cell: Callable  # (spec, data, setting, seed) -> result rows
    gamma_grid: dict  # the default gamma sweep; its keys are the legal sites


TASKS = {
    "copy": Task(tasks.CopyTaskSpec,
                 partial(tasks.gen_copy_splits, gen=tasks.gen_copy_task),
                 run_sequence_cell, DEFAULT_GAMMA_GRID),
    "reverse": Task(tasks.CopyTaskSpec,
                    partial(tasks.gen_copy_splits, gen=tasks.gen_reverse_task),
                    run_sequence_cell, DEFAULT_GAMMA_GRID),
    "toy_translate": Task(tasks.ToyTranslateSpec, tasks.gen_toy_translate,
                          run_sequence_cell, DEFAULT_GAMMA_GRID),
    "window_classify": Task(tasks.WindowClassifySpec, tasks.gen_window_classify,
                            run_classify_cell,
                            {"window": DEFAULT_GAMMA_GRID["self"]}),
}


def build_task_data(task: str, task_params: dict):
    """Every split (and LM text corpus) of a task, seeded by its spec."""
    row = TASKS[task]
    return row.build(row.params(**task_params))


def run_cell(spec: ExperimentSpec, data, setting: RelaxSetting,
             seed: int) -> list[dict]:
    return TASKS[spec.task].run_cell(spec, data, setting, seed)


def _cell_job(spec: ExperimentSpec, data, setting: RelaxSetting,
              seed: int) -> list[dict]:
    try:
        return run_cell(spec, data, setting, seed)
    except Exception as err:  # record the failure, keep the run going
        return [{"type": "cell_failed", "setting": setting.label, "seed": seed,
                 "error": f"{type(err).__name__}: {err}"}]


def _run_cells(spec: ExperimentSpec, workers: int) -> list[tuple[tuple, list[dict]]]:
    """Each (setting, seed) cell of the spec's grid with its rows, in order."""
    cells = [(setting, seed) for setting in spec.relax_grid for seed in spec.seeds]
    data = build_task_data(spec.task, spec.task_params)
    jobs = (repeat(spec), repeat(data), [c[0] for c in cells],
            [c[1] for c in cells])
    if workers <= 1:
        return list(zip(cells, map(_cell_job, *jobs)))
    saved = dict(os.environ)
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
            return list(zip(cells, pool.map(_cell_job, *jobs)))
    finally:
        os.environ.clear()
        os.environ.update(saved)


def _row_sort_key(row: dict):
    return (row.get("setting", ""), row.get("seed", -1), row.get("split", ""),
            row.get("lm", ""), row.get("lambda", -1.0), row.get("metric", ""),
            row.get("type", ""))


def provenance(spec: ExperimentSpec) -> dict:
    """The spec with every default materialized, for the results header."""
    out = {
        "type": "spec",
        "task": spec.task,
        "task_params": dataclasses.asdict(TASKS[spec.task].params(**spec.task_params)),
        "model": spec.model,
        "train": dataclasses.asdict(TrainConfig(**spec.train)),
        "relax_grid": [dataclasses.asdict(s) for s in spec.relax_grid],
        "lm": dataclasses.asdict(spec.lm) if spec.lm else None,
        "seeds": list(spec.seeds),
        "beam": spec.beam,
        "eos_margin": spec.eos_margin,
        "gamma_grid": (resolve_gamma_grid(spec) if spec.gamma_grid is None
                       else spec.gamma_grid),
        "note": "gamma/lambda selection uses the dev split only; "
                "test is decoded once per selected setting",
    }
    return _jsonable(out)


def summarize(rows: list[dict]) -> dict:
    """Mean +/- std across seeds of every test-split metric."""
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        if row.get("type") != "result" or row.get("split") != "test":
            continue
        groups.setdefault((row["setting"], row["lm"], row["metric"]), []).append(
            row["value"])
    table = []
    for (setting, lm, metric), values in sorted(groups.items()):
        arr = np.asarray(values)
        table.append({"setting": setting, "lm": lm, "metric": metric,
                      "mean": float(arr.mean()),
                      "std": float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
                      "n_seeds": len(arr)})
    return {"summary": table}


def run_experiment(spec: ExperimentSpec, workers: int = 1,
                   output_dir: str | None = None) -> dict[str, Path]:
    """Run every (setting, seed) cell; write results.jsonl and summary.json."""
    out_dir = Path(output_dir or spec.output_dir)
    shards = _run_cells(spec, workers)
    rows = sorted((r for _, shard in shards for r in shard), key=_row_sort_key)
    results_path = out_dir / "results.jsonl"
    write_atomic(results_path, "".join(json.dumps(_jsonable(r), sort_keys=True) + "\n"
                                       for r in [provenance(spec), *rows]))
    summary_path = out_dir / "summary.json"
    summary = {"spec": provenance(spec), **summarize(rows)}
    write_atomic(summary_path, json.dumps(_jsonable(summary), sort_keys=True,
                                          indent=1))
    return {"results": results_path, "summary": summary_path}


# ---------------------------------------------------------------------------
# gamma sweep


def resolve_gamma_grid(spec: ExperimentSpec) -> dict[str, list[float]]:
    """Sweep grid per site; defaults to the task's row of TASKS, and every
    site's grid must include gamma = 0 (the baseline point). provenance
    reports this default too."""
    given = TASKS[spec.task].gamma_grid if spec.gamma_grid is None else spec.gamma_grid
    grid = {site: [float(g) for g in gammas] for site, gammas in given.items()}
    if not grid:
        raise ValueError("gamma_grid must name at least one site")
    for site, gammas in grid.items():
        if 0.0 not in gammas:
            raise ValueError(f"gamma grid for site {site!r} must include 0")
    return grid


def gamma_sweep(spec: ExperimentSpec, workers: int = 1,
                output_dir: str | None = None) -> Path:
    """Dev-split metric for every (site, gamma, seed) grid point, as CSV.

    The grid must include gamma = 0 per site; that point runs the identical
    code path as a baseline cell, so its value matches the baseline
    bit-exactly under the same seed.
    """
    grid = resolve_gamma_grid(spec)
    # dict.fromkeys: a gamma listed twice for a site is one cell
    sweep_grid = tuple(dict.fromkeys(
        RelaxSetting(site=site, gamma=float(g), mode=MODE_TRAIN_ONLY)
        for site, gammas in grid.items() for g in gammas))
    sweep_spec = dataclasses.replace(spec, relax_grid=sweep_grid, lm=None)
    rows: list[tuple] = []
    for (setting, seed), cell_rows in _run_cells(sweep_spec, workers):
        dev = [r for r in cell_rows if r.get("split") == "dev"
               and r.get("lm") == LM_NONE]
        if not dev:
            raise RuntimeError(f"sweep cell ({setting.site}, {setting.gamma}, "
                               f"{seed}) failed: {cell_rows}")
        rows.append((setting.site, setting.gamma, seed, dev[0]["metric"],
                     dev[0]["value"]))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    path = Path(output_dir or spec.output_dir) / "gamma_sweep.csv"
    write_atomic(path, "site,gamma,seed,metric,value\n" + "".join(
        f"{site},{gamma:g},{seed},{metric},{value!r}\n"
        for site, gamma, seed, metric, value in rows))
    return path


# ---------------------------------------------------------------------------
# LM-induced improvement report


def ilm_suppression_report(results_path) -> dict:
    """Per approach: absolute test metric and the improvement the LM bought.

    Needs test rows without LM and with each fused LM; the improvement for a
    corpus is metric(no LM) - metric(selected lambda with that LM), reported
    per seed with mean and median across seeds.
    """
    with open(results_path) as f:
        rows = [row for row in map(json.loads, f)
                if row.get("type") == "result" and row.get("split") == "test"]
    if not rows:
        raise ValueError(f"no test result rows in {results_path}")
    settings = sorted({r["setting"] for r in rows},
                      key=lambda s: (s != "baseline", s))
    corpora = sorted({r["lm"] for r in rows} - {LM_NONE})
    report_rows = []
    for setting in settings:
        mine = [r for r in rows if r["setting"] == setting]
        seeds = sorted({r["seed"] for r in mine})
        no_lm = {r["seed"]: r["value"] for r in mine if r["lm"] == LM_NONE}
        if set(seeds) - set(no_lm):
            raise ValueError(f"missing no-LM test rows for {setting}")
        entry = {"approach": setting,
                 "no_lm": {"mean": float(np.mean([no_lm[s] for s in seeds])),
                           "per_seed": [no_lm[s] for s in seeds]},
                 "with_lm": {}}
        for corpus in corpora:
            vals = {r["seed"]: (r["value"], r["lambda"]) for r in mine
                    if r["lm"] == corpus}
            if set(seeds) - set(vals):
                raise ValueError(f"missing {corpus} LM test rows for {setting}")
            reductions = [no_lm[s] - vals[s][0] for s in seeds]
            entry["with_lm"][corpus] = {
                "mean": float(np.mean([vals[s][0] for s in seeds])),
                "lambda_per_seed": [vals[s][1] for s in seeds],
                "reduction_per_seed": reductions,
                "reduction_mean": float(np.mean(reductions)),
                "reduction_median": float(np.median(reductions)),
            }
        report_rows.append(entry)
    return {"note": "fusion weights were selected on the dev split; "
                    "reductions are measured on test",
            "rows": report_rows}
