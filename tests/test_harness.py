"""Task generators, checkpoint format, experiment runner, CLI."""

import dataclasses
import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from ratn.attention import Phase
from ratn.checkpoint import (CheckpointError, load_model, read_tensors,
                             save_model, write_tensors)
from ratn.cli import main as cli_main
from ratn.decoding import bigram_lm_train
from ratn.experiment import (ExperimentSpec, LmSpec, RelaxSetting,
                             build_task_data, gamma_sweep,
                             ilm_suppression_report, run_cell, run_experiment)
from ratn.rng import RngStream
from ratn.tasks import (ToyTranslateSpec, gen_copy_task, gen_toy_translate)
from ratn.training import sequence_accuracy
from ratn.transformer import ModelConfig, Seq2SeqModel
from ratn.window_classifier import WindowClassifier, WindowClassifierConfig

FAST_MODEL = {"n_enc": 1, "n_dec": 1, "n_heads": 2, "d_model": 16, "d_ff": 32,
              "dropout_residual": 0.0, "dropout_activation": 0.0,
              "dropout_attention": 0.0}
FAST_TRAIN = {"steps": 30, "batch_size": 8, "eval_every": 30}
FAST_COPY = {"vocab_size": 10, "length": 4, "n_train": 64, "n_dev": 6,
             "n_test": 8, "data_seed": 77}


def fast_spec(tmp_path, **overrides) -> ExperimentSpec:
    base = dict(task="copy", task_params=FAST_COPY, model=FAST_MODEL,
                train=FAST_TRAIN, seeds=(0,),
                relax_grid=(RelaxSetting(site="none"),),
                beam=2, output_dir=str(tmp_path))
    base.update(overrides)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# task generators


def test_copy_pairs_are_identical_and_reproducible():
    a = gen_copy_task(RngStream(1, "data"), 10, 5, 20)
    b = gen_copy_task(RngStream(1, "data"), 10, 5, 20)
    assert np.array_equal(a.sources, a.targets)
    assert np.array_equal(a.sources, b.sources)


def test_copy_token_histogram_is_uniform():
    corpus = gen_copy_task(RngStream(2, "data"), 11, 10, 10000)
    tokens = corpus.sources.reshape(-1)
    n, kinds = tokens.size, 8  # ids 3..10
    p = 1 / kinds
    sigma = math.sqrt(n * p * (1 - p))
    for tok in range(3, 11):
        count = int((tokens == tok).sum())
        assert abs(count - n * p) < 3 * sigma


def test_toy_translate_zero_ambiguity_is_a_bijection():
    spec = ToyTranslateSpec(ambiguity_rate=0.0, n_train=50, n_dev=10,
                            n_test=10, n_text_extended=10, data_seed=3)
    data = gen_toy_translate(spec)
    mapping = {}
    for src, tgt in zip(data.train.sources.reshape(-1),
                        data.train.targets.reshape(-1)):
        assert mapping.setdefault(int(src), int(tgt)) == int(tgt)
    values = list(mapping.values())
    assert len(values) == len(set(values))


def test_toy_translate_is_reproducible():
    spec = ToyTranslateSpec(n_train=30, n_dev=5, n_test=5, n_text_extended=20,
                            data_seed=4)
    a, b = gen_toy_translate(spec), gen_toy_translate(spec)
    assert np.array_equal(a.train.sources, b.train.sources)
    assert np.array_equal(a.text["extended"], b.text["extended"])


def test_toy_translate_extended_lm_knows_the_rule_better():
    spec = ToyTranslateSpec(data_seed=5)
    data = gen_toy_translate(spec)
    lm_in = bigram_lm_train(data.text["in_domain"], spec.vocab_size, 0.5)
    lm_ext = bigram_lm_train(data.text["extended"], spec.vocab_size, 0.5)
    # a class-A context never allowed before ambiguous words in training
    ctx = spec.ctx_base + 2
    assert spec.context_is_class_a(ctx)
    u0 = spec.tgt_variant_base  # correct variant after class-A contexts
    assert lm_ext.log_probs([ctx])[u0] > lm_in.log_probs([ctx])[u0] + 1.0


def test_toy_translate_training_restricts_ambiguous_contexts():
    spec = ToyTranslateSpec(data_seed=6)
    data = gen_toy_translate(spec)
    allowed = set(range(spec.ctx_base, spec.ctx_base + spec.n_train_contexts))
    amb = range(spec.src_ambiguous_base,
                spec.src_ambiguous_base + spec.n_ambiguous)
    seen_test = set()
    for corpus, seen in ((data.train, None), (data.test, seen_test)):
        for row in corpus.sources:
            for pos in range(1, len(row), 2):
                if row[pos] in amb:
                    if seen is None:
                        assert row[pos - 1] in allowed
                    else:
                        seen.add(int(row[pos - 1]))
    assert len(seen_test) > spec.n_train_contexts  # broader contexts at test


def test_toy_translate_rate_validation():
    with pytest.raises(ValueError):
        ToyTranslateSpec(ambiguity_rate=0.5)


# ---------------------------------------------------------------------------
# checkpoints


def test_tensor_roundtrip_bit_exact(tmp_path):
    rng = RngStream(7, "t")
    named = {"a": rng.normal((3, 4)), "b.c": rng.normal((2,)),
             "scalar": np.array(3.25)}
    path = tmp_path / "t.ratn"
    write_tensors(path, named)
    back = read_tensors(path)
    assert list(back) == list(named)
    for k in named:
        assert np.array_equal(back[k], named[k])


def test_model_save_load_save_is_byte_identical(tmp_path):
    model = Seq2SeqModel(ModelConfig(**FAST_MODEL, vocab_size=10, max_len=8),
                         seed=3)
    p1, p2 = tmp_path / "m1.ratn", tmp_path / "m2.ratn"
    save_model(model, p1)
    loaded = load_model(p1)
    save_model(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "m1.ratn.json").read_text() == \
        (tmp_path / "m2.ratn.json").read_text()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ratn"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        read_tensors(path)


def test_checkpoint_truncation(tmp_path):
    model = Seq2SeqModel(ModelConfig(**FAST_MODEL, vocab_size=10, max_len=8))
    path = tmp_path / "m.ratn"
    save_model(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        read_tensors(path)


def test_checkpoint_config_mismatch_names_tensor(tmp_path):
    model = Seq2SeqModel(ModelConfig(**FAST_MODEL, vocab_size=10, max_len=8))
    path = tmp_path / "m.ratn"
    save_model(model, path)
    sidecar_path = tmp_path / "m.ratn.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar["config"]["d_ff"] = 48
    sidecar_path.write_text(json.dumps(sidecar))
    with pytest.raises(CheckpointError, match="enc.0.ff.w1"):
        load_model(path)


_ONE_TENSOR = b"RATN" + struct.pack("<IQ", 1, 1)


@pytest.mark.parametrize("header", [
    _ONE_TENSOR + struct.pack("<Q", 2 ** 62) + b"a",  # name length
    _ONE_TENSOR + struct.pack("<Q", 1) + b"a" + struct.pack("<Q", 2 ** 60),  # ndim
    _ONE_TENSOR + struct.pack("<Q", 1) + b"a"
    + struct.pack("<3Q", 2, 2 ** 40, 2 ** 40),  # dims product overflows int64
    _ONE_TENSOR + struct.pack("<Q", 1) + b"a"
    + struct.pack("<3Q", 2, 2 ** 31, 2 ** 31),  # 2**65 data bytes
    _ONE_TENSOR + struct.pack("<Q", 1) + b"a"
    + struct.pack("<4Q", 3, 2 ** 40, 2 ** 40, 0),  # zero items, invalid shape
], ids=["name_len", "ndim", "dims_overflow", "dims_huge", "dims_zero"])
def test_checkpoint_corrupt_lengths_raise_without_allocating(tmp_path, header):
    path = tmp_path / "corrupt.ratn"
    path.write_bytes(header + b"\x00" * 64)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError):
            read_tensors(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_write_tensors_failure_keeps_old_checkpoint(tmp_path):
    path = tmp_path / "m.ratn"
    write_tensors(path, {"a": np.arange(3.0)})
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        write_tensors(path, {"a": np.zeros(5), "\udc80": np.ones(2)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ratn"]


def test_checkpoint_version_check(tmp_path):
    path = tmp_path / "v.ratn"
    write_tensors(path, {"a": np.zeros(2)})
    blob = bytearray(path.read_bytes())
    blob[4] = 9  # bump the version field
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        read_tensors(path)


# ---------------------------------------------------------------------------
# experiment runner


def test_experiment_row_counting_contract(tmp_path):
    spec = fast_spec(tmp_path, lm=LmSpec(corpora=("in_domain",),
                                         lambda_grid=(0.1, 0.2)))
    paths = run_experiment(spec)
    rows = [json.loads(l) for l in open(paths["results"])]
    assert rows[0]["type"] == "spec"
    results = [r for r in rows[1:] if r["type"] == "result"]
    # dev: no-LM + 2 lambdas; test: no-LM + selected lambda -> 5 rows
    assert len(results) == 5
    assert all(r["metric"] == "wer" for r in results)
    test_rows = [r for r in results if r["split"] == "test"]
    assert {r["lm"] for r in test_rows} == {"none", "in_domain"}


def test_experiment_rerun_is_byte_identical(tmp_path):
    spec = fast_spec(tmp_path / "a")
    p1 = run_experiment(spec)
    p2 = run_experiment(spec, output_dir=str(tmp_path / "b"))
    assert p1["results"].read_bytes() == p2["results"].read_bytes()
    assert p1["summary"].read_bytes() == p2["summary"].read_bytes()


def test_experiment_lambda_zero_column_equals_no_lm(tmp_path):
    spec = fast_spec(tmp_path, lm=LmSpec(corpora=("in_domain",),
                                         lambda_grid=(0.0,)))
    paths = run_experiment(spec)
    rows = [json.loads(l) for l in open(paths["results"])
            if json.loads(l).get("type") == "result"]
    for split in ("dev", "test"):
        none = [r for r in rows if r["split"] == split and r["lm"] == "none"]
        fused = [r for r in rows if r["split"] == split and r["lm"] == "in_domain"]
        assert none[0]["value"] == fused[0]["value"]


def test_experiment_parallel_workers_match_serial(tmp_path):
    spec = fast_spec(tmp_path / "serial", seeds=(0, 1))
    p1 = run_experiment(spec, workers=1)
    p2 = run_experiment(spec, workers=2, output_dir=str(tmp_path / "par"))
    assert p1["results"].read_bytes() == p2["results"].read_bytes()


def test_experiment_summary_aggregates_across_seeds(tmp_path):
    spec = fast_spec(tmp_path, seeds=(0, 1))
    paths = run_experiment(spec)
    summary = json.loads(paths["summary"].read_text())
    entry = [e for e in summary["summary"] if e["lm"] == "none"][0]
    assert entry["n_seeds"] == 2
    assert entry["std"] >= 0.0


@pytest.mark.parametrize("task", ["copy", "reverse", "toy_translate",
                                  "window_classify"])
def test_spec_rejects_unknown_task_params(task):
    with pytest.raises(ValueError, match="n_trian"):
        ExperimentSpec(task=task, task_params={"n_trian": 10})


@pytest.mark.parametrize("fields,named", [
    ({"seeds": (0, 1, 0)}, "seeds: [0]"),
    ({"relax_grid": (RelaxSetting(), RelaxSetting(gamma=0.3))}, "labels: ['baseline']"),
    ({"relax_grid": (RelaxSetting(site="self", gamma=0.1),
                     RelaxSetting(site="self", gamma=0.1, sigma2=0.5))},
     "labels: ['self_g0.1_train_only']"),
], ids=["seed", "baseline", "label_without_sigma2"])
def test_spec_rejects_cells_that_would_merge(fields, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        ExperimentSpec(task="copy", **fields)


def test_experiment_records_failed_cells(tmp_path):
    spec = fast_spec(tmp_path, train={**FAST_TRAIN, "steps": 5},
                     model={**FAST_MODEL, "vocab_size": 6})  # too small vocab
    paths = run_experiment(spec)
    rows = [json.loads(l) for l in open(paths["results"])]
    assert any(r["type"] == "cell_failed" for r in rows)


def test_missing_lm_corpus_fails_the_cell_before_training(tmp_path, monkeypatch):
    import ratn.experiment as exp
    monkeypatch.setattr(exp, "train", _never)
    spec = fast_spec(tmp_path, lm=LmSpec(corpora=("extended",)))
    rows = [json.loads(l) for l in open(run_experiment(spec)["results"])]
    assert rows[1:] == [{"type": "cell_failed", "setting": "baseline", "seed": 0,
                         "error": "ValueError: task 'copy' has no 'extended' "
                                  "text corpus"}]


def test_no_module_compares_a_task_to_a_task_name():
    # TASKS owns every per-task decision: code reads the task's row instead
    import ast
    from pathlib import Path

    import ratn
    from ratn.experiment import TASKS
    found = []
    for path in sorted(Path(ratn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            names = {getattr(o, "id", getattr(o, "attr", None)) for o in operands}
            literals = {c.value for o in operands for c in ast.walk(o)
                        if isinstance(c, ast.Constant)}
            if "task" in names and literals & set(TASKS):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_window_classify_experiment(tmp_path):
    spec = ExperimentSpec(
        task="window_classify",
        task_params={"height": 4, "width": 4, "channels": 4, "window": 2,
                     "n_classes": 3, "n_train": 64, "n_dev": 16, "n_test": 16,
                     "data_seed": 8},
        model={"n_heads": 2},
        train={"steps": 20, "batch_size": 8, "eval_every": 20},
        relax_grid=(RelaxSetting(site="none"),
                    RelaxSetting(site="window", gamma=0.1, sigma2=0.0009,
                                 mode="matched", fuzzy=True)),
        seeds=(0,), output_dir=str(tmp_path))
    paths = run_experiment(spec)
    rows = [json.loads(l) for l in open(paths["results"])
            if json.loads(l).get("type") == "result"]
    assert {r["metric"] for r in rows} == {"error_rate"}
    assert {r["setting"] for r in rows} == {"baseline",
                                            "window_g0.1_matched_fuzzy0.0009"}


def test_inference_builds_no_autodiff_graph(tmp_path, monkeypatch):
    # The encoder outputs that decoding reads (a cell's dev/test encodes, the
    # encode inside decode_corpus) and the classifier's accuracy
    # probabilities carry no graph: nothing backpropagates through them.
    seen = []

    def recording(fn):
        def wrapper(self, x, phase=Phase.EVAL):
            out = fn(self, x, phase)
            if phase == Phase.EVAL:
                seen.append((fn.__name__, out.requires_grad))
            return out
        return wrapper

    monkeypatch.setattr(Seq2SeqModel, "encode", recording(Seq2SeqModel.encode))
    monkeypatch.setattr(WindowClassifier, "forward",
                        recording(WindowClassifier.forward))
    data = build_task_data("copy", FAST_COPY)
    run_cell(fast_spec(tmp_path), data, RelaxSetting(), 0)
    model = Seq2SeqModel(ModelConfig(**FAST_MODEL, vocab_size=10, max_len=8))
    sequence_accuracy(model, data.dev.sources, data.dev.targets)
    clf = WindowClassifier(WindowClassifierConfig(
        channels=4, window=2, n_classes=3, n_heads=2))
    clf.accuracy(np.zeros((5, 4, 4, 4)), np.zeros(5, dtype=np.int64))
    assert seen == [("encode", False)] * 3 + [("forward", False)]


# ---------------------------------------------------------------------------
# gamma sweep


def test_gamma_sweep_shape_and_baseline_equivalence(tmp_path):
    spec = fast_spec(tmp_path, seeds=(0, 1),
                     gamma_grid={"self": [0.0, 0.01], "cross": [0.0, 0.1]})
    csv_path = gamma_sweep(spec)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "site,gamma,seed,metric,value"
    assert len(lines) - 1 == 4 * 2  # |grid| x |seeds|
    # gamma = 0 rows equal the baseline cell bit-exactly
    base = run_experiment(fast_spec(tmp_path / "base", seeds=(0, 1)))
    base_rows = [json.loads(l) for l in open(base["results"])
                 if json.loads(l).get("type") == "result"]
    base_dev = {r["seed"]: r["value"] for r in base_rows
                if r["split"] == "dev" and r["lm"] == "none"}
    for line in lines[1:]:
        site, gamma, seed, metric, value = line.split(",")
        if float(gamma) == 0.0:
            assert float(value) == base_dev[int(seed)]


def test_gamma_sweep_failed_cell_raises_alike_at_any_worker_count(tmp_path):
    spec = fast_spec(tmp_path, train={**FAST_TRAIN, "steps": 2},
                     gamma_grid={"window": [0.0]})
    messages = []
    for workers in (1, 2):
        with pytest.raises(RuntimeError, match=r"sweep cell \(window, 0.0, 0\)"
                                               r" failed") as err:
            gamma_sweep(spec, workers=workers)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "window_classify task only" in messages[0]


def test_gamma_sweep_requires_zero_point(tmp_path):
    spec = fast_spec(tmp_path, gamma_grid={"self": [0.01]})
    with pytest.raises(ValueError, match="include 0"):
        gamma_sweep(spec)


def test_gamma_sweep_rejects_an_empty_gamma_grid(tmp_path):
    with pytest.raises(ValueError, match="gamma_grid"):
        gamma_sweep(fast_spec(tmp_path, gamma_grid={}))


# ---------------------------------------------------------------------------
# ILM report


def _ilm_results_file(tmp_path, reductions):
    """Synthesize a results file with known per-seed values."""
    rows = [{"type": "spec"}]
    for setting in ("baseline", "cross_g0.2_train_only"):
        for seed in (0, 1, 2):
            base = 0.30 + 0.01 * seed
            rows.append({"type": "result", "setting": setting, "seed": seed,
                         "split": "test", "lm": "none", "lambda": 0.0,
                         "metric": "wer", "value": base})
            for corpus in ("in_domain", "extended"):
                red = reductions[setting][corpus]
                rows.append({"type": "result", "setting": setting,
                             "seed": seed, "split": "test", "lm": corpus,
                             "lambda": 0.1, "metric": "wer",
                             "value": base - red})
    path = tmp_path / "results.jsonl"
    with open(path, "w") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")
    return path


def test_ilm_report_hand_computed_reductions(tmp_path):
    reductions = {"baseline": {"in_domain": 0.002, "extended": 0.02},
                  "cross_g0.2_train_only": {"in_domain": 0.001,
                                            "extended": 0.05}}
    path = _ilm_results_file(tmp_path, reductions)
    report = ilm_suppression_report(path)
    assert [r["approach"] for r in report["rows"]] == [
        "baseline", "cross_g0.2_train_only"]
    for row in report["rows"]:
        for corpus in ("in_domain", "extended"):
            expected = reductions[row["approach"]][corpus]
            assert abs(row["with_lm"][corpus]["reduction_median"]
                       - expected) < 1e-12
            assert abs(row["with_lm"][corpus]["reduction_mean"]
                       - expected) < 1e-12


def test_ilm_report_lambda_zero_grid_means_zero_improvement(tmp_path):
    spec = fast_spec(tmp_path, lm=LmSpec(corpora=("in_domain",),
                                         lambda_grid=(0.0,)))
    paths = run_experiment(spec)
    report = ilm_suppression_report(paths["results"])
    assert report["rows"][0]["with_lm"]["in_domain"]["reduction_median"] == 0.0


def test_ilm_report_missing_cells(tmp_path):
    path = tmp_path / "r.jsonl"
    with open(path, "w") as f:
        f.write(json.dumps({"type": "result", "setting": "baseline", "seed": 0,
                            "split": "test", "lm": "in_domain", "lambda": 0.1,
                            "metric": "wer", "value": 0.5}) + "\n")
    with pytest.raises(ValueError, match="missing"):
        ilm_suppression_report(path)


# ---------------------------------------------------------------------------
# CLI


def _write_spec(tmp_path, **overrides):
    spec = dict(task="copy", task_params=FAST_COPY, model=FAST_MODEL,
                train=FAST_TRAIN, seeds=[0],
                relax_grid=[{"site": "none"}],
                lm={"corpora": ["in_domain"], "lambda_grid": [0.1]},
                beam=2, output_dir=str(tmp_path / "out"))
    spec.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def test_cli_train_decode_eval_roundtrip(tmp_path, capsys):
    spec_path = _write_spec(tmp_path)
    out = tmp_path / "out"
    assert cli_main(["train", "--spec", str(spec_path),
                     "--output-dir", str(out)]) == 0
    assert (out / "model.ratn").exists()
    assert (out / "metrics.jsonl").exists()
    assert cli_main(["decode", "--spec", str(spec_path),
                     "--checkpoint", str(out / "model.ratn"),
                     "--split", "test", "--output-dir", str(out)]) == 0
    decoded = [json.loads(l) for l in open(out / "decoded.test.jsonl")]
    assert {"id", "tokens", "score", "lm_lambda"} <= set(decoded[0])
    assert cli_main(["eval", "--spec", str(spec_path),
                     "--hyps", str(out / "decoded.test.jsonl"),
                     "--split", "test", "--metric", "wer",
                     "--output-dir", str(out)]) == 0
    captured = capsys.readouterr().out
    report = json.loads(captured.strip().splitlines()[-1])
    assert report["metric"] == "wer"
    assert report["n_utterances"] == FAST_COPY["n_test"]
    assert "config_hash" in report


def test_cli_experiment_and_reports(tmp_path, capsys):
    spec_path = _write_spec(tmp_path, lm={"corpora": ["in_domain"],
                                          "lambda_grid": [0.0, 0.1]})
    out = tmp_path / "exp"
    assert cli_main(["experiment", "--spec", str(spec_path),
                     "--output-dir", str(out)]) == 0
    assert (out / "results.jsonl").exists()
    assert cli_main(["report-ilm", "--results", str(out / "results.jsonl"),
                     "--output-dir", str(out)]) == 0
    assert (out / "ilm_report.json").exists()


def test_cli_sweep_gamma(tmp_path):
    spec_path = _write_spec(tmp_path, lm=None,
                            gamma_grid={"self": [0.0, 0.01]})
    out = tmp_path / "sweep"
    assert cli_main(["sweep-gamma", "--spec", str(spec_path),
                     "--output-dir", str(out)]) == 0
    lines = (out / "gamma_sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 3


def test_cli_output_root_env(tmp_path, monkeypatch, capsys):
    spec_path = _write_spec(tmp_path, output_dir="rel_out")
    monkeypatch.setenv("RATN_OUTPUT_ROOT", str(tmp_path / "root"))
    assert cli_main(["experiment", "--spec", str(spec_path)]) == 0
    assert (tmp_path / "root" / "rel_out" / "results.jsonl").exists()


@pytest.mark.parametrize("setting", [1, -1])
def test_cli_train_rejects_setting_out_of_range(tmp_path, setting):
    spec_path = _write_spec(tmp_path)
    with pytest.raises(SystemExit, match=r"--setting must be in 0\.\.0"):
        cli_main(["train", "--spec", str(spec_path), "--setting", str(setting)])


def test_cli_decode_rejects_lm_corpus_the_task_lacks(tmp_path):
    # the copy task has only an in-domain text corpus
    spec_path = _write_spec(tmp_path)
    ckpt = tmp_path / "model.ratn"
    save_model(Seq2SeqModel(ModelConfig(**FAST_MODEL, vocab_size=10, max_len=8)),
               ckpt)
    with pytest.raises(SystemExit, match="no 'extended' LM corpus"):
        cli_main(["decode", "--spec", str(spec_path), "--checkpoint", str(ckpt),
                  "--lm", "extended", "--output-dir", str(tmp_path / "out")])


@pytest.mark.parametrize("beam", [0, -1])
def test_cli_decode_rejects_beam_below_one(tmp_path, beam):
    spec_path = _write_spec(tmp_path)
    ckpt = tmp_path / "model.ratn"
    save_model(Seq2SeqModel(ModelConfig(**FAST_MODEL, vocab_size=10, max_len=8)),
               ckpt)
    with pytest.raises(SystemExit, match="--beam must be >= 1"):
        cli_main(["decode", "--spec", str(spec_path), "--checkpoint", str(ckpt),
                  "--beam", str(beam), "--output-dir", str(tmp_path / "out")])


def _never(*args, **kwargs):
    raise AssertionError("ran past an invalid flag")


@pytest.mark.parametrize("command", ["train", "decode", "eval"])
def test_cli_seq2seq_commands_reject_the_window_task_before_any_work(
        tmp_path, monkeypatch, command):
    import ratn.cli as cli_mod
    monkeypatch.setattr(cli_mod, "build_task_data", _never)
    monkeypatch.setattr(cli_mod, "load_model", _never)
    spec_path = _write_spec(tmp_path, task="window_classify", task_params={},
                            model={}, lm=None)
    extra = {"train": [], "decode": ["--checkpoint", str(tmp_path / "m.ratn")],
             "eval": ["--hyps", str(tmp_path / "hyps.jsonl")]}[command]
    with pytest.raises(SystemExit,
                       match="use `ratn experiment` for the window_classify task"):
        cli_main([command, "--spec", str(spec_path), *extra])


def test_cli_decode_rejects_negative_lm_lambda_before_any_work(tmp_path,
                                                              monkeypatch):
    import ratn.cli as cli_mod
    monkeypatch.setattr(cli_mod, "build_task_data", _never)
    monkeypatch.setattr(cli_mod, "load_model", _never)
    with pytest.raises(SystemExit, match="--lm-lambda must be >= 0"):
        cli_main(["decode", "--spec", str(_write_spec(tmp_path)),
                  "--checkpoint", str(tmp_path / "model.ratn"),
                  "--lm", "in_domain", "--lm-lambda", "-1"])


@pytest.mark.parametrize("workers", [0, -1])
@pytest.mark.parametrize("command", ["experiment", "sweep-gamma"])
def test_cli_rejects_workers_below_one(tmp_path, monkeypatch, command, workers):
    import ratn.cli as cli_mod
    monkeypatch.setattr(cli_mod, "run_experiment", _never)
    monkeypatch.setattr(cli_mod, "gamma_sweep", _never)
    with pytest.raises(SystemExit, match="--workers must be >= 1"):
        cli_main([command, "--spec", str(_write_spec(tmp_path)),
                  "--workers", str(workers)])


def test_cli_lm_corpus_accepts_single_string(tmp_path):
    # "corpus" (singular) is normalized into the corpora list
    spec_path = _write_spec(tmp_path, lm={"corpus": "in_domain",
                                          "lambda_grid": [0.1]})
    spec = ExperimentSpec.load(spec_path)
    assert spec.lm.corpora == ("in_domain",)


# ---------------------------------------------------------------------------
# documented defaults


def test_default_search_grids():
    from ratn.experiment import (DEFAULT_FUZZY_GAMMA0, DEFAULT_FUZZY_SIGMA2,
                                 DEFAULT_GAMMA_GRID, DEFAULT_LAMBDA_GRID)
    assert set(DEFAULT_GAMMA_GRID["self"]) == {0.0, 0.0001, 0.001, 0.01,
                                               0.05, 0.1}
    assert set(DEFAULT_GAMMA_GRID["cross"]) == {0.0, 0.1, 0.15, 0.2,
                                                0.25, 0.3}
    assert DEFAULT_LAMBDA_GRID == (0.05, 0.1, 0.15, 0.2)
    assert DEFAULT_FUZZY_GAMMA0 == 0.1
    assert abs(DEFAULT_FUZZY_SIGMA2 - 0.03 ** 2) < 1e-15


def test_fuzzy_setting_fills_default_gamma():
    from ratn.experiment import DEFAULT_FUZZY_GAMMA0
    spec = ExperimentSpec.from_dict({
        "task": "window_classify",
        "relax_grid": [{"site": "window", "fuzzy": True}]})
    assert spec.relax_grid[0].relaxation().gamma0 == DEFAULT_FUZZY_GAMMA0
    # an explicit gamma, and a plain setting's omitted one, are kept as given
    assert RelaxSetting(site="window", gamma=0.0, fuzzy=True).gamma == 0.0
    assert RelaxSetting(site="self").gamma == 0.0


def test_fuzzy_setting_fills_default_variance():
    setting = RelaxSetting(site="window", gamma=0.1, fuzzy=True, mode="matched")
    assert setting.sigma2 == 0.03 ** 2
    assert setting.relaxation().fuzzy


def test_cli_decode_lambda_default_is_speech_recipe(tmp_path):
    # parser default: fixed fusion weight 0.4 when an LM is requested
    from unittest import mock

    import ratn.cli as cli_mod

    spec_path = _write_spec(tmp_path)
    captured = {}

    def fake_decode(args):
        captured["lm_lambda"] = args.lm_lambda
        return 0

    with mock.patch.object(cli_mod, "cmd_decode", fake_decode):
        cli_mod.main(["decode", "--spec", str(spec_path), "--checkpoint", "x"])
    assert captured["lm_lambda"] == 0.4


def test_gamma_sweep_window_task_defaults(tmp_path):
    spec = ExperimentSpec(
        task="window_classify",
        task_params={"height": 4, "width": 4, "channels": 4, "window": 2,
                     "n_classes": 3, "n_train": 48, "n_dev": 12, "n_test": 12,
                     "data_seed": 9},
        model={"n_heads": 2},
        train={"steps": 10, "batch_size": 8, "eval_every": 10},
        relax_grid=(RelaxSetting(site="none"),),
        gamma_grid={"window": [0.0, 0.1]},
        seeds=(0,), output_dir=str(tmp_path))
    csv_path = gamma_sweep(spec)
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) - 1 == 2
    assert all(l.startswith("window,") for l in lines[1:])


SEQ_GRID = {"self": [0.0, 0.0001, 0.001, 0.01, 0.05, 0.1],
            "cross": [0.0, 0.1, 0.15, 0.2, 0.25, 0.3]}
SEQ_RULES = (SEQ_GRID, "resolve_model_config",
             "site 'window' applies to the window_classify task only")
# task -> (default sweep grid, config resolver, error for a site it lacks)
SITE_RULES = {"copy": SEQ_RULES, "reverse": SEQ_RULES, "toy_translate": SEQ_RULES,
              "window_classify": ({"window": SEQ_GRID["self"]},
                                  "resolve_classifier_config",
                                  "site '{site}' does not apply to window_classify")}


def test_resolve_gamma_grid_defaults():
    # every task's default sweep covers exactly the sites its resolver takes
    import ratn.experiment as exp
    for task, (grid, resolver, error) in SITE_RULES.items():
        spec = ExperimentSpec(task=task)
        assert exp.resolve_gamma_grid(spec) == grid
        resolve, data = getattr(exp, resolver), build_task_data(task, {})
        resolve(spec, data, RelaxSetting(site="none"))
        for site in ("self", "cross", "window"):
            setting = RelaxSetting(site=site, gamma=0.1)
            if site in grid:
                resolve(spec, data, setting)
            else:
                with pytest.raises(ValueError) as err:
                    resolve(spec, data, setting)
                assert str(err.value) == error.format(site=site)


@pytest.mark.parametrize("task", ["copy", "reverse", "toy_translate",
                                  "window_classify"])
def test_provenance_reports_the_default_gamma_grid_the_sweep_runs(task):
    from ratn.experiment import provenance, resolve_gamma_grid
    spec = ExperimentSpec(task=task)
    assert provenance(spec)["gamma_grid"] == resolve_gamma_grid(spec)
