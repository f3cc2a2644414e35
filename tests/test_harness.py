"""Task generators, checkpoint format, experiment runner, CLI."""

import dataclasses
import hashlib
import json
import math
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from ratn.attention import Phase, RelaxationConfig, sample_fuzzy_gamma
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


def test_task_data_and_fuzzy_draws_match_their_golden_digest():
    # Every split and LM text of the four tasks at default parameters, then
    # 1,000 fuzzy-gamma draws. A change that moves any data or fuzzy draw
    # changes the digest.
    digest = hashlib.sha256()
    for task in ("copy", "reverse", "toy_translate", "window_classify"):
        data = build_task_data(task, {})
        named = {f"{split}.{k}": v for split in ("train", "dev", "test")
                 for k, v in vars(getattr(data, split)).items()}
        named.update({f"text.{k}": v for k, v in getattr(data, "text", {}).items()})
        for name, arr in sorted(named.items()):
            digest.update(f"{task}/{name}{arr.shape}{arr.dtype}".encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
    cfg = RelaxationConfig(gamma0=0.1, sigma2=0.03 ** 2, mode="train_only",
                           fuzzy=True)
    rng = RngStream(0, "gamma")
    digest.update(np.array([sample_fuzzy_gamma(cfg, rng, Phase.TRAIN)
                            for _ in range(1000)]).tobytes())
    assert digest.hexdigest() == (
        "f1f2addc70cb9794c013ac276bd1e920a9398be6452e4583fd461d94285c0da4")


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


def test_checkpoint_sidecar_with_an_unknown_config_key_raises_checkpoint_error(
        tmp_path):
    model = Seq2SeqModel(ModelConfig(**FAST_MODEL, vocab_size=10, max_len=8))
    path = tmp_path / "m.ratn"
    save_model(model, path)
    sidecar_path = tmp_path / "m.ratn.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar["config"]["n_layer"] = 2
    sidecar_path.write_text(json.dumps(sidecar))
    with pytest.raises(CheckpointError,
                       match="config.n_layer is not a field of ModelConfig"):
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


def test_checkpoint_tensor_name_that_is_not_utf8_raises_checkpoint_error(tmp_path):
    path = tmp_path / "name.ratn"
    path.write_bytes(_ONE_TENSOR + struct.pack("<Q", 2) + b"\xff\xfe"
                     + struct.pack("<2Q", 1, 1) + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="not UTF-8"):
        read_tensors(path)


def test_checkpoint_listing_a_tensor_twice_raises_naming_it(tmp_path):
    model = Seq2SeqModel(ModelConfig(**FAST_MODEL, vocab_size=10, max_len=8))
    path = tmp_path / "m.ratn"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    (count,) = struct.unpack("<Q", blob[8:16])
    blob[8:16] = struct.pack("<Q", count + 1)  # a second out_b, all 7.0
    blob += (struct.pack("<Q", 5) + b"out_b" + struct.pack("<2Q", 1, 10)
             + np.full(10, 7.0).astype("<f8").tobytes())
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="'out_b' is listed twice"):
        load_model(path)


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


def test_cell_workers_start_with_one_blas_thread_and_a_kept_heap(tmp_path,
                                                                 monkeypatch):
    import ratn.experiment as exp
    seen = {}

    class InProcessPool:  # records the environment a worker would start with
        def __init__(self, workers, mp_context):
            seen.update(os.environ)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(exp, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setenv("OMP_NUM_THREADS", "7")
    for var in ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_"):
        monkeypatch.delenv(var, raising=False)
    before = dict(os.environ)
    run_experiment(fast_spec(tmp_path, train={**FAST_TRAIN, "steps": 2}),
                   workers=2)
    assert {v: seen[v] for v in exp.BLAS_THREAD_VARS} == dict.fromkeys(
        exp.BLAS_THREAD_VARS, "1")
    assert seen["MALLOC_TRIM_THRESHOLD_"] == str(64 * 2 ** 20)
    assert seen["MALLOC_MMAP_THRESHOLD_"] == str(32 * 2 ** 20)
    assert dict(os.environ) == before


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
    ({"relax_grid": (RelaxSetting(), RelaxSetting(mode="matched"))},
     "labels: ['baseline']"),
    ({"relax_grid": (RelaxSetting(site="self", gamma=0.1),
                     RelaxSetting(site="self", gamma=0.1, sigma2=0.5))},
     "labels: ['self_g0.1_train_only']"),
], ids=["seed", "baseline", "label_without_sigma2"])
def test_spec_rejects_cells_that_would_merge(fields, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        ExperimentSpec(task="copy", **fields)


def test_spec_rejects_unknown_train_keys():
    with pytest.raises(ValueError,
                       match="train.stpes is not a field of TrainConfig"):
        ExperimentSpec.from_dict({"task": "copy", "train": {"stpes": 3}})


@pytest.mark.parametrize("task,key", [("copy", "n_layer"),
                                      ("window_classify", "d_model")])
def test_spec_rejects_unknown_model_keys(task, key):
    with pytest.raises(ValueError, match=f"model.{key} is not a field of "):
        ExperimentSpec.from_dict({"task": task, "model": {key: 2}})


def test_spec_leaves_a_model_check_on_the_data_sizes_to_the_cell():
    # the classifier's channels come from the task: 6 take 3 heads, 8 do not
    import ratn.experiment as exp
    spec = ExperimentSpec(task="window_classify", task_params={"channels": 6},
                          model={"n_heads": 3})
    data = build_task_data(spec.task, spec.task_params)
    assert exp.resolve_model_config(spec, data, RelaxSetting()).n_heads == 3


@pytest.mark.parametrize("task,split", [("copy", "n_test"),
                                        ("toy_translate", "n_train"),
                                        ("window_classify", "n_dev")])
def test_spec_rejects_an_empty_split(task, split):
    # one case per task parameter spec class; caught at load, not per cell
    with pytest.raises(ValueError, match=f"{split} must be >= 1, got 0"):
        ExperimentSpec(task=task, task_params={split: 0})


@pytest.mark.parametrize("fields", [{"gamma": 0.5}, {"sigma2": 0.0009},
                                    {"fuzzy": True}],
                         ids=["gamma", "sigma2", "fuzzy"])
def test_baseline_setting_rejects_relaxation_fields(fields):
    # the unrelaxed model's rows would carry them
    with pytest.raises(ValueError, match=re.escape(
            "the baseline (site 'none') takes no gamma, sigma2 or fuzzy")):
        RelaxSetting(site="none", **fields)
    # a zero gamma and any mode stay free
    assert RelaxSetting(gamma=0.0, mode="matched").label == "baseline"


@pytest.mark.parametrize("train", [{"steps": 0}, {"batch_size": 0}])
def test_spec_rejects_fewer_than_one_step_or_example(train):
    with pytest.raises(ValueError, match="steps and batch_size must be >= 1"):
        ExperimentSpec(task="copy", train=train)


@pytest.mark.parametrize("k", [0.0, -0.5])
def test_lm_spec_rejects_a_smoothing_constant_that_is_not_positive(k):
    with pytest.raises(ValueError, match=f"lm.k must be > 0, got {k}"):
        LmSpec(k=k)


def test_lm_spec_accepts_only_the_corpora_key():
    with pytest.raises(ValueError, match="lm.corpus is not a field of LmSpec"):
        ExperimentSpec.from_dict({"task": "copy", "lm": {"corpus": "in_domain"}})


def test_experiment_writes_numpy_values_as_their_python_values(tmp_path,
                                                                monkeypatch):
    import ratn.experiment as exp
    row = {"type": "result", "setting": "baseline", "split": "test",
           "lm": "none", "lambda": 0.0, "metric": "wer"}
    written = {}
    # np.float32: np.float64 is a Python float, which json writes itself
    for kind, seed, value in (("numpy", np.int64(0), np.float32(0.25)),
                              ("python", 0, 0.25)):
        monkeypatch.setattr(exp, "run_cell", lambda *args, seed=seed, value=value:
                            [{**row, "seed": seed, "value": value}])
        paths = run_experiment(fast_spec(tmp_path), output_dir=tmp_path / kind)
        written[kind] = [paths[k].read_bytes() for k in ("results", "summary")]
    assert written["numpy"] == written["python"]


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


def test_only_the_models_resolve_fuzzy_gammas():
    # The models own the per-layer gamma policy; the kernel takes a float
    import ast
    from pathlib import Path

    import ratn
    found = []
    for path in sorted(Path(ratn.__file__).parent.glob("*.py")):
        if path.name in ("transformer.py", "window_classifier.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "sample_fuzzy_gamma" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
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


# a vocabulary too small for the copy task's tokens: the cell fails on its data
TOO_SMALL_VOCAB = {**FAST_MODEL, "vocab_size": 6}


def test_gamma_sweep_failed_cell_raises_alike_at_any_worker_count(tmp_path):
    spec = fast_spec(tmp_path, train={**FAST_TRAIN, "steps": 2},
                     model=TOO_SMALL_VOCAB, gamma_grid={"self": [0.0]})
    messages = []
    for workers in (1, 2):
        with pytest.raises(RuntimeError, match=r"sweep cell \(self, 0.0, 0\)"
                                               r" failed: ") as err:
            gamma_sweep(spec, workers=workers)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_cli_sweep_gamma_exits_naming_a_failed_cell(tmp_path):
    spec_path = _write_spec(tmp_path, lm=None, model=TOO_SMALL_VOCAB,
                            train={**FAST_TRAIN, "steps": 2},
                            gamma_grid={"self": [0.0]})
    with pytest.raises(SystemExit, match=re.escape(
            f"--spec {spec_path}: sweep cell (self, 0.0, 0) failed: ")):
        cli_main(["sweep-gamma", "--spec", str(spec_path),
                  "--output-dir", str(tmp_path / "sweep")])


def test_gamma_sweep_requires_zero_point(tmp_path):
    # checked when the spec loads, for `ratn experiment` as for a sweep
    with pytest.raises(ValueError, match="include 0"):
        fast_spec(tmp_path, gamma_grid={"self": [0.01]})


def test_gamma_sweep_rejects_distinct_gammas_that_print_alike(tmp_path):
    with pytest.raises(ValueError, match="gamma_grid for site 'self'"):
        fast_spec(tmp_path, gamma_grid={"self": [0.0, 0.0001, 0.00010000001]})
    # an exact repeat is one cell
    csv_path = gamma_sweep(fast_spec(tmp_path, gamma_grid={"self": [0.0, 0.01,
                                                                    0.01]}))
    assert len(csv_path.read_text().strip().splitlines()) == 3


def test_gamma_sweep_rejects_a_gamma_above_one_before_any_cell_runs(tmp_path):
    # checked when the spec loads
    with pytest.raises(ValueError, match=re.escape("gamma0 must be in [0, 1], "
                                                   "got 1.5")):
        fast_spec(tmp_path, gamma_grid={"cross": [0.0, 1.5]})


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


def test_cli_eval_rejects_a_hyps_file_of_the_wrong_length(tmp_path):
    spec_path = _write_spec(tmp_path)
    hyps = tmp_path / "hyps.jsonl"
    hyps.write_text(json.dumps({"tokens": [3, 4]}) + "\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=rf"--hyps has 1 hypotheses but the "
                                         rf"test split has {FAST_COPY['n_test']} "
                                         rf"sentences"):
        cli_main(["eval", "--spec", str(spec_path), "--hyps", str(hyps),
                  "--split", "test", "--output-dir", str(out)])
    assert not list(out.glob("eval.*.json"))


@pytest.mark.parametrize("line", ['{"toks": [2]}', "not json", "[2]"],
                         ids=["no_tokens", "not_json", "not_an_object"])
def test_cli_eval_rejects_a_malformed_hyps_line(tmp_path, line):
    spec_path = _write_spec(tmp_path)
    hyps = tmp_path / "hyps.jsonl"
    hyps.write_text(json.dumps({"tokens": [3, 4]}) + "\n" + line + "\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match="--hyps lines must be JSON objects "
                                         "with tokens"):
        cli_main(["eval", "--spec", str(spec_path), "--hyps", str(hyps),
                  "--split", "test", "--output-dir", str(out)])
    assert not list(out.glob("eval.*.json"))


@pytest.mark.parametrize("command,flag", [("eval", "--hyps"),
                                          ("report-ilm", "--results")])
def test_cli_exits_naming_a_missing_input_file(tmp_path, command, flag):
    missing = tmp_path / "missing.jsonl"
    spec = ["--spec", str(_write_spec(tmp_path))] if command == "eval" else []
    with pytest.raises(SystemExit, match=re.escape(f"{flag} {missing} does "
                                                   f"not load: ")):
        cli_main([command, *spec, flag, str(missing),
                  "--output-dir", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


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


def test_spec_file_ints_in_float_fields_are_kept_as_written(tmp_path):
    spec_path = _write_spec(tmp_path, train={**FAST_TRAIN, "steps": 1, "lr": 1},
                            relax_grid=[{"site": "self", "gamma": 0}],
                            lm={"corpora": ["in_domain"], "lambda_grid": [0, 0.1]})
    out = tmp_path / "out"
    cli_main(["experiment", "--spec", str(spec_path), "--output-dir", str(out)])
    header = json.loads((out / "results.jsonl").read_text().splitlines()[0])
    summary = json.loads((out / "summary.json").read_text())["spec"]
    for spec in (header, summary):
        kept = [spec["train"]["lr"], spec["relax_grid"][0]["gamma"],
                spec["lm"]["lambda_grid"][0]]
        assert kept == [1, 0, 0] and all(type(v) is int for v in kept)


@pytest.mark.parametrize("text,error", [
    (json.dumps({"task": "copy", "relax_grid": [{"site": "cross", "gamma": 1.5}]}),
     "gamma0 must be in [0, 1], got 1.5"),
    ('{"task": "copy",', "Expecting property name enclosed in double quotes"),
    (json.dumps({"seeds": [0]}), "task is missing"),
], ids=["gamma_above_one", "json_syntax_error", "task_missing"])
def test_cli_exits_naming_a_spec_that_does_not_load(tmp_path, monkeypatch,
                                                    text, error):
    import ratn.cli as cli_mod
    monkeypatch.setattr(cli_mod, "run_experiment", _never)
    path = tmp_path / "spec.json"
    path.write_text(text)
    with pytest.raises(SystemExit, match=re.escape(f"--spec {path} does not "
                                                   f"load: {error}")):
        cli_main(["experiment", "--spec", str(path)])


@pytest.mark.parametrize("command,fields,error", [
    ("experiment", {"relax_grid": [{"site": "window", "gamma": 0.1}]},
     "the copy task has no site 'window'; its sites are ['cross', 'self']"),
    ("experiment", {"task": "window_classify", "task_params": {}, "model": {},
                    "lm": None, "relax_grid": [{"site": "cross", "gamma": 0.1}]},
     "the window_classify task has no site 'cross'; its sites are ['window']"),
    ("sweep-gamma", {"gamma_grid": {"window": [0, 0.1]}},
     "the copy task has no site 'window'; its sites are ['cross', 'self']"),
    ("sweep-gamma", {"gamma_grid": {"self": [0.1]}},
     "gamma grid for site 'self' must include 0"),
    ("experiment", {"gamma_grid": {"self": [0.1]}},
     "gamma grid for site 'self' must include 0"),
    ("sweep-gamma", {"gamma_grid": {"cross": [0, 1.5]}},
     "gamma0 must be in [0, 1], got 1.5"),
    ("experiment", {"eos_margin": -5}, "eos_margin must be >= 0, got -5"),
    ("experiment", {"relax_grid": [{"site": "none", "gamma": 0.5, "fuzzy": True}]},
     "the baseline (site 'none') takes no gamma, sigma2 or fuzzy"),
    ("train", {"train": {**FAST_TRAIN, "eval_every": 0}},
     "eval_every must be >= 1, got 0"),
    ("experiment", {"gamma_grid": ["self"]},
     "gamma_grid must be a mapping, got ['self']"),
    ("sweep-gamma", {"gamma_grid": {"self": "01"}},
     "gamma_grid.self must be a list, got '01'"),
    ("experiment", {"gamma_grid": {"self": 0.1}},
     "gamma_grid.self must be a list, got 0.1"),
    ("experiment", {"model": {**FAST_MODEL, "relax_self": {"gamma0": 0.1}}},
     "model may not set ['relax_self']; relaxation settings go in relax_grid"),
    ("experiment", {"seeds": [0.5]}, "seeds[0] must be an int, got 0.5"),
    ("sweep-gamma", {"seeds": "01"}, "seeds must be a list, got '01'"),
    ("experiment", {"seeds": [True]}, "seeds[0] must be an int, got True"),
    ("experiment", {"relax_grid": [{"site": "self", "fuzzy": "no"}]},
     "relax_grid[0].fuzzy must be a bool, got 'no'"),
    ("sweep-gamma", {"relax_grid": [{"site": "self", "gamma": "0.1"}]},
     "relax_grid[0].gamma must be a number, got '0.1'"),
    ("experiment", {"train": {**FAST_TRAIN, "steps": 2.5}},
     "train.steps must be an int, got 2.5"),
    ("sweep-gamma", {"train": {**FAST_TRAIN, "lr": "0.1"}},
     "train.lr must be a number, got '0.1'"),
    ("experiment", {"task_params": {**FAST_COPY, "n_train": 16.5}},
     "task_params.n_train must be an int, got 16.5"),
    ("sweep-gamma", {"task_params": {**FAST_COPY, "data_seed": 1.5}},
     "task_params.data_seed must be an int, got 1.5"),
    ("experiment", {"model": {**FAST_MODEL, "d_model": "32"}},
     "model.d_model must be an int, got '32'"),
    ("experiment", {"beam": 2.5}, "beam must be an int, got 2.5"),
    ("experiment", {"eos_margin": "1"}, "eos_margin must be a number, got '1'"),
    ("experiment", {"lm": {"corpora": ["in_domain"], "k": "0.5"}},
     "lm.k must be a number, got '0.5'"),
    ("experiment", {"output_dir": 3}, "output_dir must be a string, got 3"),
    ("experiment", {"lm": {"corpora": ["in_domain"], "lambdas": [0.1]}},
     "lm.lambdas is not a field of LmSpec"),
], ids=["copy_window_setting", "window_cross_setting", "sweep_window_grid",
        "sweep_grid_without_zero", "experiment_grid_without_zero",
        "sweep_gamma_above_one", "negative_eos_margin", "baseline_with_gamma",
        "eval_every_zero", "gamma_grid_not_a_mapping", "gamma_grid_site_a_string",
        "gamma_grid_site_a_number", "relax_key_in_model", "seed_a_fraction",
        "seeds_a_string", "seed_a_bool", "fuzzy_a_string", "setting_gamma_a_string",
        "steps_a_fraction", "lr_a_string", "n_train_a_fraction",
        "data_seed_a_fraction", "d_model_a_string", "beam_a_fraction",
        "eos_margin_a_string", "lm_k_a_string", "output_dir_a_number",
        "unknown_lm_key"])
def test_cli_rejects_a_bad_spec_before_building_data(tmp_path, monkeypatch,
                                                     command, fields, error):
    import ratn.cli as cli_mod
    import ratn.experiment as exp
    monkeypatch.setattr(exp, "build_task_data", _never)
    monkeypatch.setattr(cli_mod, "build_task_data", _never)
    spec_path = _write_spec(tmp_path, **fields)
    with pytest.raises(SystemExit, match=re.escape(
            f"--spec {spec_path} does not load: {error}")):
        cli_main([command, "--spec", str(spec_path),
                  "--output-dir", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content,error", [
    (b"NOPE" + b"\x00" * 16, "bad magic bytes"),
    (None, "No such file"),
    ({"n_heads": "4"}, "config.n_heads must be an int, got '4'"),
    ({"n_enc": 2.0}, "config.n_enc must be an int, got 2.0"),
    ({"relax_self": {"gamma0": "0.1"}},
     "config.relax_self.gamma0 must be a number, got '0.1'"),
    (lambda sidecar: {**sidecar, "seed": 2.7}, "seed must be an int, got 2.7"),
    (lambda sidecar: {"seed": 0}, "config is missing"),
    (lambda sidecar: [sidecar], "the top level must be a mapping, got [{"),
    (lambda sidecar: {**sidecar, "config": 3}, "config must be a mapping, got 3"),
], ids=["bad_magic", "missing", "sidecar_n_heads_a_string",
        "sidecar_n_enc_a_float", "sidecar_gamma0_a_string", "sidecar_seed_a_float",
        "sidecar_without_config", "sidecar_a_list", "sidecar_config_a_number"])
def test_cli_decode_exits_naming_a_checkpoint_that_does_not_load(
        tmp_path, monkeypatch, content, error):
    # content: the checkpoint's bytes, none, a saved model's config edits,
    # or a function of its sidecar that returns the sidecar to write
    import ratn.cli as cli_mod
    monkeypatch.setattr(cli_mod, "build_task_data", _never)
    ckpt = tmp_path / "model.ratn"
    if isinstance(content, dict) or callable(content):
        save_model(Seq2SeqModel(ModelConfig(**FAST_MODEL, vocab_size=10,
                                            max_len=8)), ckpt)
        sidecar_path = tmp_path / "model.ratn.json"
        sidecar = json.loads(sidecar_path.read_text())
        if callable(content):
            sidecar = content(sidecar)
        else:
            sidecar["config"].update(content)
        sidecar_path.write_text(json.dumps(sidecar))
    elif content is not None:
        ckpt.write_bytes(content)
    with pytest.raises(SystemExit, match=re.escape(f"--checkpoint {ckpt} does "
                                                   f"not load: ") + ".*"
                       + re.escape(error)):
        cli_main(["decode", "--spec", str(_write_spec(tmp_path)),
                  "--checkpoint", str(ckpt), "--output-dir", str(tmp_path / "out")])


@pytest.mark.parametrize("model,saved,error", [
    ({}, {"vocab_size": 16}, "its vocab_size is 16, the spec's is 10"),
    ({}, {"max_len": 6}, "its max_len is 6, the spec's is 8"),
    ({"max_len": 12}, {}, "its max_len is 8, the spec's is 12"),
], ids=["vocab_size", "max_len", "max_len_set_by_the_spec"])
def test_cli_decode_exits_naming_a_checkpoint_that_does_not_fit_the_spec(
        tmp_path, model, saved, error):
    # the spec's copy data fix vocab_size 10 and max_len 8, unless its model
    # section sets them; `ratn train` gives its model those sizes
    ckpt = tmp_path / "model.ratn"
    save_model(Seq2SeqModel(ModelConfig(**{**FAST_MODEL, "vocab_size": 10,
                                           "max_len": 8, **saved})), ckpt)
    spec_path = _write_spec(tmp_path, model={**FAST_MODEL, **model})
    with pytest.raises(SystemExit, match=re.escape(
            f"--checkpoint {ckpt} does not fit the spec: {error}")):
        cli_main(["decode", "--spec", str(spec_path), "--checkpoint", str(ckpt),
                  "--output-dir", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("fields,message", [
    ({"site": "self", "fuzzy": True, "sigma2": -0.5}, "sigma2 must be >= 0, got -0.5"),
    ({"site": "cross", "gamma": 1.5}, "gamma0 must be in [0, 1], got 1.5"),
    ({"mode": "sometimes"}, "mode must be one of"),
], ids=["negative_fuzzy_sigma2", "gamma_above_one", "baseline_bad_mode"])
def test_relax_setting_rejects_an_invalid_setting_at_construction(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        RelaxSetting(**fields)


def test_fuzzy_setting_replaces_only_a_zero_variance():
    from ratn.experiment import DEFAULT_FUZZY_SIGMA2
    assert RelaxSetting(site="self", fuzzy=True, sigma2=0.0).sigma2 == DEFAULT_FUZZY_SIGMA2
    assert RelaxSetting(site="self", fuzzy=True, sigma2=0.5).sigma2 == 0.5


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
# task -> its default sweep grid, whose keys are the only sites it takes
DEFAULT_GRIDS = {"copy": SEQ_GRID, "reverse": SEQ_GRID, "toy_translate": SEQ_GRID,
                 "window_classify": {"window": SEQ_GRID["self"]}}


def test_resolve_gamma_grid_defaults():
    # every task's default sweep covers exactly the sites its specs accept; a
    # site it lacks, in a relax_grid or a gamma_grid, fails the load
    import ratn.experiment as exp
    for task, grid in DEFAULT_GRIDS.items():
        assert exp.resolve_gamma_grid(ExperimentSpec(task=task)) == grid
        for site in ("self", "cross", "window"):
            for fields in ({"relax_grid": (RelaxSetting(site=site, gamma=0.1),)},
                           {"gamma_grid": {site: [0.0, 0.1]}}):
                if site in grid:
                    ExperimentSpec(task=task, **fields)
                    continue
                with pytest.raises(ValueError) as err:
                    ExperimentSpec(task=task, **fields)
                assert str(err.value) == (f"the {task} task has no site {site!r}; "
                                          f"its sites are {sorted(grid)}")


def _sequence_config(data):
    return ModelConfig(vocab_size=data.vocab_size,
                       max_len=max(data.train.sources.shape[1],
                                   data.train.targets.shape[1] + 4))


def _window_config(data):
    return WindowClassifierConfig(channels=data.spec.channels,
                                  window=data.spec.window,
                                  n_classes=data.spec.n_classes)


# task -> its default model config, spelled out from the task's data
HAND_CONFIGS = {"copy": _sequence_config, "reverse": _sequence_config,
                "toy_translate": _sequence_config, "window_classify": _window_config}


@pytest.mark.parametrize("task", sorted(HAND_CONFIGS))
def test_task_row_agrees_with_its_model_config(task):
    import ratn.experiment as exp
    assert set(exp.TASKS) == set(HAND_CONFIGS)
    row, data = exp.TASKS[task], build_task_data(task, {})
    fields = {f.name for f in dataclasses.fields(row.config)}
    assert {f"relax_{site}" for site in row.gamma_grid} <= fields
    assert set(row.sizes(data)) <= fields
    spec, expected = ExperimentSpec(task=task), HAND_CONFIGS[task](data)
    assert exp.resolve_model_config(spec, data, RelaxSetting()) == expected
    for site in row.gamma_grid:
        setting = RelaxSetting(site=site, gamma=0.1, mode="matched")
        assert exp.resolve_model_config(spec, data, setting) == dataclasses.replace(
            expected, **{f"relax_{site}": setting.relaxation()})


@pytest.mark.parametrize("task", ["copy", "reverse", "toy_translate",
                                  "window_classify"])
def test_provenance_reports_the_default_gamma_grid_the_sweep_runs(task):
    from ratn.experiment import provenance, resolve_gamma_grid
    spec = ExperimentSpec(task=task)
    assert provenance(spec)["gamma_grid"] == resolve_gamma_grid(spec)
