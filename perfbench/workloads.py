"""The three benchmark workloads: their inputs, one closed-loop operation each,
and the checks on that operation's output.

Every workload is a closed loop in one process: the next operation starts
only when the previous one has finished. The workload seed selects one of
N_INPUT_SETS input sets (seed modulo N_INPUT_SETS); each input set has its
outputs recorded in reference.json by record_reference.py, so every seed
gets checked outputs. The library only receives the generated inputs.

Calls go through module attributes (``training.adam_step``, not a name
imported from it) so that the traced run's wrappers, which replace module
and class attributes, see every call.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

from ratn import decoding, experiment, rng, tasks, tensor, training, transformer
from ratn import window_classifier
from ratn.attention import Phase

N_INPUT_SETS = 16
BATCH = 32
# Criterion 12's desk model: d=32, 2+2 layers, 4 heads, d_ff=64, dropout 0.1
# at all three sites (the ModelConfig default).
DESK_MODEL = {"n_enc": 2, "n_dec": 2, "n_heads": 4, "d_model": 32, "d_ff": 64}
CROSS_RELAX = experiment.RelaxSetting(site="cross", gamma=0.2, mode="train_only")
WINDOW_RELAX = experiment.RelaxSetting(site="window", gamma=0.1,
                                       sigma2=0.03 ** 2, mode="matched",
                                       fuzzy=True)
# A step's loss may differ from the recorded one by float reassociation
# only; any change to what is computed moves it by orders of magnitude more.
LOSS_RTOL = 1e-7


def no_span(_name):
    return nullcontext()


def input_set(seed: int) -> int:
    return seed % N_INPUT_SETS


def data_seed(seed: int) -> int:
    return 1000 + input_set(seed)


def loss_matches(value: float, ref: float) -> bool:
    return abs(value - ref) <= LOSS_RTOL * abs(ref)


class _TrainingEpisodes:
    """Training steps in episodes of `episode_steps`, each from a freshly
    built model, so every step's loss has a recorded reference.

    A step mirrors the library's own loop (``training.train`` and
    ``window_classifier.train_classifier``): batch draw, forward, label-
    smoothed loss, backward, Adam. Subclasses supply the data, the model and
    the forward pass.
    """

    step_span = "bench.step"

    def __init__(self, seed: int, smoke: bool, reference: dict):
        self.seed = input_set(seed)
        self.smoke = smoke
        self.ref = reference

    def setup(self) -> None:
        spec = self.spec()
        self.data = experiment.build_task_data(spec.task, spec.task_params)
        self.train_cfg = training.TrainConfig(**spec.train)
        self._build()
        self._start_episode()
        for _ in range(2):  # warm-up
            self._step()

    def _start_episode(self) -> None:
        self.model = self._new_model()
        self.params = self.model.parameters()
        self.adam = training.AdamState.init(self.params)
        self.batches = rng.RngStream(self.train_cfg.seed, "batch")

    def _step(self) -> float:
        idx = self.batches.integers(0, len(self.data.train),
                                    self.train_cfg.batch_size)
        loss = training.label_smoothed_nll(*self._forward(idx),
                                           self.train_cfg.label_smoothing)
        value = loss.item()
        self.model.zero_grad()
        tensor.backward(loss)
        training.adam_step(self.params, {k: t.grad for k, t in self.params.items()},
                           self.adam, self.train_cfg)
        return value

    def op(self, i: int, span=no_span):
        k = i % self.episode_steps
        if k == 0:
            self._start_episode()
        t0 = time.perf_counter()
        with span(self.step_span):
            loss = self._step()
        dt = time.perf_counter() - t0
        ok = loss_matches(loss, self.ref["losses"][k])
        out = [loss]
        if k == self.episode_steps - 1:
            extra = self._episode_outputs(self.model)
            ok = ok and all(self.ref[key] == v for key, v in extra.items())
            out.append(extra)
        return dt, self.items_per_step(), ok, out

    def _episode_outputs(self, model) -> dict:
        return {}

    def record(self) -> dict:
        """Reference outputs, produced by the library's own train loop."""
        self.setup()
        model = self._new_model()
        cfg = dataclasses.replace(self.train_cfg, steps=self.episode_steps)
        recs = self._library_train(model, cfg)
        return {"losses": [r["loss"] for r in recs], **self._episode_outputs(model)}


class TrainStep(_TrainingEpisodes):
    """Phase.TRAIN steps of the desk model on toy_translate defaults, with
    cross relaxation gamma=0.2 train_only; B=32 and 9 target positions."""

    name = "train_step"

    @property
    def episode_steps(self) -> int:
        return 4 if self.smoke else 100

    def spec(self) -> experiment.ExperimentSpec:
        return experiment.ExperimentSpec(
            task="toy_translate", task_params={"data_seed": data_seed(self.seed)},
            model=DESK_MODEL, train={"batch_size": BATCH, "seed": self.seed},
            relax_grid=(CROSS_RELAX,), seeds=(self.seed,))

    def _build(self) -> None:
        self.config = experiment.resolve_model_config(self.spec(), self.data,
                                                      CROSS_RELAX)

    def _new_model(self):
        return transformer.Seq2SeqModel(self.config, seed=self.seed)

    def _forward(self, idx):
        y_in, y_out = training.teacher_forcing_pair(self.data.train.targets[idx])
        probs = self.model.forward_teacher_forced(self.data.train.sources[idx],
                                                  y_in, Phase.TRAIN)
        return probs, y_out

    def items_per_step(self) -> int:
        return self.train_cfg.batch_size * (self.data.train.targets.shape[1] + 1)

    def _library_train(self, model, cfg):
        return training.train(model, self.data.train.sources,
                              self.data.train.targets, cfg)


class WindowClassify(_TrainingEpisodes):
    """WindowClassifier training on the default 8x8x8 grid task with B=32 and
    fuzzy matched window relaxation (gamma0=0.1, sigma=0.03); every episode
    ends with test-set accuracy."""

    name = "window_classify"

    @property
    def episode_steps(self) -> int:
        return 4 if self.smoke else 200

    def spec(self) -> experiment.ExperimentSpec:
        return experiment.ExperimentSpec(
            task="window_classify",
            task_params={"data_seed": data_seed(self.seed)},
            train={"batch_size": BATCH, "seed": self.seed},
            relax_grid=(WINDOW_RELAX,), seeds=(self.seed,))

    def _build(self) -> None:
        self.config = experiment.resolve_classifier_config(self.spec(), self.data,
                                                           WINDOW_RELAX)

    def _new_model(self):
        return window_classifier.WindowClassifier(self.config, seed=self.seed)

    def _forward(self, idx):
        probs = self.model.forward(self.data.train.inputs[idx], Phase.TRAIN)
        return probs, self.data.train.labels[idx]

    def items_per_step(self) -> int:
        return self.train_cfg.batch_size

    def _episode_outputs(self, model) -> dict:
        test = self.data.test
        return {"accuracy": model.accuracy(test.inputs, test.labels)}

    def _library_train(self, model, cfg):
        return window_classifier.train_classifier(
            model, self.data.train.inputs, self.data.train.labels, cfg)


class IlmCell:
    """The criterion-12 grid through ``run_experiment``, one seed.

    Baseline plus cross gamma=0.2 train_only, both LM corpora, the default
    lambda grid and beam 4, with training cut to 300 steps, so most of a
    cell is its beam decodes. One operation is one whole run_experiment
    call; its WER rows are checked against the reference.
    """

    name = "ilm_cell"
    step_span = "transformer.decode_step_batch"

    def __init__(self, seed: int, smoke: bool, reference: dict):
        self.seed = input_set(seed)
        self.smoke = smoke
        self.ref = reference
        self.workers = 2
        self.out_root: Path | None = None  # where run_experiment writes

    def spec(self) -> experiment.ExperimentSpec:
        task_params = {"data_seed": data_seed(self.seed)}
        steps = 300
        if self.smoke:
            task_params.update(n_dev=6, n_test=6)
            steps = 10
        return experiment.ExperimentSpec(
            task="toy_translate", task_params=task_params, model=DESK_MODEL,
            train={"steps": steps, "batch_size": BATCH, "eval_every": 10 ** 9},
            relax_grid=(experiment.RelaxSetting(site="none"), CROSS_RELAX),
            lm=experiment.LmSpec(corpora=("in_domain", "extended"), k=0.5,
                                 lambda_grid=experiment.DEFAULT_LAMBDA_GRID),
            seeds=(self.seed,), beam=4)

    def decodes(self) -> int:
        spec = self.spec()
        tp = tasks.ToyTranslateSpec(**spec.task_params)
        n_lm = len(spec.lm.corpora)
        per_cell = (tp.n_dev * (1 + n_lm * len(spec.lm.lambda_grid))
                    + tp.n_test * (1 + n_lm))
        return per_cell * len(spec.relax_grid) * len(spec.seeds)

    def setup(self) -> None:
        spec = self.spec()
        data = experiment.build_task_data(spec.task, spec.task_params)
        config = experiment.resolve_model_config(spec, data, CROSS_RELAX)
        model = transformer.Seq2SeqModel(config, seed=self.seed)
        h = model.encode(data.dev.sources[0], Phase.EVAL)
        lm = decoding.bigram_lm_train(data.text["extended"], config.vocab_size,
                                        spec.lm.k)
        decoding.beam_search(model, h, spec.beam, lm=lm, lam=0.1,
                               max_len=data.train.targets.shape[1] + 2)

    def run_grid(self) -> list[list]:
        out = Path(tempfile.mkdtemp(prefix="ilm_", dir=self.out_root))
        try:
            paths = experiment.run_experiment(self.spec(), workers=self.workers,
                                              output_dir=str(out))
            lines = paths["results"].read_text().splitlines()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        rows = [json.loads(line) for line in lines[1:]]
        return [[r.get("type"), r.get("setting"), r.get("seed"), r.get("split"),
                 r.get("lm"), r.get("lambda"), r.get("value")] for r in rows]

    def op(self, i: int, span=no_span):
        t0 = time.perf_counter()
        rows = self.run_grid()
        dt = time.perf_counter() - t0
        return dt, self.decodes(), rows == self.ref["rows"], rows

    def record(self) -> dict:
        return {"rows": self.run_grid()}


WORKLOADS = {cls.name: cls for cls in (TrainStep, IlmCell, WindowClassify)}
