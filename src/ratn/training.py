"""Label-smoothed cross-entropy, a flat-vector Adam, and the one phase-gated
train loop, fit(); train() and window_classifier.train_classifier() wrap it.
train()'s dev evaluation, sequence_accuracy, decodes through decode_corpus."""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .attention import Phase
from .decoding import decode_corpus
from .rng import RngStream
from .tensor import Tensor, backward, clamp_min, log, mul, tsum
from .transformer import BOS_ID, EOS_ID, Seq2SeqModel

PROB_FLOOR = 1e-12
# dev pairs decoded by each sequence-accuracy evaluation in train()
EVAL_LIMIT = 64


class TrainingDiverged(RuntimeError):
    """Raised when the loss turns non-finite."""


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    label_smoothing: float = 0.1
    steps: int = 2000
    batch_size: int = 32
    seed: int = 0
    eval_every: int = 200
    # stop once a dev evaluation reaches this accuracy (None: run all steps)
    target_eval_acc: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError(f"label_smoothing must be in [0, 1), "
                             f"got {self.label_smoothing}")
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if min(self.steps, self.batch_size) < 1:
            raise ValueError(f"steps and batch_size must be >= 1, got "
                             f"{self.steps} and {self.batch_size}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")


def label_smoothed_nll(p: Tensor, targets, alpha: float) -> Tensor:
    """Mean cross-entropy against (1-alpha) * onehot + alpha / D targets.

    p holds probabilities over the last axis; targets is an integer array
    matching the leading axes. Probabilities below 1e-12 are floored before
    the log (with a warning) so a zero at the target cannot produce -inf.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    tgt = np.asarray(targets, dtype=np.int64)
    if tgt.shape != p.shape[:-1]:
        raise ValueError(f"targets shape {tgt.shape} does not match "
                         f"probability rows {p.shape[:-1]}")
    vocab = p.shape[-1]
    q = np.full(p.shape, alpha / vocab)
    np.put_along_axis(q, tgt[..., None], alpha / vocab + (1.0 - alpha), axis=-1)
    if np.any(p.data < PROB_FLOOR):
        warnings.warn("probabilities below 1e-12 floored in label_smoothed_nll",
                      RuntimeWarning)
    logp = log(clamp_min(p, PROB_FLOOR))
    n_rows = max(1, int(np.prod(p.shape[:-1])))
    return mul(tsum(mul(logp, q)), -1.0 / n_rows)


@dataclass
class AdamState:
    """Adam's moments and the parameters, one flat vector each over the
    parameters in dict order, and the step counter. init() makes every
    parameter's .data a view of `data`, so adam_step updates them in place."""

    m: np.ndarray
    v: np.ndarray
    data: np.ndarray
    views: list[np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, params: dict[str, Tensor]) -> "AdamState":
        data = np.concatenate([p.data.reshape(-1) for p in params.values()])
        views, start = [], 0
        for p in params.values():
            p.data = data[start:start + p.size].reshape(p.shape)
            views.append(p.data)
            start += p.size
        return cls(m=np.zeros(data.size), v=np.zeros(data.size), data=data,
                   views=views)


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update over all parameters as one vector (a
    missing gradient counts as zero), subtracted from state.data in place.
    A parameter whose .data was rebound since init() is copied back in first.

    The moments are updated in place, and the step is computed in the
    function's own two vectors (the concatenated gradient and its square),
    in the operand order of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2
    and data - lr m_hat / (sqrt(v_hat) + eps)."""
    flat = []
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros(p.size)
        elif g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} does not match "
                             f"parameter {name} of shape {p.data.shape}")
        flat.append(g.reshape(-1))
    g = np.concatenate(flat)
    state.step += 1
    t = state.step
    g2 = g * g
    g2 *= 1.0 - cfg.beta2
    state.v *= cfg.beta2
    state.v += g2
    g *= 1.0 - cfg.beta1
    state.m *= cfg.beta1
    state.m += g
    np.divide(state.m, 1.0 - cfg.beta1 ** t, out=g)  # g is m_hat
    np.divide(state.v, 1.0 - cfg.beta2 ** t, out=g2)  # g2 is v_hat
    np.sqrt(g2, out=g2)
    g2 += cfg.eps
    g *= cfg.lr
    g /= g2  # g is the step
    for p, view in zip(params.values(), state.views):
        if p.data is not view:
            view[...] = p.data
            p.data = view
    state.data -= g


def teacher_forcing_pair(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(decoder input, prediction target): BOS + y and y + EOS."""
    targets = np.asarray(targets, dtype=np.int64)
    bos = np.full((*targets.shape[:-1], 1), BOS_ID, dtype=np.int64)
    eos = np.full((*targets.shape[:-1], 1), EOS_ID, dtype=np.int64)
    return (np.concatenate([bos, targets], axis=-1),
            np.concatenate([targets, eos], axis=-1))


def sequence_accuracy(model: Seq2SeqModel, sources: np.ndarray,
                      targets: np.ndarray) -> float:
    """Exact-match rate of greedy (beam 1) decode_corpus outputs against
    references, searched up to two tokens longer than the references."""
    decoded = decode_corpus(model, sources, 1, max_len=targets.shape[1] + 2)
    hits = sum(tokens == ref.tolist() for (tokens, _), ref in zip(decoded, targets))
    return hits / len(sources)


def fit(model, n: int, loss_fn: Callable[[np.ndarray], Tensor],
        cfg: TrainConfig, evaluate: Callable[[], float] | None = None) -> list[dict]:
    """The one training loop, shared by every model in the library.

    Each step draws batch_size indices into the n training examples from the
    "batch" stream, takes loss_fn(idx) (a Phase.TRAIN forward), backpropagates
    it and applies one Adam update; the step's graph is freed before the next
    forward, so one graph is alive at a time. evaluate, if given, runs every
    eval_every steps and at the last step; its value is the record's
    eval_acc, and training stops once that reaches cfg.target_eval_acc.
    Returns one record per step: {step, loss, eval_acc, gamma_effective},
    the last being the mean of every relaxation coefficient in
    model.last_gammas.
    """
    params = model.parameters()
    state = AdamState.init(params)
    batches = RngStream(cfg.seed, "batch")
    records: list[dict] = []
    for step in range(1, cfg.steps + 1):
        loss = loss_fn(batches.integers(0, n, cfg.batch_size))
        loss_val = loss.item()
        if not np.isfinite(loss_val):
            raise TrainingDiverged(f"loss became {loss_val} at step {step}")
        model.zero_grad()
        backward(loss)
        adam_step(params, {k: t.grad for k, t in params.items()}, state, cfg)
        # Free the graph after Adam, not before: freed before, glibc hands
        # the freed heap top back to the OS and the next step faults it in.
        del loss
        gammas = [g for site in model.last_gammas.values() for g in site]
        record = {"step": step, "loss": loss_val, "eval_acc": None,
                  "gamma_effective": float(np.mean(gammas)) if gammas else 0.0}
        if evaluate is not None and (step % cfg.eval_every == 0 or step == cfg.steps):
            record["eval_acc"] = evaluate()
        records.append(record)
        if (cfg.target_eval_acc is not None and record["eval_acc"] is not None
                and record["eval_acc"] >= cfg.target_eval_acc):
            break
    return records


def train(model: Seq2SeqModel, sources: np.ndarray, targets: np.ndarray,
          cfg: TrainConfig,
          dev: tuple[np.ndarray, np.ndarray] | None = None) -> list[dict]:
    """Teacher-forced seq2seq training through fit().

    Steps run with phase TRAIN (dropout and relaxation active); the dev
    evaluation, the sequence accuracy of the first EVAL_LIMIT dev pairs, runs
    with phase EVAL (relaxation per its mode, drawing no randomness, so it
    never perturbs the training streams).
    """
    def loss_fn(idx):
        y_in, y_out = teacher_forcing_pair(targets[idx])
        probs = model.forward_teacher_forced(sources[idx], y_in, Phase.TRAIN)
        return label_smoothed_nll(probs, y_out, cfg.label_smoothing)

    evaluate = None
    if dev is not None:
        evaluate = lambda: sequence_accuracy(model, dev[0][:EVAL_LIMIT],
                                             dev[1][:EVAL_LIMIT])
    return fit(model, len(sources), loss_fn, cfg, evaluate)
