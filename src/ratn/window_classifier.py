"""Encoder-only classifier over windowed relaxed attention.

One windowed multi-head attention layer with a residual connection and layer
norm, mean pooling over positions, and a linear softmax head. Exercises
window relaxation (including the fuzzy variant) end to end on grids instead
of sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attention import (MODE_OFF, Phase, RelaxationConfig, WindowAttnParams,
                        sample_fuzzy_gamma, windowed_mha)
from .rng import RngStream
from .tensor import Module, Tensor, matmul, no_grad, softmax_rows
from .training import TrainConfig, fit, label_smoothed_nll
from .transformer import LayerNormParams

# Rows per evaluation forward: the default training batch, so evaluating a
# split never holds more activations than a training step does. Each row's
# probabilities are the same bits in any chunk.
EVAL_ROWS_PER_CALL = 32


@dataclass(frozen=True)
class WindowClassifierConfig:
    """Model shape; the grid comes from the input (sides multiples of window)."""

    channels: int = 8
    window: int = 4
    n_heads: int = 2
    n_classes: int = 4
    relax_window: RelaxationConfig = field(default_factory=RelaxationConfig)

    def __post_init__(self):
        if self.channels % self.n_heads:
            raise ValueError("channels must be divisible by n_heads")


class WindowClassifier(Module):
    def __init__(self, config: WindowClassifierConfig, seed: int = 0):
        self.config = config
        init = RngStream(seed, "init")
        self._rng_gamma = RngStream(seed, "fuzzy-gamma")
        c = config.channels
        self.attn = WindowAttnParams.init(c, config.n_heads, config.window, init)
        self.ln = LayerNormParams.init(c)
        lim = 1.0 / math.sqrt(c)
        self.head_w = Tensor(init.uniform((c, config.n_classes), -lim, lim),
                             requires_grad=True)
        self.head_b = Tensor(np.zeros(config.n_classes), requires_grad=True)
        self.last_gammas: dict[str, list[float]] = {"window": []}
        self._params = {f"attn.{k}": t for k, t in self.attn.tensors().items()}
        self._params.update({f"ln.{k}": t for k, t in self.ln.tensors().items()})
        self._params.update(head_w=self.head_w, head_b=self.head_b)

    def forward(self, x, phase: Phase = Phase.EVAL) -> Tensor:
        """Class probabilities for grids x of shape [.., h, w, c]."""
        relax = self.config.relax_window
        t = x if isinstance(x, Tensor) else Tensor(x)
        gamma = sample_fuzzy_gamma(relax, self._rng_gamma, phase)
        self.last_gammas["window"] = [] if relax.mode == MODE_OFF else [gamma]
        a = windowed_mha(t, self.attn, gamma)
        pooled = self.ln(t, a).mean(axis=(-3, -2))
        return softmax_rows(matmul(pooled, self.head_w) + self.head_b)

    def accuracy(self, inputs: np.ndarray, labels: np.ndarray) -> float:
        """Share of argmax predictions equal to labels; no taping. Forwards
        EVAL_ROWS_PER_CALL rows at a time."""
        hits = 0
        with no_grad():
            for start in range(0, len(labels), EVAL_ROWS_PER_CALL):
                rows = slice(start, start + EVAL_ROWS_PER_CALL)
                probs = self.forward(inputs[rows], Phase.EVAL)
                hits += int(np.sum(np.argmax(probs.data, axis=-1) == labels[rows]))
        return hits / len(labels)


def train_classifier(model: WindowClassifier, inputs: np.ndarray,
                     labels: np.ndarray, cfg: TrainConfig,
                     dev: tuple[np.ndarray, np.ndarray] | None = None) -> list[dict]:
    """Label-smoothed training through training.fit; dev accuracy as eval_acc."""
    def loss_fn(idx):
        probs = model.forward(inputs[idx], Phase.TRAIN)
        return label_smoothed_nll(probs, labels[idx], cfg.label_smoothing)

    evaluate = None if dev is None else (lambda: model.accuracy(*dev))
    return fit(model, len(labels), loss_fn, cfg, evaluate)
