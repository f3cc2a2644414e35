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

from .attention import (Phase, RelaxationConfig, WindowAttnParams, windowed_mha)
from .rng import RngStream
from .tensor import Module, Tensor, matmul, no_grad, softmax_rows
from .training import TrainConfig, fit, label_smoothed_nll
from .transformer import LayerNormParams


@dataclass(frozen=True)
class WindowClassifierConfig:
    """Model shape; the grid comes from the input (sides multiples of window)."""

    channels: int = 8
    window: int = 4
    n_heads: int = 2
    n_classes: int = 4
    dropout_attention: float = 0.0
    relax: RelaxationConfig = field(default_factory=RelaxationConfig)

    def __post_init__(self):
        if self.channels % self.n_heads:
            raise ValueError("channels must be divisible by n_heads")


class WindowClassifier(Module):
    def __init__(self, config: WindowClassifierConfig, seed: int = 0):
        self.config = config
        init = RngStream(seed, "init")
        self._rng_dropout = RngStream(seed, "dropout")
        self._rng_gamma = RngStream(seed, "fuzzy-gamma")
        c = config.channels
        self.attn = WindowAttnParams.init(c, config.n_heads, config.window, init)
        self.ln = LayerNormParams.init(c)
        lim = 1.0 / math.sqrt(c)
        self.head_w = Tensor(init.uniform((c, config.n_classes), -lim, lim),
                             requires_grad=True)
        self.head_b = Tensor(np.zeros(config.n_classes), requires_grad=True)
        self.last_gammas: dict[str, list[float]] = {"window": []}

    def parameters(self) -> dict[str, Tensor]:
        out = {f"attn.{k}": t for k, t in self.attn.tensors().items()}
        out.update({f"ln.{k}": t for k, t in self.ln.tensors().items()})
        out["head_w"] = self.head_w
        out["head_b"] = self.head_b
        return out

    def forward(self, x, phase: Phase = Phase.EVAL) -> Tensor:
        """Class probabilities for grids x of shape [.., h, w, c]."""
        cfg = self.config
        t = x if isinstance(x, Tensor) else Tensor(x)
        self.last_gammas["window"] = []
        a = windowed_mha(t, self.attn, relax=cfg.relax,
                         dropout_p=cfg.dropout_attention,
                         rng=self._rng_dropout, phase=phase,
                         gamma_rng=self._rng_gamma,
                         gamma_out=self.last_gammas["window"])
        pooled = self.ln(t, a).mean(axis=(-3, -2))
        return softmax_rows(matmul(pooled, self.head_w) + self.head_b)

    def accuracy(self, inputs: np.ndarray, labels: np.ndarray) -> float:
        """Share of argmax predictions equal to labels; no taping."""
        with no_grad():
            probs = self.forward(inputs, Phase.EVAL)
        return float(np.mean(np.argmax(probs.data, axis=-1) == labels))


def train_classifier(model: WindowClassifier, inputs: np.ndarray,
                     labels: np.ndarray, cfg: TrainConfig,
                     dev: tuple[np.ndarray, np.ndarray] | None = None) -> list[dict]:
    """Label-smoothed training through training.fit; dev accuracy as eval_acc."""
    def loss_fn(idx):
        probs = model.forward(inputs[idx], Phase.TRAIN)
        return label_smoothed_nll(probs, labels[idx], cfg.label_smoothing)

    evaluate = None if dev is None else (lambda: model.accuracy(*dev))
    return fit(model, len(labels), loss_fn, cfg, evaluate)
