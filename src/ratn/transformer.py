"""Toy-scale encoder-decoder transformer.

Token embeddings scaled by sqrt(d) plus sinusoidal positions, post-norm
blocks (add, then normalize), ReLU feed-forward, and three dropout sites on
the one dropout stream: residual (sub-layer outputs before the residual add,
also on embeddings), activation (after ReLU), and attention (on the weights,
after relaxation). Each sublayer is one autodiff node: attention (the
decoder's causal mask as its bias), FeedForward and LayerNormParams, whose
call is "dropout, residual add, layer norm" over tensor.residual_norm. Encoder
self-attention and decoder cross attention can be relaxed; decoder masked
self-attention never is. Inference can also run the decoder one position at
a time over a DecoderState of cached keys/values.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .attention import (MODE_OFF, KvCache, MhaParams, Phase,
                        RelaxationConfig, _dropout_mask, causal_mask, dropout,
                        multi_head_attention, sample_fuzzy_gamma)
from .rng import RngStream
from .tensor import (Module, Tensor, _linear_vjp, _node, _unbroadcast,
                     embedding, matmul, mul, residual_norm, softmax_rows)

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
NUM_SPECIAL = 3

def check_token_sequence(tokens, vocab_size: int) -> np.ndarray:
    """Validate indices and the at-most-one-terminal-EOS convention."""
    arr = np.asarray(tokens, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= vocab_size):
        raise ValueError(f"token id out of range for vocabulary of {vocab_size}")
    if np.any(arr[..., :-1] == EOS_ID):
        raise ValueError("EOS must appear at most once, in terminal position")
    return arr


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and regularizer settings for one model."""

    n_enc: int = 2
    n_dec: int = 2
    n_heads: int = 4
    d_model: int = 32
    d_ff: int = 64
    vocab_size: int = 32
    max_len: int = 32
    dropout_residual: float = 0.1
    dropout_activation: float = 0.1
    dropout_attention: float = 0.1
    relax_self: RelaxationConfig = field(default_factory=RelaxationConfig)
    relax_cross: RelaxationConfig = field(default_factory=RelaxationConfig)

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by "
                             f"{self.n_heads} heads")
        for name in ("dropout_residual", "dropout_activation", "dropout_attention"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {p}")
        if self.vocab_size <= NUM_SPECIAL:
            raise ValueError(f"vocab_size must exceed {NUM_SPECIAL} reserved ids")


def sinusoidal_positions(max_len: int, d: int) -> np.ndarray:
    """Fixed sin/cos position table of shape [max_len, d]."""
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / d)
    table = np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))
    return table


@dataclass
class LayerNormParams:
    gain: Tensor
    bias: Tensor

    @classmethod
    def init(cls, d: int) -> "LayerNormParams":
        return cls(gain=Tensor(np.ones(d), requires_grad=True),
                   bias=Tensor(np.zeros(d), requires_grad=True))

    def __call__(self, x: Tensor, a: Tensor, p: float = 0.0,
                 rng: RngStream | None = None, phase=Phase.EVAL) -> Tensor:
        """layer_norm(x + dropout(a)): the residual sublayer, one node."""
        mask = _dropout_mask(a.shape, p, rng, phase)
        return residual_norm(x, a, self.gain, self.bias, mask)

    def tensors(self) -> dict[str, Tensor]:
        return {"gain": self.gain, "bias": self.bias}


@dataclass
class FeedForward:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def init(cls, d: int, d_ff: int, rng: RngStream) -> "FeedForward":
        l1, l2 = 1.0 / math.sqrt(d), 1.0 / math.sqrt(d_ff)
        return cls(w1=Tensor(rng.uniform((d, d_ff), -l1, l1), requires_grad=True),
                   b1=Tensor(np.zeros(d_ff), requires_grad=True),
                   w2=Tensor(rng.uniform((d_ff, d), -l2, l2), requires_grad=True),
                   b2=Tensor(np.zeros(d), requires_grad=True))

    def tensors(self) -> dict[str, Tensor]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def __call__(self, x: Tensor, p: float, rng: RngStream | None,
                 phase: Phase) -> Tensor:
        """relu(x @ w1 + b1), activation dropout, then @ w2 + b2: one node."""
        xd, w1, w2 = x.data, self.w1.data, self.w2.data
        b1_shape, b2_shape = self.b1.shape, self.b2.shape
        h = xd @ w1
        h += self.b1.data
        live = h > 0
        # ReLU as np.where(live, h, 0.0), 5x faster: fmax, then -0.0 to 0.0
        np.fmax(h, 0.0, out=h)
        h += 0.0
        mask = _dropout_mask(h.shape, p, rng, phase)
        if mask is not None:
            h *= mask[0]
            h *= mask[1]
            live &= mask[0]

        def vjp(g):
            gpre, gw2 = _linear_vjp(h, w2, g)
            gpre *= live
            if mask is not None:
                gpre *= mask[1]
            gx, gw1 = _linear_vjp(xd, w1, gpre)
            return (gx, gw1, _unbroadcast(gpre, b1_shape), gw2,
                    _unbroadcast(g, b2_shape))

        return _node(h @ w2 + self.b2.data,
                     (x, self.w1, self.b1, self.w2, self.b2), vjp)


@dataclass
class EncoderBlock:
    attn: MhaParams
    ln1: LayerNormParams
    ff: FeedForward
    ln2: LayerNormParams


@dataclass
class DecoderBlock:
    self_attn: MhaParams
    ln1: LayerNormParams
    cross_attn: MhaParams
    ln2: LayerNormParams
    ff: FeedForward
    ln3: LayerNormParams


class DecoderState:
    """Incremental decoding state of a batch of hypothesis rows.

    Per decoder layer a self-attention KvCache and a static cross-attention
    KvCache, plus the number of positions decoded so far. After reorder(),
    row i continues the prefix of old row rows[i]: the self caches gather
    their rows, and the cross caches, one row per source, update their
    row-to-source index.
    """

    def __init__(self, n_layers: int):
        self.caches = [(KvCache(), KvCache(static=True)) for _ in range(n_layers)]
        self.length = 0

    def reorder(self, rows: np.ndarray) -> None:
        for self_cache, cross_cache in self.caches:
            self_cache.reorder(rows)
            cross_cache.reorder(rows)


class Seq2SeqModel(Module):
    """Encoder-decoder transformer over a shared token vocabulary.

    All learned state lives in .parameters(); dropout and fuzzy-gamma draws
    come from streams derived from the construction seed, so (seed, config)
    fully determines behavior.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.seed = seed
        init = RngStream(seed, "init")
        self._rng_dropout = RngStream(seed, "dropout")
        self._rng_gamma = RngStream(seed, "fuzzy-gamma")
        d, dv = config.d_model, config.vocab_size
        lim = 1.0 / math.sqrt(d)
        self.emb_enc = Tensor(init.uniform((dv, d), -lim, lim), requires_grad=True)
        self.emb_dec = Tensor(init.uniform((dv, d), -lim, lim), requires_grad=True)
        self.pos = sinusoidal_positions(config.max_len, d)
        self.enc_blocks = [
            EncoderBlock(attn=MhaParams.init(d, config.n_heads, init),
                         ln1=LayerNormParams.init(d),
                         ff=FeedForward.init(d, config.d_ff, init),
                         ln2=LayerNormParams.init(d))
            for _ in range(config.n_enc)]
        self.dec_blocks = [
            DecoderBlock(self_attn=MhaParams.init(d, config.n_heads, init),
                         ln1=LayerNormParams.init(d),
                         cross_attn=MhaParams.init(d, config.n_heads, init),
                         ln2=LayerNormParams.init(d),
                         ff=FeedForward.init(d, config.d_ff, init),
                         ln3=LayerNormParams.init(d))
            for _ in range(config.n_dec)]
        self.out_w = Tensor(init.uniform((d, dv), -lim, lim), requires_grad=True)
        self.out_b = Tensor(np.zeros(dv), requires_grad=True)
        # Relaxation coefficients actually applied during the latest forward.
        self.last_gammas: dict[str, list[float]] = {"self": [], "cross": []}

    def parameters(self) -> dict[str, Tensor]:
        """Every learned tensor by name, e.g. "dec.1.cross_attn.wq", in a fixed
        order: embeddings, block fields in declaration order, output layer."""
        out: dict[str, Tensor] = {"emb_enc": self.emb_enc, "emb_dec": self.emb_dec}
        for prefix, blocks in (("enc", self.enc_blocks), ("dec", self.dec_blocks)):
            for i, blk in enumerate(blocks):
                for f in dataclasses.fields(blk):
                    for k, t in getattr(blk, f.name).tensors().items():
                        out[f"{prefix}.{i}.{f.name}.{k}"] = t
        out["out_w"] = self.out_w
        out["out_b"] = self.out_b
        return out

    # -- forward pieces ----------------------------------------------------

    def _layer_gammas(self, site: str, relax: RelaxationConfig, n: int,
                      phase: Phase) -> list[float]:
        """A site's n per-layer coefficients for this forward, in layer order;
        last_gammas[site] records them, or [] when the site is off."""
        gammas = [sample_fuzzy_gamma(relax, self._rng_gamma, phase) for _ in range(n)]
        self.last_gammas[site] = [] if relax.mode == MODE_OFF else gammas
        return gammas

    def _embed(self, table: Tensor, tokens: np.ndarray, phase: Phase,
               offset: int = 0) -> Tensor:
        length = offset + tokens.shape[-1]
        if length > self.config.max_len:
            raise ValueError(f"sequence length {length} exceeds max_len "
                             f"{self.config.max_len}")
        x = mul(embedding(table, tokens), math.sqrt(self.config.d_model))
        x = x + self.pos[offset:length]
        return dropout(x, self.config.dropout_residual, self._rng_dropout, phase)

    def encode(self, tokens, phase: Phase = Phase.EVAL) -> Tensor:
        """Encode source tokens ([T] or [B, T]) into [.., T, d_model]."""
        cfg, rng, p = self.config, self._rng_dropout, self.config.dropout_residual
        arr = check_token_sequence(tokens, cfg.vocab_size)
        x = self._embed(self.emb_enc, arr, phase)
        gammas = self._layer_gammas("self", cfg.relax_self, cfg.n_enc, phase)
        for blk, gamma in zip(self.enc_blocks, gammas):
            a = multi_head_attention(x, x, blk.attn, gamma, cfg.dropout_attention,
                                     rng, phase)
            x = blk.ln1(x, a, p, rng, phase)
            f = blk.ff(x, cfg.dropout_activation, rng, phase)
            x = blk.ln2(x, f, p, rng, phase)
        return x

    def _decode_from_embeddings(self, h: Tensor, y: Tensor, phase: Phase,
                                state: DecoderState | None = None) -> Tensor:
        """Decoder stack on pre-embedded targets; returns [.., L, D] probs.

        With a state, y is the one newest position of each row and attends
        over the cached positions before it, so no causal mask is needed.
        """
        cfg, rng, p = self.config, self._rng_dropout, self.config.dropout_residual
        mask = causal_mask(y.shape[-2]) if state is None else None
        gammas = self._layer_gammas("cross", cfg.relax_cross, cfg.n_dec, phase)
        x = y
        for i, (blk, gamma) in enumerate(zip(self.dec_blocks, gammas)):
            self_cache, cross_cache = (state.caches[i] if state is not None
                                       else (None, None))
            a = multi_head_attention(
                x, x, blk.self_attn, bias=mask, dropout_p=cfg.dropout_attention,
                rng=rng, phase=phase, cache=self_cache)
            x = blk.ln1(x, a, p, rng, phase)
            c = multi_head_attention(
                x, h, blk.cross_attn, gamma, cfg.dropout_attention, rng, phase,
                cache=cross_cache)
            x = blk.ln2(x, c, p, rng, phase)
            f = blk.ff(x, cfg.dropout_activation, rng, phase)
            x = blk.ln3(x, f, p, rng, phase)
        return softmax_rows(matmul(x, self.out_w) + self.out_b)

    def decode_probs(self, h: Tensor, y_tokens, phase: Phase = Phase.EVAL) -> Tensor:
        """Teacher-forced next-token probabilities for every prefix of y."""
        arr = np.asarray(y_tokens, dtype=np.int64)
        if arr.size == 0:
            raise ValueError("target prefix must be non-empty")
        y = self._embed(self.emb_dec, arr, phase)
        return self._decode_from_embeddings(h, y, phase)

    def decode_step(self, h: Tensor, prefixes) -> np.ndarray:
        """Eval-phase next-token probabilities given BOS-started prefixes:
        [D] for one [t] prefix, [B, D] for equal-length prefixes [B, t].

        Reruns the decoder over every full prefix; decode_next is the
        incremental form that search uses.
        """
        arr = np.asarray(prefixes, dtype=np.int64)
        if arr.ndim not in (1, 2) or arr.size == 0 or np.any(arr[..., 0] != BOS_ID):
            raise ValueError("prefix must be non-empty, [t] or [B, t], and "
                             "every row must start with BOS")
        return self.decode_probs(h, arr).data[..., -1, :]

    decode_step_batch = decode_step  # the name perfbench/tracing.py wraps

    def new_decoder_state(self) -> DecoderState:
        return DecoderState(len(self.dec_blocks))

    def decode_next(self, h: Tensor, tokens, state: DecoderState) -> np.ndarray:
        """Eval-phase next-token probabilities [R, D] after feeding tokens [R].

        Each row's prefix is every token fed to it through `state`, which
        this call extends by one position; the first call feeds BOS. h
        [N, T, d] is read on the first call only, when it fills the
        cross-attention caches with one row per source (R == N then);
        reorder the state between calls to follow beam parents. Equals
        decode_step on the full prefixes up to float reassociation.
        """
        arr = np.asarray(tokens, dtype=np.int64)[:, None]
        y = self._embed(self.emb_dec, arr, Phase.EVAL, offset=state.length)
        probs = self._decode_from_embeddings(h, y, Phase.EVAL, state)
        state.length += 1
        return probs.data[:, -1, :]

    def forward_teacher_forced(self, x_tokens, y_tokens,
                               phase: Phase = Phase.EVAL) -> Tensor:
        """Probabilities [.., L, D]; row l conditions on y[.., :l+1]."""
        h = self.encode(x_tokens, phase)
        return self.decode_probs(h, y_tokens, phase)
