"""Attention-weight machinery.

One attention kernel, multi_head_attention, and the regularizers built on it:
relaxed attention (a convex blend of the row-stochastic weights with the
uniform distribution over key positions), its fuzzy variant (the relaxation
coefficient drawn from a normal distribution during training), windowed
attention with a relative position bias, and dropout, used at every dropout
site. The kernel is one autodiff node from its inputs through the Q/K/V
projections, the softmax weights and the output projection, chaining the
NumPy (output, pullback) helpers that the one-node Tensor functions wrap.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream
from .tensor import (ShapeError, Tensor, _apply_dropout, _const, _linear_vjp,
                     _node, _softmax, _unary, _unbroadcast, embedding,
                     reshape, transpose)

# Additive sentinel for masked logits. Large but finite: exp(sentinel - max)
# underflows to exactly 0, so masked positions get zero weight and zero
# gradient without producing NaN in backward.
MASK_SENTINEL = -1e30

MODE_OFF = "off"
MODE_TRAIN_ONLY = "train_only"
MODE_MATCHED = "matched"
_MODES = (MODE_OFF, MODE_TRAIN_ONLY, MODE_MATCHED)


class Phase(enum.Enum):
    TRAIN = "train"
    EVAL = "eval"


@dataclass(frozen=True)
class RelaxationConfig:
    """Per-attention-site relaxation settings.

    gamma0 is the relaxation coefficient in [0, 1]; sigma2 the fuzzy variance;
    mode decides whether relaxation applies in training only or also at
    inference (matched). mode "off" is bit-identical to standard attention in
    both phases.
    """

    gamma0: float = 0.0
    sigma2: float = 0.0
    mode: str = MODE_OFF
    fuzzy: bool = False

    def __post_init__(self):
        if not 0.0 <= self.gamma0 <= 1.0:
            raise ValueError(f"gamma0 must be in [0, 1], got {self.gamma0}")
        if self.sigma2 < 0.0:
            raise ValueError(f"sigma2 must be >= 0, got {self.sigma2}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.fuzzy and self.sigma2 <= 0.0:
            raise ValueError("fuzzy relaxation requires sigma2 > 0")


def sample_fuzzy_gamma(cfg: RelaxationConfig, rng: RngStream | None,
                       phase: Phase) -> float:
    """Resolve the relaxation coefficient for one forward pass of one layer.

    Training draws gamma ~ N(gamma0, sigma2) when fuzzy (clamped to [0, 1]),
    otherwise uses gamma0. Eval uses gamma0 exactly under matched mode and 0
    under train-only mode. Consumes randomness only for fuzzy training draws,
    so non-fuzzy configs stay bit-reproducible against mode "off".
    """
    if cfg.mode == MODE_OFF:
        return 0.0
    if phase == Phase.EVAL:
        return cfg.gamma0 if cfg.mode == MODE_MATCHED else 0.0
    if cfg.fuzzy:
        if rng is None:
            raise ValueError("fuzzy relaxation needs an RngStream in training")
        draw = rng.normal(mean=cfg.gamma0, std=math.sqrt(cfg.sigma2))
        return min(1.0, max(0.0, draw))
    return cfg.gamma0


def _check_gamma(gamma: float) -> None:
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"relaxation coefficient must be in [0, 1], got {gamma}")


def _relax(g: np.ndarray, gamma: float):
    """g + gamma * (1/L - g) over the last axis, and its pullback; each
    direction allocates one array and leaves its argument unchanged."""
    out = 1.0 / g.shape[-1] - g
    out *= gamma
    out += g

    def pullback(gg):
        gx = gg * gamma
        np.subtract(gg, gx, out=gx)
        return gx

    return out, pullback


def relax_weights(g: Tensor, gamma: float) -> Tensor:
    """Blend row-stochastic weights with the uniform distribution.

    Returns (1 - gamma) * g + gamma / L over the L = g.shape[-1] key
    positions, applied identically to every head. gamma == 0 returns g
    unchanged (bit-identical). Computed in the anchored form
    g + gamma * (1/L - g), which is exact when a row is already uniform
    (e.g. a single key position) for any gamma.
    """
    _check_gamma(gamma)
    if gamma == 0.0:
        return g
    return _unary(g, *_relax(g.data, gamma))


def _dropout_mask(shape, p: float, rng: RngStream | None,
                  phase: Phase) -> tuple[np.ndarray, float] | None:
    """Inverted dropout's draw: the boolean keep mask k, one byte per entry,
    and the survivor scale s = 1/(1-p); None in eval and at p == 0. A
    consumer multiplies by k and then by s. k * s is 0.0 or s, so
    (x * k) * s == x * (k * s) for every float x, the float multiplier's
    result bit for bit."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if phase == Phase.EVAL or p == 0.0:
        return None
    if rng is None:
        raise ValueError("dropout needs an RngStream in training")
    return rng.bernoulli_mask(shape, 1.0 - p), 1.0 / (1.0 - p)


def dropout(g: Tensor, p: float, rng: RngStream | None, phase: Phase) -> Tensor:
    """Inverted dropout, at every site: attention weights, residual, activation.

    Training zeroes entries with probability p and scales survivors by
    1/(1-p); eval is the identity. On attention weights, rows may leave the
    probability simplex afterwards -- expected, the weights are no longer
    probabilities. p == 0 draws no randomness.
    """
    mask = _dropout_mask(g.shape, p, rng, phase)
    if mask is None:
        return g
    return _unary(g, _apply_dropout(g.data, mask),
                  lambda gg: _apply_dropout(gg, mask))


def causal_mask(n: int) -> np.ndarray:
    """Additive [n, n] mask closing off future positions."""
    m = np.zeros((n, n))
    m[np.triu_indices(n, k=1)] = MASK_SENTINEL
    return m


# ---------------------------------------------------------------------------
# multi-head attention


@dataclass
class MhaParams:
    """Projections for one multi-head attention site.

    w_q/w_k/w_v are [d, d]; column block i (width d / n_heads) is head i's
    projection. w_o is the [d, d] output projection applied after
    concatenating the head outputs.
    """

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    n_heads: int
    d_model: int

    @classmethod
    def init(cls, d: int, n_heads: int, rng: RngStream) -> "MhaParams":
        if d % n_heads != 0:
            raise ValueError(f"model dim {d} not divisible by {n_heads} heads")
        lim = 1.0 / math.sqrt(d)

        def w():
            return Tensor(rng.uniform((d, d), -lim, lim), requires_grad=True)

        return cls(w_q=w(), w_k=w(), w_v=w(), w_o=w(), n_heads=n_heads, d_model=d)

    def tensors(self) -> dict[str, Tensor]:
        return {"w_q": self.w_q, "w_k": self.w_k, "w_v": self.w_v, "w_o": self.w_o}


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """[..., L, d] -> contiguous [..., n_heads, L, d/n_heads]."""
    *lead, length, d = x.shape
    split = x.reshape(*lead, length, n_heads, d // n_heads)
    return np.ascontiguousarray(np.swapaxes(split, -2, -3))


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """[..., n_heads, L, dh] -> [..., L, n_heads * dh]."""
    *lead, n_heads, length, dh = x.shape
    return np.swapaxes(x, -2, -3).reshape(*lead, length, n_heads * dh)


class KvCache:
    """Projected keys and values of one attention site across decode steps.

    This is the incremental state of fairseq (Ott et al. 2019): each step
    feeds multi_head_attention only the newest query position. A
    self-attention cache appends that step's projected keys/values and
    attends over all positions so far; reorder() gathers its rows, e.g. by
    beam parent. A static cache (cross attention over a fixed encoder
    output) projects its keys/values on the first call, one row per source,
    and never copies them: reorder() composes `rows`, the stored row of each
    live row, and each call gathers its rows through it. Keys are stored
    transposed and contiguous, [rows, n_heads, d/n_heads, L]; values are
    [rows, n_heads, L, d/n_heads]. Inference only: a cached
    multi_head_attention call builds no autodiff node.
    """

    def __init__(self, static: bool = False):
        self.static = static
        self.kt: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.rows: np.ndarray | None = None  # None: row i is stored row i

    def keys_values(self, kv: Tensor,
                    params: MhaParams) -> tuple[np.ndarray, np.ndarray]:
        """This call's transposed keys and values, one row per live row."""
        if self.kt is None or not self.static:
            kh, vh = _project_kv(kv, params)
            kt = np.swapaxes(kh, -1, -2)
            if self.kt is not None:
                kt = np.concatenate([self.kt, kt], axis=-1)
                vh = np.concatenate([self.v, vh], axis=-2)
            self.kt, self.v = np.ascontiguousarray(kt), vh
        if self.rows is None:
            return self.kt, self.v
        return self.kt[self.rows], self.v[self.rows]

    def reorder(self, rows: np.ndarray) -> None:
        if self.static:
            self.rows = rows if self.rows is None else self.rows[rows]
        elif self.kt is not None:
            self.kt, self.v = self.kt[rows], self.v[rows]


def _project_kv(kv: Tensor, params: MhaParams) -> tuple[np.ndarray, np.ndarray]:
    """kv's keys and values, split into heads: two [.., n_heads, L, dh]."""
    return tuple(_split_heads(kv.data @ w.data, params.n_heads)
                 for w in (params.w_k, params.w_v))


def multi_head_attention(q: Tensor, kv: Tensor, params: MhaParams,
                         gamma: float = 0.0, dropout_p: float = 0.0,
                         rng: RngStream | None = None,
                         phase: Phase = Phase.EVAL, *,
                         bias: Tensor | np.ndarray | None = None,
                         scale: float | None = None,
                         cache: KvCache | None = None) -> Tensor:
    """The attention kernel: logits, softmax, relaxation, dropout, values.

    Keys and values are both projections of kv: the queries' own sequence
    for self-attention, the encoder output for cross attention. Per head,
    logits Q W_q (KV W_k)^T are scaled by 1/sqrt(d_model) (or `scale`), plus
    the additive `bias`: the decoder's causal mask array or the windowed
    variant's position-bias Tensor. q/kv may carry leading batch axes. One
    relaxation coefficient gamma per call, shared by every head and batch
    element; the model resolves it per layer and phase. The
    sublayer is one node: q, kv, the projections and a Tensor bias are its
    parents. With a cache, keys and values come from, and go into, a
    decoding KvCache, and the call is forward-only: its result has no
    parents, whether taping is on or not.
    """
    _check_gamma(gamma)
    d, n_heads = params.d_model, params.n_heads
    if q.shape[-1] != d or kv.shape[-1] != d:
        raise ShapeError(f"q/kv feature dims {q.shape[-1]}/{kv.shape[-1]} "
                         f"must equal model dim {d}")
    w_q, w_k, w_v, w_o = (w.data for w in params.tensors().values())
    scale = 1.0 / math.sqrt(d) if scale is None else scale
    qh = _split_heads(q.data @ w_q, n_heads)
    if cache is None:
        kh, vh = _project_kv(kv, params)
        logits = qh @ np.ascontiguousarray(np.swapaxes(kh, -1, -2))
    else:
        kt, vh = cache.keys_values(kv, params)
        logits = qh @ kt
        del kt  # a static cache's gathered rows
    logits *= scale
    if bias is not None:  # a bias broadcasts into the logits' shape
        logits += _const(bias)
    a, weights_vjp = _softmax(logits)
    if gamma != 0.0:
        a, relax_vjp = _relax(a, gamma)
    # the pullback rebuilds the dropped weights from a rather than hold them:
    # Chen et al. 2016's store-or-recompute trade, for two multiplies
    mask = _dropout_mask(a.shape, dropout_p, rng, phase)
    heads = _merge_heads(_apply_dropout(a, mask) @ vh)
    if cache is not None:
        return Tensor(heads @ w_o)
    parents = (q, kv, *params.tensors().values())
    qd, kvd, bias_shape = q.data, kv.data, None
    if isinstance(bias, Tensor):
        parents += (bias,)
        bias_shape = bias.shape

    def vjp(g):
        g_heads, g_wo = _linear_vjp(heads, w_o, g)
        go = _split_heads(g_heads, n_heads)
        vt = np.ascontiguousarray(np.swapaxes(vh, -1, -2))
        # gl, this pullback's own array, runs back from the weights to the
        # logits; one name, so each stage frees the one before
        gl = _unbroadcast(go @ vt, a.shape)
        if mask is not None:
            gl *= mask[0]
            gl *= mask[1]
        if gamma != 0.0:
            gl = relax_vjp(gl)
        gl = weights_vjp(gl)
        g_bias = None
        if bias_shape is not None:  # taken before gl is scaled in place
            g_bias = _unbroadcast(gl, bias_shape)
            if g_bias is gl:
                g_bias = gl.copy()
        gl *= scale
        gq, g_wq = _linear_vjp(qd, w_q,
                               _merge_heads(_unbroadcast(gl @ kh, qh.shape)))
        gk = _unbroadcast(np.swapaxes(gl, -1, -2) @ qh, kh.shape)
        gv = _unbroadcast(np.swapaxes(_apply_dropout(a, mask), -1, -2) @ go,
                          vh.shape)
        gkv_k, g_wk = _linear_vjp(kvd, w_k, _merge_heads(gk))
        gkv_v, g_wv = _linear_vjp(kvd, w_v, _merge_heads(gv))
        grads = [gq, gkv_k + gkv_v, g_wq, g_wk, g_wv, g_wo]
        if g_bias is not None:
            grads.append(g_bias)
        return grads

    return _node(heads @ w_o, parents, vjp)


# ---------------------------------------------------------------------------
# windowed attention with relative position bias


@dataclass
class WindowAttnParams:
    """MhaParams over the channel dim plus a relative position bias table.

    The table has one row per relative offset in (-m, m) x (-m, m) and one
    column per head; rel_index maps (query slot, key slot) pairs within an
    m x m window to table rows.
    """

    mha: MhaParams
    bias_table: Tensor
    window: int
    rel_index: np.ndarray

    @classmethod
    def init(cls, channels: int, n_heads: int, window: int,
             rng: RngStream) -> "WindowAttnParams":
        mha = MhaParams.init(channels, n_heads, rng)
        n_rel = (2 * window - 1) ** 2
        table = Tensor(rng.normal((n_rel, n_heads), 0.0, 0.02), requires_grad=True)
        return cls(mha=mha, bias_table=table, window=window,
                   rel_index=relative_position_index(window))

    def tensors(self) -> dict[str, Tensor]:
        out = self.mha.tensors()
        out["bias_table"] = self.bias_table
        return out


def relative_position_index(m: int) -> np.ndarray:
    """[m^2, m^2] table-row index for each (query, key) slot pair."""
    coords = np.stack(np.meshgrid(np.arange(m), np.arange(m), indexing="ij"))
    flat = coords.reshape(2, -1)  # (2, m^2)
    rel = flat[:, :, None] - flat[:, None, :]  # (2, m^2, m^2), in (-m, m)
    rel = rel + (m - 1)
    return rel[0] * (2 * m - 1) + rel[1]


def position_bias(params: WindowAttnParams) -> Tensor:
    """[n_heads, m^2, m^2] additive bias realized from the table."""
    m2 = params.window ** 2
    rows = embedding(params.bias_table, params.rel_index.reshape(-1))
    b = reshape(rows, (m2, m2, params.mha.n_heads))
    return transpose(b, (2, 0, 1))


def window_partition(x: Tensor, m: int) -> Tensor:
    """[..., h, w, c] -> [..., h*w/m^2, m^2, c], windows in row-major order."""
    *lead, h, w, c = x.shape
    if h % m != 0 or w % m != 0:
        raise ShapeError(f"spatial dims {h}x{w} not divisible by window {m}")
    n = len(lead)
    r = reshape(x, (*lead, h // m, m, w // m, m, c))
    t = transpose(r, (*range(n), n, n + 2, n + 1, n + 3, n + 4))
    return reshape(t, (*lead, (h // m) * (w // m), m * m, c))


def window_merge(x: Tensor, m: int, h: int, w: int) -> Tensor:
    """Inverse of window_partition; exact round trip."""
    *lead, nw, m2, c = x.shape
    if nw != (h // m) * (w // m) or m2 != m * m:
        raise ShapeError(f"window layout {nw}x{m2} does not match {h}x{w}, m={m}")
    n = len(lead)
    r = reshape(x, (*lead, h // m, w // m, m, m, c))
    t = transpose(r, (*range(n), n, n + 2, n + 1, n + 3, n + 4))
    return reshape(t, (*lead, h, w, c))


def windowed_mha(x: Tensor, params: WindowAttnParams,
                 gamma: float = 0.0) -> Tensor:
    """Self-attention within non-overlapping m x m windows, without dropout.

    Logits get the relative position bias added before normalization and are
    scaled by 1/sqrt(c/4); relaxation blends toward uniform over the fixed
    m^2 positions of a window. Output has the input's spatial layout.
    """
    *_, h, w, c = x.shape
    m = params.window
    windows = window_partition(x, m)
    out = multi_head_attention(
        windows, windows, params.mha, gamma, bias=position_bias(params),
        scale=1.0 / math.sqrt(c / 4.0))
    return window_merge(out, m, h, w)
