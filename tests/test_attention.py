"""Attention machinery: relaxation, fuzzy sampling, MHA, windowed attention. Reference values come from straight-line numpy
re-implementations, closed forms, or finite differences."""

import dataclasses
import math

import numpy as np
import pytest

from helpers import (assert_matches_oracle, dropout_multiplier, fd_grad,
                     rel_err, random_stochastic_rows)
from ratn.attention import (MASK_SENTINEL, KvCache, MhaParams, Phase,
                            RelaxationConfig, WindowAttnParams, causal_mask,
                            dropout, multi_head_attention, position_bias,
                            relative_position_index, relax_weights,
                            sample_fuzzy_gamma, window_merge, window_partition,
                            windowed_mha)
from ratn.metrics import attention_entropy
from ratn.rng import RngStream
from ratn.tensor import (ShapeError, Tensor, add, backward, finite_diff_grad,
                         matmul, mul, reshape, softmax_rows, transpose)


# ---------------------------------------------------------------------------
# relax_weights


def test_relax_gamma_zero_is_bit_identical():
    g = Tensor(random_stochastic_rows(RngStream(0, "t"), (4, 6)))
    out = relax_weights(g, 0.0)
    assert out is g


def test_relax_gamma_one_is_uniform():
    g = Tensor(random_stochastic_rows(RngStream(1, "t"), (3, 4)))
    out = relax_weights(g, 1.0)
    assert np.abs(out.data - 0.25).max() < 1e-15


def test_relax_worked_row():
    g = Tensor([[0.7, 0.2, 0.1]])
    out = relax_weights(g, 0.2).data[0]
    assert rel_err(out, [0.62667, 0.22667, 0.14667]) < 1e-4
    expected = 0.8 * np.array([0.7, 0.2, 0.1]) + 0.2 / 3
    assert rel_err(out, expected) < 1e-15


def test_relax_validation():
    # relax_weights and the kernel reject a gamma outside [0, 1] alike
    g = Tensor(random_stochastic_rows(RngStream(2, "t"), (2, 3)))
    x = Tensor(RngStream(41, "t").normal((3, 4)))
    params = MhaParams.init(4, 2, RngStream(40, "init"))
    for relax in (lambda: relax_weights(g, 1.2),
                  lambda: multi_head_attention(x, x, params, 1.2)):
        with pytest.raises(ValueError, match=r"must be in \[0, 1\], got 1.2"):
            relax()


def test_relax_simplex_and_bounds_property():
    rng = RngStream(3, "t")
    for gamma in (0.0, 0.1, 0.37, 0.9, 1.0):
        g = random_stochastic_rows(rng, (50, 7))
        out = relax_weights(Tensor(g), gamma).data
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-12
        assert out.min() >= gamma / 7 - 1e-12
        assert out.max() <= 1 - gamma + gamma / 7 + 1e-12


def test_relax_entropy_monotonicity():
    rng = RngStream(4, "t")
    g = random_stochastic_rows(rng, (200, 5))
    before = attention_entropy(g)
    for gamma in (0.05, 0.3, 0.8, 1.0):
        after = attention_entropy(relax_weights(Tensor(g), gamma).data)
        assert np.all(after >= before - 1e-12)
        assert np.all(after > before)  # rows above are non-uniform w.p. 1


def test_relax_peak_damping():
    rng = RngStream(5, "t")
    g = random_stochastic_rows(rng, (100, 6))
    for gamma in (0.2, 0.9):
        out = relax_weights(Tensor(g), gamma).data
        assert np.all(out.max(axis=-1) <= g.max(axis=-1) + 1e-15)
        assert np.all(out.max(axis=-1) < g.max(axis=-1))  # non-uniform rows
    uniform = np.full((1, 6), 1 / 6)
    out = relax_weights(Tensor(uniform), 0.5).data
    assert np.abs(out - uniform).max() < 1e-15


def test_relax_composition_law():
    rng = RngStream(6, "t")
    g = random_stochastic_rows(rng, (20, 5))
    for a in (0.1, 0.5, 0.9):
        for b in (0.0, 0.3, 1.0):
            lhs = relax_weights(relax_weights(Tensor(g), a), b).data
            rhs = relax_weights(Tensor(g), a + b - a * b).data
            assert np.abs(lhs - rhs).max() < 1e-12


def test_relax_jacobian_is_scaled_identity():
    rng = RngStream(7, "t")
    w = rng.normal((4, 5))
    gamma = 0.35
    g = Tensor(random_stochastic_rows(rng, (4, 5)), requires_grad=True)

    def f(t):
        return (relax_weights(t, gamma) * w).sum()

    backward(f(g))
    assert rel_err(g.grad, (1 - gamma) * w) < 1e-12
    assert rel_err(finite_diff_grad(f, g), (1 - gamma) * w) < 1e-6


def test_relax_single_key_position_exact_one():
    for gamma in (0.0, 0.3, 0.77, 1.0):
        g = softmax_rows(Tensor([[2.31]]))
        out = relax_weights(g, gamma)
        assert out.data[0, 0] == 1.0


# ---------------------------------------------------------------------------
# fuzzy gamma


def test_fuzzy_gamma_degenerate_variance():
    cfg = RelaxationConfig(gamma0=0.17, sigma2=0.0, mode="matched")
    assert sample_fuzzy_gamma(cfg, RngStream(0, "g"), Phase.TRAIN) == 0.17


def test_fuzzy_gamma_eval_matched_is_exact():
    cfg = RelaxationConfig(gamma0=0.1, sigma2=0.0009, mode="matched", fuzzy=True)
    assert sample_fuzzy_gamma(cfg, None, Phase.EVAL) == 0.1


def test_fuzzy_gamma_eval_train_only_is_zero():
    cfg = RelaxationConfig(gamma0=0.25, mode="train_only")
    assert sample_fuzzy_gamma(cfg, None, Phase.EVAL) == 0.0


def test_fuzzy_gamma_off_mode():
    cfg = RelaxationConfig(gamma0=0.5, mode="off")
    assert sample_fuzzy_gamma(cfg, None, Phase.TRAIN) == 0.0


def test_fuzzy_gamma_train_draw_statistics():
    cfg = RelaxationConfig(gamma0=0.1, sigma2=0.03 ** 2, mode="matched", fuzzy=True)
    rng = RngStream(123, "fuzzy-gamma")
    n = 20000
    draws = np.array([sample_fuzzy_gamma(cfg, rng, Phase.TRAIN) for _ in range(n)])
    assert draws.min() >= 0.0 and draws.max() <= 1.0
    assert abs(draws.mean() - 0.1) < 3 * 0.03 / math.sqrt(n)
    assert abs(draws.std() - 0.03) < 0.003


def test_fuzzy_requires_positive_variance():
    with pytest.raises(ValueError):
        RelaxationConfig(gamma0=0.1, sigma2=0.0, mode="matched", fuzzy=True)


# ---------------------------------------------------------------------------
# attention dropout


def test_attention_dropout_identity_cases():
    g = Tensor(random_stochastic_rows(RngStream(9, "t"), (3, 4)))
    assert dropout(g, 0.0, None, Phase.TRAIN) is g
    assert dropout(g, 0.7, None, Phase.EVAL) is g


def test_attention_dropout_survivor_statistics():
    rng = RngStream(10, "dropout")
    g = Tensor(np.ones((400, 250)))
    out = dropout(g, 0.5, rng, Phase.TRAIN).data
    survivors = np.count_nonzero(out)
    assert abs(survivors / out.size - 0.5) < 0.01
    assert np.allclose(out[out != 0], 2.0)  # inverted scaling by 1/(1-p)


def test_attention_dropout_validates_p():
    g = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        dropout(g, 1.0, None, Phase.TRAIN)


# ---------------------------------------------------------------------------
# attention heads

# Case ids of the kernel's gradient and oracle tests name the weight function
# they check, so test records stay comparable across revisions.
_SOFTMAX_IDS = [f"softmax-{g}" for g in (0.0, 0.3)]


def _straight_line_head(q, k, v, params, head):
    """Independent numpy re-implementation of one softmax head."""
    d, nh = params.d_model, params.n_heads
    dh = d // nh
    wq = params.w_q.data[:, head * dh:(head + 1) * dh]
    wk = params.w_k.data[:, head * dh:(head + 1) * dh]
    wv = params.w_v.data[:, head * dh:(head + 1) * dh]
    e = (q @ wq) @ (k @ wk).T / math.sqrt(d)
    w = np.exp(e - e.max(axis=-1, keepdims=True))
    w = w / w.sum(axis=-1, keepdims=True)
    return w @ (v @ wv)


def test_attention_head_matches_straight_line_oracle():
    # With an identity output projection, column block i of the kernel's
    # output is head i's output.
    rng = RngStream(11, "t")
    params = MhaParams.init(6, 2, RngStream(12, "init"))
    q = rng.normal((2, 6))
    kv = rng.normal((3, 6))
    unprojected = dataclasses.replace(params, w_o=Tensor(np.eye(6)))
    out = multi_head_attention(Tensor(q), Tensor(kv), unprojected)
    for head in (0, 1):
        ref = _straight_line_head(q, kv, kv, params, head)
        assert rel_err(out.data[:, head * 3:(head + 1) * 3], ref) < 1e-12


def test_mha_single_head_equals_attention_head_plus_projection():
    rng = RngStream(17, "t")
    params = MhaParams.init(6, 1, RngStream(18, "init"))
    q = rng.normal((4, 6))
    kv = rng.normal((3, 6))
    full = multi_head_attention(Tensor(q), Tensor(kv), params)
    manual = _straight_line_head(q, kv, kv, params, 0) @ params.w_o.data
    assert rel_err(full.data, manual) < 1e-12


def test_mha_single_key_position():
    rng = RngStream(13, "t")
    params = MhaParams.init(4, 2, RngStream(14, "init"))
    q = Tensor(rng.normal((3, 4)))
    kv = Tensor(rng.normal((1, 4)))
    expected = np.broadcast_to(kv.data @ params.w_v.data @ params.w_o.data, (3, 4))
    for gamma in (0.0, 0.4, 1.0):
        out = multi_head_attention(q, kv, params, gamma)
        assert rel_err(out.data, expected) < 1e-12


def test_mha_gamma_one_ignores_query():
    rng = RngStream(15, "t")
    params = MhaParams.init(4, 2, RngStream(16, "init"))
    kv = Tensor(rng.normal((5, 4)))
    out1 = multi_head_attention(Tensor(rng.normal((2, 4))), kv, params, 1.0)
    out2 = multi_head_attention(Tensor(rng.normal((2, 4))), kv, params, 1.0)
    assert np.abs(out1.data - out2.data).max() < 1e-12
    expected = (kv.data @ params.w_v.data).mean(axis=0) @ params.w_o.data
    assert rel_err(out1.data, np.broadcast_to(expected, (2, 4))) < 1e-12


def test_mha_self_attention_aliasing_equivalence():
    rng = RngStream(19, "t")
    params = MhaParams.init(8, 2, RngStream(20, "init"))
    h = rng.normal((5, 8))
    a = multi_head_attention(Tensor(h), Tensor(h), params)
    hh = Tensor(h)
    b = multi_head_attention(hh, hh, params)
    assert np.array_equal(a.data, b.data)


def test_mha_gradient_with_relaxation():
    rng = RngStream(21, "t")
    params = MhaParams.init(8, 2, RngStream(22, "init"))
    kv = Tensor(rng.normal((5, 8)))
    w = rng.normal((5, 8))
    q = Tensor(rng.normal((5, 8)), requires_grad=True)

    def f(t):
        return (multi_head_attention(t, kv, params, 0.3) * w).sum()

    backward(f(q))
    assert rel_err(q.grad, finite_diff_grad(f, q)) < 1e-5


@pytest.mark.parametrize("phase", [Phase.EVAL, Phase.TRAIN])
@pytest.mark.parametrize("gamma", [0.0, 0.3], ids=_SOFTMAX_IDS)
def test_attention_gradients_match_finite_differences(gamma, phase):
    # Every input of the attention node: a cross call (q, kv), a causal
    # self-attention call with q aliased to kv, and the four projections.
    # In TRAIN, attention dropout 0.1 draws from a stream re-created for
    # every evaluation, so each one applies the same mask.
    d, rng = 8, RngStream(50, "t")
    params = MhaParams.init(d, 2, RngStream(51, "init"))
    q = Tensor(rng.normal((2, 3, d)), requires_grad=True)
    kv = Tensor(rng.normal((2, 4, d)), requires_grad=True)
    x = Tensor(rng.normal((2, 4, d)), requires_grad=True)
    probe_q, probe_x = rng.normal((2, 3, d)), rng.normal((2, 4, d))
    p = 0.1 if phase == Phase.TRAIN else 0.0

    def attend(a, b, seed, bias=None):
        return multi_head_attention(a, b, params, gamma, dropout_p=p,
                                    rng=RngStream(seed, "dropout"), phase=phase,
                                    bias=bias)

    def loss():
        return ((attend(q, kv, 52) * probe_q).sum()
                + (attend(x, x, 53, causal_mask(4)) * probe_x).sum())

    if phase == Phase.TRAIN:  # the mask drops something
        assert not np.array_equal(attend(q, kv, 52).data,
                                  multi_head_attention(q, kv, params,
                                                       gamma).data)
    leaves = [q, kv, x, *params.tensors().values()]
    for leaf in leaves:
        leaf.grad = None
    backward(loss())
    for name, leaf in zip(["q", "kv", "x", *params.tensors()], leaves):
        assert rel_err(leaf.grad, fd_grad(loss, leaf)) < 1e-7, name


@pytest.mark.parametrize("phase", [Phase.EVAL, Phase.TRAIN])
@pytest.mark.parametrize("gamma", [0.0, 0.3])
def test_windowed_attention_gradients_match_finite_differences(gamma, phase):
    # The position bias table enters the attention node as a Tensor bias;
    # 8 channels make the logit scale 1/sqrt(2), not 1. Windowed attention
    # has no dropout; the kernel's dropout pullback is checked in
    # test_attention_gradients_match_finite_differences.
    params = WindowAttnParams.init(8, 2, 2, RngStream(54, "init"))
    rng = RngStream(55, "t")
    x = Tensor(rng.normal((2, 4, 4, 8)), requires_grad=True)
    probe = rng.normal((2, 4, 4, 8))

    def loss():
        return (windowed_mha(x, params, gamma) * probe).sum()

    leaves = [x, *params.tensors().values()]
    for leaf in leaves:
        leaf.grad = None
    backward(loss())
    for name, leaf in zip(["x", *params.tensors()], leaves):
        assert rel_err(leaf.grad, fd_grad(loss, leaf)) < 1e-7, name


def test_cached_attention_call_is_forward_only():
    # Taping on and every parameter requiring grad: a cached call still
    # builds no node, and its values equal the uncached call's on the same
    # prefix: bit for bit through a static cache, and up to rounding through
    # a self-attention cache, which projects one position per step.
    d, rng = 8, RngStream(57, "t")
    params = MhaParams.init(d, 2, RngStream(58, "init"))
    x = rng.normal((3, 5, d))
    h = Tensor(rng.normal((3, 5, d)), requires_grad=True)
    static, self_cache = KvCache(static=True), KvCache()
    for t in range(5):
        q = x[:, t:t + 1]
        cross = multi_head_attention(Tensor(q, requires_grad=True), h, params,
                                     0.3, cache=static)
        step = multi_head_attention(Tensor(q, requires_grad=True), Tensor(q),
                                    params, 0.3, cache=self_cache)
        for out in (cross, step):
            assert out._parents == () and out._vjp is None
            assert not out.requires_grad
        plain = multi_head_attention(Tensor(q), h, params, 0.3)
        assert np.array_equal(cross.data, plain.data)
        prefix = multi_head_attention(Tensor(q), Tensor(x[:, :t + 1]),
                                      params, 0.3)
        assert np.abs(step.data - prefix.data).max() < 1e-14


def _generic_heads(t: Tensor, n_heads: int) -> Tensor:
    """[..., L, d] -> [..., n_heads, L, d/n_heads] with generic ops."""
    *lead, length, d = t.shape
    n = len(lead)
    r = reshape(t, (*lead, length, n_heads, d // n_heads))
    return transpose(r, (*range(n), n + 1, n, n + 2))


def _generic_attention(q, kv, params, gamma, keep, bias, scale):
    """The attention sublayer written with generic ops, one node per op."""
    qh, kh, vh = (_generic_heads(matmul(t, w), params.n_heads)
                  for t, w in ((q, params.w_q), (kv, params.w_k),
                               (kv, params.w_v)))
    n = kh.ndim
    logits = mul(matmul(qh, transpose(kh, (*range(n - 2), n - 1, n - 2))), scale)
    if bias is not None:
        logits = add(logits, bias)
    weights = relax_weights(softmax_rows(logits), gamma)
    if keep is not None:
        weights = mul(weights, keep)
    out = matmul(weights, vh)
    *lead, n_heads, length, dh = out.shape
    m = len(lead)
    merged = reshape(transpose(out, (*range(m), m + 1, m, m + 2)),
                     (*lead, length, n_heads * dh))
    return matmul(merged, params.w_o)


_ORACLE_SITES = {
    # name: (q shape, kv shape or None for self-attention, bias kind)
    "cross": ((2, 3, 8), (2, 4, 8), None),
    "causal_self": ((2, 4, 8), None, "causal"),
    "broadcast_kv": ((2, 3, 8), (4, 8), None),
    "windowed_5d": ((2, 3, 4, 8), None, "table"),
    # a bias Tensor of the logits' own shape: its gradient is the logits'
    "full_bias": ((2, 3, 8), (2, 4, 8), "full"),
}


@pytest.mark.parametrize("phase", [Phase.EVAL, Phase.TRAIN])
@pytest.mark.parametrize("gamma", [0.0, 0.3], ids=_SOFTMAX_IDS)
@pytest.mark.parametrize("site", sorted(_ORACLE_SITES))
def test_attention_node_matches_generic_op_oracle(site, gamma, phase):
    # Forward bit for bit; every gradient, the projections and W_o included,
    # to 1e-12 (only the order of summed contributions may differ).
    q_shape, kv_shape, bias_kind = _ORACLE_SITES[site]
    rng = RngStream(60, site)
    params = WindowAttnParams.init(8, 2, 2, RngStream(61, "init"))
    mha = params.mha
    q = Tensor(rng.normal(q_shape), requires_grad=True)
    kv = q if kv_shape is None else Tensor(rng.normal(kv_shape),
                                           requires_grad=True)
    logits_shape = (*q_shape[:-2], 2, q_shape[-2], (kv_shape or q_shape)[-2])
    full = (Tensor(rng.normal(logits_shape), requires_grad=True)
            if bias_kind == "full" else None)
    p = 0.2 if phase == Phase.TRAIN else 0.0
    scale = 0.4

    def bias():
        if bias_kind == "causal":
            return causal_mask(q_shape[-2])
        return position_bias(params) if bias_kind == "table" else full

    fused = multi_head_attention(q, kv, mha, gamma, dropout_p=p,
                                 rng=RngStream(62, "dropout"), phase=phase,
                                 bias=bias(), scale=scale)
    keep = dropout_multiplier(logits_shape, p, RngStream(62, "dropout"), phase)
    generic = _generic_attention(q, kv, mha, gamma, keep, bias(), scale)
    leaves = {"q": q, "kv": kv, **params.tensors()}
    if bias_kind != "table":
        del leaves["bias_table"]
    if full is not None:
        leaves["bias"] = full
    assert_matches_oracle(fused, generic, leaves, rng.normal(fused.shape))


def test_mha_shape_validation():
    params = MhaParams.init(4, 2, RngStream(23, "init"))
    with pytest.raises(ShapeError):
        multi_head_attention(Tensor(np.zeros((2, 6))), Tensor(np.zeros((2, 4))),
                             params)


def test_causal_mask_blocks_future():
    m = causal_mask(4)
    assert np.all(m[np.triu_indices(4, k=1)] == MASK_SENTINEL)
    assert np.all(m[np.tril_indices(4)] == 0.0)
    weights = softmax_rows(Tensor(np.zeros((4, 4)) + m)).data
    assert np.all(weights[np.triu_indices(4, k=1)] == 0.0)


# ---------------------------------------------------------------------------
# windowed attention


def test_window_partition_2x2_single_window():
    x = Tensor(np.arange(4.0).reshape(2, 2, 1))
    out = window_partition(x, 2)
    assert out.shape == (1, 4, 1)
    assert np.array_equal(out.data.reshape(-1), [0, 1, 2, 3])


def test_window_partition_index_arithmetic():
    x = np.zeros((4, 4, 1))
    x[2, 3, 0] = 9.0
    out = window_partition(Tensor(x), 2)
    assert out.shape == (4, 4, 1)
    assert out.data[3, 1, 0] == 9.0  # window 3, slot 1


def test_window_round_trip_bit_exact():
    x = RngStream(24, "t").normal((8, 8, 16))
    merged = window_merge(window_partition(Tensor(x), 2), 2, 8, 8)
    assert np.array_equal(merged.data, x)


def test_window_partition_divisibility_error():
    with pytest.raises(ShapeError):
        window_partition(Tensor(np.zeros((5, 4, 2))), 2)


def test_relative_position_index_layout():
    idx = relative_position_index(2)
    assert idx.shape == (4, 4)
    assert idx.min() >= 0 and idx.max() < 9
    assert np.all(np.diag(idx) == idx[0, 0])  # zero offset shares one row


def test_windowed_mha_zero_bias_matches_plain_window_attention():
    rng = RngStream(25, "t")
    params = WindowAttnParams.init(4, 2, 2, RngStream(26, "init"))
    params.bias_table.data[:] = 0.0
    x = rng.normal((4, 4, 4))
    out = windowed_mha(Tensor(x), params)
    # reference: per-window MHA with the 1/sqrt(c/4) scale
    ref = np.empty_like(x)
    for wi, (r, c) in enumerate([(0, 0), (0, 2), (2, 0), (2, 2)]):
        win = x[r:r + 2, c:c + 2, :].reshape(4, 4)
        o = multi_head_attention(Tensor(win), Tensor(win),
                                 params.mha, scale=1.0 / math.sqrt(4 / 4.0))
        ref[r:r + 2, c:c + 2, :] = o.data.reshape(2, 2, 4)
    assert rel_err(out.data, ref) < 1e-12


def test_windowed_mha_gamma_one_is_window_mean():
    rng = RngStream(27, "t")
    c, m = 6, 2
    params = WindowAttnParams.init(c, 2, m, RngStream(28, "init"))
    x = rng.normal((4, 4, c))
    out = windowed_mha(Tensor(x), params, 1.0).data
    for r, col in [(0, 0), (0, 2), (2, 0), (2, 2)]:
        win = x[r:r + m, col:col + m, :].reshape(m * m, c)
        vbar = (win @ params.mha.w_v.data).mean(axis=0)
        expected = vbar @ params.mha.w_o.data
        got = out[r:r + m, col:col + m, :].reshape(m * m, c)
        assert rel_err(got, np.broadcast_to(expected, got.shape)) < 1e-12


def test_windowed_mha_bias_table_gradient():
    rng = RngStream(29, "t")
    params = WindowAttnParams.init(4, 2, 2, RngStream(30, "init"))
    x = Tensor(rng.normal((2, 2, 4)))
    w = rng.normal((2, 2, 4))

    def f(table):
        saved = params.bias_table
        params.bias_table = table
        try:
            return (windowed_mha(x, params) * w).sum()
        finally:
            params.bias_table = saved

    params.bias_table.grad = None
    backward(f(params.bias_table))
    fd = finite_diff_grad(f, params.bias_table)
    assert rel_err(params.bias_table.grad, fd) < 1e-5
