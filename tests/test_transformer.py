"""Encoder-decoder model: shape/probability contracts, causality,
teacher-forcing equivalence, relaxation mode gating, parameter accounting."""

import dataclasses
import math

import numpy as np
import pytest

from helpers import (assert_matches_oracle, dropout_multiplier, fd_grad,
                     layer_norm, rel_err, relu)
from ratn.attention import Phase, RelaxationConfig, sample_fuzzy_gamma
from ratn.rng import RngStream
from ratn.tensor import Tensor, add, backward, finite_diff_grad, matmul, mul
from ratn.training import label_smoothed_nll, teacher_forcing_pair
from ratn.transformer import (BOS_ID, EOS_ID, FeedForward, LayerNormParams,
                              ModelConfig, Seq2SeqModel, check_token_sequence,
                              sinusoidal_positions)

TINY = ModelConfig(n_enc=1, n_dec=1, n_heads=2, d_model=8, d_ff=16,
                   vocab_size=10, max_len=12, dropout_residual=0.0,
                   dropout_activation=0.0, dropout_attention=0.0)


def tiny_model(seed=0, **overrides) -> Seq2SeqModel:
    return Seq2SeqModel(dataclasses.replace(TINY, **overrides), seed=seed)


def test_encode_output_shape():
    model = tiny_model()
    assert model.encode([3, 4, 5]).shape == (3, 8)
    assert model.encode(np.array([[3, 4], [5, 6]])).shape == (2, 2, 8)


def test_encode_deterministic_without_dropout():
    model = tiny_model()
    a = model.encode([3, 4, 5], Phase.TRAIN).data
    b = model.encode([3, 4, 5], Phase.TRAIN).data
    assert np.array_equal(a, b)


def test_encode_validation():
    model = tiny_model()
    with pytest.raises(ValueError):
        model.encode(list(range(3, 3 + 13)))  # beyond max_len
    with pytest.raises(ValueError):
        model.encode([3, 99])  # out of vocabulary


def test_token_sequence_eos_terminal():
    check_token_sequence([3, 4, EOS_ID], 10)
    with pytest.raises(ValueError):
        check_token_sequence([3, EOS_ID, 4], 10)
    with pytest.raises(ValueError):
        check_token_sequence([EOS_ID, 4, EOS_ID], 10)


def test_token_sequence_eos_terminal_in_every_row_of_a_batch():
    check_token_sequence([[3, 4, EOS_ID], [5, 6, 7]], 10)
    for bad in ([[3, 4, EOS_ID], [5, EOS_ID, 7]],
                [[[3, 4, 5], [6, 7, 8]], [[3, 4, 5], [EOS_ID, 7, EOS_ID]]]):
        with pytest.raises(ValueError, match="EOS"):
            check_token_sequence(bad, 10)


def test_gamma_zero_matches_mode_off_bit_exactly():
    relaxed = tiny_model(relax_self=RelaxationConfig(gamma0=0.0, mode="train_only"))
    off = tiny_model()
    x = [3, 4, 5, 6]
    assert np.array_equal(relaxed.encode(x, Phase.TRAIN).data,
                          off.encode(x, Phase.TRAIN).data)


def test_decode_step_is_a_distribution():
    model = tiny_model()
    h = model.encode([3, 4, 5])
    p = model.decode_step(h, [BOS_ID, 4])
    assert p.shape == (10,)
    assert p.min() >= 0.0
    assert abs(p.sum() - 1.0) < 1e-10


def test_decode_step_validation():
    model = tiny_model()
    h = model.encode([3, 4])
    with pytest.raises(ValueError):
        model.decode_step(h, [4, 5])  # must start with BOS
    with pytest.raises(ValueError):
        model.decode_step(h, [])
    with pytest.raises(ValueError):
        model.decode_step(h, [BOS_ID] + [3] * 12)  # beyond max_len


def test_decode_step_on_a_batch_of_prefixes_matches_each_row():
    model = tiny_model(seed=2)
    h = model.encode(np.array([[3, 4, 5], [6, 7, 8], [9, 3, 4]]))
    y = np.array([[BOS_ID, 4, 5, 6], [BOS_ID, 7, 7, 3], [BOS_ID, 9, 8, 4]])
    batch = model.decode_step(h, y)
    assert batch.shape == (3, 10)
    assert np.array_equal(batch, model.decode_probs(h, y).data[:, -1])
    for row in range(3):
        one = model.decode_step(Tensor(h.data[row]), y[row])
        assert np.abs(batch[row] - one).max() < 1e-12
    y[1, 0] = 4  # one row that does not start with BOS
    with pytest.raises(ValueError, match="BOS"):
        model.decode_step(h, y)


def test_causality_future_tokens_do_not_change_past_rows():
    model = tiny_model()
    h = model.encode([3, 4, 5])
    y1 = [BOS_ID, 4, 5, 6]
    y2 = [BOS_ID, 4, 5, 9]
    p1 = model.decode_probs(h, y1).data
    p2 = model.decode_probs(h, y2).data
    assert np.array_equal(p1[:3], p2[:3])
    assert np.abs(p1[3] - p2[3]).max() > 0


def test_causality_zero_gradient_to_future_embeddings():
    model = tiny_model()
    h = model.encode([3, 4, 5])
    length = 6
    emb = Tensor(RngStream(5, "t").normal((length, 8)), requires_grad=True)
    for pos in range(length):
        emb.grad = None
        probs = model._decode_from_embeddings(h, emb, Phase.EVAL)
        pick = np.zeros(probs.shape)
        pick[pos, 4] = 1.0  # selects probability (pos, 4)
        backward((probs * -pick).sum())
        future = emb.grad[pos + 1:]
        assert np.all(future == 0.0)
        assert np.abs(emb.grad[: pos + 1]).max() > 0


def test_gamma_cross_one_is_permutation_invariant():
    model = tiny_model(relax_cross=RelaxationConfig(gamma0=1.0, mode="matched"))
    h = model.encode([3, 4, 5, 6])
    p = model.decode_step(h, [BOS_ID, 4])
    perm = Tensor(h.data[[2, 0, 3, 1]])
    p_perm = model.decode_step(perm, [BOS_ID, 4])
    assert np.abs(p - p_perm).max() < 1e-12


def test_teacher_forcing_matches_sequential_decoding():
    model = tiny_model(seed=3)
    x = [3, 4, 5, 6, 7]
    y = [BOS_ID, 4, 5, 6, 7, 8]
    h = model.encode(x)
    parallel = model.forward_teacher_forced(x, y).data
    assert parallel.shape == (6, 10)
    for prefix_len in range(1, len(y) + 1):
        step = model.decode_step(h, y[:prefix_len])
        assert np.abs(parallel[prefix_len - 1] - step).max() < 1e-10


@pytest.mark.parametrize("overrides", [
    {},
    {"relax_cross": RelaxationConfig(gamma0=0.3, mode="matched")},
])
def test_incremental_step_matches_full_recompute(overrides):
    model = tiny_model(seed=6, n_dec=2, **overrides)
    h = model.encode(np.array([[3, 4, 5, 6], [7, 3, 9, 4], [5, 5, 8, 3]]))
    y = RngStream(7, "t").integers(3, 10, (3, 9))
    y[:, 0] = BOS_ID
    state = model.new_decoder_state()
    for length in range(1, y.shape[1] + 1):
        if length == 5:  # rows follow beam parents: permuted and duplicated
            rows = np.array([2, 0, 0])
            state.reorder(rows)
            y, h = y[rows], Tensor(h.data[rows])
        step = model.decode_next(h, y[:, length - 1], state)
        full = model.decode_step(h, y[:, :length])
        assert np.abs(step - full).max() < 1e-10
    assert state.length == y.shape[1]


def test_reorder_indexes_cross_caches_and_gathers_self_caches():
    # The cross caches hold one row per source and follow the hypothesis
    # rows by index; the self caches gather their rows. Both store keys
    # transposed and contiguous: [rows, n_heads, d/n_heads, L].
    model = tiny_model(seed=6, n_dec=2)
    h = model.encode(np.array([[3, 4, 5, 6], [7, 3, 9, 4], [5, 5, 8, 3]]))
    state = model.new_decoder_state()
    model.decode_next(h, [BOS_ID] * 3, state)
    held = [(cross.kt, cross.v) for _, cross in state.caches]
    for rows, sources, length in (([2, 0, 0, 1, 2], [2, 0, 0, 1, 2], 1),
                                  ([4, 4, 1], [2, 2, 0], 2)):
        state.reorder(np.array(rows))
        for (self_cache, cross), (kt, v) in zip(state.caches, held):
            assert cross.kt is kt and cross.v is v
            assert kt.shape == (3, 2, 4, 4) and v.shape == (3, 2, 4, 4)
            assert cross.rows.tolist() == sources
            assert self_cache.kt.shape == (len(rows), 2, 4, length)
            assert self_cache.v.shape == (len(rows), 2, length, 4)
            for arr in (kt, v, self_cache.kt, self_cache.v):
                assert arr.flags.c_contiguous
        model.decode_next(h, [3] * len(rows), state)


def test_incremental_step_rejects_positions_beyond_max_len():
    model = tiny_model()
    h = model.encode(np.array([[3, 4, 5]]))
    state = model.new_decoder_state()
    for _ in range(TINY.max_len):
        model.decode_next(h, [BOS_ID], state)
    with pytest.raises(ValueError):
        model.decode_next(h, [BOS_ID], state)


def test_forward_gradient_matches_finite_differences():
    model = tiny_model(seed=4)
    x = [3, 4, 5]
    y_in, y_out = teacher_forcing_pair(np.array([4, 5, 6]))
    params = model.parameters()

    def loss_fn():
        probs = model.forward_teacher_forced(x, y_in, Phase.EVAL)
        return label_smoothed_nll(probs, y_out, 0.1)

    model.zero_grad()
    backward(loss_fn())
    # spot-check a spread of parameters, including embeddings and norms
    for name in ("emb_enc", "emb_dec", "enc.0.attn.w_q", "enc.0.ln1.gain",
                 "dec.0.cross_attn.w_v", "dec.0.ff.w1", "out_w", "out_b"):
        tensor = params[name]

        def f(t, tensor=tensor):
            saved = tensor.data
            tensor.data = t.data
            try:
                return loss_fn()
            finally:
                tensor.data = saved

        fd = finite_diff_grad(f, Tensor(tensor.data.copy()))
        assert rel_err(tensor.grad, fd) < 1e-4, name


def test_relaxation_gradient_flows_through_cross_attention():
    relax = RelaxationConfig(gamma0=0.3, mode="matched")
    model = tiny_model(seed=6, relax_cross=relax)
    x = [3, 4, 5]
    y_in, y_out = teacher_forcing_pair(np.array([4, 5, 6]))
    tensor = model.parameters()["dec.0.cross_attn.w_q"]

    def f(t):
        saved = tensor.data
        tensor.data = t.data
        try:
            probs = model.forward_teacher_forced(x, y_in, Phase.EVAL)
            return label_smoothed_nll(probs, y_out, 0.0)
        finally:
            tensor.data = saved

    model.zero_grad()
    probs = model.forward_teacher_forced(x, y_in, Phase.EVAL)
    backward(label_smoothed_nll(probs, y_out, 0.0))
    assert rel_err(tensor.grad, finite_diff_grad(f, Tensor(tensor.data.copy()))) < 1e-4


def test_mode_contract_on_shared_weights():
    trained = tiny_model(seed=7, relax_self=RelaxationConfig(0.2, mode="train_only"),
                         relax_cross=RelaxationConfig(0.25, mode="train_only"))
    x, y = [3, 4, 5, 6], [BOS_ID, 4, 5]

    def with_modes(mode_self, mode_cross):
        cfg = dataclasses.replace(
            trained.config,
            relax_self=RelaxationConfig(0.2, mode=mode_self),
            relax_cross=RelaxationConfig(0.25, mode=mode_cross))
        clone = Seq2SeqModel(cfg, seed=99)
        for name, t in clone.parameters().items():
            t.data = trained.parameters()[name].data
        return clone.forward_teacher_forced(x, y, Phase.EVAL).data

    train_only = trained.forward_teacher_forced(x, y, Phase.EVAL).data
    assert np.array_equal(train_only, with_modes("off", "off"))
    matched = with_modes("matched", "matched")
    assert np.abs(matched - train_only).max() > 1e-8


def _closed_form_param_count(cfg: ModelConfig) -> int:
    """Per encoder block: 4 d^2 attention projections, a feed-forward pair
    (2 d d_ff + d_ff + d) and two layer norms (4 d). Decoder blocks carry
    two attention sites (8 d^2) and three norms (6 d). Plus two D x d
    embeddings and the d x D (+ D bias) output layer."""
    d, dff, dv = cfg.d_model, cfg.d_ff, cfg.vocab_size
    enc = 4 * d * d + 2 * d * dff + dff + d + 4 * d
    dec = 8 * d * d + 2 * d * dff + dff + d + 6 * d
    return 2 * dv * d + cfg.n_enc * enc + cfg.n_dec * dec + d * dv + dv


def test_param_count_formula_matches_actual():
    for cfg in (TINY,
                ModelConfig(n_enc=2, n_dec=2, n_heads=4, d_model=32, d_ff=64,
                            vocab_size=40, max_len=20),
                ModelConfig(n_enc=3, n_dec=1, n_heads=2, d_model=16, d_ff=48,
                            vocab_size=12, max_len=9)):
        model = Seq2SeqModel(cfg, seed=0)
        actual = sum(t.size for t in model.parameters().values())
        assert actual == _closed_form_param_count(cfg)


def test_sinusoidal_positions_structure():
    table = sinusoidal_positions(10, 8)
    assert table.shape == (10, 8)
    assert np.array_equal(table[0, 0::2], np.zeros(4))  # sin(0)
    assert np.array_equal(table[0, 1::2], np.ones(4))  # cos(0)
    assert np.abs(table).max() <= 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_model=10, n_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(dropout_residual=1.0)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=3)


def test_dropout_draws_are_reproducible_across_models():
    cfg = dataclasses.replace(TINY, dropout_residual=0.3,
                              dropout_activation=0.1, dropout_attention=0.1)
    a = Seq2SeqModel(cfg, seed=11)
    b = Seq2SeqModel(cfg, seed=11)
    x, y = [3, 4, 5], [BOS_ID, 4, 5]
    pa = a.forward_teacher_forced(x, y, Phase.TRAIN).data
    pb = b.forward_teacher_forced(x, y, Phase.TRAIN).data
    assert np.array_equal(pa, pb)


def test_fuzzy_gammas_come_per_layer_from_their_own_stream():
    # One TRAIN forward draws n_enc self then n_dec cross coefficients, in
    # layer order, from the fuzzy-gamma stream. The dropout stream ends where
    # an unrelaxed twin's does, and an off site records no coefficient.
    fuzzy = RelaxationConfig(0.1, sigma2=0.0009, mode="matched", fuzzy=True)
    cfg = dataclasses.replace(TINY, n_enc=2, n_dec=3, dropout_residual=0.1,
                              dropout_activation=0.1, dropout_attention=0.1)
    relaxed = Seq2SeqModel(dataclasses.replace(
        cfg, relax_self=fuzzy, relax_cross=fuzzy), seed=5)
    self_only = Seq2SeqModel(dataclasses.replace(cfg, relax_self=fuzzy), seed=5)
    plain = Seq2SeqModel(cfg, seed=5)
    for model in (relaxed, self_only, plain):
        model.forward_teacher_forced([3, 4, 5], [BOS_ID, 6, 7], Phase.TRAIN)
    stream = RngStream(5, "fuzzy-gamma")
    draws = [sample_fuzzy_gamma(fuzzy, stream, Phase.TRAIN) for _ in range(5)]
    assert len(set(draws)) == 5
    assert relaxed.last_gammas == {"self": draws[:2], "cross": draws[2:]}
    assert self_only.last_gammas == {"self": draws[:2], "cross": []}
    assert plain.last_gammas == {"self": [], "cross": []}
    np.testing.assert_equal(relaxed._rng_dropout._gen.bit_generator.state,
                            plain._rng_dropout._gen.bit_generator.state)


# ---------------------------------------------------------------------------
# the fused feed-forward and residual-norm nodes

_LEADS = {"3d": (2, 3), "5d": (2, 1, 2, 3)}


def _ffn_case(lead, rng):
    ff = FeedForward.init(4, 6, RngStream(70, "init"))
    ff.b1.data = rng.normal((6,), 0.0, 0.3)
    ff.b2.data = rng.normal((4,))
    x = Tensor(rng.normal((*lead, 4)), requires_grad=True)
    return ff, x, {"x": x, **ff.tensors()}


def _norm_case(lead, rng):
    ln = LayerNormParams.init(5)
    ln.gain.data = rng.normal((5,))
    ln.bias.data = rng.normal((5,))
    x = Tensor(rng.normal((*lead, 5)), requires_grad=True)
    a = Tensor(rng.normal((*lead, 5)), requires_grad=True)
    return ln, x, a, {"x": x, "a": a, **ln.tensors()}


@pytest.mark.parametrize("phase", [Phase.EVAL, Phase.TRAIN])
@pytest.mark.parametrize("lead", sorted(_LEADS))
def test_feed_forward_gradients_match_finite_differences(lead, phase):
    # Every input of the node; in TRAIN activation dropout 0.3 draws from a
    # stream re-created for every evaluation, so each applies the same mask.
    rng = RngStream(71, lead)
    ff, x, leaves = _ffn_case(_LEADS[lead], rng)
    probe = rng.normal(x.shape)

    def loss():
        return (ff(x, 0.3, RngStream(72, "dropout"), phase) * probe).sum()

    if phase == Phase.TRAIN:  # the mask drops something
        plain = ff(x, 0.0, None, Phase.EVAL)
        assert not np.array_equal(loss().data, (plain * probe).sum().data)
    for leaf in leaves.values():
        leaf.grad = None
    backward(loss())
    for name, leaf in leaves.items():
        assert rel_err(leaf.grad, fd_grad(loss, leaf)) < 1e-7, name


@pytest.mark.parametrize("phase", [Phase.EVAL, Phase.TRAIN])
@pytest.mark.parametrize("lead", sorted(_LEADS))
def test_residual_norm_gradients_match_finite_differences(lead, phase):
    rng = RngStream(73, lead)
    ln, x, a, leaves = _norm_case(_LEADS[lead], rng)
    probe = rng.normal(x.shape)

    def loss():
        return (ln(x, a, 0.3, RngStream(74, "dropout"), phase) * probe).sum()

    if phase == Phase.TRAIN:
        assert not np.array_equal(loss().data, (ln(x, a) * probe).sum().data)
    for leaf in leaves.values():
        leaf.grad = None
    backward(loss())
    for name, leaf in leaves.items():
        assert rel_err(leaf.grad, fd_grad(loss, leaf)) < 1e-7, name


@pytest.mark.parametrize("phase", [Phase.EVAL, Phase.TRAIN])
@pytest.mark.parametrize("lead", sorted(_LEADS))
def test_feed_forward_matches_generic_op_oracle(lead, phase):
    rng = RngStream(75, lead)
    ff, x, leaves = _ffn_case(_LEADS[lead], rng)
    fused = ff(x, 0.3, RngStream(76, "dropout"), phase)
    h = relu(add(matmul(x, ff.w1), ff.b1))
    keep = dropout_multiplier(h.shape, 0.3, RngStream(76, "dropout"), phase)
    if keep is not None:
        h = mul(h, keep)
    assert_matches_oracle(fused, add(matmul(h, ff.w2), ff.b2), leaves,
                          rng.normal(fused.shape))


@pytest.mark.parametrize("phase", [Phase.EVAL, Phase.TRAIN])
@pytest.mark.parametrize("lead", sorted(_LEADS))
def test_residual_norm_matches_generic_op_oracle(lead, phase):
    rng = RngStream(77, lead)
    ln, x, a, leaves = _norm_case(_LEADS[lead], rng)
    fused = ln(x, a, 0.3, RngStream(78, "dropout"), phase)
    keep = dropout_multiplier(a.shape, 0.3, RngStream(78, "dropout"), phase)
    dropped = a if keep is None else mul(a, keep)
    assert_matches_oracle(fused, layer_norm(add(x, dropped), ln.gain, ln.bias),
                          leaves, rng.normal(fused.shape))


def test_feed_forward_relu_matches_the_oracle_on_edge_values():
    # One unit with identity weights and zero biases: the node's output is
    # its ReLU output, here on NaN, zeros, subnormals and infinities.
    ff = FeedForward(w1=Tensor([[1.0]]), b1=Tensor([0.0]),
                     w2=Tensor([[1.0]]), b2=Tensor([0.0]))
    col = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                    2.5, -2.5])
    for n in range(1, 2 * col.size):
        x = Tensor(np.resize(np.roll(col, n), n)[:, None])
        generic = add(matmul(relu(add(matmul(x, ff.w1), ff.b1)), ff.w2), ff.b2)
        fused = ff(x, 0.0, None, Phase.EVAL)
        assert fused.data.tobytes() == generic.data.tobytes()


# Shapes of the dropout masks one desk-model Phase.TRAIN forward draws, in
# order, for a [3, 6] source and a [3, 5] target: embedding, then per encoder
# layer attention weights, residual, activation, residual; embedding, then per
# decoder layer self weights, residual, cross weights, residual, activation,
# residual. Recorded before the sublayers became one node each.
DESK_MASK_SHAPES = [
    (3, 6, 32), (3, 4, 6, 6), (3, 6, 32), (3, 6, 64), (3, 6, 32),
    (3, 4, 6, 6), (3, 6, 32), (3, 6, 64), (3, 6, 32),
    (3, 5, 32), (3, 4, 5, 5), (3, 5, 32), (3, 4, 5, 6), (3, 5, 32),
    (3, 5, 64), (3, 5, 32), (3, 4, 5, 5), (3, 5, 32), (3, 4, 5, 6),
    (3, 5, 32), (3, 5, 64), (3, 5, 32),
]


def test_desk_train_step_draws_the_recorded_mask_shapes(monkeypatch):
    draws = []
    original = RngStream.bernoulli_mask

    def recording(self, shape, keep_prob):
        draws.append((self.stream_id, tuple(shape), keep_prob))
        return original(self, shape, keep_prob)

    monkeypatch.setattr(RngStream, "bernoulli_mask", recording)
    model = Seq2SeqModel(ModelConfig(n_enc=2, n_dec=2, n_heads=4, d_model=32,
                                     d_ff=64), seed=0)
    data = RngStream(1, "t")
    model.forward_teacher_forced(data.integers(3, 32, (3, 6)),
                                 data.integers(3, 32, (3, 5)), Phase.TRAIN)
    assert [shape for _, shape, _ in draws] == DESK_MASK_SHAPES
    assert {(stream, keep) for stream, _, keep in draws} == {("dropout", 0.9)}
