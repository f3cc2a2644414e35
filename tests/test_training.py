"""Loss arithmetic, Adam updates, and train-loop contracts."""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from helpers import desk_forward_graph_bytes, rel_err
from ratn.attention import Phase, RelaxationConfig, relax_weights
from ratn.decoding import greedy_decode
from ratn.experiment import (ExperimentSpec, RelaxSetting, build_task_data,
                             resolve_model_config)
from ratn.rng import RngStream
from ratn.tasks import gen_copy_task
from ratn.tensor import Tensor, backward, finite_diff_grad, matmul
from ratn.training import (AdamState, TrainConfig, TrainingDiverged, adam_step,
                           label_smoothed_nll, sequence_accuracy, train)
from ratn.transformer import EOS_ID, ModelConfig, Seq2SeqModel


def test_nll_alpha_zero_is_plain_nll():
    p = Tensor([[0.7, 0.2, 0.1], [0.25, 0.5, 0.25]])
    loss = label_smoothed_nll(p, [0, 1], 0.0)
    expected = -(math.log(0.7) + math.log(0.5)) / 2
    assert abs(loss.item() - expected) < 1e-12


def test_nll_uniform_probs_give_log_vocab():
    for alpha in (0.0, 0.1, 0.5):
        p = Tensor(np.full((4, 8), 1 / 8))
        loss = label_smoothed_nll(p, [0, 3, 5, 7], alpha)
        assert abs(loss.item() - math.log(8)) < 1e-12


def test_nll_worked_example():
    loss = label_smoothed_nll(Tensor([[0.8, 0.2]]), [0], 0.1)
    expected = -(0.95 * math.log(0.8) + 0.05 * math.log(0.2))
    assert abs(loss.item() - expected) < 1e-12
    assert abs(loss.item() - 0.29247) < 1e-4


def test_nll_floors_zero_probability():
    p = Tensor([[1.0, 0.0]])
    with pytest.warns(RuntimeWarning):
        loss = label_smoothed_nll(p, [1], 0.0)
    assert np.isfinite(loss.item())


def test_nll_validation():
    with pytest.raises(ValueError):
        label_smoothed_nll(Tensor([[0.5, 0.5]]), [0], 1.0)
    with pytest.raises(ValueError):
        label_smoothed_nll(Tensor([[0.5, 0.5]]), [0, 1], 0.1)


def test_nll_gradient():
    rng = RngStream(0, "t")
    raw = np.abs(rng.normal((3, 5))) + 0.1
    p = Tensor(raw / raw.sum(-1, keepdims=True), requires_grad=True)

    def f(t):
        return label_smoothed_nll(t, [1, 0, 4], 0.1)

    backward(f(p))
    assert rel_err(p.grad, finite_diff_grad(f, p)) < 1e-6


def test_train_config_rejects_eval_every_below_one():
    # fit evaluates at every step divisible by eval_every
    with pytest.raises(ValueError, match="eval_every must be >= 1, got 0"):
        TrainConfig(eval_every=0)


def test_adam_zero_gradient_leaves_parameters():
    p = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
    state = AdamState.init(p)
    before = p["w"].data.copy()
    adam_step(p, {"w": np.zeros(2)}, state, TrainConfig())
    assert np.array_equal(p["w"].data, before)


def test_adam_first_step_closed_form():
    cfg = TrainConfig(lr=0.1)
    p = {"w": Tensor(np.array([5.0]), requires_grad=True)}
    state = AdamState.init(p)
    adam_step(p, {"w": np.array([1.0])}, state, cfg)
    # bias-corrected first step: m_hat = v_hat = 1, update = lr / (1 + eps)
    assert abs(p["w"].data[0] - (5.0 - 0.1)) < 1e-6


def test_adam_shape_mismatch():
    p = {"w": Tensor(np.zeros(3), requires_grad=True)}
    state = AdamState.init(p)
    with pytest.raises(ValueError):
        adam_step(p, {"w": np.zeros(4)}, state, TrainConfig())


def test_adam_updates_views_of_one_vector_in_place():
    p = {"w": Tensor(np.ones((2, 3)), requires_grad=True),
         "b": Tensor(np.zeros(3), requires_grad=True)}
    state = AdamState.init(p)
    w = p["w"].data
    assert w.base is state.data and p["b"].data.base is state.data
    adam_step(p, {"w": np.ones((2, 3)), "b": np.ones(3)}, state,
              TrainConfig(lr=0.1))
    assert p["w"].data is w and np.all(w < 1.0)


def test_adam_adopts_a_parameter_rebound_since_init():
    # e.g. values swapped in between steps: the update starts from them
    p = {"w": Tensor(np.zeros(2), requires_grad=True)}
    state = AdamState.init(p)
    p["w"].data = np.array([5.0, -5.0])
    adam_step(p, {"w": np.zeros(2)}, state, TrainConfig())
    assert np.array_equal(p["w"].data, [5.0, -5.0])
    assert p["w"].data.base is state.data


def _per_parameter_adam(params, grads, state, cfg):
    """Reference Adam: the same update, one parameter at a time."""
    state["step"] += 1
    t = state["step"]
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        state["m"][name] = cfg.beta1 * state["m"][name] + (1.0 - cfg.beta1) * g
        state["v"][name] = cfg.beta2 * state["v"][name] + (1.0 - cfg.beta2) * (g * g)
        m_hat = state["m"][name] / (1.0 - cfg.beta1 ** t)
        v_hat = state["v"][name] / (1.0 - cfg.beta2 ** t)
        p.data = p.data - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)


def test_adam_equals_per_parameter_updates_bit_for_bit():
    rng = RngStream(3, "t")
    shapes = {"w": (3, 4), "b": (4,), "cube": (2, 3, 2), "one": (1,), "sq": (5, 5)}
    start = {k: rng.normal(shape) for k, shape in shapes.items()}
    flat = {k: Tensor(v.copy(), requires_grad=True) for k, v in start.items()}
    ref = {k: Tensor(v.copy(), requires_grad=True) for k, v in start.items()}
    cfg = TrainConfig(lr=0.05)
    state = AdamState.init(flat)
    ref_state = {"m": {k: np.zeros(s) for k, s in shapes.items()},
                 "v": {k: np.zeros(s) for k, s in shapes.items()}, "step": 0}
    for step in range(5):
        grads = {k: rng.normal(shape) for k, shape in shapes.items()}
        grads["b"] = None if step % 2 else grads["b"]  # no gradient this step
        adam_step(flat, grads, state, cfg)
        _per_parameter_adam(ref, grads, ref_state, cfg)
        for k in shapes:
            assert np.array_equal(flat[k].data, ref[k].data), (step, k)
    assert state.step == 5


def _desk_setup(steps, seed=0, **model_overrides):
    corpus = gen_copy_task(RngStream(99, "data"), 12, 5, 256)
    cfg = ModelConfig(n_enc=1, n_dec=1, n_heads=2, d_model=16, d_ff=32,
                      vocab_size=12, max_len=12, **model_overrides)
    model = Seq2SeqModel(cfg, seed=seed)
    tcfg = TrainConfig(steps=steps, batch_size=16, seed=seed, eval_every=steps)
    return model, corpus, tcfg


def test_training_is_seed_deterministic():
    runs = []
    for _ in range(2):
        model, corpus, tcfg = _desk_setup(steps=60)
        recs = train(model, corpus.sources, corpus.targets, tcfg)
        runs.append((recs, {k: t.data.copy() for k, t in model.parameters().items()}))
    assert [r["loss"] for r in runs[0][0]] == [r["loss"] for r in runs[1][0]]
    for name in runs[0][1]:
        assert np.array_equal(runs[0][1][name], runs[1][1][name])


def test_gamma_zero_run_matches_mode_off_bit_exactly():
    model_a, corpus, tcfg = _desk_setup(
        steps=40, relax_self=RelaxationConfig(gamma0=0.0, mode="train_only"))
    recs_a = train(model_a, corpus.sources, corpus.targets, tcfg)
    model_b, _, _ = _desk_setup(steps=40)
    recs_b = train(model_b, corpus.sources, corpus.targets, tcfg)
    assert [r["loss"] for r in recs_a] == [r["loss"] for r in recs_b]
    for name, t in model_a.parameters().items():
        assert np.array_equal(t.data, model_b.parameters()[name].data)


# Losses of the first 20 steps of _desk_setup's model (dropout 0.1 at every
# site, cross relaxation 0.2 train_only, seed 3), as train() produced them
# before the attention core became one hand-differentiated node.
GOLDEN_LOSSES = [
    2.624319338574012, 2.604605658978004, 2.616773179271115, 2.614758543200888,
    2.6745228883179206, 2.527649061416038, 2.5546143509391204,
    2.5594970465814972, 2.6351632760199175, 2.5278926974743934,
    2.4836503966438803, 2.5090257542619074, 2.496673236864291,
    2.4290995393035377, 2.5079541192537445, 2.4742720872109527,
    2.417099445034073, 2.4529332083578446, 2.4804434672509954,
    2.450953045704904]


def test_train_reproduces_the_golden_loss_trajectory():
    model, corpus, tcfg = _desk_setup(
        steps=20, seed=3,
        relax_cross=RelaxationConfig(gamma0=0.2, mode="train_only"))
    recs = train(model, corpus.sources, corpus.targets, tcfg)
    losses = [r["loss"] for r in recs]
    assert np.allclose(losses, GOLDEN_LOSSES, rtol=1e-12, atol=0.0)


# sha256 of the same run's 20 losses as float.hex() strings joined by ",",
# and of its final parameters' bytes in parameters() order. Recorded while
# every dropout mask was still a float64 multiplier; the boolean mask and
# its scale must reproduce them bit for bit.
GOLDEN_LOSSES_SHA256 = "821ea6c5538b630a4ecb665979307712a107f3ea5e7deb57037b6ab58d812832"
GOLDEN_PARAMS_SHA256 = "d846753751333e41d02e9c96214a1e79771ea4987ac2dd2f6bf1fbf79393933a"


def test_train_reproduces_the_golden_run_bit_for_bit():
    model, corpus, tcfg = _desk_setup(
        steps=20, seed=3,
        relax_cross=RelaxationConfig(gamma0=0.2, mode="train_only"))
    recs = train(model, corpus.sources, corpus.targets, tcfg)
    losses = ",".join(float(r["loss"]).hex() for r in recs)
    params = b"".join(t.data.tobytes() for t in model.parameters().values())
    assert hashlib.sha256(losses.encode()).hexdigest() == GOLDEN_LOSSES_SHA256
    assert hashlib.sha256(params).hexdigest() == GOLDEN_PARAMS_SHA256


def test_desk_forward_graph_stays_small():
    # 8,269,144 bytes while the graph held every dropout decision as a
    # float64 multiplier and the attention node held its dropped weights;
    # 6,428,104 with boolean masks and the dropped weights rebuilt;
    # 4,985,888 once children link to graph nodes rather than tensors and
    # pullbacks capture only the arrays they read.
    assert desk_forward_graph_bytes() < 5_100_000


def test_loss_series_is_finite_and_logged():
    model, corpus, tcfg = _desk_setup(steps=30)
    recs = train(model, corpus.sources, corpus.targets, tcfg,
                 dev=(corpus.sources[:8], corpus.targets[:8]))
    assert len(recs) == 30
    assert all(np.isfinite(r["loss"]) for r in recs)
    assert set(recs[0]) == {"step", "loss", "eval_acc", "gamma_effective"}
    assert recs[-1]["eval_acc"] is not None


def test_gamma_effective_is_recorded():
    model, corpus, tcfg = _desk_setup(
        steps=5, relax_self=RelaxationConfig(gamma0=0.3, mode="train_only"))
    recs = train(model, corpus.sources, corpus.targets, tcfg)
    assert all(r["gamma_effective"] == 0.3 for r in recs)


def test_divergence_detection():
    model, corpus, tcfg = _desk_setup(steps=5)
    model.out_b.data = np.full_like(model.out_b.data, np.nan)
    with pytest.raises(TrainingDiverged):
        train(model, corpus.sources, corpus.targets, tcfg)


def test_fit_holds_one_graph_at_a_time():
    # A step's graph is freed before the next forward, so three steps peak
    # no higher than one does (two graphs alive would read about 1.5x).
    data = build_task_data("copy", {})
    cfg = resolve_model_config(ExperimentSpec(task="copy"), data, RelaxSetting())

    def peak(steps):
        model = Seq2SeqModel(cfg, seed=0)
        tracemalloc.start()
        try:
            train(model, data.train.sources, data.train.targets,
                  TrainConfig(steps=steps))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(3) <= 1.2 * peak(1)


def test_gradient_through_relaxation_scales_by_one_minus_gamma():
    # Identical weights; the gradient that reaches the attention weight
    # matrix shrinks by (1 - gamma) when relaxation is inserted.
    rng = RngStream(1, "t")
    v = Tensor(rng.normal((6, 3)))
    w = rng.normal((4, 3))
    gamma = 0.4
    g_plain = Tensor(np.exp(rng.normal((4, 6))), requires_grad=True)
    g_plain.data /= g_plain.data.sum(-1, keepdims=True)

    def downstream(weights):
        return (matmul(weights, v) * w).sum()

    backward(downstream(g_plain))
    plain_grad = g_plain.grad.copy()
    g_relaxed = Tensor(g_plain.data.copy(), requires_grad=True)
    backward(downstream(relax_weights(g_relaxed, gamma)))
    assert rel_err(g_relaxed.grad, (1 - gamma) * plain_grad) < 1e-12
    fd = finite_diff_grad(lambda t: downstream(relax_weights(t, gamma)),
                          g_relaxed)
    assert rel_err(fd, (1 - gamma) * plain_grad) < 1e-6


def test_short_copy_training_improves_accuracy():
    model, corpus, tcfg = _desk_setup(steps=400, seed=1)
    tcfg = dataclasses.replace(tcfg, eval_every=400)
    recs = train(model, corpus.sources, corpus.targets, tcfg,
                 dev=(corpus.sources[:24], corpus.targets[:24]))
    assert recs[-1]["eval_acc"] >= 0.5
    assert recs[-1]["loss"] < recs[0]["loss"] * 0.7


def test_batched_sequence_accuracy_matches_per_source_greedy():
    model, corpus, tcfg = _desk_setup(steps=250, seed=1)  # partly trained
    train(model, corpus.sources, corpus.targets, tcfg)
    sources, targets = corpus.sources[:48], corpus.targets[:48]
    hits = 0
    for src, ref in zip(sources, targets):
        out = greedy_decode(model, model.encode(src), targets.shape[1] + 2)
        hits += (out[1:-1] if out[-1] == EOS_ID else out[1:]) == ref.tolist()
    assert 0 < hits < len(sources)
    assert sequence_accuracy(model, sources, targets) == hits / len(sources)
