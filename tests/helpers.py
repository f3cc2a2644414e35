"""Shared test utilities, and generic ops the library no longer calls: relu
and layer_norm, the oracles of the fused sublayer nodes."""

import tracemalloc

import numpy as np

from ratn.attention import Phase, _dropout_mask
from ratn.decoding import bigram_lm_train, decode_corpus, decode_grid
from ratn.experiment import (DEFAULT_LAMBDA_GRID, ExperimentSpec,
                             RelaxSetting, build_task_data,
                             resolve_model_config)
from ratn.rng import RngStream
from ratn.tensor import (ShapeError, Tensor, _node, backward, finite_diff_grad,
                         no_grad)
from ratn.training import label_smoothed_nll, teacher_forcing_pair
from ratn.transformer import Seq2SeqModel


def rel_err(actual, expected) -> float:
    """Max absolute difference scaled by the largest expected magnitude."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    denom = max(np.abs(expected).max(initial=0.0), 1e-12)
    return float(np.abs(actual - expected).max(initial=0.0) / denom)


def random_stochastic_rows(rng, shape) -> np.ndarray:
    """Row-stochastic matrices via normalized exponentials."""
    raw = np.exp(rng.normal(shape))
    return raw / raw.sum(axis=-1, keepdims=True)


def fd_grad(loss, leaf: Tensor) -> np.ndarray:
    """Central differences of loss() in the entries of leaf, swapped in."""
    def f(value):
        saved = leaf.data
        leaf.data = value.data
        try:
            return loss()
        finally:
            leaf.data = saved

    return finite_diff_grad(f, Tensor(leaf.data.copy()))


def assert_matches_oracle(fused: Tensor, generic: Tensor,
                          leaves: dict[str, Tensor], probe: np.ndarray) -> None:
    """A fused node against the same computation in generic ops: forward
    bit for bit, each leaf's gradient of (out * probe).sum() to 1e-12."""
    assert np.array_equal(fused.data, generic.data)
    grads = []
    for out in (fused, generic):
        for leaf in leaves.values():
            leaf.grad = None
        backward((out * probe).sum())
        grads.append({k: t.grad for k, t in leaves.items()})
    for name in leaves:
        assert rel_err(grads[0][name], grads[1][name]) < 1e-12, name


def relu(a: Tensor) -> Tensor:
    """max(a, 0) as one generic node."""
    mask = a.data > 0
    return _node(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine, as
    one generic node."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gain.shape}/{bias.shape} "
                         f"do not match feature dim {d}")
    mu = x.data.sum(axis=-1, keepdims=True) / d
    xc = x.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def vjp(g):
        dxhat = g * gain.data
        m1 = dxhat.sum(axis=-1, keepdims=True) / d
        m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / d
        dx = inv * (dxhat - m1 - xhat * m2)
        lead = tuple(range(g.ndim - 1))
        return dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)

    return _node(out, (x, gain, bias), vjp)


def dropout_multiplier(shape, p, rng, phase) -> np.ndarray | None:
    """The float inverted-dropout multiplier k * s of _dropout_mask's draw,
    the generic-op oracles' operand for mul(); None where it draws none."""
    mask = _dropout_mask(shape, p, rng, phase)
    return None if mask is None else mask[0] * mask[1]


def _desk_model_and_data():
    """The desk model (d=32, 2+2 layers, 4 heads, d_ff=64, dropout 0.1 at
    all three sites, cross gamma 0.2 train_only), untrained at seed 0, and
    toy_translate's data at data seed 1000."""
    setting = RelaxSetting(site="cross", gamma=0.2, mode="train_only")
    spec = ExperimentSpec(task="toy_translate", task_params={"data_seed": 1000},
                          model={"n_enc": 2, "n_dec": 2, "n_heads": 4,
                                 "d_model": 32, "d_ff": 64},
                          relax_grid=(setting,))
    data = build_task_data(spec.task, spec.task_params)
    return Seq2SeqModel(resolve_model_config(spec, data, setting), seed=0), data


def desk_forward():
    """A Phase.TRAIN forward of the desk model on one batch at perfbench's
    train_step shape: toy_translate, a batch of 32, 9 target positions.
    Returns a function that builds the loss."""
    model, data = _desk_model_and_data()
    idx = RngStream(0, "batch").integers(0, len(data.train), 32)
    y_in, y_out = teacher_forcing_pair(data.train.targets[idx])
    sources = data.train.sources[idx]
    return lambda: label_smoothed_nll(
        model.forward_teacher_forced(sources, y_in, Phase.TRAIN), y_out, 0.1)


def desk_forward_graph_bytes() -> int:
    """Bytes that one desk_forward() leaves alive in its graph, loss
    included. Traced with tracemalloc, which sees NumPy's array buffers."""
    forward = desk_forward()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = forward()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def desk_decode_peak_bytes() -> int:
    """Traced peak bytes of one decode_corpus of the desk model over
    toy_translate's 200-source test split at beam 4, fused with the
    extended-text bigram LM at lambda 0.3. The split is encoded before the
    trace starts, as a cell encodes it once for all its decodes."""
    model, data = _desk_model_and_data()
    lm = bigram_lm_train(data.text["extended"], data.vocab_size, 0.5)
    test = data.test
    with no_grad():
        h = model.encode(test.sources, Phase.EVAL)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        decode_corpus(model, test.sources, 4, lm, 0.3,
                      max_len=test.targets.shape[1] + 2, h=h)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def desk_grid_peak_bytes() -> int:
    """Traced peak bytes of one decode_grid of the desk model over
    toy_translate's 100-source dev split at beam 4, for the 9 points of
    ilm_cell's dev grid: no LM, and both bigram LMs at each lambda of
    DEFAULT_LAMBDA_GRID. The split is encoded before the trace starts."""
    model, data = _desk_model_and_data()
    lms = [bigram_lm_train(data.text[name], data.vocab_size, 0.5)
           for name in ("in_domain", "extended")]
    points = [(None, 0.0)] + [(lm, lam) for lm in lms
                              for lam in DEFAULT_LAMBDA_GRID]
    dev = data.dev
    with no_grad():
        h = model.encode(dev.sources, Phase.EVAL)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        decode_grid(model, dev.sources, 4, points,
                    max_len=dev.targets.shape[1] + 2, h=h)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
