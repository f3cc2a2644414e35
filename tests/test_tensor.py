"""Tensor core: op semantics, gradients against finite differences, RNG."""

import math
import warnings
import zlib

import numpy as np
import pytest

from helpers import layer_norm, rel_err, relu, sigmoid
from ratn.rng import RngStream
from ratn.tensor import (ShapeError, Tensor, _row_max, _softmax, backward,
                         clamp_min, embedding, finite_diff_grad,
                         log, matmul, no_grad, reshape, residual_norm,
                         softmax_rows, transpose, tsum)
from ratn.attention import (Phase, _dropout_mask, relative_position_index,
                            relax_weights)


def test_matmul_identity():
    b = np.array([[1.5, -2.0], [0.25, 3.0]])
    out = matmul(Tensor(np.eye(2)), Tensor(b))
    assert np.array_equal(out.data, b)


def test_matmul_hand_case():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


def test_matmul_gradient_matches_finite_differences():
    rng = RngStream(3, "test")
    b = Tensor(rng.normal((4, 3)))
    a = Tensor(rng.normal((2, 4)), requires_grad=True)

    def f(t):
        return matmul(t, b).sum()

    loss = f(a)
    backward(loss)
    assert rel_err(a.grad, finite_diff_grad(f, a)) < 1e-6


def test_batched_matmul_gradient():
    rng = RngStream(4, "test")
    b = Tensor(rng.normal((3, 2)))  # broadcast over the batch axis
    a = Tensor(rng.normal((5, 2, 3)), requires_grad=True)

    def f(t):
        return matmul(t, b).sum()

    backward(f(a))
    assert rel_err(a.grad, finite_diff_grad(f, a)) < 1e-6


def test_softmax_symmetric_row():
    out = softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
    assert rel_err(out.data, [[1 / 3] * 3]) < 1e-15


def test_softmax_closed_form():
    out = softmax_rows(Tensor([[math.log(2.0), 0.0]]))
    assert rel_err(out.data, [[2 / 3, 1 / 3]]) < 1e-14


def test_softmax_shift_invariance():
    rng = RngStream(5, "test")
    x = rng.normal((6, 7))
    a = softmax_rows(Tensor(x)).data
    b = softmax_rows(Tensor(x + 13.75)).data
    assert np.abs(a - b).max() < 1e-12


def test_softmax_rows_on_simplex():
    rng = RngStream(6, "test")
    for _ in range(50):
        out = softmax_rows(Tensor(rng.normal((4, 9), 0.0, 3.0))).data
        assert out.min() >= 0.0
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-12


def test_sigmoid_values_and_symmetry():
    assert sigmoid(Tensor([0.0])).data[0] == 0.5
    assert abs(sigmoid(Tensor([math.log(3.0)])).data[0] - 0.75) < 1e-15
    rng = RngStream(7, "test")
    x = rng.normal((100,), 0.0, 5.0)
    s = sigmoid(Tensor(x)).data + sigmoid(Tensor(-x)).data
    assert np.abs(s - 1.0).max() < 1e-12


def _branching_sigmoid(x):
    """The two-branch form: exp(-x) for x >= 0, exp(x) below."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_equals_the_branching_form_at_extremes():
    x = np.array([0.0, -0.0, 1e-300, -1e-300, 0.5, -2.25, 36.7, -36.7, 709.0,
                  -709.0, 745.0, -745.0, 746.0, -746.0, 1e30, -1e30,
                  np.inf, -np.inf])
    x = np.concatenate([x, RngStream(8, "test").normal((200,), 0.0, 30.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sigmoid(Tensor(x)).data
    assert np.array_equal(out, _branching_sigmoid(x))
    assert np.array_equal(sigmoid(Tensor([1e30, -1e30])).data, [1.0, 0.0])
    assert np.isnan(sigmoid(Tensor([np.nan])).data[0])


def test_matmul_with_leading_axes_gradients():
    # x @ W with x [2, 3, 4]: both gradients against central differences and
    # against the per-leading-index products summed over the batch.
    rng = RngStream(11, "test")
    x = Tensor(rng.normal((2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal((4, 5)), requires_grad=True)
    probe = rng.normal((2, 3, 5))
    backward((matmul(x, w) * probe).sum())
    assert rel_err(x.grad, probe @ w.data.T) < 1e-12
    assert rel_err(w.grad, (x.data.swapaxes(-1, -2) @ probe).sum(axis=0)) < 1e-12
    fd_x = finite_diff_grad(lambda t: (matmul(t, w) * probe).sum(), x)
    fd_w = finite_diff_grad(lambda t: (matmul(x, t) * probe).sum(), w)
    assert rel_err(x.grad, fd_x) < 1e-8 and rel_err(w.grad, fd_w) < 1e-8


def test_layer_norm_constant_vector_collapses_to_bias():
    # residual_norm normalizes x + a; here every entry of the sum is 2.5.
    gain = Tensor(np.ones(4))
    bias = Tensor(np.zeros(4))
    out = residual_norm(Tensor([[1.0, 2.0, 0.5, 2.5]]),
                        Tensor([[1.5, 0.5, 2.0, 0.0]]), gain, bias)
    assert np.abs(out.data).max() < 1e-6


def test_layer_norm_output_mean_is_bias_mean():
    rng = RngStream(8, "test")
    gain = Tensor(np.ones(6))
    bias = Tensor(rng.normal((6,)))
    out = residual_norm(Tensor(rng.normal((5, 6))), Tensor(rng.normal((5, 6))),
                        gain, bias)
    assert np.abs(out.data.mean(axis=-1) - bias.data.mean()).max() < 1e-10


def test_layer_norm_shape_error():
    x = Tensor(np.zeros((2, 4)))
    with pytest.raises(ShapeError):
        residual_norm(x, x, Tensor(np.ones(3)), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        residual_norm(x, Tensor(np.zeros((1, 4))), Tensor(np.ones(4)),
                      Tensor(np.zeros(4)))


def test_layer_norm_gradient():
    rng = RngStream(9, "test")
    gain = Tensor(rng.normal((5,)), requires_grad=True)
    bias = Tensor(rng.normal((5,)), requires_grad=True)
    a = Tensor(rng.normal((3, 5)))
    x = Tensor(rng.normal((3, 5)), requires_grad=True)
    w = rng.normal((3, 5))

    def f(t):
        return (residual_norm(t, a, gain, bias) * w).sum()

    backward(f(x))
    assert rel_err(x.grad, finite_diff_grad(f, x)) < 1e-5


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    backward(x.sum())
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_through_relaxed_softmax():
    rng = RngStream(10, "test")
    v = Tensor(rng.normal((5, 2)))
    x = Tensor(rng.normal((3, 5)), requires_grad=True)

    def f(t):
        return matmul(relax_weights(softmax_rows(t), 0.3), v).sum()

    backward(f(x))
    assert rel_err(x.grad, finite_diff_grad(f, x)) < 1e-5


def test_repeated_backward_accumulates():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    loss = (x * x).sum()
    backward(loss)
    once = x.grad.copy()
    backward(loss)
    assert np.array_equal(x.grad, 2.0 * once)


def test_backward_keeps_grad_on_leaves_only():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    w = Tensor([0.5, 4.0, -1.5], requires_grad=True)
    y = x * w
    z = y + x  # x reaches the loss along two paths
    loss = z.sum()
    backward(loss)
    assert y.grad is None and z.grad is None and loss.grad is None
    assert np.array_equal(x.grad, w.data + 1.0)
    assert np.array_equal(w.grad, x.data)


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(x * 2.0)


def test_finite_diff_on_sum_of_squares():
    grad = finite_diff_grad(lambda t: (t * t).sum(), Tensor([1.0, 2.0]))
    assert rel_err(grad, [2.0, 4.0]) < 1e-6


def test_finite_diff_on_constant_is_zero():
    grad = finite_diff_grad(lambda t: Tensor(7.0), Tensor(np.ones(4)))
    assert np.array_equal(grad, np.zeros(4))


def test_finite_diff_agrees_with_backward_through_softmax():
    rng = RngStream(11, "test")
    w = rng.normal((3, 4))
    x = Tensor(rng.normal((3, 4)), requires_grad=True)

    def f(t):
        return (softmax_rows(t) * w).sum()

    backward(f(x))
    assert rel_err(x.grad, finite_diff_grad(f, x)) < 1e-5


# Property sweep: every differentiable primitive against central differences,
# random inputs of magnitude <= 3, >= 100 cases in total across the table.
_DRAWS = 7
_CASES = [
    ("add", lambda t, c: (t + c["other"]).sum(), (3, 4)),
    ("mul", lambda t, c: (t * c["other"]).sum(), (3, 4)),
    ("neg", lambda t, c: (-t).sum(), (3, 4)),
    ("matmul", lambda t, c: matmul(t, Tensor(c["mat"])).sum(), (3, 4)),
    ("reshape", lambda t, c: (reshape(t, (4, 3)) * c["mat_t"]).sum(), (3, 4)),
    ("transpose", lambda t, c: (transpose(t, (1, 0)) * c["mat_t"]).sum(), (3, 4)),
    ("sum_axis", lambda t, c: (tsum(t, axis=0) * c["row"]).sum(), (3, 4)),
    ("mean", lambda t, c: t.mean(axis=(0, 1)).sum(), (3, 4)),
    ("relu", lambda t, c: (relu(t) * c["other"]).sum(), (3, 4)),
    ("sigmoid", lambda t, c: (sigmoid(t) * c["other"]).sum(), (3, 4)),
    ("log", lambda t, c: (log(t * t + 0.5) * c["other"]).sum(), (3, 4)),
    ("clamp_min", lambda t, c: (clamp_min(t, 0.25) * c["other"]).sum(), (3, 4)),
    ("softmax", lambda t, c: (softmax_rows(t) * c["other"]).sum(), (3, 4)),
    ("embedding", lambda t, c: (embedding(t, c["idx"]) * c["emb_w"]).sum(), (5, 4)),
    ("layer_norm", lambda t, c: (layer_norm(t, Tensor(c["gain"]),
                                            Tensor(c["bias"])) * c["other"]).sum(),
     (3, 4)),
    ("residual_norm", lambda t, c: (residual_norm(
        Tensor(c["positive"]), t, Tensor(c["gain"]), Tensor(c["bias"]),
        c["positive"] > 1.0) * c["other"]).sum(), (3, 4)),
]


@pytest.mark.parametrize("name,fn,shape", _CASES, ids=[c[0] for c in _CASES])
def test_gradient_property_sweep(name, fn, shape):
    rng = RngStream(zlib.crc32(name.encode()), "sweep")
    for _ in range(_DRAWS):
        ctx = {
            "other": rng.normal(shape, 0.0, 1.5),
            "positive": np.abs(rng.normal(shape)) + 0.5,
            "mat": rng.normal((shape[-1], 2)),
            "mat_t": rng.normal((shape[-1], shape[0])),
            "row": rng.normal((shape[-1],)),
            "gain": rng.normal((shape[-1],)),
            "bias": rng.normal((shape[-1],)),
            "idx": np.array([0, 2, 2, 4]),
            "emb_w": rng.normal((4, shape[-1])),
        }
        x = Tensor(rng.normal(shape, 0.0, 1.5), requires_grad=True)
        backward(fn(x, ctx))
        fd = finite_diff_grad(lambda t: fn(t, ctx), x)
        assert rel_err(x.grad, fd) < 1e-5, name


def test_gradient_property_sweep_has_at_least_100_cases():
    assert _DRAWS * len(_CASES) >= 100


def test_no_grad_disables_taping():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * 2.0).sum()
    assert y._vjp is None and not y.requires_grad


def test_rng_streams_are_reproducible_and_independent():
    a1 = RngStream(42, "dropout").normal((8,))
    a2 = RngStream(42, "dropout").normal((8,))
    b = RngStream(42, "fuzzy-gamma").normal((8,))
    c = RngStream(43, "dropout").normal((8,))
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_rng_child_streams_differ():
    base = RngStream(0, "data")
    assert not np.array_equal(base.child("train").normal((4,)),
                              base.child("dev").normal((4,)))


# ---------------------------------------------------------------------------
# exact kernels: each must give the bits of the plain NumPy form it replaces


@pytest.mark.parametrize("case", ["repeated", "window_rel_index"])
def test_embedding_pullback_equals_add_at_bit_for_bit(case):
    rng = RngStream(12, case)
    if case == "repeated":
        idx = np.array([[3, 1, 3, 3], [0, 3, 1, 6]])
        table = Tensor(rng.normal((7, 5)), requires_grad=True)
    else:  # the window classifier's position-bias gather, window side 4
        idx = relative_position_index(4).reshape(-1)
        table = Tensor(rng.normal((49, 2)), requires_grad=True)
    g = rng.normal((*idx.shape, table.shape[1]), 0.0, 1e3)
    backward((embedding(table, idx) * g).sum())
    ref = np.zeros(table.shape)
    np.add.at(ref, idx, g)
    assert np.array_equal(table.grad, ref)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_dropout_multiplier_equals_the_two_pass_form_bit_for_bit(p):
    shape = (7, 4, 9, 9)
    one_pass = _dropout_mask(shape, p, RngStream(13, "dropout"), Phase.TRAIN)
    mask = RngStream(13, "dropout").bernoulli_mask(shape, 1.0 - p)
    two_pass = mask.astype(np.float64) / (1.0 - p)
    assert one_pass.dtype == np.float64
    assert np.array_equal(one_pass, two_pass)
    assert 0 < np.count_nonzero(one_pass) < one_pass.size


@pytest.mark.parametrize("shape", [(3, 4), (32, 4, 10, 9), (600, 2),
                                   (2, 4, 2, 16, 16), (8, 4, 2, 16, 16),
                                   (32, 9, 35), (2048, 48)])
def test_row_max_and_softmax_equal_the_numpy_max_forms(shape):
    # Equal values; a zero maximum may differ in sign, which the shifted
    # exp cannot see, so the softmax is equal byte for byte.
    x = RngStream(14, "t").normal(shape)
    x.reshape(-1)[::7] = -1e30
    x.reshape(-1)[3::11] = np.inf
    x.reshape(-1)[5::13] = -np.inf
    x.reshape(-1)[2::17] = -0.0
    x.reshape(-1)[4::17] = 0.0
    with np.errstate(invalid="ignore"):
        for data in (x, np.where(np.isinf(x), 0.0, x)):
            plain = np.exp(data - data.max(axis=-1, keepdims=True))
            plain = plain / plain.sum(axis=-1, keepdims=True)
            assert np.array_equal(_row_max(data),
                                  data.max(axis=-1, keepdims=True))
            assert _softmax(data)[0].tobytes() == plain.tobytes()
    x.reshape(-1)[1::19] = np.nan
    assert np.array_equal(_row_max(x), x.max(axis=-1, keepdims=True),
                          equal_nan=True)
