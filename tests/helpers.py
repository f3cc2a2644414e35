"""Shared test utilities, and generic ops the library no longer calls: relu
and layer_norm, the oracles of the fused sublayer nodes."""

import numpy as np

from ratn.tensor import ShapeError, Tensor, _node, backward, finite_diff_grad


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
