"""Dense float64 tensors with reverse-mode differentiation.

Covers exactly the operations the models need; the operator sugar is
t + x, t * x, -t and t @ u, always with a Tensor on the left. Each operation
records its inputs and a vector-Jacobian closure on the output node;
backward() walks the resulting DAG once per call and accumulates into .grad
of the leaves (tensors with no recorded operation, e.g. parameters), so
repeated backward calls without a reset add up. Interior nodes keep no
.grad, and backward drops each one's gradient once it has passed it on. The
graph lives only as long as the output tensors referencing it.
The fused sublayer nodes (attention, feed-forward, residual_norm) chain
the NumPy kernels here, with the generic operations' bits and hand pullbacks.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


_grad_enabled = True


class no_grad:
    """Context manager that disables taping (e.g. for decoding/eval)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """A float64 array with an optional gradient buffer.

    Data is immutable by convention after construction; only .grad is
    mutated (by backward/zero_grad/optimizers).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    # Operator sugar; the functions below do the work.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


class Module:
    """Base of the models, which name every learned tensor in parameters()."""

    def zero_grad(self) -> None:
        for t in self.parameters().values():
            t.grad = None


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    requires = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = parents
        out._vjp = vjp
    return out


def _unary(a: Tensor, out: np.ndarray, pullback) -> Tensor:
    """One node from a NumPy helper's (output, pullback), e.g. _softmax."""
    return _node(out, (a,), lambda g: (pullback(g),))


def _const(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        out = a.data + b.data
        return _node(out, (a, b), lambda g: (_unbroadcast(g, a.shape),
                                             _unbroadcast(g, b.shape)))
    bc = _const(b)
    return _node(a.data + bc, (a,), lambda g: (_unbroadcast(g, a.shape),))


def neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), lambda g: (-g,))


def mul(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        return _node(a.data * b.data, (a, b),
                     lambda g: (_unbroadcast(g * b.data, a.shape),
                                _unbroadcast(g * a.data, b.shape)))
    bc = _const(b)
    return _node(a.data * bc, (a,), lambda g: (_unbroadcast(g * bc, a.shape),))


# ---------------------------------------------------------------------------
# linear algebra


def _linear_vjp(x: np.ndarray, w: np.ndarray, g: np.ndarray):
    """Gradients (dx, dw) of x @ w for a matrix w, given g = dL/d(x @ w):
    each one GEMM over the rows of x, whatever its leading axes."""
    g2 = g.reshape(-1, g.shape[-1])
    return (g2 @ w.T).reshape(x.shape), x.reshape(-1, x.shape[-1]).T @ g2


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast. For
    x @ W (W a matrix) each gradient is one GEMM over the rows of x."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {ad.shape} @ {bd.shape}")
    out = ad @ bd

    def vjp(g):
        if bd.ndim == 2:
            return _linear_vjp(ad, bd, g)
        ga = _unbroadcast(g @ bd.swapaxes(-1, -2), a.shape)
        gb = _unbroadcast(ad.swapaxes(-1, -2) @ g, b.shape)
        return ga, gb

    return _node(out, (a, b), vjp)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _node(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def embedding(table: Tensor, indices) -> Tensor:
    """Row gather: table[D, d] indexed by an integer array of any shape."""
    idx = np.asarray(indices, dtype=np.int64)
    if np.any(idx < 0) or np.any(idx >= table.shape[0]):
        raise IndexError(f"embedding index out of range for table of {table.shape[0]} rows")
    out = table.data[idx]
    rows, d = table.shape

    def vjp(g):
        # One bincount over (row, column) cells; it sums each cell's
        # contributions in index order from 0.0, as np.add.at does.
        cells = (idx.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
        full = np.bincount(cells, weights=g.reshape(-1), minlength=rows * d)
        return (full.reshape(rows, d),)

    return _node(out, (table,), vjp)


# ---------------------------------------------------------------------------
# reductions


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _node(out, (a,), vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    s = tsum(a, axis=axis, keepdims=keepdims)
    return mul(s, s.size / a.size)


# ---------------------------------------------------------------------------
# nonlinearities


def _sigmoid(x: np.ndarray):
    """1/(1+exp(-x)) without overflow or a branch, and its pullback."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    s = np.where(x >= 0, 1.0 / d, e / d)
    return s, lambda g: g * s * (1.0 - s)


def log(a: Tensor) -> Tensor:
    return _node(np.log(a.data), (a,), lambda g: (g / a.data,))


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor); gradient passes only where a > floor. NaN propagates."""
    mask = a.data > floor
    return _node(np.maximum(a.data, floor), (a,), lambda g: (g * mask,))


def _row_max(x: np.ndarray) -> np.ndarray:
    """x.max(axis=-1, keepdims=True) up to the sign of a zero maximum, which
    x - max cannot see. A column-wise np.maximum is faster on <= 32 keys and
    >= 32 rows per key (attention logits), max(-1) on the rest (CHANGES.md)."""
    n = x.shape[-1]
    if n > 32 or x.size < 32 * n * n:
        return x.max(axis=-1, keepdims=True)
    m = x[..., 0]
    for j in range(1, n):
        m = np.maximum(m, x[..., j])
    return m[..., None]


def _softmax(x: np.ndarray):
    """Max-shifted softmax over the last axis, and its pullback."""
    e = np.exp(x - _row_max(x))
    out = e / e.sum(axis=-1, keepdims=True)
    return out, lambda g: out * (g - (g * out).sum(axis=-1, keepdims=True))


def softmax_rows(a: Tensor) -> Tensor:
    """Row-stochastic softmax over the last axis, stabilized by max shift."""
    return _unary(a, *_softmax(a.data))


def residual_norm(x: Tensor, a: Tensor, gain: Tensor, bias: Tensor,
                  keep: np.ndarray | None = None, eps: float = 1e-6) -> Tensor:
    """Post-norm residual sublayer as one node: the last axis of x + a * keep
    normalized to zero mean and unit variance, then gain * . + bias. keep is
    a dropout multiplier on the sublayer output a (None: no dropout)."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer norm affine shapes {gain.shape}/{bias.shape} "
                         f"do not match feature dim {d}")
    if a.shape != x.shape:
        raise ShapeError(f"residual shapes disagree: {x.shape} + {a.shape}")
    s = x.data + (a.data if keep is None else a.data * keep)
    mu = s.sum(axis=-1, keepdims=True) / d
    xc = s - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def vjp(g):
        dxhat = g * gain.data
        m1 = dxhat.sum(axis=-1, keepdims=True) / d
        m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / d
        ds = inv * (dxhat - m1 - xhat * m2)
        lead = tuple(range(g.ndim - 1))
        return (ds, ds if keep is None else ds * keep,
                (g * xhat).sum(axis=lead), g.sum(axis=lead))

    return _node(out, (x, a, gain, bias), vjp)


# ---------------------------------------------------------------------------
# backward pass


def _toposort(root: Tensor) -> list[Tensor]:
    """Every node reachable from root, each after its parents. Acyclic by
    construction: _node links a node only to tensors that already exist."""
    order: list[Tensor] = []
    entered: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in entered:
            continue
        entered.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in entered:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate dLoss/d(leaf) into .grad of every reachable leaf.

    A leaf is a tensor with no recorded operation (_vjp is None), such as a
    parameter; interior nodes pass their gradient on and keep no .grad. Each
    call propagates a fresh unit seed, so calling twice doubles the
    accumulated gradients.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    topo = _toposort(loss)
    gmap: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = gmap.pop(id(node), None)  # a node's gradient is complete here
        if g is None:
            continue
        if node._vjp is None:
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if not parent.requires_grad:
                continue
            pid = id(parent)
            prev = gmap.get(pid)
            gmap[pid] = pg if prev is None else prev + pg


# ---------------------------------------------------------------------------
# gradient oracle


def finite_diff_grad(f, x: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central-difference estimate of d f(x) / dx, coordinate by coordinate.

    f must be deterministic; evaluated with taping off.
    """
    flat = x.data.reshape(-1)
    grad = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            pert = flat.copy()
            pert[i] = flat[i] + h
            fp = f(Tensor(pert.reshape(x.shape)))
            pert[i] = flat[i] - h
            fm = f(Tensor(pert.reshape(x.shape)))
            fp = fp.item() if isinstance(fp, Tensor) else float(fp)
            fm = fm.item() if isinstance(fm, Tensor) else float(fm)
            grad[i] = (fp - fm) / (2.0 * h)
    return grad.reshape(x.shape)
