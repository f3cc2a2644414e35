"""Dense float64 tensors with reverse-mode differentiation.

Covers exactly the operations the models need; the operator sugar is
t + x, t * x and t @ u, always with a Tensor on the left. Each operation
records on its output an _Op: the inputs' graph nodes and a vector-Jacobian
closure that captures arrays, never a Tensor. Children link to the _Op, not
to the output; a leaf (no recorded operation, e.g. a parameter) is its own
node. So a value no pullback reads is freed with its tensor, as PyTorch's
autograd keeps only saved tensors. backward() walks the DAG once per call and
accumulates into .grad of the leaves, so repeated backward calls without a
reset add up. Interior nodes keep no .grad, and backward drops each one's
gradient once it has passed it on.
The fused sublayer nodes (attention, feed-forward, residual_norm) chain
the NumPy kernels here, with the generic operations' bits and hand pullbacks.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    Operations never write into an input's data. A parameter's data is a
    view of the optimizer's flat vector during training (training.AdamState)
    and is updated in place; .grad is set by backward and zero_grad. An
    operation's output holds its graph node, an _Op (read by _parents and
    _vjp); the node does not hold the output.
    """

    __slots__ = ("data", "grad", "requires_grad", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._op: _Op | None = None

    _parents = property(lambda self: self._op._parents if self._op else ())
    _vjp = property(lambda self: self._op._vjp if self._op else None)

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


@dataclass(slots=True, eq=False)
class _Op:
    """An interior graph node without its value: the parents' graph nodes
    (leaf Tensors and _Ops) and a pullback that captures no Tensor."""

    _parents: tuple
    _vjp: Callable[[np.ndarray], tuple]
    requires_grad = True


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    requires = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._op = _Op(tuple(p._op or p for p in parents), vjp)
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
    sa = a.shape
    if isinstance(b, Tensor):
        sb = b.shape
        return _node(a.data + b.data, (a, b),
                     lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))
    return _node(a.data + _const(b), (a,), lambda g: (_unbroadcast(g, sa),))


def mul(a: Tensor, b) -> Tensor:
    ad, bd, sa = a.data, _const(b), a.shape
    if isinstance(b, Tensor):
        return _node(ad * bd, (a, b),
                     lambda g: (_unbroadcast(g * bd, sa),
                                _unbroadcast(g * ad, bd.shape)))
    return _node(ad * bd, (a,), lambda g: (_unbroadcast(g * bd, sa),))


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
        ga = _unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape)
        gb = _unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape)
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


def log(a: Tensor) -> Tensor:
    ad = a.data
    return _node(np.log(ad), (a,), lambda g: (g / ad,))


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor); gradient passes only where a > floor. NaN propagates."""
    mask = a.data > floor
    return _node(np.maximum(a.data, floor), (a,), lambda g: (g * mask,))


def _row_max(x: np.ndarray) -> np.ndarray:
    """x.max(axis=-1, keepdims=True) up to the sign of a zero maximum, which
    x - max cannot see. Reducing over the leading axis of a contiguous copy
    with the keys first is at least as fast on the training, window and
    vocabulary shapes as max(-1) (CHANGES.md)."""
    return np.ascontiguousarray(np.moveaxis(x, -1, 0)).max(axis=0)[..., None]


def _softmax(x: np.ndarray):
    """Max-shifted softmax over the last axis, and its pullback. Exp and
    divide work in place on the shifted copy; the pullback allocates one
    array and never writes into g, which backward may share between nodes."""
    out = x - _row_max(x)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def pullback(g):
        gx = g * out
        np.subtract(g, gx.sum(axis=-1, keepdims=True), out=gx)
        gx *= out
        return gx

    return out, pullback


def softmax_rows(a: Tensor) -> Tensor:
    """Row-stochastic softmax over the last axis, stabilized by max shift."""
    return _unary(a, *_softmax(a.data))


def _apply_dropout(x: np.ndarray,
                   mask: tuple[np.ndarray, float] | None) -> np.ndarray:
    """x * k * s for a dropout draw (k, s), a boolean mask and its survivor
    scale, in a new array; x itself for None."""
    if mask is None:
        return x
    out = x * mask[0]
    out *= mask[1]
    return out


def residual_norm(x: Tensor, a: Tensor, gain: Tensor, bias: Tensor,
                  mask: tuple[np.ndarray, float] | None = None,
                  eps: float = 1e-6) -> Tensor:
    """Post-norm residual sublayer as one node: the last axis of x + a * k * s
    normalized to zero mean and unit variance, then gain * . + bias. mask is
    a dropout draw (k, s) on the sublayer output a (None: no dropout)."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer norm affine shapes {gain.shape}/{bias.shape} "
                         f"do not match feature dim {d}")
    if a.shape != x.shape:
        raise ShapeError(f"residual shapes disagree: {x.shape} + {a.shape}")
    xhat = x.data + _apply_dropout(a.data, mask)
    xhat -= xhat.sum(axis=-1, keepdims=True) / d  # centred
    inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / d + eps)
    xhat *= inv
    gd = gain.data
    out = xhat * gd
    out += bias.data

    def vjp(g):
        dxhat = g * gd
        m1 = dxhat.sum(axis=-1, keepdims=True) / d
        m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / d
        dxhat -= m1
        dxhat -= xhat * m2
        ds = np.multiply(inv, dxhat, out=dxhat)  # inv * (dxhat - m1 - xhat m2)
        lead = tuple(range(g.ndim - 1))
        return (ds, _apply_dropout(ds, mask), (g * xhat).sum(axis=lead),
                g.sum(axis=lead))

    return _node(out, (x, a, gain, bias), vjp)


# ---------------------------------------------------------------------------
# backward pass


def _toposort(root: Tensor) -> list[Tensor | _Op]:
    """Every node reachable from root, each after its parents. Acyclic by
    construction: _node links a node only to nodes that already exist."""
    order: list[Tensor | _Op] = []
    entered: set[int] = set()
    stack: list[tuple[Tensor | _Op, bool]] = [(root, False)]
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
