"""Dense float tensors with a reverse-mode automatic-differentiation tape.

The scope is exactly what the sequence models in this package need: 1-D and
2-D arrays, a handful of activations and reductions, numpy-style indexing
(row lookup, slices, gathers), and inverted dropout.  Values are float64,
and every operation checks its result for NaN/Inf.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

_TAPE_STATE = threading.local()  # per-thread so inference can run concurrently


class NonFiniteError(FloatingPointError):
    """Raised when a tensor value or operation result is NaN or Inf."""


def get_default_dtype():
    """Tensors are always float64."""
    return np.float64


@contextlib.contextmanager
def no_grad():
    """Disable tape construction (inference mode) in the current thread."""
    saved = _grad_enabled()
    _TAPE_STATE.grad_enabled = False
    try:
        yield
    finally:
        _TAPE_STATE.grad_enabled = saved


def _grad_enabled() -> bool:
    return getattr(_TAPE_STATE, "grad_enabled", True)


def _check_finite(arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("operation produced NaN or Inf values")


class Tensor:
    """A numpy array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- autodiff ------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar result."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def sum(self, axis=None):
        return _sum(self, axis)

    def __getitem__(self, key) -> Tensor:
        """numpy indexing, copied.  With ints and slices the gradient is
        assigned back; with index arrays (lists or ndarrays) it is
        scatter-added back, so a repeated index accumulates."""
        data = self.data[key].copy()

        def backward(g):
            full = np.zeros_like(self.data)
            parts = key if isinstance(key, tuple) else (key,)
            if any(isinstance(k, (list, np.ndarray)) for k in parts):
                np.add.at(full, key, g)
            else:
                full[key] = g
            _accumulate(self, full)

        return _result(data, (self,), backward)


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


def _result(data: np.ndarray, parents: tuple, backward) -> Tensor:
    _check_finite(data)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    track = _grad_enabled() and any(p.requires_grad for p in parents)
    out.requires_grad = track
    out._parents = parents if track else ()
    out._backward = backward if track else None
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# -- arithmetic ----------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _result(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _result(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Matrix/vector products for the 1-D and 2-D cases the models use."""
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    data = ad @ bd

    def backward(g):
        if ad.ndim == 2 and bd.ndim == 2:
            _accumulate(a, g @ bd.T)
            _accumulate(b, ad.T @ g)
        elif ad.ndim == 2 and bd.ndim == 1:
            _accumulate(a, np.outer(g, bd))
            _accumulate(b, ad.T @ g)
        elif ad.ndim == 1 and bd.ndim == 2:
            _accumulate(a, bd @ g)
            _accumulate(b, np.outer(ad, g))
        elif ad.ndim == 1 and bd.ndim == 1:
            _accumulate(a, g * bd)
            _accumulate(b, g * ad)
        else:  # pragma: no cover - rejected by numpy first
            raise ValueError("unsupported matmul arity")

    return _result(data, (a, b), backward)


# -- shape manipulation ----------------------------------------------------------


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError("transpose expects a 2-D tensor")
    data = a.data.T.copy()

    def backward(g):
        _accumulate(a, g.T)

    return _result(data, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    data = a.data.reshape(shape)

    def backward(g):
        _accumulate(a, g.reshape(old))

    return _result(data, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]

    def backward(g):
        offset = 0
        for t, size in zip(ts, sizes):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + size)
            _accumulate(t, g[tuple(index)])
            offset += size

    return _result(data, tuple(ts), backward)


def stack_rows(tensors) -> Tensor:
    """Stack 1-D tensors into a 2-D tensor, one per row."""
    ts = [_as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in ts], axis=0)

    def backward(g):
        for i, t in enumerate(ts):
            _accumulate(t, g[i])

    return _result(data, tuple(ts), backward)


def append_ones_col(a: Tensor) -> Tensor:
    """Append a constant-1 column (bias absorption for biaffine scoring)."""
    if a.data.ndim != 2:
        raise ValueError("append_ones_col expects a 2-D tensor")
    ones = np.ones((a.data.shape[0], 1), dtype=a.data.dtype)
    data = np.concatenate([a.data, ones], axis=1)

    def backward(g):
        _accumulate(a, g[:, :-1])

    return _result(data, (a,), backward)


# -- reductions ------------------------------------------------------------------


def _sum(a: Tensor, axis) -> Tensor:
    data = a.data.sum(axis=axis)
    data = np.asarray(data)

    def backward(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.data.shape).copy())
        else:
            _accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())

    return _result(data, (a,), backward)


def logsumexp(a: Tensor, axis=None) -> Tensor:
    """Shift-invariant log-sum-exp."""
    m = a.data.max(axis=axis, keepdims=True)
    shifted = np.exp(a.data - m)
    total = shifted.sum(axis=axis, keepdims=True)
    data = np.asarray((np.log(total) + m).squeeze() if axis is None else (np.log(total) + m))
    if axis is not None:
        data = np.squeeze(data, axis=axis)
    softmax_full = shifted / total

    def backward(g):
        if axis is None:
            _accumulate(a, g * softmax_full)
        else:
            _accumulate(a, np.expand_dims(g, axis) * softmax_full)

    return _result(data, (a,), backward)


def logsumexp_rows_masked(a: Tensor, allowed: np.ndarray) -> Tensor:
    """Per-row log-sum-exp over the columns where `allowed` is True.

    `allowed` is a constant boolean mask; masked-out columns contribute
    nothing and receive zero gradient.  Every row must allow at least one
    column.
    """
    mask = np.asarray(allowed, dtype=bool)
    if mask.shape != a.data.shape:
        raise ValueError("mask shape mismatch")
    if not mask.any(axis=1).all():
        raise ValueError("each row must allow at least one column")
    neg = np.where(mask, a.data, -np.inf)
    m = neg.max(axis=1, keepdims=True)
    shifted = np.where(mask, np.exp(a.data - m), 0.0)
    total = shifted.sum(axis=1, keepdims=True)
    data = (np.log(total) + m).reshape(a.data.shape[0])
    soft = shifted / total

    def backward(g):
        _accumulate(a, g[:, None] * soft)

    return _result(data, (a,), backward)


# -- activations -------------------------------------------------------------------


def tanh(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    data = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - data * data))

    return _result(data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g):
        _accumulate(a, g * data * (1.0 - data))

    return _result(data, (a,), backward)


def leaky_relu(a: Tensor, alpha: float = 0.1) -> Tensor:
    a = _as_tensor(a)
    data = np.where(a.data >= 0, a.data, alpha * a.data)

    def backward(g):
        _accumulate(a, g * np.where(a.data >= 0, 1.0, alpha))

    return _result(data, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        _accumulate(a, data * (g - dot))

    return _result(data, (a,), backward)


# -- regularization -----------------------------------------------------------------


def dropout(a: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scales kept entries by 1/(1-rate) so E[out] = in."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if not training or rate == 0.0:
        return a
    mask = (rng.random(a.data.shape) >= rate) / (1.0 - rate)
    data = a.data * mask

    def backward(g):
        _accumulate(a, g * mask)

    return _result(data, (a,), backward)


# -- bilinear label scoring ------------------------------------------------------------


def bilinear_labels(u_tensor: Tensor, a: Tensor, b: Tensor) -> Tensor:
    """Score every (row-pair, label): out[n, l] = a[n] @ U[l] @ b[n].

    `u_tensor` has shape (labels, p, q); `a` is (n, p); `b` is (n, q).
    """
    U, A, B = u_tensor.data, a.data, b.data
    data = np.einsum("lpq,np,nq->nl", U, A, B)

    def backward(g):
        _accumulate(u_tensor, np.einsum("nl,np,nq->lpq", g, A, B))
        _accumulate(a, np.einsum("nl,lpq,nq->np", g, U, B))
        _accumulate(b, np.einsum("nl,lpq,np->nq", g, U, A))

    return _result(data, (u_tensor, a, b), backward)
