"""Dense float tensors with a reverse-mode automatic-differentiation tape.

The scope is exactly what the sequence models in this package need: 1-D and
2-D arrays, a handful of activations and reductions, numpy-style indexing
(row lookup, slices, gathers), inverted dropout, and two fused ops, the
biaffine label scores and the CRF log-likelihood.  Values are float64,
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
    # Not iterable: Python would otherwise iterate through __getitem__, one
    # tape node per row.  Index or slice explicitly.
    __iter__ = None

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
        """numpy indexing, copied.  The gradient is added into the indexed
        entries of this tensor's own gradient; with index arrays (lists or
        ndarrays) it is scatter-added, so a repeated index accumulates."""
        data = self.data[key].copy()

        def backward(g):
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            parts = key if isinstance(key, tuple) else (key,)
            if any(isinstance(k, (list, np.ndarray)) for k in parts):
                np.add.at(self.grad, key, g)
            else:
                self.grad[key] += g

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
        t.grad = np.array(g, dtype=np.float64)  # a copy: callers pass one g to several parents
    else:
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


def _row_softmax(x: np.ndarray, allowed) -> tuple[np.ndarray, np.ndarray]:
    """Softmax of each row of `x` over the columns where `allowed` is True,
    and each row's log-sum-exp over them.  Every row must allow a column."""
    shifted = np.where(allowed, x, -np.inf)
    top = shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted - top)
    total = e.sum(axis=1, keepdims=True)
    return e / total, (np.log(total) + top)[:, 0]


def _row_mask(a: Tensor, allowed) -> np.ndarray:
    """`allowed` as a boolean (rows, columns) mask that fits `a`."""
    mask = np.asarray(allowed, dtype=bool)
    if mask.ndim != 2 or a.data.shape not in (mask.shape, mask.shape[1:]):
        raise ValueError("mask shape mismatch")
    if not mask.any(axis=1).all():
        raise ValueError("each row must allow at least one column")
    return mask


def logsumexp_rows_masked(a: Tensor, allowed: np.ndarray) -> Tensor:
    """Per-row log-sum-exp over the columns where the constant (rows,
    columns) mask `allowed` is True; `a` has the mask's shape, or is one
    (columns,) row that every mask row reads.  Masked-out columns get zero
    gradient.  Every row must allow at least one column."""
    mask = _row_mask(a, allowed)
    soft, data = _row_softmax(np.broadcast_to(a.data, mask.shape), mask)

    def backward(g):
        _accumulate(a, _unbroadcast(g[:, None] * soft, a.data.shape))

    return _result(data, (a,), backward)


def softmax_rows_masked(a: Tensor, allowed: np.ndarray) -> Tensor:
    """Per-row softmax over the columns where `allowed` is True, 0 elsewhere;
    `a` and `allowed` are as for `logsumexp_rows_masked`."""
    mask = _row_mask(a, allowed)
    data, _ = _row_softmax(np.broadcast_to(a.data, mask.shape), mask)

    def backward(g):
        dot = (g * data).sum(axis=1, keepdims=True)
        _accumulate(a, _unbroadcast(data * (g - dot), a.data.shape))

    return _result(data, (a,), backward)


# -- activations -------------------------------------------------------------------


def tanh(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    data = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - data * data))

    return _result(data, (a,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp only sees -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    data = _sigmoid(a.data)

    def backward(g):
        _accumulate(a, g * data * (1.0 - data))

    return _result(data, (a,), backward)


def leaky_relu(a: Tensor, alpha: float = 0.1) -> Tensor:
    a = _as_tensor(a)
    data = np.where(a.data >= 0, a.data, alpha * a.data)

    def backward(g):
        _accumulate(a, g * np.where(a.data >= 0, 1.0, alpha))

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


# -- linear-chain CRF --------------------------------------------------------------------


def crf_log_likelihood(emissions: Tensor, transitions: Tensor, gold_tags) -> Tensor:
    """Negative log-likelihood of the gold path, log Z - score(gold), as one op.

    `emissions` is (n, K); `transitions` is (K+2, K+2) with start state K
    and stop state K+1.  The forward algorithm gives log Z.  Backward runs
    the backward algorithm: the gradient of log Z is the expected emission
    and transition counts under the model, from the unary and pairwise
    marginals (Lafferty, McCallum & Pereira 2001), minus the gold counts.
    """
    em, trans = emissions.data, transitions.data
    n, k = em.shape
    start, stop = k, k + 1
    if len(gold_tags) != n:
        raise ValueError("gold tag count does not match emission rows")
    gold = list(gold_tags)
    trans_rows = [start] + gold[:-1]
    gold_score = (em[np.arange(n), gold].sum() + trans[trans_rows, gold].sum()
                  + trans[gold[-1], stop])
    inner = trans[:k, :k]
    alpha = np.empty((n, k))  # alpha[t, j]: log-sum of the paths' scores up to tag j at t
    alpha[0] = trans[start, :k] + em[0]
    for t in range(1, n):
        alpha[t] = _row_softmax(inner.T + alpha[t - 1], True)[1] + em[t]
    log_z = _row_softmax((alpha[-1] + trans[:k, stop])[None, :], True)[1][0]

    def backward(g):
        beta = np.empty((n, k))  # beta[t, i]: log-sum of the scores from tag i at t to stop
        beta[-1] = trans[:k, stop]
        for t in range(n - 2, -1, -1):
            beta[t] = _row_softmax(inner + (em[t + 1] + beta[t + 1]), True)[1]
        unary = np.exp(alpha + beta - log_z)
        pairs = np.exp(alpha[:-1, :, None] + inner + (em[1:] + beta[1:])[:, None, :] - log_z)
        d_trans = np.zeros_like(trans)
        d_trans[:k, :k] = pairs.sum(axis=0)
        d_trans[start, :k] = unary[0]
        d_trans[:k, stop] = unary[-1]
        np.subtract.at(d_trans, (trans_rows, gold), 1.0)
        d_trans[gold[-1], stop] -= 1.0
        unary[np.arange(n), gold] -= 1.0
        _accumulate(emissions, g * unary)
        _accumulate(transitions, g * d_trans)

    return _result(np.asarray(log_z - gold_score), (emissions, transitions), backward)
