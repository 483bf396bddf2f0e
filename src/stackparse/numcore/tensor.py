"""Dense float tensors with a reverse-mode automatic-differentiation tape.

The scope is exactly what the sequence models in this package need: 1-D and
2-D arrays, a handful of activations and reductions, numpy-style indexing
(row lookup, slices, gathers), inverted dropout, and four fused ops: the
affine map `linear`, the biaffine label scores, the rows' cross-entropy
`cross_entropy_rows` and the CRF log-likelihood.
Values are float64, and every operation checks its result for NaN/Inf.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

_TAPE_STATE = threading.local()  # per-thread so inference can run concurrently


class NonFiniteError(FloatingPointError):
    """Raised when a tensor value or operation result is NaN or Inf."""


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


def _check_finite(arr: np.ndarray, op, inputs: tuple) -> None:
    """Raise NonFiniteError if `arr` holds NaN or Inf, naming the op (`op`, or the
    function that defines the backward closure `op`) and its inputs' shapes."""
    if not np.all(np.isfinite(arr)):
        op = op if isinstance(op, str) else op.__qualname__.partition(".<locals>")[0]
        shapes = ", ".join(str(t.shape) for t in inputs)
        raise NonFiniteError(f"{op} produced NaN or Inf values (input shapes {shapes})")


class Tensor:
    """A numpy array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_grad_slot")
    # Not iterable: Python would otherwise iterate through __getitem__, one
    # tape node per row.  Index or slice explicitly.
    __iter__ = None

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"an input of shape {arr.shape} holds NaN or Inf values")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        # This tensor's piece of `fit`'s flat gradient buffer, or None.
        self._grad_slot = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

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

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    def sum(self):
        return _sum(self)

    def __getitem__(self, key) -> Tensor:
        """numpy indexing, copied.  The gradient is added into the indexed
        entries of this tensor's own gradient; with index arrays (lists or
        ndarrays) it is scatter-added, so a repeated index accumulates."""
        data = self.data[key].copy()

        def backward(g):
            if self.grad is None:
                self.grad = np.empty_like(self.data) if self._grad_slot is None else self._grad_slot
                self.grad.fill(0.0)
            parts = key if isinstance(key, tuple) else (key,)
            if any(isinstance(k, (list, np.ndarray)) for k in parts):
                np.add.at(self.grad, key, g)
            else:
                self.grad[key] += g

        return _result(data, (self,), backward)


def parameter(data: np.ndarray) -> Tensor:
    """A trainable tensor holding `data` itself.  Unlike `Tensor()` it does
    not scan `data` for NaN or Inf: model constructors pass initializers'
    draws and zeros, finite by construction, and the archive loader
    replaces them with the stored arrays before anything reads them."""
    out = Tensor.__new__(Tensor)
    out.data, out.grad, out.requires_grad = data, None, True
    out._parents, out._backward, out._grad_slot = (), None, None
    return out


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


def _result(data: np.ndarray, parents: tuple, backward) -> Tensor:
    _check_finite(data, backward, parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._grad_slot = None
    track = _grad_enabled() and any(p.requires_grad for p in parents)
    out.requires_grad = track
    out._parents = parents if track else ()
    out._backward = backward if track else None
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add `g` to `t`'s gradient.  The first gradient of a step is copied
    (callers pass one g to several parents), into `t`'s slot when it has one."""
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif t._grad_slot is not None:
        t.grad = t._grad_slot
        np.copyto(t.grad, g)
    else:
        t.grad = np.array(g, dtype=np.float64)


def _grad_out(t: Tensor) -> np.ndarray | None:
    """Where an op may write `t`'s gradient itself (`out=`): `t`'s slot when
    the gradient is `t`'s first of the step, else None.  The op then binds
    `t.grad` to the slot, on the calling thread."""
    if t.requires_grad and t.grad is None:
        return t._grad_slot
    return None


def _accumulate_product(t: Tensor, x: np.ndarray, y: np.ndarray) -> None:
    """Add x @ y to `t`'s gradient; a first product goes straight into `t`'s slot."""
    out = _grad_out(t)
    if out is None:
        _accumulate(t, x @ y)
    else:
        t.grad = np.matmul(x, y, out=out)


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
    """The product of a 2-D tensor with a 2-D or 1-D one."""
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim != 2:
        raise ValueError("matmul expects a 2-D left operand")
    data = ad @ bd

    def backward(g):
        if bd.ndim == 2:
            _accumulate_product(a, g, bd.T)
            _accumulate_product(b, ad.T, g)
        else:
            _accumulate(a, np.outer(g, bd))
            _accumulate(b, ad.T @ g)

    return _result(data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w.T (+ b): the affine map of an (out, in) weight, as one op."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError("linear expects a 2-D input and weight")
    # A view off the tape.  On it a copy, so training keeps its arithmetic:
    # OpenBLAS sums a small product with a column-major operand in another order.
    wt = w.data.T.copy() if _grad_enabled() else w.data.T
    data = x.data @ wt
    if b is not None:
        data += b.data

    def backward(g):
        _accumulate_product(x, g, wt.T)
        _accumulate(w, (x.data.T @ g).T)
        if b is not None:
            _accumulate(b, g.sum(axis=0))

    return _result(data, (x, w) if b is None else (x, w, b), backward)


# -- shape manipulation ----------------------------------------------------------


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


# -- reductions ------------------------------------------------------------------


def _sum(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum())

    def backward(g):
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

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


def cross_entropy_rows(a: Tensor, allowed: np.ndarray, gold) -> Tensor:
    """Sum over rows of the log-sum-exp over the columns where the constant
    mask `allowed`, of `a`'s shape, is True, minus the row's `gold` column:
    the rows' cross-entropy against their gold columns, as one op.
    Masked-out columns get zero gradient.  Every row must allow a column."""
    mask = _row_mask(a, allowed)
    rows = np.arange(len(mask))
    soft, lse = _row_softmax(a.data, mask)

    def backward(g):
        d = g * soft
        d[rows, gold] -= g
        _accumulate(a, d)

    return _result(np.asarray((lse - a.data[rows, gold]).sum()), (a,), backward)


def softmax_rows_masked(a: Tensor, allowed: np.ndarray) -> Tensor:
    """Per-row softmax over the columns where the constant (rows, columns)
    mask `allowed` is True, 0 elsewhere; `a` has the mask's shape, or is one
    (columns,) row that every mask row reads.  Every row must allow a column."""
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
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def leaky_relu(a: Tensor, alpha: float = 0.1) -> Tensor:
    a = _as_tensor(a)
    data = np.where(a.data >= 0, a.data, alpha * a.data)

    def backward(g):
        _accumulate(a, g * np.where(a.data >= 0, 1.0, alpha))

    return _result(data, (a,), backward)


# -- regularization -----------------------------------------------------------------


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: with a generator, zeroes each entry with
    probability `rate` and scales the kept ones by 1/(1-rate), so
    E[out] = in.  Without one (inference, gradient checks) it returns `a`."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if rng is None or rate == 0.0:
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
