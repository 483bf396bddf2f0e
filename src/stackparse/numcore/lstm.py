"""LSTM cells and bidirectional sequence encoding.

`bilstm_encode` runs each layer as one fused op with one tape node (none
under `no_grad`).  In each direction the input projection X @ W_x^T + b
is one GEMM for all steps and the recurrence runs in numpy; backward is
hand-written back-propagation through time, which fills a
(T, gates * H) array of gate gradients, so dW_x, dW_h, db and dX are one
GEMM or one sum each.  The two directions never read each other's
state, so the backward one runs on a helper thread that lives for one
call (see `worker`) while the calling thread runs the forward one, in
the recurrence and again in BPTT; the calling thread alone makes the tape
node, checks finiteness and adds every gradient, forward cell first.  A
weight's first gradient of a training step is the exception: each BPTT
writes dW_x and dW_h straight into the weight's slot of `fit`'s flat
gradient buffer, and the calling thread binds them after the join.

Two cell variants are provided:

* ``peephole``: input/forget gates additionally see the previous cell
  state and the output gate sees the new cell state, each through a
  learned diagonal (peephole) vector.
* ``coupled-input-forget``: the forget gate is tied to ``1 - input``,
  so the cell state is a convex combination of its previous value and
  the tanh candidate.
"""

from __future__ import annotations

import numpy as np

from . import init
from .tensor import Tensor, _accumulate, _check_finite, _grad_out, _result, _sigmoid, parameter
from .worker import in_parallel

PEEPHOLE = "peephole"
COUPLED = "coupled-input-forget"


class LstmCell:
    """One direction of one recurrent layer."""

    def __init__(self, variant: str, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None = None, pending: list | None = None):
        """Draws W_x, then W_h's Gaussian blocks, from `rng`; see
        `init.orthogonal_gate_stack` for `pending`."""
        if variant not in (PEEPHOLE, COUPLED):
            raise ValueError(f"unknown LSTM variant {variant!r}")
        self.variant = variant
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        gates = 4 if variant == PEEPHOLE else 3  # (i, f, g, o) vs (i, g, o)
        self.w_x = parameter(
            init.glorot_uniform(rng, gates, hidden_dim, input_dim).reshape(-1, input_dim))
        self.w_h = parameter(init.orthogonal_gate_stack(rng, gates, hidden_dim, pending))
        self.bias = parameter(init.zeros(gates * hidden_dim))
        if variant == PEEPHOLE:
            self.p_in = parameter(init.zeros(hidden_dim))
            self.p_forget = parameter(init.zeros(hidden_dim))
            self.p_out = parameter(init.zeros(hidden_dim))

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        params = {
            f"{prefix}/w_x": self.w_x,
            f"{prefix}/w_h": self.w_h,
            f"{prefix}/bias": self.bias,
        }
        if self.variant == PEEPHOLE:
            params[f"{prefix}/p_in"] = self.p_in
            params[f"{prefix}/p_forget"] = self.p_forget
            params[f"{prefix}/p_out"] = self.p_out
        return params


def lstm_layer(variant: str, input_dim: int, hidden_dim: int,
               rng: np.random.Generator | None = None) -> tuple[LstmCell, LstmCell]:
    """A bi-LSTM layer's (forward, backward) cells, drawn from `rng` as two
    `LstmCell` calls draw them, with the QRs of both cells' recurrent
    blocks run two at a time."""
    pending: list = []
    cells = (LstmCell(variant, input_dim, hidden_dim, rng, pending),
             LstmCell(variant, input_dim, hidden_dim, rng, pending))
    init.orthogonalize(pending)
    return cells


def _gates(cell: LstmCell) -> tuple:
    """Column blocks (i, f, g, o) of the stacked gates, f None for the
    coupled cell, then its peephole vectors as rows (p_in, p_forget) and
    p_out, both None without peepholes."""
    hd = cell.hidden_dim
    if cell.variant != PEEPHOLE:
        gi, gc, go = (slice(k * hd, (k + 1) * hd) for k in range(3))
        return gi, None, gc, go, None, None
    gi, gf, gc, go = (slice(k * hd, (k + 1) * hd) for k in range(4))
    return gi, gf, gc, go, np.stack([cell.p_in.data, cell.p_forget.data]), cell.p_out.data


def _recur(cell: LstmCell, xs: np.ndarray) -> tuple[np.ndarray, ...]:
    """One direction over the rows of `xs`, numpy only: (pre, act, cs, hs).

    pre[t]: gate pre-activations of step t, peephole terms included;
    act[t]: the gates after their sigmoid/tanh; cs[t]/hs[t]: the state
    entering step t, so row 0 is the zero initial state.
    """
    hd = cell.hidden_dim
    gi, gf, gc, go, p_if, p_out = _gates(cell)
    peephole = p_out is not None
    steps = xs.shape[0]
    w_h = cell.w_h.data
    pre = xs @ cell.w_x.data.T + cell.bias.data  # the input projection, one GEMM
    act = np.empty_like(pre)
    cs = np.zeros((steps + 1, hd))
    hs = np.zeros((steps + 1, hd))
    # A non-finite input or weight makes `pre` non-finite; the caller
    # reports it, not a numpy warning from inside the loop.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            p, a, c_prev = pre[t], act[t], cs[t]
            p += w_h @ hs[t]
            if peephole:
                p_gates = p[:2 * hd].reshape(2, hd)
                p_gates += p_if * c_prev
                a[:2 * hd] = _sigmoid(p[:2 * hd])
                a[gc] = np.tanh(p[gc])
                c = a[gf] * c_prev + a[gi] * a[gc]
                p[go] += p_out * c
                a[go] = _sigmoid(p[go])
            else:
                a[:] = _sigmoid(p)
                a[gc] = np.tanh(p[gc])
                c = (1.0 - a[gi]) * c_prev + a[gi] * a[gc]
            cs[t + 1] = c
            hs[t + 1] = a[go] * np.tanh(c)
    return pre, act, cs, hs


def _bptt(cell: LstmCell, xs: np.ndarray, state: tuple, d_out: np.ndarray,
          want_dx: bool, outs: tuple) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Back-propagation through time of `_recur`, numpy only: the gradient
    of each of `cell.parameters()` in its order, and of `xs` if wanted.
    dW_x and dW_h are written into `outs`' arrays where they are not None."""
    pre, act, cs, hs = state
    hd = cell.hidden_dim
    gi, gf, gc, go, p_if, p_out = _gates(cell)
    peephole = p_out is not None
    w_h = cell.w_h.data
    c_prev, tanh_c = cs[:-1], np.tanh(cs[1:])
    deriv = act * (1.0 - act)  # sigmoid' of every gate but the candidate
    deriv[:, gc] = 1.0 - act[:, gc] * act[:, gc]
    out_deriv = act[:, go] * (1.0 - tanh_c * tanh_c)
    d_pre = np.empty_like(pre)
    dh = np.zeros(hd)
    dc = np.zeros(hd)
    for t in range(len(pre) - 1, -1, -1):
        a, d, r = act[t], d_pre[t], deriv[t]
        dh += d_out[t]
        d[go] = dh * tanh_c[t] * r[go]
        dc += dh * out_deriv[t]
        if peephole:
            dc += d[go] * p_out
            d[gi] = dc * a[gc] * r[gi]
            d[gf] = dc * c_prev[t] * r[gf]
            d[gc] = dc * a[gi] * r[gc]
            dc = dc * a[gf] + d[gi] * p_if[0] + d[gf] * p_if[1]
        else:
            d[gi] = dc * (a[gc] - c_prev[t]) * r[gi]
            d[gc] = dc * a[gi] * r[gc]
            dc = dc * (1.0 - a[gi])
        dh = d @ w_h
    grads = [np.matmul(d_pre.T, xs, out=outs[0]), np.matmul(d_pre.T, hs[:-1], out=outs[1]),
             d_pre.sum(axis=0)]
    if peephole:
        grads += [(d_pre[:, gi] * c_prev).sum(axis=0), (d_pre[:, gf] * c_prev).sum(axis=0),
                  (d_pre[:, go] * cs[1:]).sum(axis=0)]
    return grads, d_pre @ cell.w_x.data if want_dx else None


def _layer(forward_cell: LstmCell, backward_cell: LstmCell, x: Tensor) -> Tensor:
    """One bi-LSTM layer over the rows of `x`: (T, D) -> (T, 2H), one tape
    node.  The backward direction runs on a helper thread while this
    thread runs the forward one, in the recurrence and again in BPTT."""
    for cell in (forward_cell, backward_cell):
        if x.shape[1] != cell.input_dim:
            raise ValueError(f"expected inputs of width {cell.input_dim}, got {x.shape[1]}")
    xs, sx = x.data, x.data[::-1]
    fwd, bwd = in_parallel(lambda: _recur(forward_cell, xs), lambda: _recur(backward_cell, sx))
    _check_finite(fwd[0], "bilstm_encode", (x,))
    _check_finite(bwd[0], "bilstm_encode", (x,))
    out = np.concatenate([fwd[3][1:], bwd[3][:0:-1]], axis=1)

    def backward(grad):
        h, want_dx = forward_cell.hidden_dim, x.requires_grad
        # A first dW_x or dW_h of the step is written into the weight's slot;
        # a weight the two cells share, only by the forward one.
        f_outs = (_grad_out(forward_cell.w_x), _grad_out(forward_cell.w_h))
        b_outs = tuple(None if w is forward_cell.w_x or w is forward_cell.w_h else _grad_out(w)
                       for w in (backward_cell.w_x, backward_cell.w_h))
        (f_grads, f_dx), (b_grads, b_dx) = in_parallel(
            lambda: _bptt(forward_cell, xs, fwd, grad[:, :h], want_dx, f_outs),
            lambda: _bptt(backward_cell, sx, bwd, grad[::-1, h:], want_dx, b_outs))
        # Added here, after the join, in a fixed order: a cell shared by both
        # directions is never written by two threads, and its sums are the
        # same on every run.
        for cell, grads in ((forward_cell, f_grads), (backward_cell, b_grads)):
            for param, g in zip(cell.parameters("").values(), grads):
                if g is param._grad_slot:
                    param.grad = g
                else:
                    _accumulate(param, g)
        if want_dx:
            _accumulate(x, f_dx)
            _accumulate(x, b_dx[::-1])

    parents = (x, *forward_cell.parameters("").values(), *backward_cell.parameters("").values())
    return _result(out, parents, backward)


def bilstm_encode(layers, x: Tensor) -> Tensor:
    """Run a (possibly multi-layer) bi-LSTM over the rows of `x` (T, D).

    `layers` is a list of (forward_cell, backward_cell) pairs; layer k's
    output feeds layer k+1.  Row t of the (T, 2H) result is
    concat(forward_h[t], backward_h[t]).
    """
    if x.data.ndim != 2 or x.shape[0] == 0:
        raise ValueError("bilstm_encode requires a non-empty (T, D) matrix")
    for forward_cell, backward_cell in layers:
        x = _layer(forward_cell, backward_cell, x)
    return x
