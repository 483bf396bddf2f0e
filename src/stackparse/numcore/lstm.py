"""LSTM cells and bidirectional sequence encoding.

`bilstm_encode` runs each (layer, direction) as one fused sequence op:
the input projection X @ W_x^T + b is one GEMM for all steps, the
recurrence runs in numpy, and the op adds one tape node (none under
`no_grad`) whose backward is hand-written back-propagation through time.
It fills a (T, gates * H) array of gate gradients, so dW_x, dW_h, db and
dX are one GEMM or one sum each.  `LstmCell.step` (and `lstm_step`) is
the per-step tape formulation of the same cell, kept as the reference
the fused op is tested against.

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
from .tensor import (Tensor, _accumulate, _check_finite, _result, _sigmoid, concat, matmul,
                     mul, sigmoid, tanh)

PEEPHOLE = "peephole"
COUPLED = "coupled-input-forget"


class LstmCell:
    """One direction of one recurrent layer."""

    def __init__(self, variant: str, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None = None):
        if variant not in (PEEPHOLE, COUPLED):
            raise ValueError(f"unknown LSTM variant {variant!r}")
        self.variant = variant
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        gates = 4 if variant == PEEPHOLE else 3  # (i, f, g, o) vs (i, g, o)
        self.w_x = Tensor(init.glorot_gate_stack(rng, gates, hidden_dim, input_dim),
                          requires_grad=True)
        self.w_h = Tensor(init.orthogonal_gate_stack(rng, gates, hidden_dim), requires_grad=True)
        self.bias = Tensor(init.zeros(gates * hidden_dim), requires_grad=True)
        if variant == PEEPHOLE:
            self.p_in = Tensor(init.zeros(hidden_dim), requires_grad=True)
            self.p_forget = Tensor(init.zeros(hidden_dim), requires_grad=True)
            self.p_out = Tensor(init.zeros(hidden_dim), requires_grad=True)

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

    def step(self, x: Tensor, h_prev: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
        if x.shape != (self.input_dim,):
            raise ValueError(f"expected input of shape ({self.input_dim},), got {x.shape}")
        if h_prev.shape != (self.hidden_dim,) or c_prev.shape != (self.hidden_dim,):
            raise ValueError("state dimension mismatch")
        h = self.hidden_dim
        pre = matmul(self.w_x, x) + matmul(self.w_h, h_prev) + self.bias
        if self.variant == PEEPHOLE:
            gate_in = sigmoid(pre[0:h] + mul(self.p_in, c_prev))
            gate_forget = sigmoid(pre[h:2 * h] + mul(self.p_forget, c_prev))
            candidate = tanh(pre[2 * h:3 * h])
            c = mul(gate_forget, c_prev) + mul(gate_in, candidate)
            gate_out = sigmoid(pre[3 * h:4 * h] + mul(self.p_out, c))
        else:
            gate_in = sigmoid(pre[0:h])
            candidate = tanh(pre[h:2 * h])
            c = mul(1.0 - gate_in, c_prev) + mul(gate_in, candidate)
            gate_out = sigmoid(pre[2 * h:3 * h])
        return mul(gate_out, tanh(c)), c


def lstm_step(cell: LstmCell, x: Tensor, h_prev: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
    return cell.step(x, h_prev, c_prev)


def _sequence(cell: LstmCell, x: Tensor, reverse: bool) -> Tensor:
    """One direction of one layer over the rows of `x`: (T, D) -> (T, H).

    The input projection is one GEMM for all steps; the recurrence runs in
    numpy and adds a single tape node, whose backward is BPTT over the
    stored activations.
    """
    if x.shape[1] != cell.input_dim:
        raise ValueError(f"expected inputs of width {cell.input_dim}, got {x.shape[1]}")
    hd = cell.hidden_dim
    peephole = cell.variant == PEEPHOLE
    if peephole:  # column blocks of the stacked gates
        gi, gf, gc, go = (slice(k * hd, (k + 1) * hd) for k in range(4))
        p_if = np.stack([cell.p_in.data, cell.p_forget.data])
        p_out = cell.p_out.data
    else:
        gi, gc, go = (slice(k * hd, (k + 1) * hd) for k in range(3))
    xs = x.data[::-1] if reverse else x.data
    steps = xs.shape[0]
    w_h = cell.w_h.data
    # pre[t]: gate pre-activations of step t, peephole terms included;
    # act[t]: the gates after their sigmoid/tanh; cs[t]/hs[t]: the state
    # entering step t, so row 0 is the zero initial state.
    pre = xs @ cell.w_x.data.T + cell.bias.data
    act = np.empty_like(pre)
    cs = np.zeros((steps + 1, hd))
    hs = np.zeros((steps + 1, hd))
    # A non-finite input or weight makes `pre` non-finite; it is reported
    # by the check below, not as a numpy warning from inside the loop.
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
    _check_finite(pre)
    out = hs[1:]

    def backward(grad):
        d_out = grad[::-1] if reverse else grad
        c_prev, tanh_c = cs[:-1], np.tanh(cs[1:])
        deriv = act * (1.0 - act)  # sigmoid' of every gate but the candidate
        deriv[:, gc] = 1.0 - act[:, gc] * act[:, gc]
        out_deriv = act[:, go] * (1.0 - tanh_c * tanh_c)
        d_pre = np.empty_like(pre)
        dh = np.zeros(hd)
        dc = np.zeros(hd)
        for t in range(steps - 1, -1, -1):
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
        _accumulate(cell.w_x, d_pre.T @ xs)
        _accumulate(cell.w_h, d_pre.T @ hs[:-1])
        _accumulate(cell.bias, d_pre.sum(axis=0))
        if peephole:
            _accumulate(cell.p_in, (d_pre[:, gi] * c_prev).sum(axis=0))
            _accumulate(cell.p_forget, (d_pre[:, gf] * c_prev).sum(axis=0))
            _accumulate(cell.p_out, (d_pre[:, go] * cs[1:]).sum(axis=0))
        if x.requires_grad:
            dx = d_pre @ cell.w_x.data
            _accumulate(x, dx[::-1] if reverse else dx)

    parents = (x, *cell.parameters("").values())
    return _result(out[::-1] if reverse else out, parents, backward)


def bilstm_encode(layers, x: Tensor) -> Tensor:
    """Run a (possibly multi-layer) bi-LSTM over the rows of `x` (T, D).

    `layers` is a list of (forward_cell, backward_cell) pairs; layer k's
    output feeds layer k+1.  Row t of the (T, 2H) result is
    concat(forward_h[t], backward_h[t]).
    """
    if x.data.ndim != 2 or x.shape[0] == 0:
        raise ValueError("bilstm_encode requires a non-empty (T, D) matrix")
    for forward_cell, backward_cell in layers:
        x = concat([_sequence(forward_cell, x, False), _sequence(backward_cell, x, True)],
                   axis=1)
    return x
