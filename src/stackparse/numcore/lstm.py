"""LSTM cells and bidirectional sequence encoding.

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
from .tensor import Tensor, concat, matmul, mul, sigmoid, tanh

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
        if rng is None:
            w_x = init.zeros(gates * hidden_dim, input_dim)
            w_h = init.zeros(gates * hidden_dim, hidden_dim)
        else:
            w_x = init.glorot_gate_stack(rng, gates, hidden_dim, input_dim)
            w_h = init.orthogonal_gate_stack(rng, gates, hidden_dim)
        self.w_x = Tensor(w_x, requires_grad=True)
        self.w_h = Tensor(w_h, requires_grad=True)
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


def _run_direction(cell: LstmCell, inputs: list[Tensor]) -> list[Tensor]:
    h = Tensor(init.zeros(cell.hidden_dim))
    c = Tensor(init.zeros(cell.hidden_dim))
    outputs = []
    for x in inputs:
        h, c = cell.step(x, h, c)
        outputs.append(h)
    return outputs


def bilstm_encode(layers, inputs) -> list[Tensor]:
    """Run a (possibly multi-layer) bi-LSTM over a sequence of vectors.

    `layers` is a list of (forward_cell, backward_cell) pairs; layer k's
    concatenated outputs feed layer k+1.  Output t is
    concat(forward_h[t], backward_h[t]).
    """
    seq = list(inputs)
    if not seq:
        raise ValueError("bilstm_encode requires a non-empty sequence")
    for forward_cell, backward_cell in layers:
        fwd = _run_direction(forward_cell, seq)
        bwd = _run_direction(backward_cell, seq[::-1])[::-1]
        seq = [concat([f, b]) for f, b in zip(fwd, bwd)]
    return seq
