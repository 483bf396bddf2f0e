"""LSTM cells and bidirectional sequence encoding.

`bilstm_encode` encodes a batch of sequences: per layer and direction,
each sequence's input projection X @ W_x^T + b is one GEMM, and one numpy
recurrence runs them all, longest first, each step updating only the
sequences still running (packed sequences, as in PyTorch's
`pack_padded_sequence`).  No sum mixes two sequences, so on one BLAS
thread each one's outputs have the bits of a batch of one, the batch
training runs; a threaded BLAS splits a lone sequence's GEMV into other
row ranges than a batch's blocks, so there a sequence's last bits can
depend on the sequences that share its batch.  Each
sequence gets one tape node per layer (none under `no_grad`), whose
backward is hand-written back-propagation through time over its rows of
the state: it fills a (T, gates * H) array of gate gradients, so dW_x,
dW_h, db and dX are one GEMM or one sum each.  The two directions never
read each other's state, so the backward one runs on a helper thread
that lives for one call (see `worker`) while the calling thread runs the
forward one, in the recurrence and again in BPTT; the calling thread
alone makes the tape nodes, checks finiteness and adds every gradient,
forward cell first.  A weight's first gradient of a training step is the
exception: each BPTT writes dW_x and dW_h straight into the weight's slot
of `fit`'s flat gradient buffer, and the calling thread binds them after
the join.  `batched` cuts inference's sentences into length-sorted
batches under a fixed budget of padded tokens, which bounds the state.

Two cell variants are provided:

* ``peephole``: input/forget gates additionally see the previous cell
  state and the output gate sees the new cell state, each through a
  learned diagonal (peephole) vector.
* ``coupled-input-forget``: the forget gate is tied to ``1 - input``,
  so the cell state is a convex combination of its previous value and
  the tanh candidate.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import init
from .tensor import Tensor, _accumulate, _check_finite, _grad_out, _result, _sigmoid, parameter
from .worker import in_parallel

PEEPHOLE = "peephole"
COUPLED = "coupled-input-forget"

# Rows of W_h per block of a batched step: 460 KB of a 900-unit cell's
# W_h, read from cache by every running sequence.  A multiple of 16, so
# that each block starts a GEMV where the whole-matrix GEMV's kernel
# starts a row group and gives every row the same bits.
_BLOCK_ROWS = 64
# Padded tokens (sequences times the longest length) per `batched` batch.
# A layer's recurrence keeps (2 x gates + 2) x H float64s of state per
# padded token and direction: 18 MB per direction at 900 coupled units.
# A larger budget runs a long file faster and peaks higher; the timed
# budgets are in BENCH_batch.json.
BATCH_TOKENS = 320


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


def _recur(cell: LstmCell, xs: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """One direction over a batch of sequences sorted longest first, numpy
    only: (pre, act, cs, hs), indexed [sequence, step].

    pre[i, t]: gate pre-activations of step t, peephole terms included;
    act[i, t]: the gates after their sigmoid/tanh; cs[i, t]/hs[i, t]: the
    state entering step t, so column 0 is the zero initial state.  Steps
    past a sequence's length stay zero (unset in `act`), and [i, :T_i]
    and [i, :T_i + 1] are sequence i's state as a batch of one gives it.

    Step t updates the k rows still running.  With k = 1, W_h·h is one
    GEMV over the whole matrix.  With more, one matmul runs a GEMV per
    (row block of W_h, sequence), blocks outer, so each block stays in
    cache while every row reads it, and one more call covers the tail
    rows.  On one BLAS thread (the CLI's) a GEMV's row results do not
    depend on its other rows when the call starts at a multiple of 16
    rows, so every row keeps its bits; a GEMM over the k states would not.
    """
    hd = cell.hidden_dim
    gi, gf, gc, go, p_if, p_out = _gates(cell)
    peephole = p_out is not None
    lengths = np.array([len(x) for x in xs])
    steps = lengths[0]
    live = (lengths[:, None] > np.arange(steps)).sum(axis=0)
    w_h = cell.w_h.data
    pre = np.zeros((len(xs), steps, w_h.shape[0]))
    for row, x in zip(pre, xs):
        row[:len(x)] = x @ cell.w_x.data.T + cell.bias.data
    act = np.empty_like(pre)
    cs = np.zeros((len(xs), steps + 1, hd))
    hs = np.zeros((len(xs), steps + 1, hd))
    blocks = w_h.shape[0] // _BLOCK_ROWS
    split = blocks * _BLOCK_ROWS
    w_blocks, w_tail = w_h[:split].reshape(blocks, 1, _BLOCK_ROWS, hd), w_h[split:]
    # A non-finite input or weight makes `pre` non-finite; the caller
    # reports it, not a numpy warning from inside the loop.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            k = live[t]
            p, a, c_prev, h = pre[:k, t], act[:k, t], cs[:k, t], hs[:k, t, :, None]
            if k == 1 or not blocks:
                p += np.matmul(w_h, h)[..., 0]
            else:
                head = p[:, :split].reshape(k, blocks, _BLOCK_ROWS)
                head += np.matmul(w_blocks, h)[..., 0].transpose(1, 0, 2)
                p[:, split:] += np.matmul(w_tail, h)[..., 0]
            if peephole:
                p_gates = p[:, :2 * hd].reshape(k, 2, hd)
                p_gates += p_if * c_prev[:, None]
                a[:, :2 * hd] = _sigmoid(p[:, :2 * hd])
                a[:, gc] = np.tanh(p[:, gc])
                c = a[:, gf] * c_prev + a[:, gi] * a[:, gc]
                p[:, go] += p_out * c
                a[:, go] = _sigmoid(p[:, go])
            else:
                a[:] = _sigmoid(p)
                a[:, gc] = np.tanh(p[:, gc])
                c = (1.0 - a[:, gi]) * c_prev + a[:, gi] * a[:, gc]
            cs[:k, t + 1] = c
            hs[:k, t + 1] = a[:, go] * np.tanh(c)
    return pre, act, cs, hs


def _bptt(cell: LstmCell, xs: np.ndarray, state: tuple, d_out: np.ndarray,
          want_dx: bool, outs: tuple) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Back-propagation through time of `_recur` over one sequence's rows
    of its state, numpy only: the gradient of each of `cell.parameters()`
    in its order, and of `xs` if wanted.  dW_x and dW_h are written into
    `outs`' arrays where they are not None."""
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


def _sequence(forward_cell: LstmCell, backward_cell: LstmCell, x: Tensor,
              fwd: tuple, bwd: tuple) -> Tensor:
    """Sequence `x`'s (T, 2H) outputs from its rows of both directions'
    state, as one tape node; its backward runs BPTT on those rows, the
    backward direction on a helper thread."""
    xs, sx = x.data, x.data[::-1]
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


def _layer(forward_cell: LstmCell, backward_cell: LstmCell, xs: list[Tensor]) -> list[Tensor]:
    """One bi-LSTM layer over a batch of (T_i, D) tensors sorted longest
    first: (T_i, 2H) each.  The backward direction reads each sequence
    reversed within its own length and runs on a helper thread while this
    thread runs the forward one."""
    for cell in (forward_cell, backward_cell):
        for x in xs:
            if x.shape[1] != cell.input_dim:
                raise ValueError(f"expected inputs of width {cell.input_dim}, got {x.shape[1]}")
    fwd, bwd = in_parallel(lambda: _recur(forward_cell, [x.data for x in xs]),
                           lambda: _recur(backward_cell, [x.data[::-1] for x in xs]))
    _check_finite(fwd[0], "bilstm_encode", tuple(xs))
    _check_finite(bwd[0], "bilstm_encode", tuple(xs))

    def rows(state, i, n):  # sequence i's steps and states
        pre, act, cs, hs = state
        return pre[i, :n], act[i, :n], cs[i, :n + 1], hs[i, :n + 1]

    return [_sequence(forward_cell, backward_cell, x, rows(fwd, i, len(x.data)),
                      rows(bwd, i, len(x.data))) for i, x in enumerate(xs)]


def bilstm_encode(layers, xs: list[Tensor]) -> list[Tensor]:
    """Run a (possibly multi-layer) bi-LSTM over each of a batch of (T_i, D)
    tensors, all in one recurrence per layer and direction.

    `layers` is a list of (forward_cell, backward_cell) pairs; layer k's
    outputs feed layer k+1.  Row t of sequence i's (T_i, 2H) result is
    concat(forward_h[t], backward_h[t]), the same bits as a batch of one
    gives when BLAS runs on one thread (see `_recur`), and results come in
    input order.
    """
    for x in xs:
        if x.data.ndim != 2 or x.shape[0] == 0:
            raise ValueError("bilstm_encode requires non-empty (T, D) matrices")
    if not xs:
        return []
    order = sorted(range(len(xs)), key=lambda i: -xs[i].shape[0])
    batch = [xs[i] for i in order]
    for forward_cell, backward_cell in layers:
        batch = _layer(forward_cell, backward_cell, batch)
    out = [None] * len(xs)
    for i, y in zip(order, batch):
        out[i] = y
    return out


def batched(run, items: Sequence) -> list:
    """`run(batch)` over `items` in batches sorted longest first (by
    `len`), each with at most BATCH_TOKENS padded tokens or a single item;
    run's per-item results, in input order."""
    order = sorted(range(len(items)), key=lambda i: -len(items[i]))
    results = [None] * len(items)
    start = 0
    while start < len(order):
        stop = start + max(1, BATCH_TOKENS // max(1, len(items[order[start]])))
        batch = order[start:stop]
        for i, result in zip(batch, run([items[i] for i in batch])):
            results[i] = result
        start = stop
    return results
