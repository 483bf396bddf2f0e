"""Parameter initialization: orthogonal recurrent weights, Glorot-uniform
projections, zero biases.  All draws come from a caller-supplied seeded
generator so training runs are bit-reproducible.  With `rng` None the
draws return zeros and consume nothing: the archive loader builds a
model that way and then fills in its stored arrays.
"""

from __future__ import annotations

import numpy as np

from .worker import in_parallel


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def glorot_uniform(rng: np.random.Generator | None, *shape: int) -> np.ndarray:
    """Uniform in +-sqrt(6 / (rows + cols)) for the last two dims (a leading dim
    stacks matrices drawn one after another); zeros when rng is None."""
    if rng is None:
        return zeros(*shape)
    limit = np.sqrt(6.0 / (shape[-2] + shape[-1]))
    return rng.uniform(-limit, limit, size=shape)


def orthogonal_gate_stack(rng: np.random.Generator | None, gates: int, hidden: int,
                          pending: list | None = None) -> np.ndarray:
    """Per-gate orthogonal (H, H) blocks stacked into (gates*H, H); zeros when
    rng is None.  Each block is drawn Gaussian, one after another, and then
    turned into an orthogonal one by `orthogonalize`.  Given a list
    `pending`, the stack is returned still Gaussian and its blocks are
    appended to the list, for the caller to orthogonalize together with
    other stacks' blocks."""
    if rng is None:
        return zeros(gates * hidden, hidden)
    blocks = rng.standard_normal((gates, hidden, hidden))
    if pending is None:
        orthogonalize(list(blocks))
    else:
        pending.extend(blocks)
    return blocks.reshape(gates * hidden, hidden)


def orthogonalize(blocks: list[np.ndarray]) -> None:
    """Replace each square block, in place, by the Q of its QR with signs
    fixed so the decomposition is unique.  The QRs run two at a time, one
    on a helper thread: LAPACK releases the GIL, and each block's result
    depends on that block alone."""
    def qr(block):
        q, r = np.linalg.qr(block)
        np.multiply(q, np.sign(np.diag(r)), out=block)

    for k in range(0, len(blocks) - 1, 2):
        in_parallel(lambda: qr(blocks[k]), lambda: qr(blocks[k + 1]))
    if len(blocks) % 2:
        qr(blocks[-1])


def zeros(*shape) -> np.ndarray:
    return np.zeros(shape)
