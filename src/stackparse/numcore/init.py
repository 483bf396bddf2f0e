"""Parameter initialization: orthogonal recurrent weights, Glorot-uniform
projections, zero biases.  All draws come from a caller-supplied seeded
generator so training runs are bit-reproducible.  With `rng` None the
draws return zeros and consume nothing: the archive loader builds a
model that way and then fills in its stored arrays.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def glorot_uniform(rng: np.random.Generator | None, *shape: int) -> np.ndarray:
    """Uniform in +-sqrt(6 / (rows + cols)) for the last two dims (a leading dim
    stacks matrices drawn one after another); zeros when rng is None."""
    if rng is None:
        return zeros(*shape)
    limit = np.sqrt(6.0 / (shape[-2] + shape[-1]))
    return rng.uniform(-limit, limit, size=shape)


def orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, n) orthogonal matrix: the Q of a Gaussian matrix's QR, with
    signs fixed so the decomposition is unique."""
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def orthogonal_gate_stack(rng: np.random.Generator | None, gates: int, hidden: int) -> np.ndarray:
    """Per-gate orthogonal (H, H) blocks stacked into (gates*H, H); zeros when rng is None."""
    if rng is None:
        return zeros(gates * hidden, hidden)
    return np.concatenate([orthogonal(rng, hidden) for _ in range(gates)], axis=0)


def glorot_gate_stack(rng: np.random.Generator | None, gates: int, hidden: int,
                      input_dim: int) -> np.ndarray:
    """Per-gate Glorot (H, D) blocks stacked into (gates*H, D); zeros when rng is None."""
    return glorot_uniform(rng, gates, hidden, input_dim).reshape(gates * hidden, input_dim)


def zeros(*shape) -> np.ndarray:
    return np.zeros(shape)
