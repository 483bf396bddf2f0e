"""Parameter initialization: orthogonal recurrent weights, Glorot-uniform
projections, zero biases.  All draws come from a caller-supplied seeded
generator so training runs are bit-reproducible.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, n) orthogonal matrix: the Q of a Gaussian matrix's QR, with
    signs fixed so the decomposition is unique."""
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def orthogonal_gate_stack(rng: np.random.Generator, gates: int, hidden: int) -> np.ndarray:
    """Stack per-gate orthogonal (H, H) blocks into a (gates*H, H) matrix."""
    return np.concatenate([orthogonal(rng, hidden) for _ in range(gates)], axis=0)


def glorot_gate_stack(rng: np.random.Generator, gates: int, hidden: int, input_dim: int) -> np.ndarray:
    return np.concatenate([glorot_uniform(rng, hidden, input_dim) for _ in range(gates)], axis=0)


def zeros(*shape) -> np.ndarray:
    return np.zeros(shape)
