"""Adagrad with L2 regularization folded into the gradient, and the
epoch loop every trainer runs on it."""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, zero_grads
from .worker import in_parallel

_CHUNK = 1 << 15  # elements per Adagrad pass; the two 256 KiB scratch chunks stay in cache


class AdagradState:
    """Per-parameter squared-gradient accumulators plus hyperparameters.

    Accumulators are keyed by parameter name, start at zero, and never
    decrease.
    """

    def __init__(self, learning_rate: float = 0.01, epsilon: float = 1e-8,
                 l2_lambda: float = 1e-6):
        if not 0 < learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0 < epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0 <= l2_lambda < math.inf:
            raise ValueError("l2_lambda must be >= 0 and finite")
        self.learning_rate = learning_rate
        self.epsilon = epsilon
        self.l2_lambda = l2_lambda
        self.accumulators: dict[str, np.ndarray] = {}
        # Two flat scratch buffers for each of the two threads of `apply`.
        self._scratch = [(np.empty(0), np.empty(0)) for _ in range(2)]

    def _buffers(self, thread: int, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
        """The thread's two scratch arrays of `shape`, views of two flat
        buffers that every update reuses (grown when a row is longer than
        a chunk)."""
        size = math.prod(shape)
        if self._scratch[thread][0].size < size:
            self._scratch[thread] = (np.empty(size), np.empty(size))
        return tuple(b[:size].reshape(shape) for b in self._scratch[thread])

    def apply(self, params: dict[str, Tensor]) -> None:
        """One Adagrad step, in place, for every tensor with a .grad (None
        grads are skipped): acc += g^2; p -= lr * g / (sqrt(acc) + eps).

        The L2 term lambda * p is added to the raw gradient first.  Every
        gradient is checked before anything changes: on a non-finite one
        this raises FloatingPointError naming the first such tensor in
        `params` order, and no parameter or accumulator is touched.  A
        tensor is updated in chunks of whole rows, so the intermediates
        stay in cache; every element sees the operations of the formula
        in its order, so the results are those of the whole-array
        expression.  The chunks are split into two runs of about equal
        size, one run on a helper thread that lives for this call, and
        each run has its own scratch buffers; so a tensor may appear in
        `params` once.
        """
        named = [(name, t) for name, t in params.items() if t.grad is not None]
        for name, t in named:
            if t.grad.shape != t.data.shape:
                raise ValueError(f"gradient shape mismatch for {name!r}")
        if len({id(t) for _, t in named}) < len(named):
            raise ValueError("a tensor may appear in the parameters only once")
        runs = _split(named)
        bad = in_parallel(lambda: _first_non_finite(named, runs[0]),
                          lambda: _first_non_finite(named, runs[1]))
        first = next((k for k in bad if k is not None), None)
        if first is not None:
            raise FloatingPointError(f"non-finite gradient for parameter {named[first][0]!r}")
        for name, t in named:
            if name not in self.accumulators:
                self.accumulators[name] = np.zeros_like(t.data)
        in_parallel(lambda: self._update_run(0, named, runs[0]),
                    lambda: self._update_run(1, named, runs[1]))

    def _update_run(self, thread: int, named: list, run: list) -> None:
        for k, rows in run:
            name, t = named[k]
            g, p, acc = np.atleast_1d(t.grad, t.data, self.accumulators[name])
            self._update(thread, g[rows], p[rows], acc[rows])

    def _update(self, thread: int, g: np.ndarray, p: np.ndarray, acc: np.ndarray) -> None:
        step, tmp = self._buffers(thread, p.shape)
        if self.l2_lambda:
            g = np.add(g, np.multiply(self.l2_lambda, p, out=step), out=step)
        acc += np.multiply(g, g, out=tmp)
        np.sqrt(acc, out=tmp)
        tmp += self.epsilon
        np.multiply(self.learning_rate, g, out=step)
        p -= np.divide(step, tmp, out=step)


def _split(named: list) -> tuple[list, list]:
    """(tensor index, row slice) chunks of every tensor in order, cut into
    two runs of about equal element count."""
    chunks, sizes = [], []
    for k, (_, t) in enumerate(named):
        p = np.atleast_1d(t.data)
        row = math.prod(p.shape[1:])
        rows = max(1, _CHUNK // max(1, row))
        for lo in range(0, len(p), rows):
            chunks.append((k, slice(lo, lo + rows)))
            sizes.append(min(rows, len(p) - lo) * row)
    cut = bisect.bisect_left(list(itertools.accumulate(sizes)), sum(sizes) / 2)
    return chunks[:cut], chunks[cut:]


def _first_non_finite(named: list, run: list) -> int | None:
    """Index in `named` of the first tensor with a non-finite gradient in
    the chunks of `run`, or None."""
    for k, rows in run:
        if not np.isfinite(np.atleast_1d(named[k][1].grad)[rows]).all():
            return k
    return None


def fit(params: dict[str, Tensor], loss_fn: Callable[[object, np.random.Generator], Tensor],
        train: Sequence, dev: Sequence, dev_score: Callable[[Sequence], float],
        config, rng: np.random.Generator) -> tuple[int, float | None]:
    """Adagrad over `config.epochs` passes of `train`, each in the order of
    one `rng.permutation`, one update per example.  `loss_fn(example, rng)`
    gets this same generator, so its dropout masks are drawn from it after
    the epoch's permutation.

    With a dev set, `dev_score(dev)` is taken after every epoch and the
    parameters of the first epoch with the highest score are restored;
    returns (best epoch, its score).  Without one, the last epoch's
    parameters stay and the result is (config.epochs, None).
    """
    optimizer = AdagradState(config.learning_rate, l2_lambda=config.l2_lambda)
    best_score, best_epoch, best_params = -1.0, None, None
    for epoch in range(1, config.epochs + 1):
        for i in rng.permutation(len(train)):
            zero_grads(params.values())
            loss_fn(train[int(i)], rng).backward()
            optimizer.apply(params)
        if dev:
            score = dev_score(dev)
            if score > best_score:
                best_score, best_epoch = score, epoch
                best_params = {name: t.data.copy() for name, t in params.items()}
    if best_params is None:
        return config.epochs, None
    for name, t in params.items():
        t.data[...] = best_params[name]
    return best_epoch, best_score
