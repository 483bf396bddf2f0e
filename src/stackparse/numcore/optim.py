"""Adagrad with L2 regularization folded into the gradient, and the
epoch loop every trainer runs on it.

An `AdagradState` lays its tensors out back to back in one flat buffer
for their gradients and one for their accumulators.  `fit` makes each
tensor's piece of the first its gradient slot, which backward writes
(see `tensor._accumulate`), and keeps one snapshot buffer of the same
layout, so training allocates no gradient, accumulator or snapshot per
step or epoch.  Values stay in the tensors' own arrays: a third buffer
would copy every weight once more and keep a mapped base model's pages
resident next to the copy.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, zero_grads
from .worker import in_parallel

_CHUNK = 1 << 15  # elements per Adagrad pass; the two 256 KiB scratch chunks stay in cache


class _Arena:
    """The tensors of `params`, in their order, laid out back to back in one
    flat buffer for gradients and one for accumulators."""

    def __init__(self, params: dict[str, Tensor]):
        self.names = list(params)
        self.tensors = list(params.values())
        if len({id(t) for t in self.tensors}) < len(self.tensors):
            raise ValueError("a tensor may appear in the parameters only once")
        for t in self.tensors:  # so that a flat view of the values is no copy
            if not t.data.flags.c_contiguous:
                t.data = t.data.copy()
        self.bounds = list(itertools.accumulate((t.data.size for t in self.tensors), initial=0))
        self.grads = np.zeros(self.bounds[-1])
        self.accumulators = np.zeros(self.bounds[-1])
        self.slots = [self.piece(self.grads, k) for k in range(len(self.tensors))]

    def piece(self, flat: np.ndarray, k: int) -> np.ndarray:
        """Tensor k's part of a buffer of this layout, in the tensor's shape."""
        return flat[self.bounds[k]:self.bounds[k + 1]].reshape(self.tensors[k].data.shape)


class AdagradState:
    """Per-parameter squared-gradient accumulators plus hyperparameters.

    Accumulators are keyed by parameter name, start at zero, and never
    decrease; a name gets one at its first update.
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
        self._arena: _Arena | None = None
        # Two scratch chunks for each of the two threads of `apply`.
        self._scratch = [(np.empty(_CHUNK), np.empty(_CHUNK)) for _ in range(2)]

    def _layout(self, params: dict[str, Tensor]) -> _Arena:
        """The arena of the first call's `params`; later calls must pass the
        same tensors under the same names."""
        if self._arena is None:
            self._arena = _Arena(params)
        elif list(params) != self._arena.names or any(
                t is not u for t, u in zip(params.values(), self._arena.tensors)):
            raise ValueError("an AdagradState updates the parameters of its first call only")
        return self._arena

    def apply(self, params: dict[str, Tensor]) -> None:
        """One Adagrad step, in place, for every tensor with a .grad (None
        grads are skipped): acc += g^2; p -= lr * g / (sqrt(acc) + eps).

        The L2 term lambda * p is added to the raw gradient first.  Every
        gradient is checked before anything changes: on a non-finite one
        this raises FloatingPointError naming the first such tensor in
        `params` order, and no parameter or accumulator is touched.  A
        gradient that is not the tensor's slot is copied there first.  The
        updated tensors' elements are cut into two runs of about equal
        size, one for a helper thread that lives for this call.  Each run is
        checked in one read, then updated in chunks through its own scratch
        buffers, so the intermediates stay in cache; every element sees the
        operations of the formula in its order, so the results are those
        of the whole-array expression.
        """
        arena = self._layout(params)
        touched = []
        for k, t in enumerate(arena.tensors):
            if t.grad is None:
                continue
            if t.grad.shape != t.data.shape:
                raise ValueError(f"gradient shape mismatch for {arena.names[k]!r}")
            if t.grad is not arena.slots[k]:
                np.copyto(arena.slots[k], t.grad)
            touched.append(k)
        runs = _cut(arena, touched)
        finite = in_parallel(lambda: _all_finite(arena.grads, runs[0]),
                             lambda: _all_finite(arena.grads, runs[1]))
        if not all(finite):
            for k in touched:
                if not np.isfinite(arena.slots[k]).all():
                    raise FloatingPointError(
                        f"non-finite gradient for parameter {arena.names[k]!r}")
        for k in touched:
            if arena.names[k] not in self.accumulators:
                self.accumulators[arena.names[k]] = arena.piece(arena.accumulators, k)
        in_parallel(lambda: self._update_run(0, arena, runs[0]),
                    lambda: self._update_run(1, arena, runs[1]))

    def _update_run(self, thread: int, arena: _Arena, run: list) -> None:
        step, tmp = self._scratch[thread]
        for p, where in run:
            g, acc = arena.grads[where], arena.accumulators[where]
            for a in range(0, len(p), _CHUNK):
                b = min(a + _CHUNK, len(p))
                self._update(step[:b - a], tmp[:b - a], g[a:b], p[a:b], acc[a:b])

    def _update(self, step: np.ndarray, tmp: np.ndarray, g: np.ndarray, p: np.ndarray,
                acc: np.ndarray) -> None:
        if self.l2_lambda:
            g = np.add(g, np.multiply(self.l2_lambda, p, out=step), out=step)
        acc += np.multiply(g, g, out=tmp)
        np.sqrt(acc, out=tmp)
        tmp += self.epsilon
        np.multiply(self.learning_rate, g, out=step)
        p -= np.divide(step, tmp, out=step)


def _cut(arena: _Arena, indices) -> tuple[list, list]:
    """The elements of the tensors numbered in `indices`, in order, cut into
    two runs of about equal size.  A run is a list of (values, where)
    pieces: a flat view of part of a tensor's values, and the slice of the
    flat buffers that lies over it."""
    pieces = [(arena.tensors[k].data.reshape(-1), arena.bounds[k]) for k in indices]
    left = sum(len(values) for values, _ in pieces) // 2
    runs = ([], [])
    for values, at in pieces:
        mid = min(len(values), left)
        left -= mid
        for run, lo, hi in ((runs[0], 0, mid), (runs[1], mid, len(values))):
            if hi > lo:
                run.append((values[lo:hi], slice(at + lo, at + hi)))
    return runs


def _all_finite(grads: np.ndarray, run: list) -> bool:
    """Whether every gradient element of the run is finite, as far as one
    read of each piece shows: a sum is finite only if every term is.  A
    sum of finite terms may overflow, so False calls for a closer look."""
    with np.errstate(over="ignore", invalid="ignore"):
        return all(math.isfinite(np.add.reduce(grads[where])) for _, where in run)


def fit(params: dict[str, Tensor], loss_fn: Callable[[object, np.random.Generator], Tensor],
        train: Sequence, dev: Sequence, dev_score: Callable[[Sequence], float],
        config, rng: np.random.Generator) -> tuple[int, float | None]:
    """Adagrad over `config.epochs` passes of `train`, each in the order of
    one `rng.permutation`, one update per example.  `loss_fn(example, rng)`
    gets this same generator, so its dropout masks are drawn from it after
    the epoch's permutation.  A numerical failure names the epoch and example.

    With a dev set, `dev_score(dev)` is taken after every epoch and the
    parameters of the first epoch with the highest score are kept: a
    better epoch before the last is copied into one snapshot buffer, on
    two threads, and copied back at the end.  Returns (best epoch, its
    score).  Without a dev set, the last epoch's parameters stay and the
    result is (config.epochs, None).  No gradient is left on the tensors.
    """
    optimizer = AdagradState(config.learning_rate, l2_lambda=config.l2_lambda)
    arena = optimizer._layout(params)
    for t, slot in zip(arena.tensors, arena.slots):
        t._grad_slot = slot
    snapshot = np.empty(arena.bounds[-1]) if dev and config.epochs > 1 else None
    best_score, best_epoch = -1.0, None
    try:
        for epoch in range(1, config.epochs + 1):
            for i in rng.permutation(len(train)):
                zero_grads(arena.tensors)
                try:
                    loss_fn(train[int(i)], rng).backward()
                    optimizer.apply(params)
                except FloatingPointError as exc:  # NonFiniteError, a non-finite gradient
                    raise type(exc)(f"epoch {epoch}, training example {i}: {exc}") from exc
            if dev:
                score = dev_score(dev)
                if score > best_score:
                    best_score, best_epoch = score, epoch
                    if epoch < config.epochs:
                        _copy_values(arena, snapshot, restore=False)
    finally:
        for t in arena.tensors:
            t.grad = t._grad_slot = None
    if best_epoch is None:
        return config.epochs, None
    if best_epoch < config.epochs:
        _copy_values(arena, snapshot, restore=True)
    return best_epoch, best_score


def _copy_values(arena: _Arena, snapshot: np.ndarray, restore: bool) -> None:
    """Copy every tensor's values into its piece of `snapshot`, or back from
    it, the two halves of the elements on two threads."""
    def copy(run):
        for values, where in run:
            if restore:
                values[...] = snapshot[where]
            else:
                snapshot[where] = values

    runs = _cut(arena, range(len(arena.tensors)))
    in_parallel(lambda: copy(runs[0]), lambda: copy(runs[1]))
