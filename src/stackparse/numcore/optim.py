"""Adagrad with L2 regularization folded into the gradient, and the
epoch loop every trainer runs on it."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, zero_grads


class AdagradState:
    """Per-parameter squared-gradient accumulators plus hyperparameters.

    Accumulators are keyed by parameter name, start at zero, and never
    decrease.
    """

    def __init__(self, learning_rate: float = 0.01, epsilon: float = 1e-8,
                 l2_lambda: float = 1e-6):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = learning_rate
        self.epsilon = epsilon
        self.l2_lambda = l2_lambda
        self.accumulators: dict[str, np.ndarray] = {}

    def apply(self, params: dict[str, Tensor]) -> None:
        """One Adagrad step, in place, for every tensor with a .grad (None
        grads are skipped): acc += g^2; p -= lr * g / (sqrt(acc) + eps).

        The L2 term lambda * p is added to the raw gradient first.
        """
        for name, t in params.items():
            g, p = t.grad, t.data
            if g is None:
                continue
            if np.isnan(g).any():
                raise FloatingPointError(f"NaN gradient for parameter {name!r}")
            if g.shape != p.shape:
                raise ValueError(f"gradient shape mismatch for {name!r}")
            if self.l2_lambda:
                g = g + self.l2_lambda * p
            acc = self.accumulators.get(name)
            if acc is None:
                acc = np.zeros_like(p)
                self.accumulators[name] = acc
            acc += g * g
            p -= self.learning_rate * g / (np.sqrt(acc) + self.epsilon)


def fit(params: dict[str, Tensor], loss_fn: Callable[[object], Tensor],
        train: Sequence, dev: Sequence, dev_score: Callable[[Sequence], float],
        config, rng: np.random.Generator) -> tuple[int, float | None]:
    """Adagrad over `config.epochs` passes of `train`, each in the order of
    one `rng.permutation`, one update per example.

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
            loss_fn(train[int(i)]).backward()
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
