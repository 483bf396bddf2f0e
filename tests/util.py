"""Shared test helpers: sentence builders, random valid trees, and the
references that only tests use: a seeded corpus splitter, a
finite-difference gradient checker, an n-gram model's adjusted-count
tables and discounts, a stacked model's every parameter, a tagger's
hidden states, an embeddings-file writer, the sigmoid, transpose and
masked log-sum-exp tape ops, and the one-sequence LSTM recurrence that
the batched one is held to."""

from __future__ import annotations

import base64
import struct

import numpy as np

from stackparse import numcore as nc
from stackparse.numcore.lstm import _gates
from stackparse.numcore.tensor import (Tensor, _accumulate, _grad_enabled, _result, _row_mask,
                                      _row_softmax, _sigmoid, _unbroadcast)
from stackparse.treebank import Sentence, Token, shuffled_indices

FORM_POOL = ["kiasu", "makan", "café", "x1", "talk", "cock", "can", "lah",
             "shiok", "wah", "one", "diam", "naïve", "n3'er"]
TAG_POOL = ["NOUN", "VERB", "ADJ", "ADV", "PRON", "INTJ"]
REL_POOL = ["nsubj", "dobj", "advmod", "discourse", "amod"]


def make_sentence(words, tags=None, heads=None, rels=None, categories=()):
    n = len(words)
    tags = tags or ["NOUN"] * n
    heads = heads if heads is not None else ([0] + [1] * (n - 1))
    rels = rels or (["root"] + ["dep"] * (n - 1))
    tokens = tuple(Token(i + 1, w, t, h, r)
                   for i, (w, t, h, r) in enumerate(zip(words, tags, heads, rels)))
    return Sentence(tokens, frozenset(categories))


def split_corpus(sentences: list[Sentence], ratios: tuple[float, float, float],
                 seed: int) -> tuple[list[Sentence], list[Sentence], list[Sentence]]:
    """Deterministic (train, dev, test) partition.

    dev/test sizes are round(N * ratio) (half-up); the remainder goes to
    train.  The same seed always produces the same partition.
    """
    if not sentences:
        raise ValueError("cannot split an empty corpus")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {sum(ratios)}")
    n = len(sentences)
    n_dev = int(n * ratios[1] + 0.5)
    n_test = int(n * ratios[2] + 0.5)
    n_train = n - n_dev - n_test
    if n_train < 0:
        raise ValueError("rounding produced a negative train size")
    order = shuffled_indices(n, seed)
    train = [sentences[i] for i in order[:n_train]]
    dev = [sentences[i] for i in order[n_train:n_train + n_dev]]
    test = [sentences[i] for i in order[n_train + n_dev:]]
    return train, dev, test


def lm_tables(lm) -> list[dict[tuple[str, ...], int]]:
    """tables[k-1]: order k's adjusted counts by n-gram."""
    tokens = np.array(lm.tokens, dtype=object)
    tables, rows = [], np.zeros((1, 0), np.int64)
    for node, count in lm._trie():
        parent, first = np.divmod(node, len(lm.tokens) + 1)
        rows = np.column_stack([first, rows[parent]])
        tables.append(dict(zip(map(tuple, tokens[rows].tolist()), count.tolist())))
    return tables


def lm_discounts(lm) -> list[tuple[float, float, float]]:
    """D1, D2, D3+ per order, as scoring uses them."""
    return [level.discounts for level in lm._levels]


def lm_contexts(lm, k: int) -> set[tuple[str, ...]]:
    """The observed (k-1)-token contexts of an n-gram model at order k."""
    return {gram[:-1] for gram in lm_tables(lm)[k - 1]}


def pack(values, code: str) -> str:
    """`values` as an LM file packs them: base64 of little-endian struct
    `code` integers."""
    return base64.b64encode(struct.pack(f"<{len(values)}{code}", *values)).decode("ascii")


def random_tree_sentence(rng: np.random.Generator, n: int) -> Sentence:
    """A uniformly random-ish single-rooted dependency tree."""
    order = list(rng.permutation(n) + 1)
    heads = [0] * (n + 1)  # 1-based scratch
    root = order[0]
    heads[root] = 0
    attached = [root]
    for node in order[1:]:
        heads[node] = int(attached[int(rng.integers(0, len(attached)))])
        attached.append(node)
    words = [FORM_POOL[int(rng.integers(0, len(FORM_POOL)))] for _ in range(n)]
    tags = [TAG_POOL[int(rng.integers(0, len(TAG_POOL)))] for _ in range(n)]
    rels = ["root" if heads[i + 1] == 0 else REL_POOL[int(rng.integers(0, len(REL_POOL)))]
            for i in range(n)]
    return make_sentence(words, tags, [heads[i + 1] for i in range(n)], rels)


def sigmoid(a: Tensor) -> Tensor:
    """The logistic function as a tape op, for per-step references: the
    fused LSTM computes its gates with `_sigmoid` directly."""
    data = _sigmoid(a.data)

    def backward(g):
        _accumulate(a, g * data * (1.0 - data))

    return _result(data, (a,), backward)


def transpose(a: Tensor) -> Tensor:
    """The transpose of a 2-D tensor as a tape op, for references: a view
    off the tape and a C-contiguous copy on it, the operand `nc.linear`
    multiplies by."""
    data = a.data.T.copy() if _grad_enabled() else a.data.T

    def backward(g):
        _accumulate(a, g.T)

    return _result(data, (a,), backward)


def logsumexp_rows_masked(a: Tensor, allowed: np.ndarray) -> Tensor:
    """Per-row log-sum-exp over the columns where the constant (rows,
    columns) mask `allowed` is True, as a tape op, for references: the
    parser's loss takes it inside `nc.cross_entropy_rows`.  `a` has the
    mask's shape, or is one (columns,) row that every mask row reads.
    Masked-out columns get zero gradient."""
    mask = _row_mask(a, allowed)
    soft, data = _row_softmax(np.broadcast_to(a.data, mask.shape), mask)

    def backward(g):
        _accumulate(a, _unbroadcast(g[:, None] * soft, a.data.shape))

    return _result(data, (a,), backward)


def stack_parse_inputs(stacked, sentence: Sentence) -> Tensor:
    """The stacked parser's input vectors for `sentence`, built with no tape."""
    with nc.no_grad():
        base_fw = stacked.base.forward_full(sentence.forms, sentence.upos)
        return stacked.input_vectors(sentence.forms, sentence.upos, base=base_fw)


def all_parameters(stacked) -> dict[str, Tensor]:
    """Every parameter of a stacked tagger or parser, base and target, under
    their `base/` and `target/` archive names."""
    target = getattr(stacked, "target", stacked)
    params = {f"base/{k}": v for k, v in stacked.base.parameters().items()}
    params.update({f"target/{k}": v for k, v in target.parameters().items()})
    return params


def tagger_hidden(model, inputs: Tensor) -> Tensor:
    """The tagger's (n, 2H) last bi-LSTM layer states for encoded inputs,
    as its emissions read them without dropout."""
    return nc.bilstm_encode(model.lstm_layers, [inputs])[0]


def recur_one(cell, xs: np.ndarray) -> tuple[np.ndarray, ...]:
    """One LSTM direction over the rows of `xs` alone, one GEMV per step:
    (pre, act, cs, hs), the reference that each sequence of the batched
    `_recur` must match bit for bit.

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


def write_embeddings(path: str, vocab: dict[str, int], matrix: np.ndarray) -> None:
    """An embeddings file of `vocab`'s rows of `matrix`, in row order."""
    ordered = sorted(vocab.items(), key=lambda kv: kv[1])
    with open(path, "w", encoding="utf-8") as f:
        for token, index in ordered:
            values = " ".join(repr(float(v)) for v in matrix[index])
            f.write(f"{token} {values}\n")


_REFINE_TRIGGER = 1e-6


def grad_check(loss_fn, params: dict[str, Tensor], epsilon: float = 1e-5,
               max_coords_per_param: int = 25, rng: np.random.Generator | None = None) -> float:
    """Compare tape gradients against central finite differences.

    `loss_fn` must be a deterministic zero-argument callable returning a
    scalar Tensor (dropout disabled).  Returns the maximum over sampled
    coordinates of |g_ad - g_fd| / max(1e-8, |g_ad| + |g_fd|).

    A coordinate whose first estimate disagrees is re-measured at
    epsilon/4 and 4*epsilon and the best agreement is kept: step-size
    artifacts (roundoff flicker on exactly-null directions, straddling a
    piecewise-linear kink) vanish at one of the other steps, while a
    genuine analytic-gradient error disagrees at every step.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    tensors = list(params.values())
    nc.zero_grads(tensors)
    loss = loss_fn()
    loss.backward()
    analytic = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for name, t in params.items()}

    def relative_error(flat: np.ndarray, index: int, g: float, step: float) -> float:
        saved = flat[index]
        flat[index] = saved + step
        loss_plus = loss_fn().item()
        flat[index] = saved - step
        loss_minus = loss_fn().item()
        flat[index] = saved
        numeric = (loss_plus - loss_minus) / (2.0 * step)
        return abs(g - numeric) / max(1e-8, abs(g) + abs(numeric))

    worst = 0.0
    for name, t in params.items():
        flat = t.data.reshape(-1)
        n = flat.size
        if n <= max_coords_per_param:
            coords = range(n)
        else:
            coords = sorted(rng.choice(n, size=max_coords_per_param, replace=False).tolist())
        for i in coords:
            g = analytic[name].reshape(-1)[i]
            rel = relative_error(flat, i, g, epsilon)
            if rel > _REFINE_TRIGGER:
                rel = min(rel,
                          relative_error(flat, i, g, epsilon / 4.0),
                          relative_error(flat, i, g, epsilon * 4.0))
            worst = max(worst, rel)
    return worst
