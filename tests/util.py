"""Shared test helpers: sentence builders, random valid trees, and the
references that only tests use."""

from __future__ import annotations

import base64
import struct

import numpy as np

from stackparse import numcore as nc
from stackparse.numcore.tensor import Tensor, _accumulate, _result, _sigmoid
from stackparse.treebank import Sentence, Token

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


def lm_contexts(lm, k: int) -> set[tuple[str, ...]]:
    """The observed (k-1)-token contexts of an n-gram model at order k."""
    return {gram[:-1] for gram in lm.tables[k - 1]}


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


def stack_parse_inputs(stacked, sentence: Sentence) -> Tensor:
    """The stacked parser's input vectors for `sentence`, built with no tape."""
    with nc.no_grad():
        base_fw = stacked.base.forward_full(sentence.forms, sentence.upos)
        return stacked.input_vectors(sentence.forms, sentence.upos, base=base_fw)
