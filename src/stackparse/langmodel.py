"""Modified Kneser-Ney n-gram language model and divergence-based
sentence selection.

Estimation follows the interpolated modified-KN recipe: raw counts at the
highest order, continuation ("number of distinct left extensions") counts
at lower orders except that begin-of-sentence-initial n-grams keep raw
counts; per-order discounts D1/D2/D3+ come from counts-of-counts
(Y = n1/(n1+2 n2); D1 = 1-2Y n2/n1; D2 = 2-3Y n3/n2; D3+ = 3-4Y n4/n3).
An estimate that is undefined (zero count-of-counts) or outside (0, k]
falls back to 0.5/1.0/1.5, keeping every observed context's backoff mass
strictly positive.  The model is open-vocabulary: the interpolated
unigram mass reaches an explicit unknown type through the uniform
1/|V| floor, where V is the prediction vocabulary (trained types plus
the end marker and the unknown type).  Logs are base 10 throughout.

A model and its file hold only the raw counts the estimator starts
from.  Each command computes only what its output reads: training
counts, and the adjusted tables, discounts and per-context statistics
that scoring needs are derived on the first score, so a model that is
only written never builds them.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import eq, itemgetter
from typing import Iterable, Sequence

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

_UNSEEN = (0, 0, 0, 0)  # the statistics of a context no n-gram extends


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector while a model's tables are built
    or written (used as a decorator).

    The tables hold hundreds of thousands of containers and no reference
    cycle, so every collection their allocations trigger would traverse
    them for nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _estimate_discounts(of: Counter) -> tuple[float, float, float]:
    """D1, D2, D3+ from the counts-of-counts `of` (count -> n-grams)."""
    n1, n2, n3, n4 = of[1], of[2], of[3], of[4]
    if n1 == 0:
        return 0.5, 1.0, 1.5
    y = n1 / (n1 + 2.0 * n2)
    d1 = 1.0 - 2.0 * y * n2 / n1  # equals y, always within (0, 1]
    d2 = 2.0 - 3.0 * y * n3 / n2 if n2 > 0 else 1.0
    d3 = 3.0 - 4.0 * y * n4 / n3 if n3 > 0 else 1.5
    # a zero or negative discount would starve the backoff mass
    if not 0.0 < d2 <= 2.0:
        d2 = 1.0
    if not 0.0 < d3 <= 3.0:
        d3 = 1.5
    return d1, d2, d3


class NgramLM:
    """Trained model; immutable once built, scoring is read-only.

    `counts[k-1]` holds the raw counts of order k: every n-gram at the
    top order, only those that start with <s> below it.  The tables and
    discounts derived from them, and the per-context statistics that
    scoring reads, are built on first use and never change after, so
    every value a caller can read is fixed once the model is built.
    """

    def __init__(self, order: int, counts: list[dict[tuple[str, ...], int]],
                 vocab: set[str]):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.counts = counts
        self.vocab = set(vocab)
        self.pred_vocab = sorted(self.vocab | {EOS, UNK})

    @functools.cached_property
    @_gc_paused()
    def tables(self) -> list[dict[tuple[str, ...], int]]:
        """tables[k-1]: order k's adjusted counts: raw at the top order, below
        it distinct left extensions, except for the <s>-initial raw counts."""
        tables = [self.counts[-1]]
        for k in range(self.order - 1, 0, -1):
            table = dict(Counter(map(itemgetter(slice(1, None)), tables[0])))
            table.update(self.counts[k - 1])
            tables.insert(0, table)
        return tables

    @functools.cached_property
    def discounts(self) -> list[tuple[float, float, float]]:
        return [_estimate_discounts(Counter(table.values())) for table in self.tables]

    @functools.cached_property
    @_gc_paused()
    def _context_stats(self) -> list[dict[tuple[str, ...], list[int]]]:
        """Per order, context -> [count sum, n1, n2, n3+]: the total count
        of the n-grams that extend the context, and how many of them have
        count 1, 2 and 3 or more."""
        stats = []
        for table in self.tables:
            by_context: dict[tuple[str, ...], list[int]] = {}
            for gram, count in table.items():
                slot = by_context.get(gram[:-1])
                if slot is None:
                    slot = by_context[gram[:-1]] = [0, 0, 0, 0]
                slot[0] += count
                if count == 1:
                    slot[1] += 1
                elif count == 2:
                    slot[2] += 1
                else:
                    slot[3] += 1
            stats.append(by_context)
        return stats

    def map_token(self, token: str) -> str:
        return token if token in self.vocab or token in (EOS,) else UNK

    def cond_prob(self, context: Sequence[str], word: str) -> float:
        """p(word | context) with interpolation down to a uniform floor."""
        context = tuple(context)[-(self.order - 1):] if self.order > 1 else ()
        return self._prob(context, word)

    def _prob(self, context: tuple[str, ...], word: str) -> float:
        k = len(context) + 1
        if k == 0 or k > self.order:
            raise ValueError("context too long for this model order")
        lower = (1.0 / len(self.pred_vocab) if k == 1
                 else self._prob(context[1:], word))
        denom, n1, n2, n3 = self._context_stats[k - 1].get(context, _UNSEEN)
        if denom == 0:
            return lower
        d1, d2, d3 = self.discounts[k - 1]
        count = self.tables[k - 1].get(context + (word,), 0)
        if count == 0:
            discounted = 0.0
        elif count == 1:
            discounted = count - d1
        elif count == 2:
            discounted = count - d2
        else:
            discounted = count - d3
        gamma = (d1 * n1 + d2 * n2 + d3 * n3) / denom
        return max(discounted, 0.0) / denom + gamma * lower

    def contexts(self, k: int) -> set[tuple[str, ...]]:
        """Observed (k-1)-token contexts at order k."""
        return {gram[:-1] for gram in self.tables[k - 1]}

    # -- persistence -----------------------------------------------------------

    @_gc_paused()
    def to_json(self) -> str:
        """The raw counts, each table sorted by n-gram, so one model always
        gives the same text.  Gram tuples encode as JSON arrays, and the
        payload, built here, holds no cycle for the encoder to check for."""
        counts = []
        for table in self.counts:
            if "\x00" in "".join(chain.from_iterable(table)):
                counts.append(sorted(table.items()))
            else:  # joined by a character no token holds, grams sort as their tuples do
                counts.append(sorted(table.items(), key=lambda item: "\x00".join(item[0])))
        payload = {"order": self.order, "vocab": sorted(self.vocab), "counts": counts}
        return json.dumps(payload, check_circular=False)

    @classmethod
    @_gc_paused()
    def from_json(cls, text: str) -> "NgramLM":
        """Read what to_json wrote; any other shape raises ValueError
        naming the first fault found."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("expected a JSON object")
        if "tables" in payload and "counts" not in payload:
            raise ValueError("it holds the adjusted tables of an older lm-train; "
                             "run lm-train again to rewrite it")
        order, vocab, stored = payload.get("order"), payload.get("vocab"), payload.get("counts")
        if type(order) is not int or order < 1:
            raise ValueError(f"order must be an integer >= 1, got {order!r}")
        if type(vocab) is not list or not all(type(word) is str for word in vocab):
            raise ValueError("vocab must be a list of strings")
        if type(stored) is not list or len(stored) != order:
            got = len(stored) if type(stored) is list else repr(stored)
            raise ValueError(f"expected {order} n-gram tables, got {got}")
        counts = [_read_table(k, entries) for k, entries in enumerate(stored, start=1)]
        for k, table in enumerate(counts, start=1):  # what train_ngram_lm counts
            wrong = (g for g in table if g[-1] == BOS or (k < order and g[0] != BOS))
            if (gram := next(wrong, None)) is not None:
                fault = "ends with" if gram[-1] == BOS else "does not start with"
                raise ValueError(f"order-{k} n-gram {list(gram)!r} {fault} {BOS}")
        return cls(order, counts, set(vocab))


def _read_table(k: int, entries) -> dict[tuple[str, ...], int]:
    """The order-k table from its stored entries, checked in bulk passes;
    when one fails, `_check_entries` names the first fault."""
    if (type(entries) is list and set(map(type, entries)) <= {list}
            and set(map(len, entries)) <= {2}):
        grams = list(map(itemgetter(0), entries))
        counts = list(map(itemgetter(1), entries))
        if (set(map(type, grams)) <= {list} and set(map(len, grams)) <= {k}
                and set(map(type, counts)) <= {int} and min(counts, default=1) >= 1
                and set(map(type, chain.from_iterable(grams))) <= {str}):
            table = dict(zip(map(tuple, grams), counts))
            if len(table) == len(entries):
                return table
    return _check_entries(k, entries)


def _check_entries(k: int, entries) -> dict[tuple[str, ...], int]:
    """One entry at a time, raising ValueError at the first fault; a
    token that is not a string is reported once every entry's shape has
    been checked."""
    if type(entries) is not list:
        raise ValueError(f"order-{k} table must be a list")
    table: dict[tuple[str, ...], int] = {}
    strings_only = True
    for entry in entries:
        if type(entry) is not list or len(entry) != 2:
            raise ValueError(f"order-{k} entry must be [n-gram, count], got {entry!r}")
        gram, count = entry
        if type(gram) is not list or len(gram) != k:
            raise ValueError(f"order-{k} n-gram must be a list of {k} "
                             f"strings, got {gram!r}")
        if type(count) is not int or count < 1:
            raise ValueError(f"count of {gram!r} must be a positive "
                             f"integer, got {count!r}")
        if set(map(type, gram)) <= {str}:
            table[tuple(gram)] = count
        else:
            strings_only = False  # and perhaps unhashable, so not a key
    if not strings_only:
        raise ValueError(f"order-{k} n-grams must hold strings only")
    if len(table) != len(entries):
        raise ValueError(f"order-{k} table lists an n-gram twice")
    return table


def _windows(stream: list[str], k: int) -> Iterable[tuple[str, ...]]:
    """Every k-gram of `stream`, in order."""
    return zip(*(stream[i:] for i in range(k)))


@_gc_paused()
def train_ngram_lm(corpus: Sequence[Sequence[str]], order: int = 5) -> NgramLM:
    """Count a modified-KN model's raw n-grams in pre-tokenized sentences."""
    if order < 1:
        raise ValueError("order must be >= 1")
    sentences = [list(s) for s in corpus if len(s) > 0]
    if not sentences:
        raise ValueError("cannot train a language model on an empty corpus")
    vocab = {w for s in sentences for w in s}

    # All padded sentences in one stream.  A window that runs past a
    # sentence's end marker ends in the next one's begin markers, so it is
    # dropped with every gram that ends in <s>: the begin marker is context
    # only, never predicted.
    pad = [BOS] * (order - 1)
    stream = list(chain.from_iterable(chain(pad, s, (EOS,)) for s in sentences))
    # Every top-order n-gram; below it only the n-grams that start with
    # <s>, the only lower-order raw counts the estimator reads, counted
    # here: a literal <s> token would make the top order's prefixes differ.
    raw = [Counter(compress(_windows(stream, k), map(eq, stream, repeat(BOS))))
           for k in range(1, order)]
    raw.append(Counter(_windows(stream, order)))
    for table in raw:
        for gram in [gram for gram in table if gram[-1] == BOS]:
            del table[gram]
    return NgramLM(order, raw, vocab)


def sentence_logprob(lm: NgramLM, tokens: Sequence[str]) -> float:
    """Total log10 probability of the sentence including the end marker."""
    mapped = [lm.map_token(t) for t in tokens] + [EOS]
    history = [BOS] * (lm.order - 1)
    total = 0.0
    for word in mapped:
        context = tuple(history[-(lm.order - 1):]) if lm.order > 1 else ()
        total += math.log10(lm._prob(context, word))
        history.append(word)
    return total


def perplexity(lm: NgramLM, corpus: Sequence[Sequence[str]]) -> float:
    total = 0.0
    events = 0
    for sentence in corpus:
        total += sentence_logprob(lm, sentence)
        events += len(sentence) + 1
    return 10.0 ** (-total / events)


@dataclass(frozen=True)
class SelectionRecord:
    text: str
    token_count: int
    total_log10: float
    normalized: float
    hits: tuple[str, ...] = ()


def rank_by_divergence(lm: NgramLM, sentences: Sequence[Sequence[str]],
                       length_bounds: tuple[int, int] = (5, 50),
                       count_end_token: bool = True,
                       lexicon: Iterable[str] | None = None) -> list[SelectionRecord]:
    """Filter by token count (bounds inclusive) and sort most-divergent
    first: ascending normalized log10 likelihood, stable for ties.

    The normalization divisor is token count + 1 (the end-of-sentence
    event is scored too); count_end_token=False uses the raw count.
    """
    low, high = length_bounds
    kept = [list(s) for s in sentences if low <= len(s) <= high]
    hit_lists = (match_lexicon(kept, lexicon) if lexicon is not None
                 else [[] for _ in kept])
    records = []
    for tokens, hits in zip(kept, hit_lists):
        total = sentence_logprob(lm, tokens)
        divisor = len(tokens) + 1 if count_end_token else len(tokens)
        records.append(SelectionRecord(" ".join(tokens), len(tokens), total,
                                       total / divisor, tuple(hits)))
    return sorted(records, key=lambda r: r.normalized)


def match_lexicon(sentences: Sequence[Sequence[str]],
                  lexicon: Iterable[str]) -> list[list[str]]:
    """Case-insensitive contiguous token-sequence matching.

    Multiword terms match token runs.  Each sentence's hits list every
    term once, ordered by (first start position, term); terms that
    differ only in case or inner whitespace are reported separately, as
    given.  The terms are indexed by width, so a sentence of n tokens
    costs O(n) lookups per distinct term width, whatever the number of
    terms.
    """
    by_width: dict[int, dict[tuple[str, ...], list[str]]] = {}
    for term in lexicon:
        if term.strip():
            parts = tuple(term.lower().split())
            by_width.setdefault(len(parts), {}).setdefault(parts, []).append(term)
    results = []
    for sentence in sentences:
        lowered = [t.lower() for t in sentence]
        first: dict[str, int] = {}
        for width, index in by_width.items():
            for start in range(len(lowered) - width + 1):
                for term in index.get(tuple(lowered[start:start + width]), ()):
                    first.setdefault(term, start)
        results.append(sorted(first, key=lambda term: (first[term], term)))
    return results
