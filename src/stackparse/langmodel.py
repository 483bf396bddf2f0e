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
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"


def _estimate_discounts(counts: Iterable[int]) -> tuple[float, float, float]:
    of = Counter()
    for c in counts:
        if 1 <= c <= 4:
            of[c] += 1
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
    """Trained model; immutable once built, scoring is read-only."""

    def __init__(self, order: int, tables: list[dict[tuple[str, ...], int]],
                 vocab: set[str]):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.tables = tables  # tables[k-1]: adjusted counts for order k
        self.vocab = set(vocab)
        self.pred_vocab = sorted(self.vocab | {EOS, UNK})
        self.discounts: list[tuple[float, float, float]] = []
        self.denoms: list[dict[tuple[str, ...], int]] = []
        self.context_nk: list[dict[tuple[str, ...], tuple[int, int, int]]] = []
        for table in tables:
            self.discounts.append(_estimate_discounts(table.values()))
            denom: dict[tuple[str, ...], int] = {}
            nk: dict[tuple[str, ...], list[int]] = {}
            for gram, count in table.items():
                context = gram[:-1]
                denom[context] = denom.get(context, 0) + count
                slot = nk.setdefault(context, [0, 0, 0])
                if count == 1:
                    slot[0] += 1
                elif count == 2:
                    slot[1] += 1
                else:
                    slot[2] += 1
            self.denoms.append(denom)
            self.context_nk.append({ctx: tuple(v) for ctx, v in nk.items()})

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
        table = self.tables[k - 1]
        denom = self.denoms[k - 1].get(context, 0)
        if denom == 0:
            return lower
        d1, d2, d3 = self.discounts[k - 1]
        count = table.get(context + (word,), 0)
        if count == 0:
            discounted = 0.0
        elif count == 1:
            discounted = count - d1
        elif count == 2:
            discounted = count - d2
        else:
            discounted = count - d3
        n1, n2, n3 = self.context_nk[k - 1][context]
        gamma = (d1 * n1 + d2 * n2 + d3 * n3) / denom
        return max(discounted, 0.0) / denom + gamma * lower

    def contexts(self, k: int) -> set[tuple[str, ...]]:
        """Observed (k-1)-token contexts at order k."""
        return set(self.denoms[k - 1])

    # -- persistence -----------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "order": self.order,
            "vocab": sorted(self.vocab),
            "tables": [sorted([list(gram), count] for gram, count in table.items())
                       for table in self.tables],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "NgramLM":
        payload = json.loads(text)
        tables = [{tuple(gram): int(count) for gram, count in entries}
                  for entries in payload["tables"]]
        return cls(int(payload["order"]), tables, set(payload["vocab"]))


def train_ngram_lm(corpus: Sequence[Sequence[str]], order: int = 5,
                   prune_singletons: bool = False) -> NgramLM:
    """Estimate a modified-KN model from pre-tokenized sentences."""
    if order < 1:
        raise ValueError("order must be >= 1")
    sentences = [list(s) for s in corpus if len(s) > 0]
    if not sentences:
        raise ValueError("cannot train a language model on an empty corpus")
    type_counts = Counter(w for s in sentences for w in s)
    if prune_singletons:
        vocab = {w for w, c in type_counts.items() if c > 1}
        sentences = [[w if w in vocab else UNK for w in s] for s in sentences]
    else:
        vocab = set(type_counts)

    raw: list[dict[tuple[str, ...], int]] = [dict() for _ in range(order)]
    for sentence in sentences:
        padded = [BOS] * (order - 1) + sentence + [EOS]
        for k in range(1, order + 1):
            table = raw[k - 1]
            for i in range(len(padded) - k + 1):
                gram = tuple(padded[i:i + k])
                if gram[-1] == BOS:
                    continue  # the begin marker is context only, never predicted
                table[gram] = table.get(gram, 0) + 1

    adjusted: list[dict[tuple[str, ...], int]] = [dict() for _ in range(order)]
    adjusted[order - 1] = dict(raw[order - 1])
    for k in range(order - 1, 0, -1):
        table: dict[tuple[str, ...], int] = {}
        for gram in adjusted[k]:  # distinct left extensions at order k+1
            suffix = gram[1:]
            table[suffix] = table.get(suffix, 0) + 1
        for gram, count in raw[k - 1].items():
            if gram[0] == BOS:
                table[gram] = count  # no meaningful left extension exists
        adjusted[k - 1] = table
    return NgramLM(order, adjusted, vocab)


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

    Multiword terms match token runs; each sentence's hits are reported
    once per term, ordered by first occurrence.
    """
    terms = [(term, term.lower().split()) for term in lexicon if term.strip()]
    results = []
    for sentence in sentences:
        lowered = [t.lower() for t in sentence]
        found: list[tuple[int, str]] = []
        seen: set[str] = set()
        for term, parts in terms:
            width = len(parts)
            for start in range(len(lowered) - width + 1):
                if lowered[start:start + width] == parts:
                    if term not in seen:
                        seen.add(term)
                        found.append((start, term))
                    break
        found.sort()
        results.append([term for _, term in found])
    return results
