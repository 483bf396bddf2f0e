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

The model lives in integer arrays, after KenLM's sorted arrays and
BerkeleyLM's context encoding.  A model and its file hold only the raw
counts; the first score derives the rest, so a model that is only
written never builds it.  The file is JSON whose arrays are packed, as
in KenLM's binary format: each order's ids and counts are one base64
string of little-endian bytes, ids in the narrowest of 2 or 4 unsigned
bytes that holds the largest id, which the vocabulary fixes, and counts
in 8 signed bytes.
"""

from __future__ import annotations

import base64
import functools
import json
import math
import operator
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"


def _estimate_discounts(of) -> tuple[float, float, float]:
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


def _distinct(rows: np.ndarray, radix: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an id array (ids < radix), sorted, and their counts.

    Each column is packed into one int64 key below the ones before it; the
    keys are ranked again only when one more column would overflow it."""
    key, span = np.zeros(len(rows), np.int64), 1  # every key is < span
    for column in rows.T:
        if span * radix >= 1 << 63:
            distinct, key = np.unique(key, return_inverse=True)
            span = len(distinct)
        key, span = key * radix + column, span * radix
    order = np.argsort(key)  # not stable: rows with equal keys are equal
    key = key[order]
    new = np.ones(len(key), bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    start = np.flatnonzero(new)
    return rows.take(order[start], axis=0), np.diff(start, append=len(key))


class _Level(NamedTuple):
    """What scoring reads of one order.  An n-gram's number is its rank in
    `keys`, (number of its suffix one order down, its first token's id); a
    context's likewise in `contexts`, order 1's one context being 0."""
    keys: np.ndarray      # sorted n-gram keys
    share: np.ndarray     # per n-gram: its discounted count over its context's count sum
    contexts: np.ndarray  # sorted context keys
    gamma: np.ndarray     # per context: its backoff weight
    discounts: tuple[float, float, float]


def _level(node: np.ndarray, count: np.ndarray, suffix_context: np.ndarray | None,
           radix: int) -> tuple[_Level, np.ndarray]:
    """One order's _Level, and the number of each n-gram's context, from
    its n-gram keys and counts and the order below's context numbers."""
    if suffix_context is None:
        contexts, context = np.zeros(min(len(node), 1), np.int64), np.zeros_like(node)
    else:
        contexts, context = np.unique(suffix_context[node // radix] * radix + node % radix,
                                      return_inverse=True)
    d1, d2, d3 = discounts = _estimate_discounts(
        np.bincount(np.minimum(count, 5), minlength=6).tolist())
    denom = np.bincount(context, weights=count, minlength=len(contexts))
    share = np.maximum(count - np.where(count == 1, d1, np.where(count == 2, d2, d3)), 0.0)
    # per context, how many of its n-grams have count 1, 2 and 3 or more
    n = np.bincount(context * 3 + np.minimum(count, 3) - 1, minlength=3 * len(contexts))
    gamma = (d1 * n[0::3] + d2 * n[1::3] + d3 * n[2::3]) / denom
    return _Level(node, share / denom[context], contexts, gamma, discounts), context


class NgramLM:
    """Trained model; immutable once built, scoring is read-only.

    `grams[k-1]` holds order k's raw counts as (rows, counts): its n-grams
    as a sorted (n, k) array of ids into `tokens`, every n-gram at the top
    order and only those that start with <s> below it."""

    def __init__(self, order: int, grams: list[tuple[np.ndarray, np.ndarray]],
                 vocab: Iterable[str]):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.grams = grams
        self.vocab = set(vocab)
        self.tokens = sorted(self.vocab | {BOS, EOS, UNK})
        self.pred_vocab = sorted(self.vocab | {EOS, UNK})
        self._index = {token: i for i, token in enumerate(self.tokens)}

    def _trie(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Per order j from 1 up: the sorted keys of its adjusted n-grams, the
        j-suffixes of the stored n-grams, and their counts: below the top
        order, how many n-grams one order up extend it, or its raw count."""
        radix = len(self.tokens) + 1
        suffix = [np.zeros(len(counts), np.int64) for _, counts in self.grams]
        nodes = []
        for j in range(1, self.order + 1):
            stored = list(enumerate(self.grams[j - 1:], start=j))
            keys = [suffix[k - 1] * radix + rows[:, -j] for k, (rows, _) in stored]
            node, inverse = np.unique(np.concatenate(keys), return_inverse=True)
            bounds = np.cumsum([len(counts) for _, (_, counts) in stored])[:-1]
            for (k, _), part in zip(stored, np.split(inverse, bounds)):
                suffix[k - 1] = part
            nodes.append(node)
        for j, node in enumerate(nodes, start=1):
            count = (np.bincount(nodes[j] // radix, minlength=len(node)) if j < self.order
                     else np.zeros(len(node), np.int64))
            count[suffix[j - 1]] = self.grams[j - 1][1]
            yield node, count

    @functools.cached_property
    def _levels(self) -> list[_Level]:
        levels, context = [], None
        for node, count in self._trie():
            level, context = _level(node, count, context, len(self.tokens) + 1)
            levels.append(level)
        return levels

    def map_token(self, token: str) -> str:
        return token if token in self.vocab or token in (EOS,) else UNK

    def cond_prob(self, context: Sequence[str], word: str) -> float:
        """p(word | context) with interpolation down to a uniform floor."""
        context = tuple(context)[-(self.order - 1):] if self.order > 1 else ()
        ids = [self._index.get(token, len(self.tokens)) for token in (*context, word)]
        return float(self._probs(np.array([ids], np.int64))[0])

    def _walk(self, keys: list[np.ndarray], rows: np.ndarray) -> list[tuple[np.ndarray, ...]]:
        """Per order j up to the width of `rows`, while keys[j-1] has keys: the
        rank there of each row's last j ids, and whether they are one."""
        radix = len(self.tokens) + 1  # one past every id: an unknown token is never there
        at, found, walk = np.zeros(len(rows), np.int64), np.ones(len(rows), bool), []
        for j, sorted_keys in enumerate(keys[:rows.shape[1]], start=1):
            if not len(sorted_keys):  # nor has any higher order
                break
            key = at * radix + rows[:, -j]
            at = np.minimum(np.searchsorted(sorted_keys, key), len(sorted_keys) - 1)
            found = found & (sorted_keys[at] == key)
            walk.append((at, found))
        return walk

    def _probs(self, windows: np.ndarray) -> np.ndarray:
        """p(last id | the m ids before it) for each row, m < order, by the
        per-token recursion's operations in its order, so bit for bit."""
        levels = self._levels
        prob = np.full(len(windows), 1.0 / len(self.pred_vocab))
        grams = self._walk([level.keys for level in levels], windows)
        contexts = [(np.zeros(len(windows), np.int64), np.ones(len(windows), bool))]
        contexts += self._walk([level.contexts for level in levels[1:]], windows[:, :-1])
        for level, (gram, has), (context, seen) in zip(levels, grams, contexts):
            interpolated = np.where(has, level.share[gram], 0.0) + level.gamma[context] * prob
            prob = np.where(seen, interpolated, prob)
        return prob

    # -- persistence -----------------------------------------------------------

    def to_json(self) -> str:
        """The vocabulary and, per order, the sorted n-grams' ids, row after
        row, and their counts, each packed: one model, one text."""
        ids = _id_dtype(len(self.tokens))
        return json.dumps({"order": self.order, "vocab": sorted(self.vocab),
                           "ids": [_pack(rows, ids) for rows, _ in self.grams],
                           "counts": [_pack(counts, "<i8") for _, counts in self.grams]},
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "NgramLM":
        """Read what to_json wrote; any other shape raises ValueError
        naming the first fault found."""
        try:
            payload = json.loads(text)
        except RecursionError:
            raise ValueError("its JSON nests too deeply") from None
        if not isinstance(payload, dict):
            raise ValueError("expected a JSON object")
        order, vocab, ids, counts = map(payload.get, ("order", "vocab", "ids", "counts"))
        if ("ids" not in payload and ("counts" in payload or "tables" in payload)
                or type(ids) is list and ids and all(type(entry) is list for entry in ids)):
            raise ValueError("it is from an older lm-train; run lm-train again to rewrite it")
        if type(order) is not int or order < 1:
            raise ValueError(f"order must be an integer >= 1, got {order!r}")
        if type(vocab) is not list or not all(type(word) is str for word in vocab):
            raise ValueError("vocab must be a list of strings")
        if not (type(ids) is list and type(counts) is list and len(ids) == len(counts) == order):
            raise ValueError(f"expected {order} id lists and {order} count lists")
        tokens = sorted(set(vocab) | {BOS, EOS, UNK})
        return cls(order, [_read_grams(k, order, tokens, *packed)
                           for k, packed in enumerate(zip(ids, counts), start=1)], vocab)


def _id_dtype(tokens: int) -> str:
    """The narrowest little-endian unsigned type, 2 or 4 bytes, that holds
    the ids of `tokens` tokens."""
    return "<u2" if tokens <= 1 << 16 else "<u4"


def _pack(values: np.ndarray, dtype: str) -> str:
    return base64.b64encode(np.ascontiguousarray(values, dtype)).decode("ascii")


def _unpack(packed, dtype: str, what: str) -> np.ndarray:
    """`packed`, a base64 string of `dtype` integers, as an array, or
    ValueError naming `what`."""
    if type(packed) is not str:
        raise ValueError(f"{what} must be a base64 string, got {type(packed).__name__}")
    try:
        data = base64.b64decode(packed, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise ValueError(f"{what} is not valid base64: {exc}") from None
    if len(data) % (size := np.dtype(dtype).itemsize):
        raise ValueError(f"{what} has {len(data)} bytes, "
                         f"not a whole number of {size}-byte integers")
    return np.frombuffer(data, dtype)


def _read_grams(k: int, order: int, tokens: list[str], ids, counts) -> tuple[np.ndarray, ...]:
    """Order k's stored n-grams and counts, checked in bulk passes."""
    flat = _unpack(ids, _id_dtype(len(tokens)), f"order-{k} ids")
    counts = _unpack(counts, "<i8", f"order-{k} counts")
    if len(flat) != k * len(counts):
        raise ValueError(f"order-{k} holds {len(flat)} ids for {len(counts)} counts")
    if (bad := flat[flat >= len(tokens)]).size:
        raise ValueError(f"order-{k} id {bad[0]} is not the index of one of {len(tokens)} tokens")
    if (bad := counts[counts < 1]).size:
        raise ValueError(f"order-{k} count {bad[0]} is not >= 1")
    rows, bos = flat.astype(np.int32).reshape(-1, k), tokens.index(BOS)
    for wrong, fault in ((rows[:, -1] == bos, "ends with"),
                         (rows[:, 0] != bos if k < order else [], "does not start with")):
        if np.any(wrong):
            gram = [tokens[i] for i in rows[np.argmax(wrong)]]
            raise ValueError(f"order-{k} n-gram {gram!r} {fault} {BOS}")
    step = rows[1:] - rows[:-1]  # each row must sort after the one before
    if (bad := np.flatnonzero(step[np.arange(len(step)), np.argmax(step != 0, axis=1)] <= 0)).size:
        gram = [tokens[i] for i in rows[bad[0] + 1]]
        fault = "out of order" if step[bad[0]].any() else "twice"
        raise ValueError(f"order-{k} lists the n-gram {gram!r} {fault}")
    return rows, counts


def train_ngram_lm(corpus: Sequence[Sequence[str]], order: int = 5) -> NgramLM:
    """Count a modified-KN model's raw n-grams in pre-tokenized sentences."""
    if order < 1:
        raise ValueError("order must be >= 1")
    sentences = [s for s in corpus if len(s) > 0]
    if not sentences:
        raise ValueError("cannot train a language model on an empty corpus")
    vocab = set(chain.from_iterable(sentences))
    tokens = sorted(vocab | {BOS, EOS, UNK})
    index = {token: i for i, token in enumerate(tokens)}
    # All padded sentences in one stream: a window that runs past a
    # sentence's end ends in <s>, context only, and is dropped.  Below the
    # top order the estimator reads only the <s>-initial raw counts.
    stream = np.fromiter(map(index.__getitem__, chain.from_iterable(
        chain([BOS] * (order - 1), s, (EOS,)) for s in sentences)), np.int32)
    grams = []
    for k in range(1, order + 1):
        windows = np.lib.stride_tricks.sliding_window_view(stream, k)
        keep = windows[:, -1] != index[BOS]
        if k < order:
            keep &= windows[:, 0] == index[BOS]
        grams.append(_distinct(windows[keep], len(tokens)))
    return NgramLM(order, grams, vocab)


def sentence_logprob(lm: NgramLM, tokens: Sequence[str]) -> float:
    """Total log10 probability of the sentence including the end marker."""
    return _sentence_logprobs(lm, [tokens])[0]


def _sentence_logprobs(lm: NgramLM, sentences: Sequence[Sequence[str]],
                       chunk: int = 1024) -> list[float]:
    """sentence_logprob of each sentence: the positions of each `chunk`
    sentences scored in one array pass, so that memory stays bounded, then
    each sentence's logs summed left to right."""
    index, pad, totals = lm._index, [BOS] * (lm.order - 1), []
    for start in range(0, len(sentences), chunk):
        part = sentences[start:start + chunk]
        stream = np.fromiter(map(index.__getitem__, chain.from_iterable(
            chain(pad, map(lm.map_token, s), (EOS,)) for s in part)), np.int64)
        scored = np.fromiter(chain.from_iterable(
            chain([False] * len(pad), [True] * (len(s) + 1)) for s in part), bool)
        windows = np.lib.stride_tricks.sliding_window_view(stream, lm.order)[scored[lm.order - 1:]]
        logs = map(math.log10, lm._probs(windows).tolist())
        totals += [functools.reduce(operator.add, islice(logs, len(s) + 1), 0.0) for s in part]
    return totals


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
    totals = _sentence_logprobs(lm, kept)  # before the hits, which it would hold at its peak
    hit_lists = (match_lexicon(kept, lexicon) if lexicon is not None
                 else [[] for _ in kept])
    records = []
    for tokens, hits, total in zip(kept, hit_lists, totals):
        divisor = len(tokens) + 1 if count_end_token else len(tokens)
        records.append(SelectionRecord(" ".join(tokens), len(tokens), total,
                                       total / divisor, tuple(hits)))
    return sorted(records, key=lambda r: r.normalized)


def match_lexicon(sentences: Sequence[Sequence[str]], lexicon: Iterable[str],
                  chunk: int = 1024) -> list[list[str]]:
    """Case-insensitive contiguous token-sequence matching.

    Multiword terms match token runs.  Each sentence's hits list every
    term once, ordered by (first start position, term); terms that
    differ only in case or inner whitespace are reported separately, as
    given.  Each distinct token is lowercased and looked up once.  The
    terms form one trie of sorted prefix keys, and the windows of each
    `chunk` sentences' id stream walk it in one array pass per column,
    each keeping only the windows that still begin some term; so the
    cost grows with the tokens and the longest term, not with the
    number of terms.
    """
    terms = sorted({term for term in lexicon if term.strip()})
    parts = [term.lower().split() for term in terms]
    words = {word: i for i, word in enumerate(sorted(set(chain.from_iterable(parts))), start=1)}
    radix, width = len(words) + 1, np.array([len(p) for p in parts], np.int64)
    # Per column: the sorted keys (number of the prefix before it, id) of the
    # terms' prefixes, and per key the terms that end there, as a range of
    # `ending`.  A term's number is its rank in `terms`.
    trie, prefix = [], np.zeros(len(parts), np.int64)
    for column in range(width.max(initial=0)):
        longer = width > column
        ids = np.array([words[p[column]] for p in parts if len(p) > column], np.int64)
        keys, prefix[longer] = np.unique(prefix[longer] * radix + ids, return_inverse=True)
        ending = np.flatnonzero(width == column + 1)
        ending = ending[np.argsort(prefix[ending], kind="stable")]
        count = np.bincount(prefix[ending], minlength=len(keys))
        trie.append((keys, ending, np.cumsum(count) - count, count))
    token_ids: dict[str, int] = {}  # token -> id of its lowercased form as a term word, or 0
    results: list[list[str]] = []
    for begin in range(0, len(sentences), chunk):
        part = sentences[begin:begin + chunk]
        flat = list(chain.from_iterable(part))
        for token in set(flat).difference(token_ids):
            token_ids[token] = words.get(token.lower(), 0)
        stream = np.fromiter(map(token_ids.__getitem__, flat), np.int64, len(flat))
        lengths = np.fromiter(map(len, part), np.int64, len(part))
        ends = np.cumsum(lengths)
        sentence = np.repeat(np.arange(len(part)), lengths)
        left = np.repeat(ends, lengths) - np.arange(len(flat))  # tokens from here to the end
        at = np.flatnonzero(stream)  # the windows still in the trie, by start
        code = np.zeros(len(at), np.int64)
        hits = [(np.zeros(0, np.int64),) * 3]  # (sentence, start, term number) per hit
        for column, (keys, ending, first, count) in enumerate(trie):
            inside = left[at] > column
            key = code[inside] * radix + stream[at[inside] + column]
            code = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
            match = keys[code] == key
            at, code = at[inside][match], code[match]
            # each sentence's first window that is a whole run, then that run's terms
            whole = np.flatnonzero(count[code])
            _, once = np.unique(sentence[at[whole]] * len(keys) + code[whole], return_index=True)
            hit = code[whole[once]]
            n = count[hit]
            term = ending[np.repeat(first[hit] - np.cumsum(n) + n, n) + np.arange(n.sum())]
            start = np.repeat(at[whole[once]], n)
            hits.append((sentence[start], start - (ends - lengths)[sentence[start]], term))
        which, start, term = (np.concatenate(column) for column in zip(*hits))
        names = [terms[i] for i in term[np.lexsort((term, start, which))].tolist()]
        bounds = np.cumsum(np.bincount(which, minlength=len(part))).tolist()
        results += [names[a:b] for a, b in zip([0, *bounds], bounds)]
    return results
