"""Measurement: tagging accuracy, UAS/LAS, relative error reduction,
inter-annotator agreement, per-grammar-category breakdowns, k-fold
jackknifing, and cross-fold validation.

Percentages are floats in [0, 100], or NaN when taken over zero tokens;
report formatting rounds half-up to two decimals (pct2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Callable, Sequence

from .treebank import Sentence, shuffled_indices

PUNCT = "PUNCT"


def pct2(value: float) -> float:
    """Half-up rounding to two decimals, as printed in reports."""
    return float(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _percent(part: int, whole: int) -> float:
    """100 * part / whole; NaN over zero tokens, where no score exists."""
    return 100.0 * part / whole if whole else math.nan


@dataclass(frozen=True)
class ScoreReport:
    tokens: int
    correct_heads: int
    correct_labeled: int
    correct_tags: int

    def __post_init__(self):
        if not (0 <= self.correct_labeled <= self.correct_heads <= self.tokens):
            raise ValueError("inconsistent attachment counts")
        if not 0 <= self.correct_tags <= self.tokens:
            raise ValueError("inconsistent tag counts")

    @property
    def uas(self) -> float:
        return _percent(self.correct_heads, self.tokens)

    @property
    def las(self) -> float:
        return _percent(self.correct_labeled, self.tokens)

    @property
    def tag_accuracy(self) -> float:
        return _percent(self.correct_tags, self.tokens)

    def merged(self, other: "ScoreReport") -> "ScoreReport":
        return ScoreReport(self.tokens + other.tokens,
                           self.correct_heads + other.correct_heads,
                           self.correct_labeled + other.correct_labeled,
                           self.correct_tags + other.correct_tags)


def _check_aligned(gold: Sequence[Sentence], predicted: Sequence[Sentence]) -> None:
    if len(gold) != len(predicted):
        raise ValueError(f"sentence counts differ: {len(gold)} gold vs "
                         f"{len(predicted)} predicted")
    for i, (g, p) in enumerate(zip(gold, predicted)):
        if len(g) != len(p):
            raise ValueError(f"sentence {i}: length mismatch "
                             f"({len(g)} gold vs {len(p)} predicted tokens)")
        for gt, pt in zip(g.tokens, p.tokens):  # the words too, as the CoNLL 2018 scorer checks
            if gt.form != pt.form:
                raise ValueError(f"sentence {i}, token {gt.index}: form mismatch "
                                 f"({gt.form!r} gold vs {pt.form!r} predicted)")


def _score_pair(gold: Sentence, predicted: Sentence, include_punct: bool) -> ScoreReport:
    tokens = heads = labeled = tags = 0
    for g, p in zip(gold.tokens, predicted.tokens):
        if not include_punct and g.upos == PUNCT:
            continue
        tokens += 1
        tags += g.upos == p.upos
        if g.head == p.head:
            heads += 1
            labeled += g.deprel == p.deprel
    return ScoreReport(tokens, heads, labeled, tags)


def attachment_scores(gold: Sequence[Sentence], predicted: Sequence[Sentence],
                      include_punct: bool = True) -> ScoreReport:
    """UAS = % correct heads; LAS = % correct heads with correct labels.

    With include_punct=False, tokens whose gold tag is PUNCT are skipped.
    """
    _check_aligned(gold, predicted)
    report = ScoreReport(0, 0, 0, 0)
    for g, p in zip(gold, predicted):
        report = report.merged(_score_pair(g, p, include_punct))
    return report


def tagging_accuracy(gold: Sequence[Sentence], predicted: Sequence[Sentence]) -> float:
    return attachment_scores(gold, predicted).tag_accuracy


def relative_error_reduction(baseline_pct: float, improved_pct: float) -> float:
    """Share of the baseline's error eliminated, as a percentage."""
    for value in (baseline_pct, improved_pct):
        if not 0.0 <= value <= 100.0:
            raise ValueError(f"percentage out of range: {value}")
    if baseline_pct == 100.0:
        raise ValueError("baseline has no error to reduce")
    return (improved_pct - baseline_pct) / (100.0 - baseline_pct) * 100.0


def inter_annotator_agreement(annotation_a: Sequence[Sentence],
                              annotation_b: Sequence[Sentence]) -> tuple[float, float, float]:
    """(tag accuracy, UAS, LAS) treating annotation_a as gold."""
    report = attachment_scores(annotation_a, annotation_b)
    return report.tag_accuracy, report.uas, report.las


OTHERS = "Others"


def per_category_scores(gold: Sequence[Sentence], predicted: Sequence[Sentence],
                        include_punct: bool = True) -> dict[str, ScoreReport]:
    """Scores per grammar category from Sentence.categories.

    A sentence contributes its tokens to every category it carries;
    uncategorized sentences fall into "Others".
    """
    _check_aligned(gold, predicted)
    table: dict[str, ScoreReport] = {}
    for g, p in zip(gold, predicted):
        pair = _score_pair(g, p, include_punct)
        for category in sorted(g.categories) if g.categories else [OTHERS]:
            current = table.get(category)
            table[category] = pair if current is None else current.merged(pair)
    return table


def make_folds(n: int, k: int, seed: int) -> list[list[int]]:
    """Deterministic k-fold partition of indices 0..n-1 (seeded shuffle,
    contiguous chunks, earlier folds take the remainder)."""
    if k < 2:
        raise ValueError("need at least 2 folds")
    if k > n:
        raise ValueError(f"cannot make {k} folds from {n} sentences")
    order = shuffled_indices(n, seed)
    base, remainder = divmod(n, k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < remainder else 0)
        folds.append(sorted(order[start:start + size]))
        start += size
    return folds


TagTrainer = Callable[[list[Sentence]], Callable[[list[Sentence]], list[Sequence[str]]]]


def jackknife_tags(treebank: list[Sentence], k: int, tagger_trainer: TagTrainer,
                   seed: int = 0) -> list[Sentence]:
    """Replace each sentence's tags with predictions from a tagger that
    never saw it: train on the other k-1 folds, tag the held-out fold (the
    trained function maps a list of sentences to their tag sequences).
    The returned treebank keeps the input order.
    """
    folds = make_folds(len(treebank), k, seed)
    output: dict[int, Sentence] = {}
    for fold in folds:
        heldout = set(fold)
        train = [s for i, s in enumerate(treebank) if i not in heldout]
        tag_fn = tagger_trainer(train)
        for i, tags in zip(fold, tag_fn([treebank[i] for i in fold])):
            output[i] = treebank[i].with_upos(tags)
    return [output[i] for i in range(len(treebank))]


ParserTrainer = Callable[[list[Sentence], list[Sentence]],
                         Callable[[list[Sentence]], list[Sentence]]]


@dataclass(frozen=True)
class CrossFoldReport:
    fold_uas: tuple[float, ...]
    fold_las: tuple[float, ...]

    @property
    def mean_uas(self) -> float:
        return sum(self.fold_uas) / len(self.fold_uas)

    @property
    def mean_las(self) -> float:
        return sum(self.fold_las) / len(self.fold_las)


def cross_fold_validate(treebank: list[Sentence], folds: int, trainer: ParserTrainer,
                        seed: int = 0, include_punct: bool = True) -> CrossFoldReport:
    """k-fold evaluation where the first half of each held-out fold (rounded
    up) serves as the development set and the rest as the test set, which
    the trained function parses as one list.  Raises
    ValueError before any training when a fold would have no test sentences."""
    partition = make_folds(len(treebank), folds, seed)
    dev_sizes = [(len(fold) + 1) // 2 for fold in partition]
    for number, (fold, n_dev) in enumerate(zip(partition, dev_sizes), start=1):
        if n_dev >= len(fold):
            raise ValueError(f"fold {number} of {folds} has no test sentences: all "
                             f"{len(fold)} held-out sentences go to its dev set")
    fold_uas, fold_las = [], []
    for fold, n_dev in zip(partition, dev_sizes):
        heldout = set(fold)
        train = [s for i, s in enumerate(treebank) if i not in heldout]
        held = [treebank[i] for i in fold]
        dev, test = held[:n_dev], held[n_dev:]
        predict = trainer(train, dev)
        predicted = predict(test)
        report = attachment_scores(test, predicted, include_punct)
        fold_uas.append(report.uas)
        fold_las.append(report.las)
    return CrossFoldReport(tuple(fold_uas), tuple(fold_las))
