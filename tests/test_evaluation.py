from __future__ import annotations

import math

import numpy as np
import pytest

from stackparse.evaluation import (
    ScoreReport,
    attachment_scores,
    cross_fold_validate,
    inter_annotator_agreement,
    jackknife_tags,
    make_folds,
    pct2,
    per_category_scores,
    relative_error_reduction,
    tagging_accuracy,
)
from util import make_sentence


def tree(words, tags, heads, rels, categories=()):
    return make_sentence(words, tags, heads, rels, categories)


def five_token_pair():
    gold = tree(["a", "b", "c", "d", "e"], ["NOUN"] * 5,
                [2, 0, 2, 2, 4], ["nsubj", "root", "dobj", "advmod", "amod"])
    # 4 correct heads (tokens 1,2,3,5 via construction below), 3 with correct labels
    predicted = tree(["a", "b", "c", "d", "e"], ["NOUN"] * 5,
                     [2, 0, 2, 5, 4], ["nsubj", "root", "xcomp", "advmod", "amod"])
    return gold, predicted


# -- attachment scores ---------------------------------------------------------


def test_identical_predictions_score_100():
    gold, _ = five_token_pair()
    report = attachment_scores([gold], [gold])
    assert report.uas == 100.0 and report.las == 100.0


def test_hand_counted_uas_las():
    gold, predicted = five_token_pair()
    report = attachment_scores([gold], [predicted])
    assert report.tokens == 5
    assert report.correct_heads == 4
    assert report.correct_labeled == 3
    assert pct2(report.uas) == 80.00
    assert pct2(report.las) == 60.00


def test_length_mismatch_names_sentence():
    gold, _ = five_token_pair()
    short = tree(["a", "b"], ["NOUN"] * 2, [2, 0], ["nsubj", "root"])
    with pytest.raises(ValueError, match="sentence 0"):
        attachment_scores([gold], [short])
    with pytest.raises(ValueError, match="counts differ"):
        attachment_scores([gold], [gold, gold])


def test_punctuation_exclusion_flag():
    gold = tree(["oh", "hi", "!"], ["INTJ", "INTJ", "PUNCT"],
                [2, 0, 2], ["discourse", "root", "punct"])
    predicted = tree(["oh", "hi", "!"], ["INTJ", "INTJ", "PUNCT"],
                     [2, 0, 1], ["discourse", "root", "punct"])
    full = attachment_scores([gold], [predicted], include_punct=True)
    assert full.tokens == 3 and full.correct_heads == 2
    skipped = attachment_scores([gold], [predicted], include_punct=False)
    assert skipped.tokens == 2 and skipped.uas == 100.0


def test_las_never_exceeds_uas_random():
    rng = np.random.default_rng(0)
    from util import random_tree_sentence
    for _ in range(30):
        n = int(rng.integers(1, 7))
        gold = random_tree_sentence(rng, n)
        predicted = random_tree_sentence(rng, n)
        predicted = tree(gold.forms, gold.upos, predicted.heads, predicted.deprels)
        report = attachment_scores([gold], [predicted])
        assert 0.0 <= report.las <= report.uas <= 100.0


def test_score_report_rejects_inconsistent_counts():
    with pytest.raises(ValueError):
        ScoreReport(5, 3, 4, 0)  # labeled > heads
    with pytest.raises(ValueError):
        ScoreReport(5, 6, 0, 0)  # heads > tokens


# -- tagging accuracy ------------------------------------------------------------


def test_scores_over_zero_tokens_are_undefined():
    gold = tree(["!", "?"], ["PUNCT", "PUNCT"], [0, 1], ["root", "punct"])
    report = attachment_scores([gold], [gold], include_punct=False)
    assert report.tokens == 0
    assert math.isnan(report.uas) and math.isnan(report.las)
    assert math.isnan(report.tag_accuracy)
    assert math.isnan(attachment_scores([], []).uas)
    assert math.isnan(tagging_accuracy([], []))
    assert all(math.isnan(v) for v in inter_annotator_agreement([], []))


def test_tagging_accuracy_cases():
    gold = tree(["a", "b", "c", "d", "e"], ["NOUN", "VERB", "ADJ", "ADV", "PRON"],
                [0, 1, 1, 1, 1], ["root", "d", "d", "d", "d"])
    assert tagging_accuracy([gold], [gold]) == 100.0
    predicted = tree(gold.forms, ["NOUN", "VERB", "ADJ", "ADV", "X"],
                     gold.heads, gold.deprels)
    assert pct2(tagging_accuracy([gold], [predicted])) == 80.00
    disjoint = tree(gold.forms, ["X"] * 5, gold.heads, gold.deprels)
    assert tagging_accuracy([gold], [disjoint]) == 0.0


# -- relative error reduction --------------------------------------------------------


def test_headline_error_reductions_to_two_decimals():
    assert pct2(relative_error_reduction(78.35, 89.50)) == 51.50
    assert pct2(relative_error_reduction(79.29, 84.47)) == 25.01
    assert pct2(relative_error_reduction(77.00, 82.43)) == 23.61
    assert pct2(relative_error_reduction(75.98, 79.29)) == 13.78
    assert pct2(relative_error_reduction(75.98, 77.67)) == 7.04
    assert pct2(relative_error_reduction(75.98, 78.18)) == 9.16


def test_error_reduction_identity_and_validation():
    assert relative_error_reduction(80.0, 80.0) == 0.0
    with pytest.raises(ValueError):
        relative_error_reduction(100.0, 99.0)
    with pytest.raises(ValueError):
        relative_error_reduction(-1.0, 50.0)
    with pytest.raises(ValueError):
        relative_error_reduction(50.0, 101.0)


# -- inter-annotator agreement ---------------------------------------------------------


def test_iaa_identical_annotations():
    gold, _ = five_token_pair()
    assert inter_annotator_agreement([gold], [gold]) == (100.0, 100.0, 100.0)


def test_iaa_hand_counted_ten_tokens():
    words = [f"w{i}" for i in range(10)]
    heads_a = [0] + [1] * 9
    rels_a = ["root"] + ["dep"] * 9
    tags_a = ["NOUN"] * 10
    a = tree(words, tags_a, heads_a, rels_a)
    tags_b = list(tags_a)
    tags_b[9] = "VERB"           # 9/10 tags agree
    heads_b = list(heads_a)
    heads_b[8] = 2               # 9/10 heads agree
    rels_b = list(rels_a)
    rels_b[7] = "nsubj"          # 8/10 heads+labels agree
    b = tree(words, tags_b, heads_b, rels_b)
    tag_acc, uas, las = inter_annotator_agreement([a], [b])
    assert (pct2(tag_acc), pct2(uas), pct2(las)) == (90.00, 90.00, 80.00)


def test_iaa_symmetric_when_only_labels_differ():
    words = ["x", "y", "z"]
    a = tree(words, ["NOUN", "VERB", "ADJ"], [2, 0, 2], ["nsubj", "root", "amod"])
    b = tree(words, ["NOUN", "VERB", "X"], [2, 0, 2], ["nsubj", "root", "dobj"])
    assert inter_annotator_agreement([a], [b]) == inter_annotator_agreement([b], [a])


# -- per-category scores ------------------------------------------------------------------


def test_single_category_equals_overall():
    gold, predicted = five_token_pair()
    gold_cat = tree(gold.forms, gold.upos, gold.heads, gold.deprels,
                    categories=("Topic Prominence",))
    table = per_category_scores([gold_cat], [predicted])
    assert set(table) == {"Topic Prominence"}
    overall = attachment_scores([gold_cat], [predicted])
    assert table["Topic Prominence"] == overall


def test_multi_category_sentence_counts_in_every_row():
    gold, predicted = five_token_pair()
    gold_two = tree(gold.forms, gold.upos, gold.heads, gold.deprels,
                    categories=("Copula Deletion", "NP Deletion"))
    table = per_category_scores([gold_two], [predicted])
    assert table["Copula Deletion"].tokens == 5
    assert table["NP Deletion"].tokens == 5
    total = sum(r.tokens for r in table.values())
    assert total == 10  # multi-membership double-counts by design


def test_uncategorized_sentences_fall_into_others():
    gold, predicted = five_token_pair()
    table = per_category_scores([gold], [predicted])
    assert set(table) == {"Others"}
    assert table["Others"].tokens == 5


def test_two_category_fixture_hand_counts():
    g1 = tree(["a", "b"], ["NOUN", "VERB"], [2, 0], ["nsubj", "root"],
              categories=("X",))
    p1 = tree(["a", "b"], ["NOUN", "VERB"], [2, 0], ["nsubj", "root"])
    g2 = tree(["c", "d"], ["NOUN", "VERB"], [2, 0], ["nsubj", "root"],
              categories=("Y",))
    p2 = tree(["c", "d"], ["NOUN", "VERB"], [0, 1], ["root", "nsubj"])
    table = per_category_scores([g1, g2], [p1, p2])
    assert pct2(table["X"].uas) == 100.00
    assert pct2(table["Y"].uas) == 0.00


# -- folds, jackknifing, cross-fold validation -----------------------------------------------


def test_make_folds_partitions_exactly():
    folds = make_folds(10, 3, seed=5)
    flat = sorted(i for fold in folds for i in fold)
    assert flat == list(range(10))
    assert [len(f) for f in folds] == [4, 3, 3]
    assert make_folds(10, 3, seed=5) == folds
    with pytest.raises(ValueError):
        make_folds(3, 5, seed=0)
    with pytest.raises(ValueError):
        make_folds(10, 1, seed=0)


def _marker_trainer(train_sentences):
    trained = {s.forms for s in train_sentences}

    def tag_fn(sentences):
        return [["IN" if s.forms in trained else "OUT"] * len(s) for s in sentences]

    return tag_fn


def _distinct_corpus(n):
    return [make_sentence([f"w{i}a", f"w{i}b"], ["NOUN", "VERB"], [2, 0],
                          ["nsubj", "root"]) for i in range(n)]


def test_jackknife_each_sentence_tagged_by_unseen_model():
    corpus = _distinct_corpus(7)
    tagged = jackknife_tags(corpus, k=7, tagger_trainer=_marker_trainer, seed=1)
    assert len(tagged) == len(corpus)
    for original, out in zip(corpus, tagged):
        assert out.forms == original.forms  # order preserved
        assert set(out.upos) == {"OUT"}     # leave-one-out: never trained on itself
        assert out == original.with_upos(out.upos)  # only the tags change


def test_jackknife_union_is_exact_partition():
    corpus = _distinct_corpus(9)
    calls = []

    def counting_trainer(train_sentences):
        calls.append(len(train_sentences))
        return lambda sentences: [["X"] * len(s) for s in sentences]

    tagged = jackknife_tags(corpus, k=3, tagger_trainer=counting_trainer, seed=0)
    assert len(tagged) == 9
    assert calls == [6, 6, 6]
    with pytest.raises(ValueError):
        jackknife_tags(corpus, k=10, tagger_trainer=counting_trainer)


def test_jackknife_default_k_is_ten():
    from stackparse.config import RunConfig
    assert RunConfig().k == 10


def _echo_parser_trainer(train_sentences, dev_sentences):
    def predict(sentences):
        return sentences  # parrot the gold trees

    return predict


def test_cross_fold_validate_mean_is_arithmetic_identity():
    corpus = _distinct_corpus(8)
    report = cross_fold_validate(corpus, 4, _echo_parser_trainer, seed=2)
    assert len(report.fold_uas) == 4
    assert report.mean_uas == sum(report.fold_uas) / 4
    assert report.mean_las == sum(report.fold_las) / 4
    assert report.fold_uas == (100.0,) * 4


def test_cross_fold_dev_test_split_fraction():
    corpus = _distinct_corpus(12)
    seen = []

    def trainer(train_sentences, dev_sentences):
        seen.append((len(train_sentences), len(dev_sentences)))
        return lambda sentences: sentences

    cross_fold_validate(corpus, 3, trainer, seed=3)
    assert seen == [(8, 2), (8, 2), (8, 2)]


def test_cross_fold_deterministic():
    corpus = _distinct_corpus(10)
    a = cross_fold_validate(corpus, 5, _echo_parser_trainer, seed=4)
    b = cross_fold_validate(corpus, 5, _echo_parser_trainer, seed=4)
    assert a == b


def test_cross_fold_rejects_a_fold_without_test_sentences():
    trained = []

    def trainer(train_sentences, dev_sentences):
        trained.append(len(train_sentences))
        return lambda sentences: sentences

    with pytest.raises(ValueError, match="fold 1 of 5 has no test sentences"):
        cross_fold_validate(_distinct_corpus(5), 5, trainer, seed=1)
    assert trained == []  # rejected before any fold is trained


def test_pct2_half_up():
    assert pct2(51.495) == 51.50
    assert pct2(51.494) == 51.49
    assert pct2(0.005) == 0.01
