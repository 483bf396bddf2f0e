from __future__ import annotations

import math

import numpy as np
import pytest

from stackparse.langmodel import (
    BOS,
    EOS,
    UNK,
    NgramLM,
    match_lexicon,
    perplexity,
    rank_by_divergence,
    sentence_logprob,
    train_ngram_lm,
)


def five_sentence_corpus():
    return [["a", "b"], ["a", "b"], ["a", "c"], ["b", "a"], ["a", "b", "c"]]


# -- hand-computed modified Kneser-Ney probabilities --------------------------------
#
# Bigram counts over the padded corpus: (<s>,a)=4 (<s>,b)=1 (a,b)=3 (a,c)=1
# (b,</s>)=2 (c,</s>)=2 (b,a)=1 (a,</s>)=1 (b,c)=1; counts-of-counts
# n1..n4 = 5,2,1,1 so Y = 5/9, D1 = 5/9, D2 = 7/6, D3 = 7/9.
# Adjusted unigrams (distinct left extensions): a=2 b=2 c=2 </s>=3; all
# counts >= 2 means n1 = 0, so the documented fallback discounts
# (0.5, 1.0, 1.5) apply; prediction vocabulary = {a, b, c, </s>, <unk>}.


def test_unigram_level_hand_values():
    lm = train_ngram_lm(five_sentence_corpus(), order=2)
    # denom 9; gamma = (1.0*3 + 1.5*1)/9 = 1/2; uniform floor 1/5
    assert abs(lm.cond_prob((), "a") - (1.0 / 9 + 0.5 * 0.2)) < 1e-12
    assert abs(lm.cond_prob((), "b") - 19.0 / 90) < 1e-12
    assert abs(lm.cond_prob((), "c") - 19.0 / 90) < 1e-12
    assert abs(lm.cond_prob((), EOS) - 24.0 / 90) < 1e-12
    assert abs(lm.cond_prob((), UNK) - 9.0 / 90) < 1e-12


def test_bigram_level_hand_values_context_a():
    lm = train_ngram_lm(five_sentence_corpus(), order=2)
    # denom 5; N1 = 2, N3+ = 1; gamma = (2*5/9 + 7/9)/5 = 17/45
    assert abs(lm.cond_prob(("a",), "b") - 2123.0 / 4050) < 1e-12
    assert abs(lm.cond_prob(("a",), "c") - 683.0 / 4050) < 1e-12
    assert abs(lm.cond_prob(("a",), EOS) - 768.0 / 4050) < 1e-12
    assert abs(lm.cond_prob(("a",), "a") - 323.0 / 4050) < 1e-12
    assert abs(lm.cond_prob(("a",), UNK) - 153.0 / 4050) < 1e-12


def test_bigram_level_hand_values_other_contexts():
    lm = train_ngram_lm(five_sentence_corpus(), order=2)
    # context <s>: denom 5, gamma = (5/9 + 7/9)/5 = 4/15
    assert abs(lm.cond_prob((BOS,), "a") - 473.0 / 675) < 1e-12
    assert abs(lm.cond_prob((BOS,), "b") - 98.0 / 675) < 1e-12
    assert abs(lm.cond_prob((BOS,), "c") - 38.0 / 675) < 1e-12
    # context b: denom 4, gamma = (2*5/9 + 7/6)/4 = 41/72
    assert abs(lm.cond_prob(("b",), EOS) - 2334.0 / 6480) < 1e-12
    assert abs(lm.cond_prob(("b",), "a") - 1499.0 / 6480) < 1e-12
    assert abs(lm.cond_prob(("b",), UNK) - 369.0 / 6480) < 1e-12
    # context c: denom 2, gamma = (7/6)/2 = 7/12
    assert abs(lm.cond_prob(("c",), EOS) - 618.0 / 1080) < 1e-12


def test_order_one_repeated_token_hand_values():
    # "a a": unigram counts a=2, </s>=1; Y=1/3, D1=1/3, D2=2 (n3=0 term),
    # D3 falls back to 1.5; V = {a, </s>, <unk>}; gamma = (1/3 + 2)/3 = 7/9.
    lm = train_ngram_lm([["a", "a"]], order=1)
    assert abs(lm.cond_prob((), "a") - 7.0 / 27) < 1e-12
    assert abs(lm.cond_prob((), EOS) - 13.0 / 27) < 1e-12
    assert abs(lm.cond_prob((), UNK) - 7.0 / 27) < 1e-12


def test_symmetric_counts_give_equal_probabilities():
    lm = train_ngram_lm([["a", "b"], ["a", "c"]], order=2)
    assert abs(lm.cond_prob(("a",), "b") - lm.cond_prob(("a",), "c")) < 1e-15


def test_per_context_normalization_within_1e9():
    for corpus, order in [
        (five_sentence_corpus(), 2),
        (five_sentence_corpus(), 3),
        ([["x", "y", "z", "x"], ["y", "z"], ["z"]], 4),
        ([["a", "a"]], 1),
    ]:
        lm = train_ngram_lm(corpus, order)
        for k in range(1, order + 1):
            for context in lm.contexts(k):
                total = sum(lm._prob(context, w) for w in lm.pred_vocab)
                assert abs(total - 1.0) < 1e-9, (order, context)


def test_probabilities_in_zero_one():
    lm = train_ngram_lm(five_sentence_corpus(), order=2)
    for context in [(), ("a",), ("b",), (BOS,), ("zzz",)]:
        for w in lm.pred_vocab:
            p = lm.cond_prob(context, w)
            assert 0.0 < p <= 1.0


def test_train_rejects_empty_corpus_and_bad_order():
    with pytest.raises(ValueError):
        train_ngram_lm([], order=2)
    with pytest.raises(ValueError):
        train_ngram_lm([[]], order=2)
    with pytest.raises(ValueError):
        train_ngram_lm([["a"]], order=0)


def test_singleton_pruning_folds_rare_types_into_unk():
    lm = train_ngram_lm([["a", "a", "rare"], ["a", "b"], ["b", "a"]],
                        order=2, prune_singletons=True)
    assert "rare" not in lm.vocab
    assert "a" in lm.vocab and "b" in lm.vocab


# -- sentence scoring -----------------------------------------------------------------


def test_sentence_logprob_chain_rule_exact():
    lm = train_ngram_lm(five_sentence_corpus(), order=2)
    expected = (math.log10(lm.cond_prob((BOS,), "a"))
                + math.log10(lm.cond_prob(("a",), "b"))
                + math.log10(lm.cond_prob(("b",), EOS)))
    assert abs(sentence_logprob(lm, ["a", "b"]) - expected) < 1e-12


def test_sentence_logprob_deterministic_corpus_hand_value():
    lm = train_ngram_lm([["a"]] * 20, order=2)
    # p(a|<s>) = (20-1.5)/20 + (1.5/20)(1/3) = 0.95 = p(</s>|a)
    assert abs(sentence_logprob(lm, ["a"]) - 2.0 * math.log10(0.95)) < 1e-12


def test_appending_unknown_token_decreases_logprob():
    lm = train_ngram_lm(five_sentence_corpus(), order=2)
    base = sentence_logprob(lm, ["a", "b"])
    extended = sentence_logprob(lm, ["a", "b", "quux"])
    assert extended < base


def test_unknown_tokens_map_to_unk():
    lm = train_ngram_lm(five_sentence_corpus(), order=2)
    assert lm.map_token("quux") == UNK
    assert (sentence_logprob(lm, ["quux"])
            == sentence_logprob(lm, ["zzzz"]))


def test_training_corpus_perplexity_below_divergent_heldout():
    rng = np.random.default_rng(0)
    vocab = [f"w{i}" for i in range(12)]
    weights = np.array([2.0 ** -i for i in range(12)])
    weights /= weights.sum()
    train = [[vocab[int(i)] for i in rng.choice(12, size=8, p=weights)]
             for _ in range(150)]
    heldout = [[vocab[int(i)] for i in rng.integers(0, 12, size=8)]
               for _ in range(80)]
    lm = train_ngram_lm(train, order=3)
    assert perplexity(lm, train) <= perplexity(lm, heldout)


# -- ranking ---------------------------------------------------------------------------


def test_rank_filters_by_inclusive_length_bounds():
    lm = train_ngram_lm(five_sentence_corpus(), order=2)
    sentences = [["a"] * 4, ["a"] * 5, ["a"] * 50, ["a"] * 51]
    records = rank_by_divergence(lm, sentences, (5, 50))
    lengths = sorted(r.token_count for r in records)
    assert lengths == [5, 50]


def test_rank_most_divergent_first_and_stable():
    lm = train_ngram_lm([["a", "b"]] * 10 + [["c", "d"]], order=2)
    familiar = ["a", "b", "a", "b", "a"]
    strange = ["c", "q", "d", "q", "c"]
    records = rank_by_divergence(lm, [familiar, strange], (1, 50))
    assert records[0].text == " ".join(strange)
    assert records[0].normalized < records[1].normalized
    # ties keep input order (stable sort)
    dup = rank_by_divergence(lm, [familiar, list(familiar)], (1, 50))
    assert [r.text for r in dup] == [" ".join(familiar)] * 2


def test_rank_single_sentence_is_itself():
    lm = train_ngram_lm(five_sentence_corpus(), order=2)
    records = rank_by_divergence(lm, [["a", "b", "c", "a", "b"]], (1, 50))
    assert len(records) == 1
    assert records[0].token_count == 5


def test_rank_normalization_divisor_counts_end_token():
    lm = train_ngram_lm(five_sentence_corpus(), order=2)
    tokens = ["a", "b", "c", "a", "b"]
    (with_end,) = rank_by_divergence(lm, [tokens], (1, 50), count_end_token=True)
    (without,) = rank_by_divergence(lm, [tokens], (1, 50), count_end_token=False)
    assert abs(with_end.normalized - with_end.total_log10 / 6.0) < 1e-12
    assert abs(without.normalized - without.total_log10 / 5.0) < 1e-12


def test_rank_is_permutation_of_filtered_input():
    lm = train_ngram_lm(five_sentence_corpus(), order=2)
    rng = np.random.default_rng(1)
    sentences = [[lm_tok for lm_tok in rng.choice(["a", "b", "c", "zz"], size=6)]
                 for _ in range(20)]
    records = rank_by_divergence(lm, sentences, (1, 50))
    assert sorted(r.text for r in records) == sorted(" ".join(s) for s in sentences)


# -- lexicon matching --------------------------------------------------------------------


def test_lexicon_single_word_hit():
    hits = match_lexicon([["so", "kiasu", "again"]], {"kiasu"})
    assert hits == [["kiasu"]]


def test_lexicon_multiword_contiguous_match():
    hits = match_lexicon([["dun", "talk", "cock", "lah"]], {"talk cock"})
    assert hits == [["talk cock"]]
    misses = match_lexicon([["talk", "so", "much", "cock"]], {"talk cock"})
    assert misses == [[]]


def test_lexicon_case_insensitive_and_order():
    hits = match_lexicon([["Kiasu", "people", "Makan", "here"]],
                         ["makan", "kiasu"])
    assert hits == [["kiasu", "makan"]]


def test_lexicon_terms_match_case_insensitively_and_are_reported_as_given():
    hits = match_lexicon([["Hello", "world"]], ["Hello", "hello"])
    assert hits == [["Hello", "hello"]]
    assert match_lexicon([["dun", "talk", "cock"]], ["Talk Cock"]) == [["Talk Cock"]]


def test_empty_lexicon_no_hits():
    assert match_lexicon([["a", "b"]], set()) == [[]]


def test_rank_with_lexicon_fills_hits():
    lm = train_ngram_lm(five_sentence_corpus(), order=2)
    records = rank_by_divergence(lm, [["a", "kiasu", "b"]], (1, 50),
                                 lexicon={"kiasu"})
    assert records[0].hits == ("kiasu",)


# -- persistence --------------------------------------------------------------------------


def test_json_round_trip_preserves_probabilities():
    lm = train_ngram_lm(five_sentence_corpus(), order=3)
    restored = NgramLM.from_json(lm.to_json())
    for context in [(), ("a",), (BOS, "a"), ("a", "b")]:
        for w in restored.pred_vocab:
            assert restored.cond_prob(context, w) == lm.cond_prob(context, w)
