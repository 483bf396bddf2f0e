from __future__ import annotations

import base64
import gc
import json
import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stackparse.langmodel import (
    BOS,
    EOS,
    UNK,
    NgramLM,
    _distinct,
    _estimate_discounts,
    _sentence_logprobs,
    match_lexicon,
    rank_by_divergence,
    sentence_logprob,
    train_ngram_lm,
)
from util import lm_contexts, lm_discounts, lm_distinct, lm_tables, pack


def perplexity(lm, corpus):
    """10 ** -(mean log10 probability per scored event), the end marker
    included."""
    total = 0.0
    events = 0
    for sentence in corpus:
        total += sentence_logprob(lm, sentence)
        events += len(sentence) + 1
    return 10.0 ** (-total / events)


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
            for context in lm_contexts(lm, k):
                total = sum(lm.cond_prob(context, w) for w in lm.pred_vocab)
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


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.integers(1, 6), st.sampled_from([3, 70_000, 2 ** 31]),
       st.integers(0, 60), st.integers(0, 2 ** 32 - 1))
def test_packed_keys_count_the_rows_the_rank_chain_counts(k, radix, n, seed):
    """A key packs every column at radix 3, is ranked again once before
    column 4 at 70,000, and before every column from the third at 2**31."""
    rng = np.random.default_rng(seed)
    values = np.unique(np.concatenate([[0, 1, radix - 2, radix - 1],
                                       rng.integers(0, radix, 4)]))
    rows = values[rng.integers(0, len(values), (n, k))].astype(np.int32)
    got, expected = _distinct(rows, radix), lm_distinct(rows, radix)
    assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, expected))


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


def scan_lexicon(sentences, lexicon):
    """The slice-every-term-at-every-position scan match_lexicon replaced,
    kept as the oracle."""
    terms = [(term, term.lower().split()) for term in lexicon if term.strip()]
    results = []
    for sentence in sentences:
        lowered = [t.lower() for t in sentence]
        found = []
        seen = set()
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


def test_lexicon_index_edge_cases():
    sentence = ["Talk", "cock", "sing", "song", "talk", "COCK", "lah"]
    lexicon = [
        "talk cock", "talk cock",            # duplicate term
        "Talk Cock", "talk  \tcock",         # differ in case / inner whitespace
        "talk", "talk cock sing",            # different widths, same start
        "cock sing song talk cock lah extra more",  # longer than the sentence
        "   ",                               # whitespace only
        "cock",                              # occurs twice: first position only
    ]
    expected = [["Talk Cock", "talk", "talk  \tcock", "talk cock", "talk cock sing",
                 "cock"]]
    assert scan_lexicon([sentence], lexicon) == expected
    assert match_lexicon([sentence], lexicon) == expected


# with case pairs whose lowercase is longer (İ), titlecase (ǅ) or takes a
# final sigma (ΣΑΣ -> σας)
_tokens = st.sampled_from(["a", "A", "b", "B", "ab", "lah", "LAH", "İ", "i̇", "i",
                           "ǅ", "ǆ", "Ǆ", "ΣΑΣ", "σας", "σασ"])
_spaces = st.sampled_from([" ", "  ", "\t", " \n "])


@st.composite
def _terms(draw):
    words = draw(st.lists(_tokens, max_size=5))
    gaps = draw(st.lists(_spaces, min_size=len(words) + 1, max_size=len(words) + 1))
    if not draw(st.booleans()):
        gaps[0] = gaps[-1] = ""
    return gaps[0] + "".join(w + g for w, g in zip(words, gaps[1:]))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.lists(st.lists(_tokens, max_size=8), max_size=7),
       st.lists(_terms(), max_size=8).flatmap(
           lambda terms: st.permutations(terms + terms[:2])),
       st.integers(1, 3))
@example([["a", "b"]], ["a b c"], 1024)       # term longer than the sentence
@example([["a", "b", "a"]], ["a", "A", " ", "a", "a b"], 1024)
@example([[], ["ΣΑΣ", "İ"], [], ["a"] * 5], ["σας i̇", "A A a a a", "ǆ"], 2)
def test_lexicon_index_matches_brute_force_scan(sentences, lexicon, chunk):
    """Chunks smaller than the pool split it in several array passes."""
    assert match_lexicon(sentences, lexicon, chunk) == scan_lexicon(sentences, lexicon)


def test_rank_with_lexicon_fills_hits():
    lm = train_ngram_lm(five_sentence_corpus(), order=2)
    records = rank_by_divergence(lm, [["a", "kiasu", "b"]], (1, 50),
                                 lexicon={"kiasu"})
    assert records[0].hits == ("kiasu",)


# -- persistence --------------------------------------------------------------------------


def test_json_bytes_match_the_reference_writer_and_round_trip():
    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(40)] + ['"', "\\", "naïve", "日本", "Wah"]
    corpus = [[words[i] for i in rng.integers(len(words), size=int(rng.integers(1, 15)))]
              for _ in range(200)]
    lm = train_ngram_lm(corpus, order=4)
    text = lm.to_json()
    assert text == json.dumps(reference_payload(corpus, 4), separators=(",", ":"))
    assert len(lm.grams[0][1]) == 0 and (lm.grams[2][0][:, 0] == lm.tokens.index(BOS)).all()
    restored = NgramLM.from_json(text)
    assert restored.to_json() == text
    assert lm_tables(restored) == lm_tables(lm) and lm_discounts(restored) == lm_discounts(lm)
    for tokens in corpus[:20] + [["w1", "unseen", "w2"]]:
        assert sentence_logprob(restored, tokens) == sentence_logprob(lm, tokens)


def test_model_building_leaves_the_collector_as_it_found_it():
    builds = [
        lambda: train_ngram_lm(five_sentence_corpus(), order=2),
        lambda: train_ngram_lm(five_sentence_corpus(), order=2).to_json(),
        lambda: NgramLM.from_json(train_ngram_lm(five_sentence_corpus(), order=2).to_json()),
        lambda: train_ngram_lm(five_sentence_corpus(), order=2).cond_prob(("a",), "b"),
        lambda: sentence_logprob(train_ngram_lm(five_sentence_corpus(), order=2), ["a"]),
    ]
    assert gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            with pytest.raises(ValueError):
                NgramLM.from_json("[]")
            assert gc.isenabled() is enabled
            for build in builds:
                build()
                assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_writing_a_model_builds_no_scoring_statistics():
    lm = train_ngram_lm(five_sentence_corpus(), order=3)
    lm.to_json()  # lm-train's path derives nothing
    assert "_levels" not in vars(lm)
    lm_contexts(lm, 2)  # the tables oracle is built apart from what scoring reads
    assert "_levels" not in vars(lm)
    lm.cond_prob(("a",), "b")
    assert "_levels" in vars(lm)
    restored = NgramLM.from_json(lm.to_json())
    assert "_levels" not in vars(restored)


def test_json_round_trip_preserves_probabilities():
    lm = train_ngram_lm(five_sentence_corpus(), order=3)
    restored = NgramLM.from_json(lm.to_json())
    for context in [(), ("a",), (BOS, "a"), ("a", "b")]:
        for w in restored.pred_vocab:
            assert restored.cond_prob(context, w) == lm.cond_prob(context, w)


# -- the estimator and reader against the per-gram reference ----------------------------


def reference_raw(corpus, order):
    """Raw counts of every n-gram at every order, one position at a time;
    an n-gram that ends with <s> is never counted."""
    sentences = [list(s) for s in corpus if len(s) > 0]
    raw = [dict() for _ in range(order)]
    for sentence in sentences:
        padded = [BOS] * (order - 1) + sentence + [EOS]
        for k in range(1, order + 1):
            for i in range(len(padded) - k + 1):
                gram = tuple(padded[i:i + k])
                if gram[-1] != BOS:
                    raw[k - 1][gram] = raw[k - 1].get(gram, 0) + 1
    return raw


def reference_counts(corpus, order):
    """What a model file holds: the top order's raw counts, and below it
    those of the n-grams that start with <s>."""
    raw = reference_raw(corpus, order)
    return [{gram: count for gram, count in table.items() if k == order or gram[0] == BOS}
            for k, table in enumerate(raw, start=1)]


def reference_id_code(tokens):
    """The struct code of the narrowest unsigned type, 2 or 4 bytes, that
    holds the largest id."""
    return "H" if len(tokens) - 1 <= 0xFFFF else "I"


def reference_payload(corpus, order):
    """The file's JSON object, from reference_counts: the sorted vocabulary
    and, per order, the n-grams in sorted order as one flat array of ids
    into the sorted vocabulary and markers, and one of their counts, each
    packed."""
    vocab = sorted({t for s in corpus for t in s})
    tokens = sorted(set(vocab) | {BOS, EOS, UNK})
    index = {t: i for i, t in enumerate(tokens)}
    tables = [sorted((tuple(index[t] for t in gram), count) for gram, count in table.items())
              for table in reference_counts(corpus, order)]
    return {"order": order, "vocab": vocab,
            "ids": [pack([i for ids, _ in table for i in ids], reference_id_code(tokens))
                    for table in tables],
            "counts": [pack([count for _, count in table], "q") for table in tables]}


def reference_tables(corpus, order):
    """The per-position counting train_ngram_lm replaced: raw counts of
    every n-gram at every order, then continuation counts below the top
    order except for n-grams that start with <s>."""
    raw = reference_raw(corpus, order)
    adjusted = [dict() for _ in range(order)]
    adjusted[order - 1] = dict(raw[order - 1])
    for k in range(order - 1, 0, -1):
        table = {}
        for gram in adjusted[k]:
            table[gram[1:]] = table.get(gram[1:], 0) + 1
        for gram, count in raw[k - 1].items():
            if gram[0] == BOS:
                table[gram] = count
        adjusted[k - 1] = table
    return adjusted


def reference_discounts(table):
    of = Counter()
    for count in table.values():
        if 1 <= count <= 4:
            of[count] += 1
    return _estimate_discounts(of)


def reference_stats(table):
    """context -> (count sum, n1, n2, n3+), one n-gram at a time."""
    denom, nk = {}, {}
    for gram, count in table.items():
        context = gram[:-1]
        denom[context] = denom.get(context, 0) + count
        slot = nk.setdefault(context, [0, 0, 0])
        slot[0 if count == 1 else 1 if count == 2 else 2] += 1
    return denom, nk


def reference_prob(tables, discounts, stats, vocab_size, context, word):
    k = len(context) + 1
    lower = (1.0 / vocab_size if k == 1
             else reference_prob(tables, discounts, stats, vocab_size, context[1:], word))
    denom, nk = stats[k - 1]
    if denom.get(context, 0) == 0:
        return lower
    d1, d2, d3 = discounts[k - 1]
    count = tables[k - 1].get(context + (word,), 0)
    discounted = (0.0 if count == 0 else count - d1 if count == 1
                  else count - d2 if count == 2 else count - d3)
    n1, n2, n3 = nk[context]
    gamma = (d1 * n1 + d2 * n2 + d3 * n3) / denom[context]
    return max(discounted, 0.0) / denom[context] + gamma * lower


def reference_logprob(corpus, order, sentences):
    """Each sentence's log10 probability, one token at a time, each log
    taken with math.log10 and added left to right."""
    tables = reference_tables(corpus, order)
    discounts = [reference_discounts(table) for table in tables]
    stats = [reference_stats(table) for table in tables]
    known = {t for s in corpus for t in s} | {EOS}
    totals = []
    for tokens in sentences:
        history, total = [BOS] * (order - 1), 0.0
        for word in [t if t in known else UNK for t in tokens] + [EOS]:
            context = tuple(history[len(history) - order + 1:])
            total += math.log10(reference_prob(tables, discounts, stats, len(known | {UNK}),
                                               context, word))
            history.append(word)
        totals.append(total)
    return totals


# the markers as tokens, a prefix of another token, an empty token, a
# NUL-holding token, a quote and non-ASCII tokens
_LM_TOKENS = st.sampled_from(["a", "b", "ab", BOS, EOS, UNK, "", "a\x00", '"', "naïve", "日本"])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_LM_TOKENS, max_size=6), min_size=1, max_size=8),
       st.integers(1, 5))
@example([[BOS]], 3)
@example([["a", BOS, "b"], [BOS, BOS]], 5)
@example([[EOS, "a"], ["a"]], 1)
@example([[BOS, '"', "a\x00", BOS], ["日本", UNK, BOS, EOS, "naïve"]], 4)
def test_estimator_equals_the_per_gram_reference(corpus, order):
    if not any(corpus):
        with pytest.raises(ValueError):
            train_ngram_lm(corpus, order)
        return
    lm = train_ngram_lm(corpus, order)
    tables = reference_tables(corpus, order)
    discounts = [reference_discounts(table) for table in tables]
    text = lm.to_json()
    assert text == json.dumps(reference_payload(corpus, order), separators=(",", ":"))
    restored = NgramLM.from_json(text)
    assert restored.to_json() == text
    stats = [reference_stats(table) for table in tables]
    sentences = corpus + [["a", "zz", BOS, "b"], []]
    for model in (lm, restored):
        assert lm_tables(model) == tables and lm_discounts(model) == discounts
        for k in range(1, order + 1):
            assert lm_contexts(model, k) == set(stats[k - 1][0])
            for context in lm_contexts(model, k) | {("zz",) * (k - 1)}:
                for word in model.pred_vocab:
                    assert model.cond_prob(context, word) == reference_prob(
                        tables, discounts, stats, len(model.pred_vocab), context, word)
        assert model.cond_prob(["a"] * order, "b") == reference_prob(
            tables, discounts, stats, len(model.pred_vocab), ("a",) * (order - 1), "b")
        expected = reference_logprob(corpus, order, sentences)
        assert [sentence_logprob(model, sentence) for sentence in sentences] == expected
        assert _sentence_logprobs(model, sentences, chunk=2) == expected  # across chunks
        ranked = rank_by_divergence(model, sentences, (0, 9))  # all scored in one pass
        assert sorted((r.text, r.total_log10) for r in ranked) == sorted(
            zip(map(" ".join, sentences), expected))


def test_order_five_over_a_vocabulary_too_large_for_mixed_radix_keys():
    """7,000 types at order 5: an n-gram keyed by its five ids in mixed
    radix would need 7003 ** 5 > 2 ** 63, so the keys would overflow.
    The tables, discounts and every sentence's log probability equal the
    per-gram reference's, bit for bit."""
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(7000)]
    corpus = [[words[i] for i in chunk] for chunk in np.array_split(rng.permutation(7000), 700)]
    corpus += [[words[i % 60] for i in rng.zipf(1.3, size=12)] for _ in range(300)]
    lm = train_ngram_lm(corpus, order=5)
    assert len(lm.tokens) ** 5 > 2 ** 63
    tables = reference_tables(corpus, 5)
    sentences = corpus[:40] + corpus[-40:] + [["w1", "unseen", "w6999", "w2"], [BOS, EOS]]
    expected = reference_logprob(corpus, 5, sentences)
    for model in (lm, NgramLM.from_json(lm.to_json())):
        assert lm_tables(model) == tables
        assert lm_discounts(model) == [reference_discounts(table) for table in tables]
        assert [sentence_logprob(model, s) for s in sentences] == expected
        assert _sentence_logprobs(model, sentences, chunk=7) == expected


def reference_unpack(packed, code, what):
    """A packed entry's integers, one check at a time."""
    if type(packed) is not str:
        raise ValueError(f"{what} must be a base64 string, got {type(packed).__name__}")
    try:
        data = base64.b64decode(packed, validate=True)
    except ValueError as exc:
        raise ValueError(f"{what} is not valid base64: {exc}") from None
    size = struct.calcsize(f"<{code}")
    if len(data) % size:
        raise ValueError(f"{what} has {len(data)} bytes, not a whole number of {size}-byte integers")
    return list(struct.unpack(f"<{len(data) // size}{code}", data))


def reference_read(payload):
    """from_json's checks one value at a time, in its order: per order, the
    ids' packing, then the counts', the lengths, the id range, the counts,
    the <s> rules, and each n-gram against the one before it."""
    order, tokens = payload["order"], sorted(set(payload["vocab"]) | {BOS, EOS, UNK})
    for k, (ids, counts) in enumerate(zip(payload["ids"], payload["counts"]), start=1):
        ids = reference_unpack(ids, reference_id_code(tokens), f"order-{k} ids")
        counts = reference_unpack(counts, "q", f"order-{k} counts")
        if len(ids) != k * len(counts):
            raise ValueError(f"order-{k} holds {len(ids)} ids for {len(counts)} counts")
        for i in ids:
            if not 0 <= i < len(tokens):
                raise ValueError(f"order-{k} id {i} is not the index of one of "
                                 f"{len(tokens)} tokens")
        for count in counts:
            if count < 1:
                raise ValueError(f"order-{k} count {count} is not >= 1")
        grams = [ids[i:i + k] for i in range(0, len(ids), k)]
        for gram in grams:
            if tokens[gram[-1]] == BOS:
                raise ValueError(f"order-{k} n-gram {[tokens[i] for i in gram]!r} ends with {BOS}")
        for gram in grams:
            if k < order and tokens[gram[0]] != BOS:
                raise ValueError(f"order-{k} n-gram {[tokens[i] for i in gram]!r} "
                                 f"does not start with {BOS}")
        for before, gram in zip(grams, grams[1:]):
            if gram <= before:
                fault = "twice" if gram == before else "out of order"
                raise ValueError(f"order-{k} lists the n-gram {[tokens[i] for i in gram]!r} {fault}")


def _set_id(at):
    """A mutation that writes its value at position `at` of n-gram i."""
    def mutate(ids, counts, k, i, j, tokens, value):
        ids[i * k + (at if at >= 0 else k + at)] = value
    return mutate


def _copy_gram(ids, counts, k, i, j, tokens, value):
    ids[i * k:(i + 1) * k] = ids[j * k:(j + 1) * k]


def _swap_grams(ids, counts, k, i, j, tokens, value):
    ids[i * k:(i + 1) * k], ids[j * k:(j + 1) * k] = ids[j * k:(j + 1) * k], ids[i * k:(i + 1) * k]


def _set_count(value):
    def mutate(ids, counts, k, i, j, tokens, _):
        counts[i] = value
    return mutate


def _cut_a_byte(packed):
    return base64.b64encode(base64.b64decode(packed)[:-1]).decode("ascii")


# Each fault class of the file: (what it changes, how).  A "packed"
# mutation changes the order's packed entry, a "shape" one its integer
# lists' lengths, and a "value" one values of n-grams i and j.
_MUTATIONS = {
    "ids-type": ("packed", lambda packed: 7),
    "counts-dict": ("packed", lambda packed: {"a": 1}),
    "ids-not-base64": ("packed", lambda packed: packed + "*"),
    "counts-not-ascii": ("packed", lambda packed: packed[:-1] + "é"),
    "ids-partial": ("packed", _cut_a_byte),
    "counts-partial": ("packed", _cut_a_byte),
    "ids-long": ("shape", lambda lists, k: lists["ids"][k - 1].append(0)),
    "ids-short": ("shape", lambda lists, k: lists["ids"][k - 1].pop()),
    "counts-short": ("shape", lambda lists, k: lists["counts"][k - 1].pop()),
    "largest-id": ("value", _set_id(-1)),
    "id-out-of-range": ("value", _set_id(-1)),
    "bos-last": ("value", _set_id(-1)),
    "first-not-bos": ("value", _set_id(0)),
    "zero-count": ("value", _set_count(0)),
    "negative-count": ("value", _set_count(-1)),
    "largest-count": ("value", _set_count(2 ** 63 - 1)),
    "repeated-gram": ("value", _copy_gram),
    "swapped-grams": ("value", _swap_grams),
}
_VALUES = {  # the value an id mutation writes
    "largest-id": lambda tokens: 2 ** 16 - 1, "id-out-of-range": lambda tokens: len(tokens),
    "bos-last": lambda tokens: tokens.index(BOS), "first-not-bos": lambda tokens: tokens.index("a"),
}


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4), st.data())
def test_mutated_entries_get_the_per_entry_message(order, data):
    """One or two faults, in any orders' entries: from_json names the fault
    the one-value-at-a-time reader meets first, word for word, and accepts
    what it accepts."""
    # four first words, so that every stored order from 2 up holds the
    # four n-grams two mutations may touch
    corpus = [["a", "b", "a"], ["b", "c"], ["c", "a", "b", "b"], ["d", "a"]]
    payload = json.loads(train_ngram_lm(corpus, order).to_json())
    tokens = sorted(set(payload["vocab"]) | {BOS, EOS, UNK})
    codes = {"ids": "H", "counts": "q"}
    lists = {key: [reference_unpack(packed, code, key) for packed in payload[key]]
             for key, code in codes.items()}
    packing, reshaped = [], set()
    for _ in range(data.draw(st.integers(1, 2))):
        # below the top order only the <s>-initial n-grams are stored, and
        # no unigram starts with <s> without ending with it
        k = data.draw(st.integers(2, order))
        name = data.draw(st.sampled_from(sorted(_MUTATIONS)))
        kind, mutate = _MUTATIONS[name]
        if k in reshaped:
            continue
        if kind == "packed":
            packing.append((name.partition("-")[0], k, mutate))
            reshaped.add(k)
        elif kind == "shape":
            mutate(lists, k)
            reshaped.add(k)
        else:
            i, j = data.draw(st.lists(st.integers(0, len(lists["counts"][k - 1]) - 1),
                                      min_size=2, max_size=2, unique=True))
            mutate(lists["ids"][k - 1], lists["counts"][k - 1], k, i, j, tokens,
                   _VALUES.get(name, lambda tokens: None)(tokens))
    for key, code in codes.items():
        payload[key] = [pack(values, code) for values in lists[key]]
    for key, k, mutate in packing:
        payload[key][k - 1] = mutate(payload[key][k - 1])
    text = json.dumps(payload, separators=(",", ":"))
    try:
        reference_read(payload)
    except ValueError as expected:
        with pytest.raises(ValueError) as got:
            NgramLM.from_json(text)
        assert str(got.value) == str(expected)
    else:
        assert NgramLM.from_json(text).to_json() == text


@pytest.mark.parametrize("token", [["x"], {"x": 1}])
def test_an_unhashable_token_is_a_value_error(token):
    payload = json.loads(train_ngram_lm(five_sentence_corpus(), order=2).to_json())
    payload["ids"][1] = token
    with pytest.raises(ValueError, match=r"order-2 ids must be a base64 string, got "):
        NgramLM.from_json(json.dumps(payload))
    payload = json.loads(train_ngram_lm(five_sentence_corpus(), order=2).to_json())
    payload["vocab"].append(token)
    with pytest.raises(ValueError, match="vocab must be a list of strings"):
        NgramLM.from_json(json.dumps(payload))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.lists(st.lists(st.one_of(_LM_TOKENS, st.text(max_size=3)), max_size=6),
                min_size=1, max_size=8).filter(any),
       st.integers(1, 5))
def test_a_packed_file_round_trips_bit_for_bit(corpus, order):
    lm = train_ngram_lm(corpus, order)
    text = lm.to_json()
    restored = NgramLM.from_json(text)
    assert restored.to_json() == text
    assert lm_tables(restored) == lm_tables(lm) and lm_discounts(restored) == lm_discounts(lm)
    sentences = corpus + [["a", "zz", BOS, "b"], []]
    assert ([sentence_logprob(restored, s) for s in sentences]
            == [sentence_logprob(lm, s) for s in sentences])


@pytest.mark.parametrize("types,width", [(65_533, 2), (65_534, 4)])
def test_ids_take_two_bytes_up_to_65536_tokens_then_four(types, width):
    """With the three markers, 65,533 types have ids up to 2 ** 16 - 1;
    one more type needs a four-byte id."""
    words = [f"w{i:05d}" for i in range(types)]
    corpus = [words[i:i + 9] for i in range(0, types, 9)]
    lm = train_ngram_lm(corpus, order=2)
    text = lm.to_json()
    ids = base64.b64decode(json.loads(text)["ids"][1])
    assert len(ids) == width * 2 * len(lm.grams[1][1])
    assert lm.grams[1][0].max() == len(lm.tokens) - 1 == types + 2
    assert text == json.dumps(reference_payload(corpus, 2), separators=(",", ":"))
    restored = NgramLM.from_json(text)
    assert restored.to_json() == text
    sentences = corpus[-3:] + [[words[-1], "unseen", words[0]]]
    assert ([sentence_logprob(restored, s) for s in sentences]
            == [sentence_logprob(lm, s) for s in sentences])
