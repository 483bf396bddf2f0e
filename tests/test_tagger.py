from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from stackparse import numcore as nc
from stackparse.embeddings import PretrainedEmbeddings
from stackparse.tagger import (
    TaggerModel,
    crf_log_likelihood,
    tag,
    train_tagger,
    viterbi_decode,
)
from util import make_sentence


def small_model(**overrides):
    defaults = dict(word_dim=4, char_dim=3, att_dim=3, hidden=5, layers=1,
                    window=1, dropout=0.0, rng=nc.make_rng(0))
    defaults.update(overrides)
    return TaggerModel(["A", "B", "C"], {"the": 0, "cat": 1}, {"t": 0, "h": 1, "e": 2, "c": 3, "a": 4},
                       **defaults)


# -- character attention -----------------------------------------------------------


def test_char_attention_single_char_is_its_embedding():
    model = small_model()
    out = model.char_attention("t")
    assert np.allclose(out.data, model.char_table.data[0], atol=1e-15)


def test_char_attention_repeated_chars_is_that_embedding():
    model = small_model()
    out = model.char_attention("eee")
    assert np.allclose(out.data, model.char_table.data[2], atol=1e-12)


def test_char_attention_closed_form_softmax_weights():
    # rig a 1-d attention so the two characters score exactly 2.0 and 0.0
    model = TaggerModel(["A"], {}, {"p": 0, "q": 1}, word_dim=2, char_dim=1,
                        att_dim=1, hidden=3, layers=1, window=0, dropout=0.0,
                        rng=None)
    model.char_table.data[0, 0] = 1.0   # embedding of 'p'
    model.char_table.data[1, 0] = 0.0   # embedding of 'q'
    model.att_proj.data[0, 0] = 1.0
    model.att_query.data[0] = 2.0 / math.tanh(1.0)  # score(p)=2.0, score(q)=0.0
    out = model.char_attention("pq")
    w_p = math.exp(2.0) / (math.exp(2.0) + 1.0)
    assert abs(out.data[0] - w_p * 1.0) < 1e-12


def test_char_attention_output_in_convex_hull():
    model = small_model()
    word = "teach"
    out = model.char_attention(word).data
    unk = len(model.char_vocab)
    rows = model.char_table.data[[model.char_vocab.get(c, unk) for c in word]]
    assert np.all(out >= rows.min(axis=0) - 1e-12)
    assert np.all(out <= rows.max(axis=0) + 1e-12)


def test_char_attention_empty_word_uses_reserved_vector():
    model = small_model()
    assert model.char_attention("") is model.empty_word_vec


def test_unknown_characters_map_to_reserved_row():
    model = small_model()
    out = model.char_attention("ZZ")  # 'Z' unseen
    assert np.allclose(out.data, model.char_table.data[-1], atol=1e-12)


# -- token encoding ----------------------------------------------------------------


def test_encode_window_zero_is_per_token_vector():
    model = small_model(window=0)
    sentence = make_sentence(["the", "cat"], ["A", "B"], [2, 0], ["x", "root"])
    inputs = model.encode(sentence)
    assert all(v.shape == (model.per_token_dim,) for v in inputs)


def test_encode_single_token_window_two_uses_four_padding_slots():
    model = small_model(window=2)
    sentence = make_sentence(["the"], ["A"], [0], ["root"])
    (vec,) = model.encode(sentence)
    d = model.per_token_dim
    assert vec.shape == (5 * d,)
    pad = model.pad_vec.data
    for slot in (0, 1, 3, 4):
        assert np.array_equal(vec.data[slot * d:(slot + 1) * d], pad)


def test_encode_dimension_arithmetic_50_50_30():
    pre_vocab = {"the": 0}
    pretrained = PretrainedEmbeddings(pre_vocab, np.zeros((1, 50)))
    model = TaggerModel(["A"], {"the": 0}, {"t": 0}, pretrained=pretrained,
                        word_dim=50, char_dim=30, att_dim=8, hidden=4,
                        layers=1, window=1, dropout=0.0, rng=nc.make_rng(0))
    assert model.per_token_dim == 130
    sentence = make_sentence(["the"], ["A"], [0], ["root"])
    (vec,) = model.encode(sentence)
    assert vec.shape == (390,)


def test_unknown_word_lowercase_fallback():
    model = small_model()
    assert model.word_index("The") == model.word_vocab["the"]
    assert model.word_index("zzz") == len(model.word_vocab)


# -- CRF ----------------------------------------------------------------------------


def test_crf_uniform_two_tags_loss_is_log2():
    emissions = nc.Tensor(np.zeros((1, 2)))
    transitions = nc.Tensor(np.zeros((4, 4)))
    loss = crf_log_likelihood(emissions, transitions, [0])
    assert abs(loss.item() - math.log(2.0)) < 1e-12


def brute_force_log_z(emissions, transitions):
    n, k = emissions.shape
    start, stop = k, k + 1
    scores = []
    for path in itertools.product(range(k), repeat=n):
        score = transitions[start, path[0]] + emissions[0, path[0]]
        for t in range(1, n):
            score += transitions[path[t - 1], path[t]] + emissions[t, path[t]]
        score += transitions[path[-1], stop]
        scores.append(score)
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def brute_force_best_path(emissions, transitions):
    n, k = emissions.shape
    start, stop = k, k + 1
    best_score, best_path = -np.inf, None
    for path in itertools.product(range(k), repeat=n):
        score = transitions[start, path[0]] + emissions[0, path[0]]
        for t in range(1, n):
            score += transitions[path[t - 1], path[t]] + emissions[t, path[t]]
        score += transitions[path[-1], stop]
        if score > best_score:  # strict: first-found (lowest-index) wins ties
            best_score, best_path = score, list(path)
    return best_path, best_score


def test_crf_log_z_matches_path_enumeration():
    rng = np.random.default_rng(3)
    emissions = rng.standard_normal((3, 3)) * 2.0
    transitions = rng.standard_normal((5, 5))
    gold = [2, 0, 1]
    loss = crf_log_likelihood(nc.Tensor(emissions), nc.Tensor(transitions), gold)
    log_z = brute_force_log_z(emissions, transitions)
    gold_score = (transitions[3, 2] + emissions[0, 2]
                  + transitions[2, 0] + emissions[1, 0]
                  + transitions[0, 1] + emissions[2, 1]
                  + transitions[1, 4])
    assert abs(loss.item() - (log_z - gold_score)) < 1e-10


def test_crf_degenerate_certainty_loss_near_zero():
    emissions = np.zeros((3, 2))
    emissions[:, 0] = 50.0   # the all-zeros path towers over everything
    transitions = np.zeros((4, 4))
    loss = crf_log_likelihood(nc.Tensor(emissions), nc.Tensor(transitions), [0, 0, 0])
    assert 0.0 <= loss.item() < 1e-6


def test_crf_loss_is_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(20):
        emissions = rng.standard_normal((2, 3))
        transitions = rng.standard_normal((5, 5))
        gold = [int(rng.integers(0, 3)) for _ in range(2)]
        loss = crf_log_likelihood(nc.Tensor(emissions), nc.Tensor(transitions), gold)
        assert loss.item() >= 0.0


def test_crf_emission_shift_invariance():
    rng = np.random.default_rng(5)
    emissions = rng.standard_normal((3, 3))
    transitions = rng.standard_normal((5, 5))
    gold = [0, 2, 1]
    base = crf_log_likelihood(nc.Tensor(emissions), nc.Tensor(transitions), gold).item()
    shifted = emissions.copy()
    shifted[1, :] += 7.5  # same constant for every tag at one position
    after = crf_log_likelihood(nc.Tensor(shifted), nc.Tensor(transitions), gold).item()
    assert abs(base - after) < 1e-10  # log Z and gold score both moved by +7.5
    assert abs(brute_force_log_z(shifted, transitions)
               - brute_force_log_z(emissions, transitions) - 7.5) < 1e-10
    assert viterbi_decode(emissions, transitions) == viterbi_decode(shifted, transitions)


def test_viterbi_single_token_argmax():
    emissions = np.array([[0.5, 2.0, -1.0]])
    transitions = np.zeros((5, 5))
    transitions[3, 0] = 3.0  # start transition favors tag 0
    assert viterbi_decode(emissions, transitions) == [0]


def test_viterbi_matches_path_enumeration():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(2, 5))
        emissions = rng.standard_normal((n, k)) * 2
        transitions = rng.standard_normal((k + 2, k + 2))
        expected, _ = brute_force_best_path(emissions, transitions)
        assert viterbi_decode(emissions, transitions) == expected


def test_viterbi_all_zero_scores_ties_to_lowest_index():
    assert viterbi_decode(np.zeros((4, 3)), np.zeros((5, 5))) == [0, 0, 0, 0]


def test_crf_gradients():
    rng = np.random.default_rng(7)
    emissions = nc.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    transitions = nc.Tensor(rng.standard_normal((5, 5)), requires_grad=True)

    def loss():
        return crf_log_likelihood(emissions, transitions, [1, 0, 2])

    err = nc.grad_check(loss, {"e": emissions, "t": transitions},
                        max_coords_per_param=30)
    assert err < 1e-6


# -- training and tagging --------------------------------------------------------------


def overfit_sentence():
    return make_sentence(["the", "cat", "sat"], ["DET", "NOUN", "VERB"],
                         [2, 3, 0], ["det", "nsubj", "root"])


def test_train_overfits_single_sentence(tiny_cfg):
    cfg = tiny_cfg.updated({"epochs": "40"})
    sentence = overfit_sentence()
    model = train_tagger([sentence], [sentence], cfg)
    assert tag(model, sentence).tags == ("DET", "NOUN", "VERB")
    assert model.dev_accuracy == 100.0


def test_train_deterministic_given_seed(tiny_cfg):
    cfg = tiny_cfg.updated({"epochs": "3", "dropout": "0.1"})
    treebank = [overfit_sentence(),
                make_sentence(["a", "dog", "ran"], ["DET", "NOUN", "VERB"],
                              [2, 3, 0], ["det", "nsubj", "root"])]
    a = train_tagger(treebank, treebank, cfg)
    b = train_tagger(treebank, treebank, cfg)
    for name, t in a.parameters().items():
        assert np.array_equal(t.data, b.parameters()[name].data), name


def test_train_rejects_empty_treebank(tiny_cfg):
    with pytest.raises(ValueError):
        train_tagger([], [], tiny_cfg)


def test_train_rejects_gold_tag_outside_inventory(tiny_cfg):
    with pytest.raises(ValueError, match="outside the inventory"):
        train_tagger([overfit_sentence()], [], tiny_cfg, tags=["DET", "NOUN"])


def test_tag_is_pure_and_shapes_match(tiny_cfg):
    cfg = tiny_cfg.updated({"epochs": "2"})
    sentence = overfit_sentence()
    model = train_tagger([sentence], [], cfg)
    first = tag(model, sentence)
    second = tag(model, sentence)
    assert first.tags == second.tags
    assert np.array_equal(first.emissions, second.emissions)
    assert len(first.tags) == len(sentence) == first.emissions.shape[0]
    assert first.hidden.shape == (3, 2 * model.hidden)
    assert first.emissions.shape == (3, len(model.tags))


def test_full_tagger_gradient_check(tiny_cfg):
    sentence = overfit_sentence()
    cfg = tiny_cfg.updated({"epochs": "1"})
    model = train_tagger([sentence], [], cfg)

    def loss():
        return model.loss(sentence)

    err = nc.grad_check(loss, model.parameters(), epsilon=1e-4,
                        max_coords_per_param=6)
    assert err < 1e-4
