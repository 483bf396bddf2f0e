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
    out = model.char_attention(["t"]).data[0]
    assert np.allclose(out, model.char_table.data[0], atol=1e-15)


def test_char_attention_repeated_chars_is_that_embedding():
    model = small_model()
    out = model.char_attention(["eee"]).data[0]
    assert np.allclose(out, model.char_table.data[2], atol=1e-12)


def test_char_attention_closed_form_softmax_weights():
    # rig a 1-d attention so the two characters score exactly 2.0 and 0.0
    model = TaggerModel(["A"], {}, {"p": 0, "q": 1}, word_dim=2, char_dim=1,
                        att_dim=1, hidden=3, layers=1, window=0, dropout=0.0,
                        rng=None)
    model.char_table.data[0, 0] = 1.0   # embedding of 'p'
    model.char_table.data[1, 0] = 0.0   # embedding of 'q'
    model.att_proj.data[0, 0] = 1.0
    model.att_query.data[0] = 2.0 / math.tanh(1.0)  # score(p)=2.0, score(q)=0.0
    out = model.char_attention(["pq"]).data[0]
    w_p = math.exp(2.0) / (math.exp(2.0) + 1.0)
    assert abs(out[0] - w_p * 1.0) < 1e-12


def test_char_attention_output_in_convex_hull():
    model = small_model()
    word = "teach"
    out = model.char_attention([word]).data[0]
    unk = len(model.char_vocab)
    rows = model.char_table.data[[model.char_vocab.get(c, unk) for c in word]]
    assert np.all(out >= rows.min(axis=0) - 1e-12)
    assert np.all(out <= rows.max(axis=0) + 1e-12)


def test_char_attention_rejects_an_empty_word():
    # Token rejects an empty form, so none reaches the tagger; one that did
    # would own no characters to attend over.
    with pytest.raises(ValueError, match="at least one column"):
        small_model().char_attention(["the", ""])


def test_unknown_characters_map_to_reserved_row():
    model = small_model()
    out = model.char_attention(["ZZ"]).data[0]  # 'Z' unseen
    assert np.allclose(out, model.char_table.data[-1], atol=1e-12)


def char_attention_per_word(model, word):
    """Reference: the attention over one word's characters, as a (1, C) row."""
    unk = len(model.char_vocab)
    embs = model.char_table[[model.char_vocab.get(ch, unk) for ch in word]]
    hidden = nc.tanh(nc.matmul(embs, nc.transpose(model.att_proj)) + model.att_bias)
    scores = nc.reshape(nc.matmul(hidden, model.att_query), (1, -1))
    weights = nc.softmax_rows_masked(scores, np.ones(scores.shape, bool))
    return nc.matmul(weights, embs)


def test_char_attention_matches_a_per_word_reference():
    # unknown characters ('Z', 'q'), repeats ("eee", "tt") and 1-character words
    forms = ["the", "Z", "eee", "cat", "a", "tqZ", "hatch", "tt", "c"]
    model = small_model(char_dim=4, att_dim=5, rng=nc.make_rng(3))
    model.att_bias.data[:] = nc.make_rng(4).standard_normal(5)
    params = {k: model.parameters()[k] for k in ("char_table", "att_proj", "att_bias",
                                                 "att_query")}
    weights = nc.Tensor(nc.make_rng(5).standard_normal((len(forms), 4)))
    results = []
    for batched in (True, False):
        nc.zero_grads(params.values())
        out = (model.char_attention(forms) if batched else
               nc.concat([char_attention_per_word(model, w) for w in forms]))
        nc.tanh(out * weights).sum().backward()
        results.append((out.data, {k: t.grad.copy() for k, t in params.items()}))
    (batched, grads), (reference, ref_grads) = results
    assert batched.shape == (len(forms), 4)
    assert np.abs(batched - reference).max() <= 1e-12
    for name, grad in ref_grads.items():
        assert np.abs(grads[name] - grad).max() <= 1e-12 * np.abs(grad).max(), name


# -- token encoding ----------------------------------------------------------------


def test_encode_window_zero_is_per_token_vector():
    model = small_model(window=0)
    sentence = make_sentence(["the", "cat"], ["A", "B"], [2, 0], ["x", "root"])
    inputs = model.encode(sentence)
    assert inputs.shape == (2, model.per_token_dim)
    for row, form in zip(inputs.data, ["the", "cat"]):
        expected = np.concatenate([model.word_table.data[model.word_index(form)],
                                   model.char_attention([form]).data[0]])
        assert np.array_equal(row, expected)


def test_encode_single_token_window_two_uses_four_padding_slots():
    model = small_model(window=2)
    sentence = make_sentence(["the"], ["A"], [0], ["root"])
    inputs = model.encode(sentence)
    d = model.per_token_dim
    assert inputs.shape == (1, 5 * d)
    vec = inputs.data[0]
    pad = model.pad_vec.data
    for slot in (0, 1, 3, 4):
        assert np.array_equal(vec[slot * d:(slot + 1) * d], pad)


def test_encode_dimension_arithmetic_50_50_30():
    pre_vocab = {"the": 0}
    pretrained = PretrainedEmbeddings(pre_vocab, np.zeros((1, 50)))
    model = TaggerModel(["A"], {"the": 0}, {"t": 0}, pretrained=pretrained,
                        word_dim=50, char_dim=30, att_dim=8, hidden=4,
                        layers=1, window=1, dropout=0.0, rng=nc.make_rng(0))
    assert model.per_token_dim == 130
    sentence = make_sentence(["the"], ["A"], [0], ["root"])
    assert model.encode(sentence).shape == (1, 390)


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


def crf_log_likelihood_per_position(emissions, transitions, gold):
    """Reference: the forward algorithm on the tape, one position at a time."""
    n, k = emissions.shape
    start, stop = k, k + 1
    gold_score = (emissions[np.arange(n), gold].sum()
                  + transitions[[start] + gold[:-1], gold].sum()
                  + transitions[gold[-1], stop])
    into = nc.transpose(transitions[:k, :k])  # row j: the scores of moving into tag j
    alpha = transitions[start, :k] + emissions[0]
    for t in range(1, n):
        moved = nc.reshape(alpha, (1, k)) + into
        alpha = nc.logsumexp_rows_masked(moved, np.ones((k, k), bool)) + emissions[t]
    final = nc.reshape(alpha + transitions[:k, stop], (1, k))
    return nc.logsumexp_rows_masked(final, np.ones((1, k), bool))[0] - gold_score


def test_crf_op_matches_the_per_position_tape():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n, k = int(rng.integers(1, 7)), int(rng.integers(2, 6))
        emissions = nc.Tensor(rng.standard_normal((n, k)) * 2.0, requires_grad=True)
        transitions = nc.Tensor(rng.standard_normal((k + 2, k + 2)), requires_grad=True)
        gold = [int(g) for g in rng.integers(0, k, n)]
        results = []
        for crf in (crf_log_likelihood, crf_log_likelihood_per_position):
            nc.zero_grads([emissions, transitions])
            loss = crf(emissions, transitions, gold)
            loss.backward()
            results.append((loss.item(), emissions.grad, transitions.grad))
        (loss, d_em, d_trans), (ref_loss, ref_em, ref_trans) = results
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert np.abs(d_em - ref_em).max() <= 1e-12 * np.abs(ref_em).max()
        assert np.abs(d_trans - ref_trans).max() <= 1e-12 * np.abs(ref_trans).max()


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


@pytest.mark.parametrize("window", [1, 2])
def test_full_tagger_gradient_check(tiny_cfg, window):
    # At window 2 "the" occurs three times, so every coordinate of the word
    # table (rows gathered by index array) and of the pad vector is checked.
    sentence = overfit_sentence() if window == 1 else make_sentence(
        ["the", "cat", "the", "dog", "the"], ["DET", "NOUN", "DET", "NOUN", "DET"])
    cfg = tiny_cfg.updated({"epochs": "1", "window": str(window)})
    model = train_tagger([sentence], [], cfg)

    def loss():
        return model.loss(sentence)

    err = nc.grad_check(loss, model.parameters(), epsilon=1e-4,
                        max_coords_per_param=6)
    assert err < 1e-4
    if window == 2:
        dense = {"word_table": model.word_table, "pad_vec": model.pad_vec}
        err = nc.grad_check(loss, dense, epsilon=1e-4,
                            max_coords_per_param=max(t.data.size for t in dense.values()))
        assert err < 1e-4
