from __future__ import annotations

import hashlib

import numpy as np
import pytest

from stackparse import numcore as nc
from stackparse.parser import ParserModel, parse, score_arcs, score_labels, train_parser
from stackparse.stacking import (
    StackedParser,
    StackedTagger,
    train_stacked_parser,
    train_stacked_tagger,
)
from stackparse.tagger import TaggerModel, train_tagger
from util import (
    FORM_POOL,
    REL_POOL,
    TAG_POOL,
    all_parameters,
    grad_check,
    make_sentence,
    random_tree_sentence,
    stack_parse_inputs,
)


def source_sentences():
    return [make_sentence(["the", "cat", "sat"], ["DET", "NOUN", "VERB"],
                          [2, 3, 0], ["det", "nsubj", "root"]),
            make_sentence(["a", "dog", "ran"], ["DET", "NOUN", "VERB"],
                          [2, 3, 0], ["det", "nsubj", "root"])]


@pytest.fixture
def base_tagger(tiny_cfg):
    return train_tagger(source_sentences(), [], tiny_cfg.updated({"epochs": "2"}))


@pytest.fixture
def base_parser(tiny_cfg):
    return train_parser(source_sentences(), [], tiny_cfg.updated({"epochs": "2"}))


# -- stacked tagger ---------------------------------------------------------------


def test_stacked_tagger_input_dimension_arithmetic():
    # 17 base tags, target per-token dim 130, window 1 -> 3 * (130 + 17) = 441
    base_tags = [f"T{i}" for i in range(17)]
    base = TaggerModel(base_tags, {"w": 0}, {"w": 0}, word_dim=4, char_dim=3,
                       att_dim=3, hidden=4, layers=1, window=1, dropout=0.0,
                       rng=nc.make_rng(0))
    target = TaggerModel(["A"], {"w": 0}, {"w": 0}, word_dim=100, char_dim=30,
                         att_dim=8, hidden=4, layers=1, window=1, dropout=0.0,
                         extra_input_dim=17, rng=nc.make_rng(1))
    assert target.per_token_dim - target.extra_input_dim == 130
    stacked = StackedTagger(base, target)
    sentence = make_sentence(["w", "w"], ["A", "A"], [0, 1], ["root", "dep"])
    assert stacked.stack_inputs(sentence).shape == (2, 441)


def test_stacked_tagger_rejects_dimension_mismatch(base_tagger):
    target = TaggerModel(["A"], {"w": 0}, {"w": 0}, word_dim=4, char_dim=3,
                         att_dim=3, hidden=4, layers=1, window=1, dropout=0.0,
                         extra_input_dim=len(base_tagger.tags) + 1,
                         rng=nc.make_rng(2))
    with pytest.raises(ValueError, match="stacked features"):
        StackedTagger(base_tagger, target)


def test_zeroed_base_emission_projection_gives_constant_features(base_tagger):
    base_tagger.emission_w.data[:] = 0.0
    base_tagger.emission_b.data[:] = 0.0
    target = TaggerModel(["X"], {"the": 0}, {"t": 0, "h": 1, "e": 2},
                         word_dim=4, char_dim=3, att_dim=3, hidden=4, layers=1,
                         window=0, dropout=0.0,
                         extra_input_dim=len(base_tagger.tags), rng=nc.make_rng(3))
    stacked = StackedTagger(base_tagger, target)
    sentence = make_sentence(["the", "the"], ["X", "X"], [0, 1], ["root", "dep"])
    inputs = stacked.stack_inputs(sentence)
    k = len(base_tagger.tags)
    assert inputs.shape == (2, target.per_token_dim)
    assert np.allclose(inputs.data[:, -k:], 0.0, atol=1e-15)


def test_stack_inputs_pure(base_tagger, tiny_cfg):
    stacked = train_stacked_tagger(base_tagger, source_sentences(), [],
                                   tiny_cfg.updated({"epochs": "1"}))
    sentence = source_sentences()[0]
    a = stacked.stack_inputs(sentence)
    b = stacked.stack_inputs(sentence)
    target = stacked.target
    assert a.shape == (len(sentence), (2 * target.window + 1) * target.per_token_dim)
    assert np.array_equal(a.data, b.data)


def test_stacked_tagger_overfits_base_sentences(base_tagger, tiny_cfg):
    treebank = source_sentences()
    stacked = train_stacked_tagger(base_tagger, treebank, treebank,
                                   tiny_cfg.updated({"epochs": "25"}))
    assert stacked.target.dev_accuracy == 100.0
    assert stacked.tag(treebank[0]).tags == ("DET", "NOUN", "VERB")


def test_stacked_tagger_determinism(base_tagger, tiny_cfg):
    # stacked training mutates the base, so snapshot and restore it between runs
    cfg = tiny_cfg.updated({"epochs": "2", "dropout": "0.1"})
    treebank = source_sentences()
    snapshot = {name: t.data.copy() for name, t in base_tagger.parameters().items()}
    first = train_stacked_tagger(base_tagger, treebank, treebank, cfg)
    first_params = {name: t.data.copy()
                    for name, t in all_parameters(first).items()}
    for name, t in base_tagger.parameters().items():
        t.data[...] = snapshot[name]
    second = train_stacked_tagger(base_tagger, treebank, treebank, cfg)
    for name, t in all_parameters(second).items():
        assert np.array_equal(t.data, first_params[name]), name


def test_stacked_tagger_gradient_flows_into_base(base_tagger, tiny_cfg):
    treebank = source_sentences()
    before = {name: t.data.copy()
              for name, t in base_tagger.feature_parameters().items()}
    train_stacked_tagger(base_tagger, treebank, [], tiny_cfg.updated({"epochs": "1"}))
    changed = any(not np.array_equal(before[name], t.data)
                  for name, t in base_tagger.feature_parameters().items())
    assert changed


def test_stacked_tagger_gradcheck(base_tagger, tiny_cfg):
    treebank = source_sentences()
    stacked = train_stacked_tagger(base_tagger, treebank, [],
                                   tiny_cfg.updated({"epochs": "1"}))
    sentence = treebank[0]

    def loss():
        return stacked.loss(sentence)

    err = grad_check(loss, stacked.trainable_parameters(), epsilon=1e-4,
                        max_coords_per_param=4)
    assert err < 1e-4


# -- stacked parser ----------------------------------------------------------------


def test_stacked_parser_input_dimension_arithmetic():
    from stackparse.embeddings import PretrainedEmbeddings
    base = ParserModel(["r"], ["N"], {"a": 0}, word_dim=8, tag_dim=4,
                       hidden=400, layers=1, d_arc=6, d_rel=4, dropout=0.0,
                       rng=None)
    pretrained = PretrainedEmbeddings({"a": 0}, np.zeros((1, 50)))
    stacked = StackedParser(base, ["r"], ["N"], {"a": 0}, pretrained=pretrained,
                            word_dim=100, tag_dim=100, hidden=8, layers=1,
                            dropout=0.0, rng=None)
    assert stacked.input_dim == 50 + 100 + 100 + 2 * 400 == 1050
    sentence = make_sentence(["a"], ["N"], [0], ["r"])
    inputs = stack_parse_inputs(stacked, sentence)
    assert inputs.shape == (2, 1050)  # root position + one token


def tape_size(loss: nc.Tensor) -> int:
    """Tensors reachable from `loss` through `_parents`, leaves included."""
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_parser_tape_size_does_not_grow_with_sentence_length():
    # A sentence is one matrix from the input layer on, so a 30-token loss
    # has as many tape nodes as a one-token loss, base and stacked alike.
    rels = ["root"] + REL_POOL
    vocab = {form: i for i, form in enumerate(FORM_POOL)}
    base = ParserModel(rels, TAG_POOL, vocab, word_dim=4, tag_dim=3, hidden=5,
                       layers=2, d_arc=4, d_rel=3, rng=nc.make_rng(0))
    stacked = StackedParser(base, rels, TAG_POOL, vocab, word_dim=4, tag_dim=3,
                            hidden=6, layers=1, rng=nc.make_rng(1))
    rng = np.random.default_rng(2)
    for model in (base, stacked):
        sizes = [tape_size(model.loss(random_tree_sentence(rng, n), rng))
                 for n in (1, 3, 30)]
        assert sizes[0] == sizes[1] == sizes[2], (type(model).__name__, sizes)


def test_parser_objective_is_pinned():
    # The loss and every gradient of a base and a stacked parser on one
    # sentence with dropout: a change to the loss path must keep them bit
    # for bit.  The gradients are hashed in parameter order, zeros for the
    # base biaffine tensors that the stacked loss does not reach.
    rels = ["root"] + REL_POOL
    vocab = {form: i for i, form in enumerate(FORM_POOL)}
    base = ParserModel(rels, TAG_POOL, vocab, word_dim=4, tag_dim=3, hidden=5,
                       layers=2, d_arc=4, d_rel=3, rng=nc.make_rng(0))
    stacked = StackedParser(base, rels, TAG_POOL, vocab, word_dim=4, tag_dim=3,
                            hidden=6, layers=1, rng=nc.make_rng(1))
    sentence = random_tree_sentence(np.random.default_rng(2), 9)
    pinned = [
        (base, base.parameters(), 4.014936019242038,
         "b75ccf97c88ccd4d91c123eddefc2fe3926c8108b22dbbb7a32d455ad585288b"),
        (stacked, all_parameters(stacked), 3.9743349524253957,
         "acfd114b8d971376923eb9e1d1d6f2ea2a64732632297fb888fdd66aebcfb87c"),
    ]
    for model, params, loss_value, digest in pinned:
        nc.zero_grads(params.values())
        loss = model.loss(sentence, np.random.default_rng(3))
        loss.backward()
        grads = b"".join((np.zeros_like(t.data) if t.grad is None else t.grad).tobytes()
                         for t in params.values())
        assert loss.item() == loss_value, type(model).__name__
        assert hashlib.sha256(grads).hexdigest() == digest, type(model).__name__


def test_tagger_tape_size_does_not_grow_with_sentence_length():
    # One char-attention pass and one CRF op per sentence, so a 30-token
    # loss has as many tape nodes as a one-token loss, base and stacked alike.
    vocab = {form: i for i, form in enumerate(FORM_POOL)}
    chars = {ch: i for i, ch in enumerate(sorted(set("".join(FORM_POOL))))}
    dims = dict(word_dim=4, char_dim=3, att_dim=3, hidden=5, layers=2)
    base = TaggerModel(TAG_POOL, vocab, chars, rng=nc.make_rng(0), **dims)
    target = TaggerModel(TAG_POOL, vocab, chars, extra_input_dim=len(TAG_POOL),
                         rng=nc.make_rng(1), **dims)
    rng = np.random.default_rng(2)
    for model in (base, StackedTagger(base, target)):
        sizes = [tape_size(model.loss(random_tree_sentence(rng, n), rng))
                 for n in (1, 3, 30)]
        assert sizes[0] == sizes[1] == sizes[2], (type(model).__name__, sizes)


def test_dropout_runs_exactly_when_a_generator_is_passed():
    # Default dropout rates: 0.15 for the taggers, 0.33 for the parsers.
    vocab = {form: i for i, form in enumerate(FORM_POOL)}
    chars = {ch: i for i, ch in enumerate(sorted(set("".join(FORM_POOL))))}
    dims = dict(word_dim=4, char_dim=3, att_dim=3, hidden=5)
    base_t = TaggerModel(TAG_POOL, vocab, chars, rng=nc.make_rng(0), **dims)
    target_t = TaggerModel(TAG_POOL, vocab, chars, extra_input_dim=len(TAG_POOL),
                           rng=nc.make_rng(1), **dims)
    rels = ["root"] + REL_POOL
    base_p = ParserModel(rels, TAG_POOL, vocab, word_dim=4, tag_dim=3, hidden=5,
                         layers=1, d_arc=4, d_rel=3, rng=nc.make_rng(2))
    stacked_p = StackedParser(base_p, rels, TAG_POOL, vocab, word_dim=4, tag_dim=3,
                              hidden=6, layers=1, rng=nc.make_rng(3))
    assert base_t.dropout > 0 and target_t.dropout > 0
    assert base_p.dropout > 0 and stacked_p.dropout > 0
    sentence = random_tree_sentence(np.random.default_rng(4), 6)
    for model in (base_t, StackedTagger(base_t, target_t), base_p, stacked_p):
        plain = model.loss(sentence).item()
        assert model.loss(sentence).item() == plain, type(model).__name__
        assert model.loss(sentence, np.random.default_rng(5)).item() != plain, \
            type(model).__name__


def test_stacked_parser_biaffine_copy_bit_exact(base_parser):
    stacked = StackedParser(base_parser, base_parser.rels, base_parser.tags,
                            {"the": 0}, word_dim=4, tag_dim=3, hidden=6,
                            layers=1, dropout=0.0, rng=nc.make_rng(4))
    assert np.array_equal(stacked.u_arc.data, base_parser.u_arc.data)
    assert np.array_equal(stacked.u_rel.data, base_parser.u_rel.data)
    assert stacked.u_arc is not base_parser.u_arc  # copies, not shared tensors


def test_stacked_parser_forced_mlp_dims(base_parser):
    stacked = StackedParser(base_parser, base_parser.rels, base_parser.tags,
                            {"x": 0}, word_dim=4, tag_dim=3, hidden=6, layers=1,
                            dropout=0.0, rng=nc.make_rng(5))
    assert stacked.d_arc == base_parser.d_arc
    assert stacked.d_rel == base_parser.d_rel
    with pytest.raises(ValueError, match="inventory size"):
        StackedParser(base_parser, list(base_parser.rels) + ["extra"],
                      base_parser.tags, {"x": 0}, rng=nc.make_rng(6))


def test_stacked_parser_construction_is_pinned():
    # A base and a stacked parser drawn from one generator leave it where
    # they always have: the stacked biaffine tensors are copied, not drawn.
    from stackparse.embeddings import PretrainedEmbeddings
    rng = nc.make_rng(11)
    vocab = {"the": 0, "cat": 1, "sat": 2}
    pretrained = PretrainedEmbeddings(vocab, np.arange(6.0).reshape(3, 2))
    base = ParserModel(["det", "root"], ["DET", "NOUN"], vocab, pretrained=pretrained,
                       word_dim=3, tag_dim=2, hidden=4, layers=2, d_arc=3, d_rel=2, rng=rng)
    StackedParser(base, ["det", "root"], ["DET", "NOUN", "VERB"], vocab, word_dim=3,
                  tag_dim=2, hidden=5, layers=2, rng=rng)
    assert rng.random() == 0.7102118256213047
    with pytest.raises(TypeError, match="d_arc"):
        StackedParser(base, ["det", "root"], ["DET"], vocab, d_arc=3)
    # The benchmark's span tracer wraps forward_full and label_scores in
    # this class's own namespace.
    functions = {name for name, value in vars(StackedParser).items() if callable(value)}
    assert functions == {"__init__", "trainable_parameters", "forward_full", "label_scores"}


def test_parameter_set_inclusion(base_parser, base_tagger):
    stacked_p = StackedParser(base_parser, base_parser.rels, base_parser.tags,
                              {"x": 0}, word_dim=4, tag_dim=3, hidden=6,
                              layers=1, dropout=0.0, rng=nc.make_rng(7))
    trainable = stacked_p.trainable_parameters()
    base_features = {f"base/{k}": v for k, v in base_parser.feature_parameters().items()}
    for name, tensor in base_features.items():
        assert trainable[name] is tensor  # identity, not a copy
    assert len(trainable) > len(base_features)  # strict containment

    target_t = TaggerModel(["A"], {"w": 0}, {"w": 0}, word_dim=4, char_dim=3,
                           att_dim=3, hidden=4, layers=1, window=1, dropout=0.0,
                           extra_input_dim=len(base_tagger.tags), rng=nc.make_rng(8))
    stacked_t = StackedTagger(base_tagger, target_t)
    trainable_t = stacked_t.trainable_parameters()
    for name, tensor in base_tagger.feature_parameters().items():
        assert trainable_t[f"base/{name}"] is tensor
    assert "base/transitions" not in trainable_t  # CRF is not a feature layer


def test_pure_transfer_limiting_case(base_parser):
    stacked = StackedParser(base_parser, base_parser.rels, base_parser.tags,
                            {"the": 0, "cat": 1, "sat": 2}, word_dim=4,
                            tag_dim=3, hidden=6, layers=1, dropout=0.0,
                            rng=nc.make_rng(9))
    for name in stacked.mlp:
        w, b = stacked.mlp[name]
        w.data[:] = 0.0
        b.data[:] = 0.0
    forms, tags = ["the", "cat", "sat"], ["DET", "NOUN", "VERB"]
    with nc.no_grad():
        fw = stacked.forward_full(forms, tags)
    base_scores = score_arcs(base_parser, forms, tags)
    got = fw.arc_scores.data.copy()
    np.fill_diagonal(got, -np.inf)
    mask = np.isfinite(base_scores)
    assert np.allclose(got[mask], base_scores[mask], atol=1e-10)


def test_score_labels_uses_the_stacked_forward(base_parser):
    stacked = StackedParser(base_parser, base_parser.rels, base_parser.tags,
                            {"the": 0, "cat": 1, "sat": 2}, word_dim=4,
                            tag_dim=3, hidden=6, layers=1, dropout=0.0,
                            rng=nc.make_rng(10))
    sentence = source_sentences()[0]
    heads = [2, 3, 0]
    def target_mlp(name):
        w, b = stacked.mlp[name]
        return nc.leaky_relu(nc.linear(fw.recurrent, w, b))

    with nc.no_grad():
        fw = stacked.forward_full(sentence.forms, sentence.upos)
        expected = stacked.label_scores(fw.rel_dep, fw.rel_head, heads).data
        target_only = stacked.label_scores(target_mlp("rel_dep"), target_mlp("rel_head"),
                                           heads).data
    assert not np.allclose(expected, target_only)  # the base MLP outputs matter
    assert np.array_equal(score_labels(stacked, fw, heads), expected)
    result = parse(stacked, sentence)
    labels = score_labels(stacked, fw, result.heads)
    assert result.deprels == tuple(stacked.rels[i] for i in labels.argmax(axis=1))


def test_stacked_parser_overfit_and_transfer_flip(base_parser, tiny_cfg):
    treebank = source_sentences()
    stacked = train_stacked_parser(base_parser, treebank, treebank,
                                   tiny_cfg.updated({"epochs": "25"}))
    assert stacked.dev_uas == 100.0
    result = parse(stacked, treebank[0])
    assert result.heads == (2, 3, 0)


def test_stacked_parser_gradient_flows_into_base(base_parser, tiny_cfg):
    treebank = source_sentences()
    before = {name: t.data.copy()
              for name, t in base_parser.feature_parameters().items()}
    train_stacked_parser(base_parser, treebank, [], tiny_cfg.updated({"epochs": "1"}))
    changed = any(not np.array_equal(before[name], t.data)
                  for name, t in base_parser.feature_parameters().items())
    assert changed


def test_stacked_parser_base_embeddings_frozen_by_default(base_parser, tiny_cfg):
    treebank = source_sentences()
    before = {name: t.data.copy()
              for name, t in base_parser.input_parameters().items()}
    train_stacked_parser(base_parser, treebank, [], tiny_cfg.updated({"epochs": "1"}))
    for name, t in base_parser.input_parameters().items():
        assert np.array_equal(before[name], t.data), name


def test_stacked_parser_may_train_base_embeddings(base_parser, tiny_cfg):
    treebank = source_sentences()
    cfg = tiny_cfg.updated({"epochs": "1", "train_base_embeddings": "true"})
    before = {name: t.data.copy()
              for name, t in base_parser.input_parameters().items()}
    train_stacked_parser(base_parser, treebank, [], cfg)
    changed = any(not np.array_equal(before[name], t.data)
                  for name, t in base_parser.input_parameters().items())
    assert changed


def test_stacked_parser_gradcheck(base_parser, tiny_cfg):
    treebank = source_sentences()
    stacked = train_stacked_parser(base_parser, treebank, [],
                                   tiny_cfg.updated({"epochs": "1"}))
    sentence = treebank[0]

    def loss():
        return stacked.loss(sentence)

    err = grad_check(loss, stacked.trainable_parameters(), epsilon=1e-4,
                        max_coords_per_param=4)
    assert err < 1e-4


def test_dimension_contracts_hold_over_random_configs():
    rng = np.random.default_rng(13)
    for _ in range(10):
        word_dim = int(rng.integers(2, 7))
        tag_dim = int(rng.integers(2, 7))
        base_hidden = int(rng.integers(3, 8))
        base = ParserModel(["r"], ["N"], {"a": 0}, word_dim=3, tag_dim=2,
                           hidden=base_hidden, layers=1, d_arc=4, d_rel=3,
                           dropout=0.0, rng=None)
        stacked = StackedParser(base, ["r"], ["N"], {"a": 0},
                                word_dim=word_dim, tag_dim=tag_dim,
                                hidden=4, layers=1, dropout=0.0, rng=None)
        assert stacked.input_dim == word_dim + tag_dim + 2 * base_hidden
        window = int(rng.integers(0, 3))
        base_tags = ["X"] * 0 + [f"t{i}" for i in range(int(rng.integers(1, 6)))]
        base_t = TaggerModel(base_tags, {"a": 0}, {"a": 0}, word_dim=3,
                             char_dim=2, att_dim=2, hidden=3, layers=1,
                             window=window, dropout=0.0, rng=None)
        target_t = TaggerModel(["A"], {"a": 0}, {"a": 0}, word_dim=word_dim,
                               char_dim=tag_dim, att_dim=2, hidden=3, layers=1,
                               window=window, dropout=0.0,
                               extra_input_dim=len(base_tags), rng=None)
        stacked_t = StackedTagger(base_t, target_t)
        sentence = make_sentence(["a"], ["A"], [0], ["root"])
        own = word_dim + tag_dim  # trainable word + char-attention dims
        assert (stacked_t.stack_inputs(sentence).shape
                == (1, (2 * window + 1) * (own + len(base_tags))))
