"""Acceptance suite: one test per release criterion, each printing a
PASS line when it holds.  Run with `pytest tests/test_acceptance.py -v -s`.

The heavier criteria (overfit capability, stacking transfer, pipeline
integration) train real models at desk-scale dimensions; the whole
module runs in a few minutes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from stackparse import numcore as nc
from stackparse.config import RunConfig
from stackparse.evaluation import pct2, relative_error_reduction
from stackparse.langmodel import BOS, EOS, UNK, rank_by_divergence, train_ngram_lm
from stackparse.parser import ParserModel, decode_mst, parse, train_parser
from stackparse.stacking import (
    StackedParser,
    StackedTagger,
    train_stacked_parser,
    train_stacked_tagger,
)
from stackparse.tagger import TaggerModel, crf_log_likelihood, tag, train_tagger, viterbi_decode
from stackparse.treebank import LabelInventory, Sentence, Token, parse_conllu, validate, write_conllu
from synthdata import FULL_LEXICON, SMALL_LEXICON, make_treebank, overfit_treebank
from util import (
    grad_check,
    lm_contexts,
    make_sentence,
    random_tree_sentence,
    stack_parse_inputs,
)


def ok(number: int, message: str) -> None:
    print(f"[acceptance] criterion {number}: PASS - {message}")


DESK = RunConfig.desk_scale().updated({
    "hidden": "16", "layers": "1", "word_dim": "10", "char_dim": "6",
    "att_dim": "6", "dropout": "0.0", "parser_word_dim": "12", "tag_dim": "8",
    "parser_hidden": "20", "parser_layers": "1", "d_arc": "14", "d_rel": "8",
    "parser_dropout": "0.0", "stack_hidden": "24", "stack_layers": "1",
})


# -- criterion 1: evaluation arithmetic ------------------------------------------------


def test_criterion_1_relative_error_reduction_exact():
    assert pct2(relative_error_reduction(78.35, 89.50)) == 51.50
    assert pct2(relative_error_reduction(79.29, 84.47)) == 25.01
    assert pct2(relative_error_reduction(77.00, 82.43)) == 23.61
    ok(1, "headline error reductions 51.50 / 25.01 / 23.61 reproduced "
          "to two decimals")


# -- criterion 2: CRF oracle equivalence ------------------------------------------------


def test_criterion_2_crf_matches_exhaustive_enumeration():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(2, 5))
        emissions = rng.standard_normal((n, k)) * 2.0
        transitions = rng.standard_normal((k + 2, k + 2))
        start, stop = k, k + 1
        path_scores = {}
        for path in itertools.product(range(k), repeat=n):
            score = transitions[start, path[0]] + emissions[0, path[0]]
            for t in range(1, n):
                score += transitions[path[t - 1], path[t]] + emissions[t, path[t]]
            score += transitions[path[-1], stop]
            path_scores[path] = score
        values = np.array(list(path_scores.values()))
        m = values.max()
        log_z = m + math.log(np.exp(values - m).sum())
        gold = tuple(int(rng.integers(0, k)) for _ in range(n))
        loss = crf_log_likelihood(nc.Tensor(emissions), nc.Tensor(transitions),
                                  list(gold))
        assert abs(loss.item() - (log_z - path_scores[gold])) < 1e-10
        # product() iterates paths in lexicographic order, so max keeps the
        # lowest-index path on ties, matching the Viterbi tie-break contract
        best = max(path_scores, key=path_scores.get)
        assert viterbi_decode(emissions, transitions) == list(best)
    ok(2, "forward log Z within 1e-10 and Viterbi exact on 200 instances")


# -- criterion 3: MST oracle equivalence -------------------------------------------------


def _is_arborescence(heads):
    n = len(heads)
    if any(h < 0 or h > n for h in heads):
        return False
    if any(h == i for i, h in enumerate(heads, start=1)):
        return False
    for start in range(1, n + 1):
        seen = set()
        node = start
        while node != 0:
            if node in seen:
                return False
            seen.add(node)
            node = heads[node - 1]
    return True


def test_criterion_3_mst_matches_brute_force():
    rng = np.random.default_rng(77)
    inventory = LabelInventory(frozenset({"X"}), frozenset({"dep", "root"}))
    for _ in range(200):
        n = int(rng.integers(1, 5))
        scores = rng.standard_normal((n + 1, n + 1)) * 3.0
        np.fill_diagonal(scores, -np.inf)
        heads = decode_mst(scores)
        best_heads, best_score = None, -np.inf
        for candidate in itertools.product(range(n + 1), repeat=n):
            if not _is_arborescence(candidate):
                continue
            total = sum(scores[d, h] for d, h in enumerate(candidate, start=1))
            if total > best_score:
                best_heads, best_score = list(candidate), total
        assert heads == best_heads
        sentence = Sentence(tuple(
            Token(i + 1, "w", "X", h, "root" if h == 0 else "dep")
            for i, h in enumerate(heads)))
        hard = [v for v in validate(sentence, inventory)
                if v.kind in ("cycle", "unreachable", "head-out-of-range")]
        assert hard == []
    ok(3, "decode_mst equals brute-force maximum arborescence on 200 "
          "matrices; all outputs structurally valid")


# -- criterion 4: gradient checks -------------------------------------------------------


def _three_token_fixture():
    return [make_sentence(["the", "cat", "sat"], ["DET", "NOUN", "VERB"],
                          [2, 3, 0], ["det", "nsubj", "root"]),
            make_sentence(["a", "dog", "ran"], ["DET", "NOUN", "VERB"],
                          [2, 3, 0], ["det", "nsubj", "root"])]


def test_criterion_4_gradient_checks_all_four_models():
    treebank = _three_token_fixture()
    sentence = treebank[0]
    cfg = DESK.updated({"epochs": "1"})

    tagger = train_tagger(treebank, [], cfg)
    assert {t.data.dtype for t in tagger.parameters().values()} == {np.dtype(np.float64)}
    assert tagger.loss(sentence).data.dtype == np.float64
    err_tagger = grad_check(lambda: tagger.loss(sentence), tagger.parameters(),
                               epsilon=1e-4, max_coords_per_param=5)
    assert err_tagger < 1e-4

    parser = train_parser(treebank, [], cfg)
    err_parser = grad_check(lambda: parser.loss(sentence), parser.parameters(),
                               epsilon=1e-4, max_coords_per_param=5)
    assert err_parser < 1e-4

    stacked_tagger = train_stacked_tagger(tagger, treebank, [], cfg)
    err_st = grad_check(lambda: stacked_tagger.loss(sentence),
                           stacked_tagger.trainable_parameters(),
                           epsilon=1e-4, max_coords_per_param=5)
    assert err_st < 1e-4

    stacked_parser = train_stacked_parser(parser, treebank, [], cfg)
    err_sp = grad_check(lambda: stacked_parser.loss(sentence),
                           stacked_parser.trainable_parameters(),
                           epsilon=1e-4, max_coords_per_param=5)
    assert err_sp < 1e-4
    ok(4, "finite-difference checks: tagger %.2e, parser %.2e, stacked "
          "tagger %.2e, stacked parser %.2e (all < 1e-4)"
       % (err_tagger, err_parser, err_st, err_sp))


# -- criterion 5: overfit capability ------------------------------------------------------


def test_criterion_5_all_four_models_overfit_ten_sentences():
    treebank = overfit_treebank()
    assert len(treebank) == 10
    cfg = DESK.updated({"epochs": "120"})  # within the 200-epoch budget

    tagger = train_tagger(treebank, treebank, cfg)
    assert tagger.dev_accuracy == 100.0

    parser = train_parser(treebank, treebank, cfg)
    assert parser.dev_uas == 100.0
    for sentence in treebank:
        result = parse(parser, sentence)
        assert result.heads == sentence.heads
        assert result.deprels == sentence.deprels

    stacked_tagger = train_stacked_tagger(tagger, treebank, treebank, cfg)
    assert stacked_tagger.target.dev_accuracy == 100.0

    stacked_parser = train_stacked_parser(parser, treebank, treebank, cfg)
    assert stacked_parser.dev_uas == 100.0
    labeled = all(parse(stacked_parser, s).deprels == s.deprels for s in treebank)
    assert labeled
    ok(5, "tagger, parser, stacked tagger, stacked parser all reach 100% "
          "on the fixed 10-sentence treebank")


# -- criterion 6: stacking transfer property ------------------------------------------------


def test_criterion_6_stacked_beats_target_only_on_flipped_grammar():
    source = make_treebank(seed=7, size=120, lexicon=FULL_LEXICON, flipped=False)
    target_train = make_treebank(seed=8, size=10, lexicon=SMALL_LEXICON, flipped=True)
    target_dev = make_treebank(seed=9, size=24, lexicon=FULL_LEXICON, flipped=True)
    base_cfg = DESK.updated({"epochs": "30", "parser_word_dim": "24",
                             "parser_hidden": "24", "d_arc": "16", "d_rel": "8",
                             "parser_dropout": "0.25", "stack_hidden": "32",
                             "seed": "100"})
    base = train_parser(source, source[:20], base_cfg)

    wins = 0
    margins = []
    for seed in (0, 1, 2):
        cfg = base_cfg.updated({"epochs": "50", "seed": str(seed)})
        base_snapshot = {k: t.data.copy() for k, t in base.parameters().items()}
        target_only = train_parser(target_train, target_dev, cfg)
        stacked = train_stacked_parser(base, target_train, target_dev, cfg)
        margins.append((target_only.dev_uas, stacked.dev_uas))
        if stacked.dev_uas > target_only.dev_uas:
            wins += 1
        for k, t in base.parameters().items():  # undo fine-tuning between seeds
            t.data[...] = base_snapshot[k]
    assert wins >= 2, margins
    ok(6, "stacked parser beats the target-only parser on dev UAS for "
          f"{wins}/3 seeds: {margins}")


# -- criterion 7: stacking mechanics ------------------------------------------------------


def test_criterion_7_stacking_mechanics_exact():
    treebank = _three_token_fixture()
    cfg = DESK.updated({"epochs": "1"})
    base_tagger = train_tagger(treebank, [], cfg)
    base_parser = train_parser(treebank, [], cfg)

    # biaffine tensors are bit-equal copies at construction
    stacked_parser = StackedParser(base_parser, base_parser.rels,
                                   base_parser.tags, {"the": 0},
                                   word_dim=6, tag_dim=4, hidden=10, layers=1,
                                   dropout=0.0, rng=nc.make_rng(1))
    assert np.array_equal(stacked_parser.u_arc.data, base_parser.u_arc.data)
    assert np.array_equal(stacked_parser.u_rel.data, base_parser.u_rel.data)

    # trainable set strictly contains the base feature layers, by identity
    trainable = stacked_parser.trainable_parameters()
    for name, tensor in base_parser.feature_parameters().items():
        assert trainable[f"base/{name}"] is tensor
    assert len(trainable) > len(base_parser.feature_parameters())

    # gradient flow: one training step changes at least one base feature layer
    before = {name: t.data.copy()
              for name, t in base_parser.feature_parameters().items()}
    train_stacked_parser(base_parser, treebank, [], cfg)
    assert any(not np.array_equal(before[name], t.data)
               for name, t in base_parser.feature_parameters().items())

    before_t = {name: t.data.copy()
                for name, t in base_tagger.feature_parameters().items()}
    stacked_tagger = train_stacked_tagger(base_tagger, treebank, [], cfg)
    assert any(not np.array_equal(before_t[name], t.data)
               for name, t in base_tagger.feature_parameters().items())

    # dimension arithmetic: tagger 3*(130+17)=441; parser 50+100+100+2*400=1050
    base17 = TaggerModel([f"T{i}" for i in range(17)], {"w": 0}, {"w": 0},
                         word_dim=4, char_dim=3, att_dim=3, hidden=4, layers=1,
                         window=1, dropout=0.0, rng=nc.make_rng(2))
    target = TaggerModel(["A"], {"w": 0}, {"w": 0}, word_dim=100, char_dim=30,
                         att_dim=6, hidden=4, layers=1, window=1, dropout=0.0,
                         extra_input_dim=17, rng=nc.make_rng(3))
    assert StackedTagger(base17, target).stack_inputs(
        [make_sentence(["w"], ["A"], [0], ["root"])])[0].shape == (1, 441)

    from stackparse.embeddings import PretrainedEmbeddings
    wide_base = ParserModel(["r"], ["N"], {"a": 0}, word_dim=8, tag_dim=4,
                            hidden=400, layers=1, d_arc=6, d_rel=4,
                            dropout=0.0, rng=None)
    wide_stacked = StackedParser(wide_base, ["r"], ["N"], {"a": 0},
                                 pretrained=PretrainedEmbeddings({"a": 0},
                                                                 np.zeros((1, 50))),
                                 word_dim=100, tag_dim=100, hidden=8, layers=1,
                                 dropout=0.0, rng=None)
    assert wide_stacked.input_dim == 1050
    inputs = stack_parse_inputs(wide_stacked,
                                make_sentence(["a"], ["N"], [0], ["r"]))
    assert inputs.shape == (2, 1050)
    assert wide_stacked.d_arc == wide_base.d_arc
    assert wide_stacked.d_rel == wide_base.d_rel
    ok(7, "tensor copy, parameter inclusion, gradient flow into the base, "
          "and dimension arithmetic (441 / 1050) all hold")


# -- criterion 8: Kneser-Ney language model -------------------------------------------------


def test_criterion_8_kneser_ney_contract():
    corpus = [["a", "b"], ["a", "b"], ["a", "c"], ["b", "a"], ["a", "b", "c"]]
    lm = train_ngram_lm(corpus, order=2)
    # per-context normalization on every trained context
    for k in (1, 2):
        for context in lm_contexts(lm, k):
            total = sum(lm.cond_prob(context, w) for w in lm.pred_vocab)
            assert abs(total - 1.0) < 1e-9
    # hand-computed probabilities (see test_langmodel.py for the derivation)
    assert abs(lm.cond_prob(("a",), "b") - 2123.0 / 4050) < 1e-9
    assert abs(lm.cond_prob(("a",), "c") - 683.0 / 4050) < 1e-9
    assert abs(lm.cond_prob(("a",), EOS) - 768.0 / 4050) < 1e-9
    assert abs(lm.cond_prob((BOS,), "a") - 473.0 / 675) < 1e-9
    assert abs(lm.cond_prob(("b",), EOS) - 2334.0 / 6480) < 1e-9
    assert abs(lm.cond_prob((), UNK) - 0.1) < 1e-9
    # length filter and ascending normalized-log10 ordering
    sentences = [["a"] * 4, ["a", "b"] * 3, ["q"] * 5, ["a"] * 51]
    records = rank_by_divergence(lm, sentences, (5, 50))
    assert [r.token_count for r in records] == [5, 6]
    assert records[0].normalized <= records[1].normalized
    assert records[0].text == "q q q q q"
    ok(8, "per-context sums within 1e-9, hand-computed probabilities match, "
          "length bounds and divergence ordering hold")


# -- criterion 9: treebank round trip and validation ------------------------------------------


def test_criterion_9_round_trip_and_injected_violations():
    rng = np.random.default_rng(99)
    sentences = [random_tree_sentence(rng, int(rng.integers(1, 10)))
                 for _ in range(1000)]
    assert parse_conllu(write_conllu(sentences)) == sentences

    inventory = LabelInventory.ud_english()
    caught = 0
    for _ in range(300):
        n = int(rng.integers(2, 8))
        sentence = random_tree_sentence(rng, n)
        tokens = list(sentence.tokens)
        kind = rng.choice(["cycle", "range", "pos", "deprel"])
        idx = int(rng.integers(0, n))
        t = tokens[idx]
        if kind == "cycle":
            other = (idx + 1) % n
            tokens[idx] = Token(t.index, t.form, t.upos, other + 1, t.deprel)
            tokens[other] = Token(other + 1, tokens[other].form, tokens[other].upos,
                                  t.index, tokens[other].deprel)
            expected = {"cycle", "unreachable", "multi-root"}
        elif kind == "range":
            tokens[idx] = Token(t.index, t.form, t.upos, n + 5, t.deprel)
            expected = {"head-out-of-range", "unreachable", "multi-root"}
        elif kind == "pos":
            tokens[idx] = Token(t.index, t.form, "BOGUS", t.head, t.deprel)
            expected = {"unknown-pos"}
        else:
            tokens[idx] = Token(t.index, t.form, t.upos, t.head, "bogusrel")
            expected = {"unknown-deprel"}
        broken = Sentence(tuple(tokens))
        violations = validate(broken, inventory)
        assert violations, (kind, broken)
        assert {v.kind for v in violations} & expected, (kind, violations)
        caught += 1
    assert caught == 300
    ok(9, "1000-tree round trip identity; 300 injected violations all caught")


# -- criterion 10: pipeline integration ---------------------------------------------------


def _write(path, text):
    path.write_text(text, encoding="utf-8")


def test_criterion_10_full_pipeline_deterministic(tmp_path):
    from stackparse.cli import main

    source = make_treebank(seed=21, size=40, lexicon=FULL_LEXICON, flipped=False)
    target_train = make_treebank(seed=22, size=12, lexicon=SMALL_LEXICON, flipped=True)
    target_dev = make_treebank(seed=23, size=6, lexicon=SMALL_LEXICON, flipped=True)
    target_test = make_treebank(seed=24, size=6, lexicon=SMALL_LEXICON, flipped=True)
    _write(tmp_path / "source.conllu", write_conllu(source))
    _write(tmp_path / "train.conllu", write_conllu(target_train))
    _write(tmp_path / "dev.conllu", write_conllu(target_dev))
    _write(tmp_path / "test.conllu", write_conllu(target_test))
    _write(tmp_path / "lm_corpus.txt",
           "".join(" ".join(s.forms) + "\n" for s in source))
    _write(tmp_path / "candidates.txt",
           "".join(" ".join(s.forms) + "\n" for s in target_train + target_test
                   if 5 <= len(s) <= 50))
    _write(tmp_path / "cfg.txt", DESK.updated({"epochs": "5", "k": "2"}).to_text())

    def run_pipeline(suffix: str) -> str:
        def cmd(*argv):
            assert main([str(a) for a in argv]) == 0

        cfg = tmp_path / "cfg.txt"
        cmd("lm-train", "--corpus", tmp_path / "lm_corpus.txt", "--order", 3,
            "--out", tmp_path / f"lm{suffix}.json")
        cmd("lm-rank", "--lm", tmp_path / f"lm{suffix}.json",
            "--input", tmp_path / "candidates.txt",
            "--out", tmp_path / f"ranked{suffix}.tsv")
        cmd("train-tagger", "--train", tmp_path / "source.conllu",
            "--dev", tmp_path / "source.conllu",
            "--out", tmp_path / f"base_tagger{suffix}", "--config", cfg, "--seed", 5)
        cmd("jackknife", "--train", tmp_path / "source.conllu", "--k", 2,
            "--out", tmp_path / f"source_jack{suffix}.conllu",
            "--config", cfg, "--seed", 5)
        cmd("train-parser", "--train", tmp_path / f"source_jack{suffix}.conllu",
            "--dev", tmp_path / "source.conllu",
            "--out", tmp_path / f"base_parser{suffix}", "--config", cfg, "--seed", 5)
        cmd("train-stacked-tagger", "--base-model", tmp_path / f"base_tagger{suffix}",
            "--train", tmp_path / "train.conllu", "--dev", tmp_path / "dev.conllu",
            "--out", tmp_path / f"stacked_tagger{suffix}", "--config", cfg, "--seed", 5)
        cmd("train-stacked-parser", "--base-model", tmp_path / f"base_parser{suffix}",
            "--train", tmp_path / "train.conllu", "--dev", tmp_path / "dev.conllu",
            "--out", tmp_path / f"stacked_parser{suffix}", "--config", cfg, "--seed", 5)
        cmd("tag", "--model", tmp_path / f"stacked_tagger{suffix}",
            "--input", tmp_path / "test.conllu",
            "--out", tmp_path / f"test_tagged{suffix}.conllu")
        cmd("parse", "--model", tmp_path / f"stacked_parser{suffix}",
            "--input", tmp_path / f"test_tagged{suffix}.conllu",
            "--out", tmp_path / f"test_parsed{suffix}.conllu")
        cmd("eval", "--gold", tmp_path / "test.conllu",
            "--pred", tmp_path / f"test_parsed{suffix}.conllu",
            "--out", tmp_path / f"report{suffix}.tsv")
        return (tmp_path / f"report{suffix}.tsv").read_text()

    first = run_pipeline("_run1")
    second = run_pipeline("_run2")
    assert first == second
    assert "uas\t" in first
    parsed1 = (tmp_path / "test_parsed_run1.conllu").read_text()
    parsed2 = (tmp_path / "test_parsed_run2.conllu").read_text()
    assert parsed1 == parsed2
    ok(10, f"full pipeline ran end to end twice with identical reports: "
           f"{first.strip().replace(chr(10), ' | ')}")
