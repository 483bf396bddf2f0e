from __future__ import annotations

import base64
import hashlib
import importlib.util
import io
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import zipfile
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stackparse
from stackparse import cli
from stackparse import parser as parser_module
from stackparse.cli import main
from stackparse.config import RunConfig, load_config, parse_config_text
from stackparse.embeddings import PretrainedEmbeddings, load_embeddings
from stackparse.modelio import _alignment_extra, crc32_combine, load_model, save_model
from stackparse.numcore import lstm as lstm_module
from stackparse.parser import ParserModel
from stackparse.parser import parse as parse_model_fn
from stackparse.stacking import StackedParser, StackedTagger, train_stacked_parser
from stackparse.tagger import TaggerModel
from stackparse.tagger import tag as tag_fn
from stackparse.treebank import is_tree, parse_conllu, write_conllu
from util import all_parameters, make_sentence, pack, random_tree_sentence

TINY_CONFIG = """\
# desk-scale test settings
epochs = 8
hidden = 10
layers = 1
word_dim = 6
char_dim = 4
att_dim = 4
dropout = 0.0
parser_word_dim = 6
tag_dim = 4
parser_hidden = 10
parser_layers = 1
d_arc = 8
d_rel = 5
parser_dropout = 0.0
stack_hidden = 12
stack_layers = 1
"""


def treebank_text():
    sentences = [
        make_sentence(["the", "cat", "sat"], ["DET", "NOUN", "VERB"],
                      [2, 3, 0], ["det", "nsubj", "root"]),
        make_sentence(["a", "dog", "ran"], ["DET", "NOUN", "VERB"],
                      [2, 3, 0], ["det", "nsubj", "root"]),
        make_sentence(["the", "dog", "sat"], ["DET", "NOUN", "VERB"],
                      [2, 3, 0], ["det", "nsubj", "root"]),
    ]
    return write_conllu(sentences)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "tb.conllu").write_text(treebank_text(), encoding="utf-8")
    (tmp_path / "cfg.txt").write_text(TINY_CONFIG, encoding="utf-8")
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


# -- configuration ------------------------------------------------------------------


def test_config_parse_and_round_trip(tmp_path):
    config = RunConfig.from_mapping({"epochs": "7", "decoder": "mst",
                                     "include_punct": "false"})
    assert config.epochs == 7 and config.decoder == "mst"
    assert config.include_punct is False
    path = tmp_path / "cfg.txt"
    path.write_text(config.to_text(), encoding="utf-8")
    assert load_config(str(path)) == config


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ValueError, match="unknown configuration key"):
        RunConfig.from_mapping({"hidden_size": "10"})
    with pytest.raises(ValueError):
        RunConfig.from_mapping({"dropout": "1.5"})
    with pytest.raises(ValueError):
        RunConfig.from_mapping({"decoder": "beam"})
    with pytest.raises(ValueError):
        RunConfig.from_mapping({"epochs": "zero"})


@pytest.mark.parametrize("key", ["learning_rate", "l2_lambda"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_config_rejects_non_finite_rates(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be"):
        RunConfig().updated({key: value})


def test_non_finite_learning_rate_is_a_diagnostic_before_training(workdir, capsys):
    (workdir / "nan.txt").write_text(TINY_CONFIG + "learning_rate = nan\n", encoding="utf-8")
    assert run("train-tagger", "--train", workdir / "tb.conllu", "--config", workdir / "nan.txt",
               "--out", workdir / "t.model") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "learning_rate" in err
    assert not list(workdir.glob("t.model*"))


def test_malformed_config_line_names_the_file(workdir, capsys):
    bad = workdir / "bad.txt"
    bad.write_text("seed = 3\nhidden\n", encoding="utf-8")
    assert run("lm-train", "--corpus", workdir / "tb.conllu", "--config", bad,
               "--out", workdir / "o") == 2
    assert capsys.readouterr().err == f"error: {bad}:2: expected 'key = value'\n"
    assert not (workdir / "o").exists()


def test_config_text_comments_and_errors():
    mapping = parse_config_text("# comment\nseed = 4  # trailing\n\nk=12\n")
    assert mapping == {"seed": "4", "k": "12"}
    with pytest.raises(ValueError, match="line 1"):
        parse_config_text("not a key value line")


# -- validate ------------------------------------------------------------------------


def test_validate_clean_file_exits_zero(workdir, capsys):
    assert run("validate", "--input", workdir / "tb.conllu") == 0
    assert "0 errors" in capsys.readouterr().out


def test_validate_flags_cycle_nonzero(workdir, capsys):
    bad = "\n".join([
        "1\ta\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_",
        "2\tb\t_\tNOUN\t_\t_\t1\tnsubj\t_\t_",
        "3\tc\t_\tVERB\t_\t_\t0\troot\t_\t_",
    ]) + "\n"
    (workdir / "bad.conllu").write_text(bad, encoding="utf-8")
    assert run("validate", "--input", workdir / "bad.conllu") == 1
    assert "cycle" in capsys.readouterr().out


def test_validate_against_ud_english_inventory(workdir, capsys):
    text = "1\tkiasu\t_\tBOGUS\t_\t_\t0\troot\t_\t_\n"
    (workdir / "odd.conllu").write_text(text, encoding="utf-8")
    # against the data-derived inventory the tag is (vacuously) known
    assert run("validate", "--input", workdir / "odd.conllu") == 0
    assert run("validate", "--input", workdir / "odd.conllu",
               "--inventory", "ud-english") == 1
    assert "unknown-pos" in capsys.readouterr().out


def test_validate_multi_root_warning_exits_zero(workdir, capsys):
    text = "\n".join([
        "1\ta\t_\tNOUN\t_\t_\t0\troot\t_\t_",
        "2\tb\t_\tVERB\t_\t_\t0\troot\t_\t_",
    ]) + "\n"
    (workdir / "multi.conllu").write_text(text, encoding="utf-8")
    assert run("validate", "--input", workdir / "multi.conllu") == 0
    assert "multi-root" in capsys.readouterr().out


def test_missing_file_is_a_diagnostic_not_a_crash(workdir, capsys):
    code = run("validate", "--input", workdir / "nope.conllu")
    assert code == 2
    assert "missing file" in capsys.readouterr().err


# -- train / tag / parse / eval ----------------------------------------------------------


def test_tagger_pipeline_and_snapshot(workdir, capsys):
    model_path = workdir / "tagger.model"
    assert run("train-tagger", "--train", workdir / "tb.conllu",
               "--dev", workdir / "tb.conllu", "--out", model_path,
               "--config", workdir / "cfg.txt", "--seed", 3) == 0
    snapshot = (workdir / "tagger.model.config").read_text()
    assert "seed = 3" in snapshot and "best_epoch" in snapshot
    assert run("tag", "--model", model_path, "--input", workdir / "tb.conllu",
               "--out", workdir / "tagged.conllu") == 0
    tagged = parse_conllu((workdir / "tagged.conllu").read_text())
    assert [s.upos for s in tagged] == [("DET", "NOUN", "VERB")] * 3


def test_parser_pipeline_eval_matches_training_dev_report(workdir, capsys):
    model_path = workdir / "parser.model"
    assert run("train-parser", "--train", workdir / "tb.conllu",
               "--dev", workdir / "tb.conllu", "--out", model_path,
               "--config", workdir / "cfg.txt") == 0
    out = capsys.readouterr().out
    assert "dev UAS 100.0" in out
    assert run("parse", "--model", model_path, "--input", workdir / "tb.conllu",
               "--out", workdir / "parsed.conllu") == 0
    assert run("eval", "--gold", workdir / "tb.conllu",
               "--pred", workdir / "parsed.conllu") == 0
    lines = capsys.readouterr().out
    assert "UAS      100.00" in lines and "LAS      100.00" in lines


def test_eval_gold_equals_pred_writes_tsv(workdir, capsys):
    out_path = workdir / "report.tsv"
    assert run("eval", "--gold", workdir / "tb.conllu",
               "--pred", workdir / "tb.conllu", "--out", out_path) == 0
    text = out_path.read_text()
    assert "uas\t100.00" in text and "las\t100.00" in text


@pytest.mark.parametrize("command", ["eval", "iaa"])
def test_files_whose_words_differ_are_refused(workdir, capsys, command):
    """Sentences of the same lengths holding other words are not scored:
    one error line names the first token whose forms differ."""
    other = write_conllu([make_sentence([t.form.upper() for t in s.tokens], list(s.upos),
                                        [t.head for t in s.tokens], [t.deprel for t in s.tokens])
                          for s in parse_conllu(treebank_text())])
    (workdir / "other.conllu").write_text(other, encoding="utf-8")
    flags = {"eval": ("--gold", "--pred"), "iaa": ("--a", "--b")}[command]
    assert run(command, flags[0], workdir / "tb.conllu", flags[1], workdir / "other.conllu") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: sentence 0, token 1: form mismatch "
                            "('the' gold vs 'THE' predicted)\n")


def test_eval_without_punctuation_on_all_punct_gold_prints_undefined(tmp_path, capsys):
    text = write_conllu([make_sentence(["!", "?"], ["PUNCT", "PUNCT"], [0, 1],
                                       ["root", "punct"])])
    (tmp_path / "punct.conllu").write_text(text, encoding="utf-8")
    out_path = tmp_path / "report.tsv"
    assert run("eval", "--gold", tmp_path / "punct.conllu",
               "--pred", tmp_path / "punct.conllu", "--include-punct", "false",
               "--categories", "--out", out_path) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["tokens   0", "UAS      undefined", "LAS      undefined",
                         "TagAcc   undefined"]
    assert lines[4] == "Others\tUAS undefined\tLAS undefined\ttokens 0"
    assert out_path.read_text() == ("tokens\t0\nuas\tundefined\nlas\tundefined\n"
                                    "tag_accuracy\tundefined\n")


def test_model_archive_round_trip_bit_exact(workdir, tmp_path):
    run("train-parser", "--train", workdir / "tb.conllu", "--out",
        workdir / "p.model", "--config", workdir / "cfg.txt")
    model = load_model(str(workdir / "p.model"))
    again = tmp_path / "copy.model"
    save_model(str(again), model)
    clone = load_model(str(again))
    for name, tensor in model.parameters().items():
        assert np.array_equal(tensor.data, clone.parameters()[name].data), name
    sentence = parse_conllu(treebank_text())[0]
    before = parse_model_fn(model, sentence)
    after = parse_model_fn(clone, sentence)
    assert before.heads == after.heads and before.deprels == after.deprels
    assert np.array_equal(before.arc_scores, after.arc_scores)


def test_tagger_archive_round_trip(workdir):
    run("train-tagger", "--train", workdir / "tb.conllu", "--out",
        workdir / "t.model", "--config", workdir / "cfg.txt")
    model = load_model(str(workdir / "t.model"))
    sentence = parse_conllu(treebank_text())[0]
    result = tag_fn(model, sentence)
    assert len(result.tags) == 3
    save_model(str(workdir / "t2.model"), model)
    clone = load_model(str(workdir / "t2.model"))
    again = tag_fn(clone, sentence)
    assert result.tags == again.tags
    assert np.array_equal(result.emissions, again.emissions)


def test_stacked_training_commands(workdir, capsys):
    run("train-tagger", "--train", workdir / "tb.conllu", "--out",
        workdir / "base_t.model", "--config", workdir / "cfg.txt")
    assert run("train-stacked-tagger", "--base-model", workdir / "base_t.model",
               "--train", workdir / "tb.conllu", "--dev", workdir / "tb.conllu",
               "--out", workdir / "st.model", "--config", workdir / "cfg.txt") == 0
    stacked = load_model(str(workdir / "st.model"))
    sentence = parse_conllu(treebank_text())[0]
    assert stacked.tag(sentence).tags == ("DET", "NOUN", "VERB")
    # the tag command accepts stacked archives too
    assert run("tag", "--model", workdir / "st.model",
               "--input", workdir / "tb.conllu",
               "--out", workdir / "st_tagged.conllu") == 0
    tagged = parse_conllu((workdir / "st_tagged.conllu").read_text())
    assert tagged[0].upos == ("DET", "NOUN", "VERB")

    run("train-parser", "--train", workdir / "tb.conllu", "--out",
        workdir / "base_p.model", "--config", workdir / "cfg.txt")
    assert run("train-stacked-parser", "--base-model", workdir / "base_p.model",
               "--train", workdir / "tb.conllu", "--dev", workdir / "tb.conllu",
               "--out", workdir / "sp.model", "--config", workdir / "cfg.txt") == 0
    sp = load_model(str(workdir / "sp.model"))
    result = parse_model_fn(sp, sentence)
    assert result.heads == (2, 3, 0)
    # stacked archives survive a save/load cycle bit-exactly
    save_model(str(workdir / "sp2.model"), sp)
    sp2 = load_model(str(workdir / "sp2.model"))
    second = parse_model_fn(sp2, sentence)
    assert result.heads == second.heads and result.deprels == second.deprels


def test_wrong_model_type_is_rejected(workdir, capsys):
    run("train-tagger", "--train", workdir / "tb.conllu", "--out",
        workdir / "t.model", "--config", workdir / "cfg.txt")
    code = run("parse", "--model", workdir / "t.model",
               "--input", workdir / "tb.conllu", "--out", workdir / "x.conllu")
    assert code == 2
    assert "not a parser archive" in capsys.readouterr().err


@pytest.mark.parametrize("command, base, wrong_base, score, label", [
    ("train-tagger", None, None, "dev_accuracy", "dev accuracy"),
    ("train-parser", None, None, "dev_uas", "dev UAS"),
    ("train-stacked-tagger", "tagger", "parser", "dev_accuracy", "dev accuracy"),
    ("train-stacked-parser", "parser", "stacked-parser", "dev_uas", "dev UAS"),
])
def test_train_commands_report_and_snapshot(workdir, capsys, command, base, wrong_base,
                                            score, label):
    args = ["--train", workdir / "tb.conllu", "--dev", workdir / "tb.conllu",
            "--config", workdir / "cfg.txt"]
    if base is not None:
        save_model(str(workdir / "wrong.model"), archive_model(wrong_base))
        assert run(command, "--base-model", workdir / "wrong.model", *args,
                   "--out", workdir / "x.model") == 2
        err = capsys.readouterr().err
        assert err == f"error: {workdir / 'wrong.model'} is not a base {base} archive\n"
        assert not list(workdir.glob("x.model*"))
        save_model(str(workdir / "base.model"), archive_model(base))
        args += ["--base-model", workdir / "base.model"]
    out = workdir / "m.model"
    assert run(command, *args, "--out", out) == 0
    comments = [line[2:].split(" = ") for line in
                (workdir / "m.model.config").read_text().splitlines() if line.startswith("#")]
    assert [key for key, _ in comments] == ["command", "best_epoch", score, "blas",
                                            "blas_threads"]
    values = dict(comments)
    assert values["command"] == command and 1 <= int(values["best_epoch"]) <= 8
    # "unknown" where numpy's bundled OpenBLAS was not found (numpy built on another BLAS)
    assert values["blas"] and (values["blas_threads"] == "unknown" if values["blas"] == "unknown"
                               else int(values["blas_threads"]) >= 1)
    kind = command.removeprefix("train-").replace("-", " ")
    assert capsys.readouterr().out == (f"saved {kind} to {out} (best epoch "
                                       f"{values['best_epoch']}, {label} {values[score]})\n")
    assert type(load_model(str(out))) is {
        "tagger": TaggerModel, "parser": ParserModel,
        "stacked tagger": StackedTagger, "stacked parser": StackedParser}[kind]


def _bench_spans():
    """The benchmark's span tracer module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "bench_spans", Path(__file__).resolve().parents[1] / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_train_commands_call_the_traced_trainers(workdir):
    # The benchmark's per-layer spans come from wrappers patched into the
    # trainers' modules; a trainer captured at import would bypass them.
    spans = _bench_spans()
    common = ["--train", workdir / "tb.conllu", "--config", workdir / "cfg.txt"]
    tracer = spans.Tracer()
    tracer.install()
    tracer.recording = True
    try:
        assert run("train-tagger", *common, "--out", workdir / "t.model") == 0
        assert run("train-parser", *common, "--out", workdir / "p.model") == 0
        assert run("train-stacked-tagger", "--base-model", workdir / "t.model", *common,
                   "--out", workdir / "st.model") == 0
        assert run("train-stacked-parser", "--base-model", workdir / "p.model", *common,
                   "--out", workdir / "sp.model") == 0
    finally:
        tracer.uninstall()
    names = Counter(span[0] for span in tracer.spans)
    assert (names["tagger.train"], names["parser.train"], names["stacking.train"]) == (1, 1, 2)


def test_tag_and_parse_commands_call_the_traced_functions(workdir):
    # The commands encode a file in batches through the traced
    # `bilstm_encode`, once per model and batch, and decode each sentence
    # through the traced decoders.  They do not pass through the
    # one-sentence `tagger.tag`, `StackedTagger.tag` and `parser.parse`, so
    # those spans read zero here; a path that bypassed the encoder's span
    # would zero `numcore.bilstm`.
    for kind in ("tagger", "stacked-tagger", "parser", "stacked-parser"):
        save_model(str(workdir / f"{kind}.model"), archive_model(kind))
    spans = _bench_spans()
    calls = {}
    for kind, command in [("tagger", "tag"), ("stacked-tagger", "tag"),
                          ("parser", "parse"), ("stacked-parser", "parse")]:
        tracer = spans.Tracer()
        tracer.install()
        tracer.recording = True
        try:
            assert run(command, "--model", workdir / f"{kind}.model", "--input",
                       workdir / "tb.conllu", "--out", workdir / f"{kind}.conllu") == 0
        finally:
            tracer.uninstall()
        names = Counter(span[0] for span in tracer.spans)
        calls[kind] = tuple(names[name] for name in (
            "tagger.tag", "stacking.tag", "parser.parse", "numcore.bilstm", "tagger.viterbi",
            "parser.decode_greedy"))
    # three sentences, one batch; a stacked model encodes its base's batch first
    assert calls == {"tagger": (0, 0, 0, 1, 3, 0), "stacked-tagger": (0, 0, 0, 2, 3, 0),
                     "parser": (0, 0, 0, 1, 0, 3), "stacked-parser": (0, 0, 0, 2, 0, 3)}


def test_tag_and_parse_of_a_file_match_each_sentence_alone(workdir, monkeypatch):
    """The commands encode length-sorted batches, cut small here so that the
    file takes several, and write what the one-sentence `tag` and `parse`
    give each sentence, byte for byte, in input order."""
    monkeypatch.setattr(lstm_module, "BATCH_TOKENS", 12)
    rng = np.random.default_rng(11)
    sentences = [random_tree_sentence(rng, n) for n in (3, 1, 7, 3, 5, 12, 2, 7, 4)]
    sentences.append(parse_conllu(treebank_text())[0])
    (workdir / "many.conllu").write_text(write_conllu(sentences), encoding="utf-8")
    for kind in ("tagger", "stacked-tagger", "parser", "stacked-parser"):
        path = workdir / f"{kind}.model"
        save_model(str(path), archive_model(kind))
        model = load_model(str(path))
        if kind.endswith("tagger"):
            cases = [(["tag"], [s.with_upos(model.tag(s).tags) for s in sentences])]
        else:
            cases = []
            for decoder in ("greedy", "mst"):
                results = [parse_model_fn(model, s, decoder, repair=True) for s in sentences]
                cases.append((["parse", "--decoder", decoder],
                              [s.with_tree(r.heads, r.deprels)
                               for s, r in zip(sentences, results)]))
        for argv, expected in cases:
            assert run(*argv, "--model", path, "--input", workdir / "many.conllu",
                       "--out", workdir / "out.conllu") == 0
            assert (workdir / "out.conllu").read_bytes() == write_conllu(expected).encode("utf-8")


@pytest.mark.parametrize("sentences", [[], [make_sentence(["cat"], ["NOUN"], [0], ["root"])]],
                         ids=["empty", "one-token"])
def test_tag_and_parse_an_empty_file_and_a_one_token_sentence(workdir, sentences):
    (workdir / "in.conllu").write_text(write_conllu(sentences), encoding="utf-8")
    for kind, command in (("tagger", "tag"), ("stacked-tagger", "tag"),
                          ("parser", "parse"), ("stacked-parser", "parse")):
        save_model(str(workdir / f"{kind}.model"), archive_model(kind))
        assert run(command, "--model", workdir / f"{kind}.model", "--input",
                   workdir / "in.conllu", "--out", workdir / "out.conllu") == 0
        out = parse_conllu((workdir / "out.conllu").read_text(encoding="utf-8"))
        assert [s.forms for s in out] == [s.forms for s in sentences]


@pytest.mark.parametrize("kind", ["parser", "stacked-parser"])
def test_parse_counts_the_greedy_parses_that_the_mst_repaired(workdir, capsys, kind):
    save_model(str(workdir / "p.model"), archive_model(kind))
    model = load_model(str(workdir / "p.model"))
    sentences = parse_conllu(treebank_text())
    repaired = sum(not is_tree(parse_model_fn(model, s).heads) for s in sentences)
    assert repaired > 0
    for decoder, note in (("greedy", f" ({repaired} non-trees repaired by the single-root MST)"),
                          ("mst", "")):
        assert run("parse", "--decoder", decoder, "--model", workdir / "p.model",
                   "--input", workdir / "tb.conllu", "--out", workdir / "out.conllu") == 0
        assert capsys.readouterr().out == (f"parsed 3 sentences with {decoder} decoding{note} "
                                           f"-> {workdir / 'out.conllu'}\n")


# -- model archives ---------------------------------------------------------------------


def archive_model(kind):
    """A seeded model of one archive kind, with pretrained tables."""
    rng = np.random.default_rng(5)
    vocab = {"the": 0, "cat": 1, "sat": 2}
    tags, rels = ["DET", "NOUN", "VERB"], ["det", "nsubj", "root"]
    pretrained = PretrainedEmbeddings(vocab, rng.normal(size=(3, 4)))
    chars = {c: i for i, c in enumerate("acehst")}
    tagger = dict(pretrained=pretrained, word_dim=3, char_dim=2, att_dim=2, hidden=4, rng=rng)
    parser = dict(pretrained=pretrained, word_dim=3, tag_dim=2, hidden=4, layers=1, rng=rng)
    base_tagger = TaggerModel(tags, vocab, chars, **tagger)
    base_parser = ParserModel(rels, tags, vocab, d_arc=3, d_rel=2, **parser)
    base_parser.best_epoch = 4
    if kind == "tagger":
        return base_tagger
    if kind == "parser":
        return base_parser
    if kind == "stacked-tagger":
        target = TaggerModel(tags, vocab, chars, extra_input_dim=3, **tagger)
        return StackedTagger(base_tagger, target, True)
    return StackedParser(base_parser, rels, tags, vocab, **parser)


def model_arrays(model):
    """Every parameter and pretrained table of a model, by name."""
    if isinstance(model, (StackedTagger, StackedParser)):
        params = all_parameters(model)
        parts = {"base/": model.base, "target/": getattr(model, "target", model)}
    else:
        params, parts = model.parameters(), {"": model}
    arrays = {name: t.data for name, t in params.items()}
    arrays.update({f"{prefix}pretrained": part.pretrained.matrix
                   for prefix, part in parts.items()})
    return arrays


def assert_same_arrays(model, clone):
    expected, actual = model_arrays(model), model_arrays(clone)
    assert expected.keys() == actual.keys()
    for name, arr in expected.items():
        assert actual[name].dtype == arr.dtype, name
        assert actual[name].shape == arr.shape, name
        assert actual[name].tobytes() == arr.tobytes(), name


ARCHIVE_KINDS = ["tagger", "parser", "stacked-tagger", "stacked-parser"]


@pytest.mark.parametrize("kind", ARCHIVE_KINDS)
def test_archive_round_trip_bit_exact_for_every_kind(tmp_path, kind):
    model = archive_model(kind)
    save_model(str(tmp_path / "m"), model)
    clone = load_model(str(tmp_path / "m"))
    assert type(clone) is type(model)
    assert_same_arrays(model, clone)
    if kind == "parser":
        assert clone.best_epoch == 4
    if kind == "stacked-tagger":
        assert clone.train_base_embeddings is True
    # a second save writes the same members: vocabularies, meta and blob
    save_model(str(tmp_path / "again"), clone)
    with zipfile.ZipFile(tmp_path / "m") as a, zipfile.ZipFile(tmp_path / "again") as b:
        assert a.namelist() == b.namelist()
        for name in a.namelist():
            assert a.read(name) == b.read(name), name


def test_a_parser_built_on_a_base_is_archived_as_a_stacked_parser(tmp_path):
    stacked = archive_model("stacked-parser")
    model = ParserModel(stacked.rels, stacked.tags, stacked.word_vocab,
                        pretrained=stacked.pretrained, word_dim=3, tag_dim=2, hidden=4,
                        layers=1, base=stacked.base, rng=np.random.default_rng(6))
    save_model(str(tmp_path / "m.model"), model)
    clone = load_model(str(tmp_path / "m.model"))
    assert type(clone) is StackedParser
    expected, actual = all_parameters(model), all_parameters(clone)
    assert expected.keys() == actual.keys()
    assert all(actual[k].data.tobytes() == t.data.tobytes() for k, t in expected.items())


def data_offset(data: bytes, info: zipfile.ZipInfo) -> int:
    """Where a member's data starts: its local header is 30 bytes, then
    the name and the extra field."""
    header = info.header_offset
    return header + 30 + int.from_bytes(data[header + 26:header + 28], "little") \
        + int.from_bytes(data[header + 28:header + 30], "little")


def unaligned_copy(path, new_path):
    """A copy written by plain zipfile, its stored params.bin off the 64-byte grid."""
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    for pad in range(64):
        with zipfile.ZipFile(new_path, "w") as copy:
            copy.writestr("pad.txt", "x" * pad)
            for name, content in members.items():
                copy.writestr(name, content)
            info = copy.getinfo("params.bin")
        if data_offset(Path(new_path).read_bytes(), info) % 64:
            return


@pytest.mark.parametrize("kind", ARCHIVE_KINDS)
def test_saved_params_bin_is_stored_at_a_64_byte_offset(tmp_path, kind):
    save_model(str(tmp_path / "m"), archive_model(kind))
    with zipfile.ZipFile(tmp_path / "m") as archive:
        info = archive.getinfo("params.bin")
        assert archive.testzip() is None
    assert info.compress_type == zipfile.ZIP_STORED
    assert data_offset((tmp_path / "m").read_bytes(), info) % 64 == 0


@pytest.mark.parametrize("file_size", [10, 2**32])  # the second gets a zip64 field
def test_alignment_extra_counts_the_header_zipfile_writes(file_size):
    for position in (0, 1, 37, 64, 1000):
        info = zipfile.ZipInfo("params.bin")
        info.file_size = file_size
        info.extra = _alignment_extra(info, position)
        out = io.BytesIO(bytes(position))
        out.seek(position)
        with zipfile.ZipFile(out, "w") as archive, archive.open(info, "w"):
            assert out.tell() % 64 == 0, position


@pytest.mark.parametrize("kind", ARCHIVE_KINDS)
def test_archive_params_stored_and_deflated_archives_still_load(tmp_path, kind):
    model = archive_model(kind)
    save_model(str(tmp_path / "m"), model)
    deflated = tmp_path / "deflated"
    with zipfile.ZipFile(tmp_path / "m") as archive:
        assert archive.getinfo("params.bin").compress_type == zipfile.ZIP_STORED
        with zipfile.ZipFile(deflated, "w", zipfile.ZIP_DEFLATED) as old_style:
            for name in archive.namelist():
                old_style.writestr(name, archive.read(name))
    with zipfile.ZipFile(deflated) as archive:
        assert archive.getinfo("params.bin").compress_type == zipfile.ZIP_DEFLATED
    assert_same_arrays(model, load_model(str(deflated)))
    unaligned_copy(tmp_path / "m", tmp_path / "unaligned")
    with zipfile.ZipFile(tmp_path / "unaligned") as archive:
        info = archive.getinfo("params.bin")
    assert info.compress_type == zipfile.ZIP_STORED
    assert data_offset((tmp_path / "unaligned").read_bytes(), info) % 64
    for path in (deflated, tmp_path / "unaligned"):
        arrays = model_arrays(load_model(str(path)))
        assert all(arr.flags.writeable for arr in arrays.values()), path


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300), st.binary(max_size=300))
def test_crc32_combine_joins_two_halves(a, b):
    assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)


def test_crc32_combine_joins_megabyte_halves():
    a, b = np.random.default_rng(3).bytes(1 << 20), bytes(3 << 20)
    assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)


def test_stacked_trainers_leave_the_mapped_base_archive_unchanged(workdir):
    config = workdir / "cfg-base.txt"
    config.write_text(TINY_CONFIG + "epochs = 2\ntrain_base_embeddings = true\n", encoding="utf-8")
    common = ["--train", workdir / "tb.conllu", "--config", config]
    for command, base, stacked in (("tagger", "t.model", "st.model"),
                                   ("parser", "p.model", "sp.model")):
        assert run(f"train-{command}", *common, "--out", workdir / base) == 0
        before = hashlib.sha256((workdir / base).read_bytes()).hexdigest()
        assert run(f"train-stacked-{command}", "--base-model", workdir / base, *common,
                   "--out", workdir / stacked) == 0
        assert hashlib.sha256((workdir / base).read_bytes()).hexdigest() == before
        trained = model_arrays(load_model(str(workdir / stacked)).base)
        loaded = model_arrays(load_model(str(workdir / base)))
        assert any(not np.array_equal(trained[k], loaded[k]) for k in loaded), command
        for arr in loaded.values():  # copy-on-write: writes stay in this process
            assert arr.flags.writeable
            arr[...] = 0.0
        assert hashlib.sha256((workdir / base).read_bytes()).hexdigest() == before


def rewrite_members(path, new_path, members):
    """A copy of the archive at `path` with the members named in `members` replaced."""
    with zipfile.ZipFile(path) as archive, zipfile.ZipFile(new_path, "w") as copy:
        for name in archive.namelist():
            copy.writestr(name, members.get(name, archive.read(name)))


@pytest.mark.parametrize("kind", ["tagger", "stacked-tagger"])
def test_archives_with_the_empty_word_vector_still_load(tmp_path, kind):
    # Older taggers stored an `empty_word_vec` that no model reads any more.
    model = archive_model(kind)
    save_model(str(tmp_path / "m"), model)
    with zipfile.ZipFile(tmp_path / "m") as archive:
        manifest = archive.read("manifest.txt").decode("utf-8")
        blob = archive.read("params.bin")
    prefixes = ["base/", "target/"] if kind == "stacked-tagger" else [""]
    for prefix in prefixes:
        manifest += f"{prefix}empty_word_vec 2 float64 {len(blob)}\n"
        blob += np.array([0.5, -0.5]).tobytes()
    rewrite_members(tmp_path / "m", tmp_path / "old",
                    {"manifest.txt": manifest, "params.bin": blob})
    assert_same_arrays(model, load_model(str(tmp_path / "old")))


@pytest.mark.parametrize("line", ["w 2 float64", "w 2 float16 0", "w 2,x float64 0",
                                  "w 2 float64 0x10"])
def test_malformed_manifest_line_is_one_error_line(workdir, capsys, line):
    save_model(str(workdir / "good.model"), archive_model("tagger"))
    with zipfile.ZipFile(workdir / "good.model") as archive:
        manifest = archive.read("manifest.txt").decode("utf-8")
    rewrite_members(workdir / "good.model", workdir / "bad.model",
                    {"manifest.txt": manifest + line + "\n"})
    assert run("tag", "--model", workdir / "bad.model", "--input", workdir / "tb.conllu",
               "--out", workdir / "x.conllu") == 2
    number = manifest.count("\n") + 1
    assert capsys.readouterr().err == (f"error: manifest line {number} is not "
                                       f"'name shape float64 offset': {line!r}\n")


def test_stacked_parser_archive_is_shape_checked(workdir, capsys):
    model = archive_model("stacked-parser")
    model.u_arc.data = model.u_arc.data[:-1]
    path = workdir / "bad-shape.model"
    save_model(str(path), model)
    with pytest.raises(ValueError, match="target/u_arc has shape"):
        load_model(str(path))
    assert run("parse", "--model", path, "--input", workdir / "tb.conllu",
               "--out", workdir / "x.conllu") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stored parameter target/u_arc") and err.count("\n") == 1


@pytest.mark.parametrize("kind,member", [
    ("tagger", "words.txt"), ("tagger", "chars.txt"), ("tagger", "pretrained_vocab.txt"),
    ("stacked-tagger", "base/words.txt"), ("stacked-parser", "target/words.txt"),
])
@pytest.mark.parametrize("repeat", ["insert", "replace"])
def test_a_repeated_vocabulary_token_is_one_error_line(workdir, capsys, kind, member, repeat):
    save_model(str(workdir / "good.model"), archive_model(kind))
    with zipfile.ZipFile(workdir / "good.model") as archive:
        lines = archive.read(member).decode("utf-8").split("\n")[:-1]
    # line 1 again as line 2, either added or in place of line 2
    lines[1:1 if repeat == "insert" else 2] = [lines[0]]
    rewrite_members(workdir / "good.model", workdir / "bad.model",
                    {member: "".join(f"{line}\n" for line in lines)})
    with pytest.raises(ValueError, match=f"{member}: line 2 repeats line 1"):
        load_model(str(workdir / "bad.model"))
    command = "parse" if kind.endswith("parser") else "tag"
    assert run(command, "--model", workdir / "bad.model", "--input", workdir / "tb.conllu",
               "--out", workdir / "x.conllu") == 2
    assert capsys.readouterr().err == (f"error: {member}: line 2 repeats line 1 "
                                       f"({lines[0]!r})\n")
    assert not (workdir / "x.conllu").exists()


@pytest.mark.parametrize("kind,prefix", [("tagger", ""), ("stacked-parser", "target/")])
@pytest.mark.parametrize("case", ["extra vocabulary line", "missing vocabulary line",
                                  "1-D table"])
def test_a_pretrained_table_must_have_one_row_per_vocabulary_line(workdir, capsys, kind,
                                                                 prefix, case):
    save_model(str(workdir / "good.model"), archive_model(kind))
    vocab_name, table = f"{prefix}pretrained_vocab.txt", f"{prefix}const/pretrained_table"
    with zipfile.ZipFile(workdir / "good.model") as archive:
        manifest = archive.read("manifest.txt").decode("utf-8")
        vocab = archive.read(vocab_name).decode("utf-8")
    shape = (3, 4)  # archive_model's pretrained table
    if case == "extra vocabulary line":  # every later token's row one down, the last past the end
        members, expected = {vocab_name: "zzz\n" + vocab}, 4
    elif case == "missing vocabulary line":  # "sat" silently without its row
        members, expected = {vocab_name: vocab.rsplit("sat\n", 1)[0]}, 2
    else:
        manifest = manifest.replace(f"{table} 3,4 float64", f"{table} 12 float64")
        members, expected, shape = {"manifest.txt": manifest}, 3, (12,)
    rewrite_members(workdir / "good.model", workdir / "bad.model", members)
    command = "parse" if kind.endswith("parser") else "tag"
    assert run(command, "--model", workdir / "bad.model", "--input", workdir / "tb.conllu",
               "--out", workdir / "x.conllu") == 2
    assert capsys.readouterr().err == (
        f"error: stored parameter {table} has shape {shape}, expected ({expected}, dim): "
        f"one row per line of {vocab_name}\n")
    assert not (workdir / "x.conllu").exists()


def test_bad_archive_paths_are_diagnostics(workdir, capsys):
    save_model(str(workdir / "good.model"), archive_model("parser"))
    data = (workdir / "good.model").read_bytes()
    (workdir / "truncated.model").write_bytes(data[:len(data) // 2])
    (workdir / "dir.model").mkdir()
    for model, message in ((workdir / "tb.conllu", "error: not a model archive"),
                           (workdir / "truncated.model", "error: not a model archive"),
                           (workdir / "dir.model", "error: is a directory")):
        assert run("parse", "--model", model, "--input", workdir / "tb.conllu",
                   "--out", workdir / "x.conllu") == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1, err


BAD_PATH_CASES = {
    # case: (argv with {w} for the work directory, the path the error must name)
    "input under a file": (["lexicon-match", "--input", "{w}/lex.txt/x",
                            "--lexicon", "{w}/lex.txt"], "{w}/lex.txt/x"),
    "out under a file": (["lexicon-match", "--input", "{w}/lex.txt", "--lexicon",
                          "{w}/lex.txt", "--out", "{w}/lex.txt/x.tsv"], "{w}/lex.txt/x.tsv"),
    "out in a missing directory": (["lm-train", "--corpus", "{w}/lex.txt",
                                    "--out", "{w}/nodir/lm.json"], "{w}/nodir/lm.json"),
    "out onto a directory": (["lm-train", "--corpus", "{w}/lex.txt", "--out", "{w}/dir"],
                             "{w}/dir"),
    "binary input": (["lexicon-match", "--input", "{w}/bin", "--lexicon", "{w}/lex.txt"],
                     "{w}/bin"),
    "binary language model": (["lm-rank", "--lm", "{w}/bin", "--input", "{w}/lex.txt",
                               "--out", "{w}/rank.tsv"], "{w}/bin"),
    "binary treebank": (["train-tagger", "--train", "{w}/bin", "--config", "{w}/cfg.txt",
                         "--out", "{w}/m"], "{w}/bin"),
    "binary config": (["train-tagger", "--train", "{w}/tb.conllu", "--config", "{w}/bin",
                       "--out", "{w}/m"], "{w}/bin"),
    "binary embeddings": (["train-tagger", "--train", "{w}/tb.conllu", "--config",
                           "{w}/cfg.txt", "--embeddings", "{w}/bin", "--out", "{w}/m"],
                          "{w}/bin"),
}


@pytest.mark.parametrize("case", list(BAD_PATH_CASES))
def test_bad_paths_are_one_line_diagnostics_naming_the_path(workdir, capsys, case):
    (workdir / "lex.txt").write_text("the cat\n", encoding="utf-8")
    (workdir / "bin").write_bytes(b"\xff\xfe\x00binary")
    (workdir / "dir").mkdir()
    argv, named = BAD_PATH_CASES[case]
    assert run(*(a.format(w=workdir) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named.format(w=workdir) in err, err


def test_corrupt_params_bin_fails_its_crc_check(workdir, capsys):
    path = workdir / "flipped.model"
    save_model(str(path), archive_model("parser"))
    data = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo("params.bin")
    data[data_offset(data, info) + info.file_size // 2] ^= 0x10
    path.write_bytes(bytes(data))
    assert run("parse", "--model", path, "--input", workdir / "tb.conllu",
               "--out", workdir / "x.conllu") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Bad CRC-32" in err and err.count("\n") == 1, err


def test_corrupt_unaligned_params_bin_fails_its_crc_check(tmp_path):
    save_model(str(tmp_path / "m"), archive_model("parser"))
    unaligned_copy(tmp_path / "m", tmp_path / "unaligned")
    data = bytearray((tmp_path / "unaligned").read_bytes())
    with zipfile.ZipFile(tmp_path / "unaligned") as archive:
        info = archive.getinfo("params.bin")
    data[data_offset(data, info) + info.file_size - 1] ^= 0x01
    (tmp_path / "unaligned").write_bytes(bytes(data))
    with pytest.raises(zipfile.BadZipFile, match="Bad CRC-32"):
        load_model(str(tmp_path / "unaligned"))


def test_load_holds_the_parameters_about_once(tmp_path):
    """The parameters are views of the mapped blob, not copies held next to it."""
    rng = np.random.default_rng(6)
    vocab = {f"w{i}": i for i in range(400)}
    pretrained = PretrainedEmbeddings(vocab, rng.normal(size=(400, 20)))
    model = ParserModel(["det", "root"], ["DET", "NOUN"], vocab, pretrained=pretrained,
                        word_dim=40, tag_dim=8, hidden=120, layers=2, d_arc=40, d_rel=16, rng=rng)
    save_model(str(tmp_path / "m"), model)
    with zipfile.ZipFile(tmp_path / "m") as archive:
        blob = archive.getinfo("params.bin").file_size
    assert blob > 3_000_000
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        clone = load_model(str(tmp_path / "m"))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert_same_arrays(model, clone)
    assert peak < 1.3 * blob, peak / blob


def test_loaded_tensors_are_writable_and_a_stacked_trainer_trains_on_them(tmp_path):
    save_model(str(tmp_path / "base"), archive_model("parser"))
    base = load_model(str(tmp_path / "base"))
    arrays = model_arrays(base)
    assert all(arr.flags.writeable for arr in arrays.values())
    stored = {name: arr.copy() for name, arr in arrays.items()}
    treebank = parse_conllu(treebank_text())
    config = RunConfig.from_mapping(parse_config_text(TINY_CONFIG)).updated({"epochs": "2"})
    stacked = train_stacked_parser(base, treebank, [], config)
    assert stacked.base is base
    moved = [name for name, arr in model_arrays(base).items()
             if not np.array_equal(arr, stored[name])]
    assert moved and all(name.startswith("mlp") or "lstm" in name for name in moved), moved
    assert_same_arrays(archive_model("parser"), load_model(str(tmp_path / "base")))


# -- text inputs ----------------------------------------------------------------------------

BOM = "\ufeff"


def test_a_bom_prefixed_lexicon_matches_its_first_term(workdir, capsys):
    (workdir / "cands.txt").write_text("wah so salah one lah\n", encoding="utf-8")
    (workdir / "lex.txt").write_text(BOM + "salah\nlah\n", encoding="utf-8")
    assert run("lexicon-match", "--input", workdir / "cands.txt",
               "--lexicon", workdir / "lex.txt") == 0
    assert capsys.readouterr().out == "salah,lah\twah so salah one lah\n"


def test_a_bom_prefixed_embeddings_file_keeps_its_first_word(workdir):
    (workdir / "vec.txt").write_text(BOM + "the 0.5 1.0\ncat 2.0 -1.0\n", encoding="utf-8")
    assert run("train-tagger", "--train", workdir / "tb.conllu", "--embeddings",
               workdir / "vec.txt", "--config", workdir / "cfg.txt",
               "--out", workdir / "t.model") == 0
    assert load_model(str(workdir / "t.model")).pretrained.vocab == {"the": 0, "cat": 1}


def test_bom_prefixed_corpus_input_and_lm_files_read_as_without(workdir):
    lines = "the cat sat here\na dog ran home\nthe dog sat home\n"
    outputs = {}
    for prefix in ("", BOM):
        (workdir / "corpus.txt").write_text(prefix + lines, encoding="utf-8")
        assert run("lm-train", "--corpus", workdir / "corpus.txt", "--order", 2,
                   "--out", workdir / "lm.json") == 0
        trained = (workdir / "lm.json").read_text(encoding="utf-8")
        (workdir / "lm.json").write_text(prefix + trained, encoding="utf-8")
        assert run("lm-rank", "--lm", workdir / "lm.json", "--input", workdir / "corpus.txt",
                   "--min-len", 1, "--out", workdir / "ranked.tsv") == 0
        outputs[prefix] = trained, (workdir / "ranked.tsv").read_bytes()
    assert outputs[BOM] == outputs[""]


def test_a_bom_prefixed_treebank_is_read(workdir, capsys):
    (workdir / "bom.conllu").write_text(BOM + treebank_text(), encoding="utf-8")
    assert run("validate", "--input", workdir / "bom.conllu") == 0
    assert "0 errors" in capsys.readouterr().out


def test_a_bom_prefixed_config_is_read(workdir, capsys):
    (workdir / "cfg.txt").write_text(BOM + TINY_CONFIG + "lm_order = 2\n", encoding="utf-8")
    assert run("lm-train", "--corpus", workdir / "tb.conllu", "--config", workdir / "cfg.txt",
               "--out", workdir / "lm.json") == 0
    assert capsys.readouterr().out.startswith("trained order-2 language model")


@pytest.mark.parametrize("kind,command", [("tagger", "tag"), ("parser", "parse")])
def test_forms_holding_other_line_breaks_are_kept(workdir, kind, command):
    """Only \\n ends a CoNLL-U line: U+2028 and U+0085 inside a FORM stay."""
    forms = ["a\u2028b", "c\x85d", "sat"]
    text = write_conllu([make_sentence(forms, ["DET", "NOUN", "VERB"], [2, 3, 0],
                                       ["det", "nsubj", "root"])])
    (workdir / "in.conllu").write_text(text, encoding="utf-8")
    save_model(str(workdir / "m.model"), archive_model(kind))
    assert run(command, "--model", workdir / "m.model", "--input", workdir / "in.conllu",
               "--out", workdir / "out.conllu") == 0
    rows = (workdir / "out.conllu").read_bytes().decode("utf-8").split("\n")
    assert [row.split("\t")[1] for row in rows[:3]] == forms


def test_errors_after_other_line_breaks_name_their_true_line(workdir, capsys):
    row = "\t".join(["1", "a\u2028b", "_", "DET", "_", "_", "0", "root", "_", "_"])
    (workdir / "bad.conllu").write_text(f"{row}\n1\tx\n", encoding="utf-8")
    assert run("validate", "--input", workdir / "bad.conllu") == 2
    assert capsys.readouterr().err == "error: line 2: expected 10 columns, got 2\n"
    (workdir / "bad.txt").write_text("# note\u2028more\nseed = 3\nhidden\n", encoding="utf-8")
    assert run("lm-train", "--corpus", workdir / "tb.conllu", "--config", workdir / "bad.txt",
               "--out", workdir / "o") == 2
    assert capsys.readouterr().err == f"error: {workdir / 'bad.txt'}:3: expected 'key = value'\n"


def test_crlf_treebank_and_config_text_still_parse():
    text = treebank_text()
    assert parse_conllu(text.replace("\n", "\r\n")) == parse_conllu(text)
    assert parse_config_text("seed = 3\r\n# c\r\nk=1\r\n") == {"seed": "3", "k": "1"}


def test_crlf_treebank_config_and_embeddings_files_read_as_lf_files(workdir, capsys):
    lf = {"tb.conllu": treebank_text(), "cfg.txt": TINY_CONFIG,
          "emb.txt": "the 0.5 -1.0\n\ncat 2.0 0.25\n"}
    for name, text in lf.items():
        (workdir / f"crlf-{name}").write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    outputs = []
    for path in (workdir / "tb.conllu", workdir / "crlf-tb.conllu"):
        assert run("validate", "--input", path) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert load_config(str(workdir / "crlf-cfg.txt")) == load_config(str(workdir / "cfg.txt"))
    (workdir / "emb.txt").write_text(lf["emb.txt"], encoding="utf-8")
    plain, crlf = (load_embeddings(str(workdir / name)) for name in ("emb.txt", "crlf-emb.txt"))
    assert crlf.vocab == plain.vocab == {"the": 0, "cat": 1}
    assert crlf.matrix.tobytes() == plain.matrix.tobytes()


# Only \n ends a line of a text input: a lone \r stays inside its line.


def test_lexicon_match_prints_one_row_per_line_around_a_lone_cr(workdir, capsys):
    (workdir / "in.txt").write_bytes(b"wah so\rshiok lah\nlah one\n")
    (workdir / "lex.txt").write_text("lah\n", encoding="utf-8")
    assert run("lexicon-match", "--input", workdir / "in.txt", "--lexicon", workdir / "lex.txt") == 0
    assert capsys.readouterr().out == "lah\twah so shiok lah\nlah\tlah one\n"


def test_lm_train_reads_a_lone_cr_as_the_space_between_two_tokens(workdir, capsys):
    (workdir / "cr.txt").write_bytes(b"wah so\rshiok lah\n")
    (workdir / "sp.txt").write_bytes(b"wah so shiok lah\n")
    for name in ("cr", "sp"):
        assert run("lm-train", "--corpus", workdir / f"{name}.txt", "--order", 2,
                   "--out", workdir / f"{name}.lm") == 0
        assert "on 1 sentences" in capsys.readouterr().out
    assert (workdir / "cr.lm").read_bytes() == (workdir / "sp.lm").read_bytes()


def test_validate_and_tag_keep_a_form_holding_a_lone_cr(workdir):
    forms = ["a\rb", "cat", "sat"]
    text = write_conllu([make_sentence(forms, ["DET", "NOUN", "VERB"], [2, 3, 0],
                                       ["det", "nsubj", "root"])])
    (workdir / "in.conllu").write_bytes(text.encode("utf-8"))
    assert run("validate", "--input", workdir / "in.conllu") == 0
    save_model(str(workdir / "m.model"), archive_model("tagger"))
    assert run("tag", "--model", workdir / "m.model", "--input", workdir / "in.conllu",
               "--out", workdir / "out.conllu") == 0
    rows = (workdir / "out.conllu").read_bytes().decode("utf-8").split("\n")
    assert [row.split("\t")[1] for row in rows[:3]] == forms


# -- corpus selection commands ---------------------------------------------------------------


def test_lm_train_rank_and_lexicon_match(workdir, capsys):
    corpus = workdir / "corpus.txt"
    corpus.write_text("the cat sat here today\n" * 30 +
                      "a dog ran home quickly\n" * 30, encoding="utf-8")
    candidates = workdir / "cands.txt"
    candidates.write_text("\n".join([
        "the cat sat here today",
        "makan kiasu wah lao zzz",
        "too short",
        " ".join(["x"] * 60),
    ]) + "\n", encoding="utf-8")
    lexicon = workdir / "lex.txt"
    lexicon.write_text("kiasu\nwah lao\n", encoding="utf-8")

    assert run("lm-train", "--corpus", corpus, "--order", 3,
               "--out", workdir / "lm.json") == 0
    assert run("lm-rank", "--lm", workdir / "lm.json", "--input", candidates,
               "--lexicon", lexicon, "--min-len", 5, "--max-len", 50,
               "--out", workdir / "ranked.tsv") == 0
    ranked = (workdir / "ranked.tsv").read_text().strip().split("\n")
    assert len(ranked) == 2  # length filter removed two candidates
    first = ranked[0].split("\t")
    assert first[5] == "makan kiasu wah lao zzz"  # most divergent first
    assert "kiasu" in first[4] and "wah lao" in first[4]

    assert run("lexicon-match", "--input", candidates, "--lexicon", lexicon,
               "--out", workdir / "hits.tsv") == 0
    hits = (workdir / "hits.tsv").read_text().strip().split("\n")
    assert hits[1].startswith("kiasu,wah lao\t")


def test_lexicon_match_to_stdout_keeps_the_summary_off_it(workdir, capsys):
    (workdir / "cands.txt").write_text("the cat sat\nmakan kiasu lah\n", encoding="utf-8")
    (workdir / "lex.txt").write_text("kiasu\n", encoding="utf-8")
    assert run("lexicon-match", "--input", workdir / "cands.txt",
               "--lexicon", workdir / "lex.txt") == 0
    out, err = capsys.readouterr()
    assert out == "\tthe cat sat\nkiasu\tmakan kiasu lah\n"  # rows only: TSV
    assert err == "1 of 2 sentences contain lexicon terms\n"
    assert run("lexicon-match", "--input", workdir / "cands.txt",
               "--lexicon", workdir / "lex.txt", "--out", workdir / "hits.tsv") == 0
    assert capsys.readouterr() == ("1 of 2 sentences contain lexicon terms\n", "")


SELECT_WORDS = ["lah", "makan", "kiasu", "wah", "lao", "the", "cat", "sat", "naïve",
                "n3'er", '"', "<s>", "</s>", "<unk>", "shiok", "can", "one", "diam"]


def test_select_outputs_are_pinned(workdir):
    """lm-train, lm-rank --lexicon and lexicon-match on fixed inputs, the
    corpus holding literal markers, give these bytes whatever the LM file
    holds."""
    words = SELECT_WORDS
    corpus = [[words[(i * 7 + j * j * 3) % len(words)] for j in range(1 + i % 9)]
              for i in range(60)]
    candidates = [[words[(i * 5 + j * 11) % len(words)] if (i + j) % 7 else f"new{j}"
                   for j in range(2 + i % 12)] for i in range(30)]
    (workdir / "corpus.txt").write_text("".join(" ".join(s) + "\n" for s in corpus),
                                        encoding="utf-8")
    (workdir / "cands.txt").write_text("".join(" ".join(s) + "\n" for s in candidates),
                                       encoding="utf-8")
    (workdir / "lex.txt").write_text("kiasu\nWah lao\nnaïve cat\n<s>\n", encoding="utf-8")
    assert run("lm-train", "--corpus", workdir / "corpus.txt", "--order", 4,
               "--out", workdir / "lm.json") == 0
    assert run("lm-rank", "--lm", workdir / "lm.json", "--input", workdir / "cands.txt",
               "--lexicon", workdir / "lex.txt", "--min-len", 3, "--max-len", 11,
               "--out", workdir / "ranked.tsv") == 0
    assert run("lexicon-match", "--input", workdir / "cands.txt",
               "--lexicon", workdir / "lex.txt", "--out", workdir / "hits.tsv") == 0
    digests = {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
               for name in ("ranked.tsv", "hits.tsv")}
    assert digests == {
        "ranked.tsv": "646054f947ba8589f2054becfbc1d7d89b0dfd97cb6d4f17dd1f620cc5156bcb",
        "hits.tsv": "3c71a7ef05e2a498d3d5ce3e53f113b0d1ed6894c2136c4b3cf740e6114089f3",
    }


def _unpack(packed, code):
    data = base64.b64decode(packed, validate=True)
    return list(struct.unpack(f"<{len(data) // struct.calcsize(code)}{code}", data))


# a five-word model's ids fit in two bytes; counts take eight
CODES = {"ids": "H", "counts": "q"}


def _repack(payload):
    """`payload` with every list of integers under ids and counts packed."""
    if isinstance(payload, dict):
        for key, code in CODES.items():
            if type(payload.get(key)) is list:
                payload[key] = [pack(entry, code) if type(entry) is list
                                and all(type(value) is int for value in entry) else entry
                                for entry in payload[key]]
    return payload


def _two_tables(payload):
    payload["ids"], payload["counts"] = payload["ids"][:2], payload["counts"][:2]


def _negative_count(payload):
    payload["counts"][1][0] = -3


def _repeated_bigram(payload):
    payload["ids"][1][:0] = payload["ids"][1][:2]
    payload["counts"][1][:0] = payload["counts"][1][:1]


def _token_ids(payload, *words):
    tokens = sorted(set(payload["vocab"]) | {"<s>", "</s>", "<unk>"})
    return [tokens.index(word) for word in words]


def _bigram_without_bos(payload):
    payload["ids"][1] += _token_ids(payload, "cat", "sat")
    payload["counts"][1].append(5)


def _trigram_ending_in_bos(payload):
    payload["ids"][2] += _token_ids(payload, "cat", "sat", "<s>")
    payload["counts"][2].append(1)


def _id_out_of_range(payload):
    payload["ids"][2][-1] = len(payload["vocab"]) + 3  # five words and three markers


def _older_adjusted_tables(payload):
    return {"order": payload["order"], "vocab": payload["vocab"], "tables": payload["counts"]}


def _older_counts_entries(payload):
    """The layout of the lm-train that stored [n-gram, count] entries."""
    tokens = sorted(set(payload["vocab"]) | {"<s>", "</s>", "<unk>"})
    entries = [[[[tokens[i] for i in ids[n * k:(n + 1) * k]], count]
                for n, count in enumerate(counts)]
               for k, (ids, counts) in enumerate(zip(payload["ids"], payload["counts"]), start=1)]
    return {"order": payload["order"], "vocab": payload["vocab"], "counts": entries}


def _older_integer_lists(payload):
    """The layout of the lm-train that wrote ids and counts as JSON integers."""
    return json.dumps(payload)


def _set(key, order, value):
    """Order `order`'s packed `key` entry replaced by `value`."""
    def corrupt(payload):
        payload[key][order - 1] = value
    return corrupt


def _packed_as(key, order, code):
    """Order `order`'s `key` packed as struct `code` integers."""
    def corrupt(payload):
        payload[key][order - 1] = pack(payload[key][order - 1], code)
    return corrupt


OLDER = "it is from an older lm-train; run lm-train again to rewrite it"


@pytest.mark.parametrize("corrupt,message", [
    (_two_tables, "expected 3 id lists and 3 count lists"),
    (lambda payload: [payload], "expected a JSON object"),
    (_set("ids", 1, "ab=="), "order-1 ids has 1 bytes, not a whole number of 2-byte integers"),
    (_negative_count, "order-2 count -3 is not >= 1"),
    (lambda payload: {**payload, "order": True}, "order must be an integer >= 1"),
    (lambda payload: {**payload, "vocab": [["the"]]}, "vocab must be a list of strings"),
    (_repeated_bigram, "order-2 lists the n-gram ['<s>', 'the'] twice"),
    (_bigram_without_bos, "order-2 n-gram ['cat', 'sat'] does not start with <s>"),
    (_trigram_ending_in_bos, "order-3 n-gram ['cat', 'sat', '<s>'] ends with <s>"),
    (_older_adjusted_tables, OLDER),
    (_older_counts_entries, OLDER),
    (_older_integer_lists, OLDER),
    (_id_out_of_range, "order-3 id 8 is not the index of one of 8 tokens"),
    (_set("counts", 3, True), "order-3 counts must be a base64 string, got bool"),
    (_set("counts", 3, 1.5), "order-3 counts must be a base64 string, got float"),
    (_set("ids", 2, "3"), "order-2 ids is not valid base64: Invalid base64-encoded string"),
    (_set("ids", 2, "AQADé"), "order-2 ids is not valid base64: string argument should "
                              "contain only ASCII characters"),
    (_packed_as("ids", 3, "I"), "order-3 holds 36 ids for 6 counts"),
    (_packed_as("counts", 2, "i"), "order-2 counts has 4 bytes, not a whole number of "
                                  "8-byte integers"),
    (lambda payload: "[" * 200_000 + "]" * 200_000, "its JSON nests too deeply"),
], ids=["too-few-tables", "top-level-list", "unigram-string", "negative-count",
        "bool-order", "nested-vocab", "repeated-bigram", "bigram-without-bos",
        "trigram-ending-in-bos", "older-adjusted-tables", "older-counts-entries",
        "older-integer-lists", "id-out-of-range", "bool-count", "float-count", "string-id",
        "non-ascii-ids", "over-long-id", "over-long-count", "deeply-nested"])
def test_malformed_lm_file_is_one_error_line(workdir, capsys, corrupt, message):
    corpus = workdir / "corpus.txt"
    corpus.write_text("the cat sat here today\n" * 5, encoding="utf-8")
    lm = workdir / "lm.json"
    assert run("lm-train", "--corpus", corpus, "--order", 3, "--out", lm) == 0
    payload = json.loads(lm.read_text(encoding="utf-8"))
    for key, code in CODES.items():
        payload[key] = [_unpack(entry, code) for entry in payload[key]]
    payload = corrupt(payload) or payload
    lm.write_text(payload if type(payload) is str else json.dumps(_repack(payload)),
                  encoding="utf-8")
    capsys.readouterr()
    assert run("lm-rank", "--lm", lm, "--input", corpus, "--out", workdir / "ranked.tsv") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {lm}: not a language model file: ")
    assert message in captured.err and captured.err.count("\n") == 1
    assert not (workdir / "ranked.tsv").exists()


def test_a_non_utf8_lm_file_names_its_path_once(workdir, capsys):
    lm = workdir / "lm.json"
    lm.write_bytes(b'{"order":1,"vocab":["caf\xe9"]}')
    assert run("lm-rank", "--lm", lm, "--input", lm, "--out", workdir / "ranked.tsv") == 2
    assert capsys.readouterr().err == (f"error: {lm}: 'utf-8' codec can't decode byte 0xe9 "
                                       "in position 24: invalid continuation byte\n")


@pytest.mark.parametrize("command,flags,message", [
    ("lm-train", ["--order", 0], "lm_order must be >= 1"),
    ("lm-rank", ["--min-len", 10, "--max-len", 5], "length_max must be >= length_min"),
    ("lm-rank", ["--min-len", -3], "length_min must be >= 1"),
    ("eval", ["--include-punct", "flase"], "include_punct: expected a boolean"),
])
def test_bad_flag_values_are_checked_like_config_values(workdir, capsys, command, flags,
                                                        message):
    corpus = workdir / "corpus.txt"
    corpus.write_text("the cat sat here today\n" * 5, encoding="utf-8")
    assert run("lm-train", "--corpus", corpus, "--order", 2,
               "--out", workdir / "lm.json") == 0
    capsys.readouterr()
    inputs = {
        "lm-train": ["--corpus", corpus, "--out", workdir / "lm2.json"],
        "lm-rank": ["--lm", workdir / "lm.json", "--input", corpus,
                    "--out", workdir / "ranked.tsv"],
        "eval": ["--gold", workdir / "tb.conllu", "--pred", workdir / "tb.conllu"],
    }
    assert run(command, *inputs[command], *flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("flags,message", [
    (["--order", "abc"], "error: argument --order: invalid int value: 'abc'"),
    (["--seed", "x"], "error: argument --seed: invalid int value: 'x'"),
])
def test_unparseable_flag_values_give_one_error_line(workdir, capsys, flags, message):
    corpus = workdir / "corpus.txt"
    corpus.write_text("the cat sat here today\n", encoding="utf-8")
    command = {"--order": ["lm-train", "--corpus", corpus],  # a command that reads the flag
               "--seed": ["train-tagger", "--train", workdir / "tb.conllu"]}[flags[0]]
    with pytest.raises(SystemExit) as exit_info:
        run(*command, "--out", workdir / "out", *flags)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("argv", [
    ["tag", "--model", "{w}/t.model", "--input", "{w}/tb.conllu", "--out", "{w}/x.conllu"],
    ["iaa", "--a", "{w}/tb.conllu", "--b", "{w}/tb.conllu"],
    ["lexicon-match", "--input", "{w}/tb.conllu", "--lexicon", "{w}/tb.conllu"],
    ["validate", "--input", "{w}/tb.conllu"],
    ["parse", "--model", "{w}/p.model", "--input", "{w}/tb.conllu", "--out", "{w}/x.conllu"],
    ["eval", "--gold", "{w}/tb.conllu", "--pred", "{w}/tb.conllu"],
    ["lm-train", "--corpus", "{w}/tb.conllu", "--out", "{w}/lm.json"],
    ["lm-rank", "--lm", "{w}/lm.json", "--input", "{w}/tb.conllu", "--out", "{w}/r.tsv"],
], ids=lambda argv: argv[0])
def test_commands_that_draw_nothing_take_no_seed(workdir, capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        run(*[a.format(w=workdir) for a in argv], "--seed", 1)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unrecognized arguments: --seed 1\n"


def test_iaa_command(workdir, capsys):
    assert run("iaa", "--a", workdir / "tb.conllu", "--b", workdir / "tb.conllu") == 0
    out = capsys.readouterr().out
    assert "TagAcc   100.00" in out


def test_jackknife_command(workdir, capsys):
    assert run("jackknife", "--train", workdir / "tb.conllu", "--k", 3,
               "--out", workdir / "jack.conllu", "--config", workdir / "cfg.txt") == 0
    tagged = parse_conllu((workdir / "jack.conllu").read_text())
    assert len(tagged) == 3
    assert all(len(s.upos) == 3 for s in tagged)


def test_crossfold_command(workdir, capsys):
    (workdir / "bigger.conllu").write_text(treebank_text() * 2, encoding="utf-8")
    assert run("crossfold", "--treebank", workdir / "bigger.conllu", "--folds", 2,
               "--config", workdir / "cfg.txt", "--out", workdir / "folds.tsv") == 0
    out = capsys.readouterr().out
    assert "mean" in out
    assert (workdir / "folds.tsv").read_text().startswith("fold\tuas\tlas")


def test_crossfold_without_test_sentences_is_a_diagnostic(workdir, capsys):
    assert run("crossfold", "--treebank", workdir / "tb.conllu", "--folds", 3,
               "--config", workdir / "cfg.txt") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fold 1 of 3 has no test sentences") and err.count("\n") == 1


def test_non_finite_embeddings_are_a_diagnostic(workdir, capsys):
    (workdir / "vec.txt").write_text("the 0.5 1.0\ncat nan 2.0\n", encoding="utf-8")
    assert run("train-tagger", "--train", workdir / "tb.conllu", "--embeddings",
               workdir / "vec.txt", "--config", workdir / "cfg.txt",
               "--out", workdir / "t.model") == 2
    err = capsys.readouterr().err
    assert err == f"error: {workdir / 'vec.txt'}:2: non-finite embedding value\n"
    assert not (workdir / "t.model").exists()


def test_numerical_failure_in_training_is_a_diagnostic(workdir, capsys, monkeypatch):
    # A table the loader would reject, so the failure comes from the model.
    table = PretrainedEmbeddings({"cat": 0}, np.array([[np.nan, 1.0]]))
    monkeypatch.setattr("stackparse.cli.load_embeddings", lambda path: table)
    assert run("train-tagger", "--train", workdir / "tb.conllu", "--embeddings", "x",
               "--config", workdir / "cfg.txt", "--out", workdir / "t.model") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure: epoch 1, training example ")
    assert err.endswith(" holds NaN or Inf values\n") and err.count("\n") == 1


def two_cycle_scores(n):
    """Arc scores where tokens 2k+1 and 2k+2 pick each other: n/2 disjoint
    2-cycles, which Chu-Liu/Edmonds contracts one recursion level apiece."""
    scores = np.zeros((n + 1, n + 1))
    a, b = np.arange(1, n + 1, 2), np.arange(2, n + 1, 2)
    scores[a, b] = scores[b, a] = 1.0
    np.fill_diagonal(scores, -np.inf)
    return scores


def test_too_deep_a_recursion_is_one_error_line(workdir, capsys, monkeypatch):
    save_model(str(workdir / "p.model"), archive_model("parser"))
    sentence = make_sentence(["cat"] * 200)
    (workdir / "long.conllu").write_text(write_conllu([sentence]), encoding="utf-8")
    monkeypatch.setattr(parser_module, "_masked_scores",
                        lambda fw: two_cycle_scores(fw.arc_scores.shape[0] - 1))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 80)  # fewer levels than the 100 cycles
    try:
        code = run("parse", "--decoder", "mst", "--model", workdir / "p.model",
                   "--input", workdir / "long.conllu", "--out", workdir / "out.conllu")
    finally:
        sys.setrecursionlimit(limit)
    assert code == 2
    assert capsys.readouterr().err == "error: input too large: RecursionError\n"
    assert not (workdir / "out.conllu").exists()


def test_running_out_of_memory_is_one_error_line(workdir, capsys, monkeypatch):
    save_model(str(workdir / "p.model"), archive_model("parser"))

    def out_of_memory(model, batch):
        raise MemoryError

    monkeypatch.setattr(parser_module.ParserModel, "forward_batch", out_of_memory)
    assert run("parse", "--model", workdir / "p.model", "--input", workdir / "tb.conllu",
               "--out", workdir / "out.conllu") == 2
    assert capsys.readouterr().err == "error: input too large: MemoryError\n"


def test_deterministic_pipeline_same_seed(workdir):
    for name in ("r1", "r2"):
        run("train-parser", "--train", workdir / "tb.conllu", "--out",
            workdir / f"{name}.model", "--config", workdir / "cfg.txt", "--seed", 9)
        run("parse", "--model", workdir / f"{name}.model",
            "--input", workdir / "tb.conllu", "--out", workdir / f"{name}.conllu")
    assert (workdir / "r1.conllu").read_text() == (workdir / "r2.conllu").read_text()


def test_effective_config_snapshot_reproduces_the_run(workdir):
    run("train-parser", "--train", workdir / "tb.conllu", "--out",
        workdir / "orig.model", "--config", workdir / "cfg.txt", "--seed", 6)
    # the snapshot must parse as-is and rebuild the identical model
    snapshot = workdir / "orig.model.config"
    assert "# command = train-parser" in snapshot.read_text()
    run("train-parser", "--train", workdir / "tb.conllu", "--out",
        workdir / "again.model", "--config", snapshot)
    a = load_model(str(workdir / "orig.model"))
    b = load_model(str(workdir / "again.model"))
    for name, tensor in a.parameters().items():
        assert np.array_equal(tensor.data, b.parameters()[name].data), name


def test_training_runs_one_blas_thread_in_an_unset_environment(tmp_path):
    """With no BLAS thread variable set, train-tagger pins OpenBLAS to one
    thread: its snapshot says so, and its archive holds the bytes of one
    trained with OPENBLAS_NUM_THREADS=1."""
    if cli._blas()["blas"] == "unknown":
        pytest.skip("numpy's bundled OpenBLAS was not found")
    (tmp_path / "tb.conllu").write_text(treebank_text(), encoding="utf-8")
    config = RunConfig.desk_scale().updated({"epochs": "2"})
    (tmp_path / "cfg.txt").write_text(config.to_text(), encoding="utf-8")
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(stackparse.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    members = {}
    for name, extra in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        subprocess.run([sys.executable, "-m", "stackparse.cli", "train-tagger",
                        "--train", str(tmp_path / "tb.conllu"), "--config", str(tmp_path / "cfg.txt"),
                        "--out", str(tmp_path / name)], env={**env, **extra}, check=True,
                       capture_output=True, timeout=300)
        with zipfile.ZipFile(tmp_path / name) as archive:
            members[name] = {member: archive.read(member) for member in archive.namelist()}
        assert "# blas_threads = 1\n" in (tmp_path / f"{name}.config").read_text(encoding="utf-8")
    assert members["unset"] == members["one"]


class _FakeFunction:
    def __init__(self, calls, name, result):
        self.calls, self.name, self.result = calls, name, result

    def __call__(self, *args):
        self.calls.append((self.name, *args))
        return self.result


@pytest.mark.parametrize("where, prefix, suffix", [
    ("numpy.libs", "scipy_openblas_", "64_"),  # numpy >= 2, Linux and Windows
    ("numpy.libs", "openblas_", "64_"),        # numpy 1.x, Linux
    ("numpy/.dylibs", "openblas_", "64_"),     # numpy 1.x, macOS
    ("numpy/.libs", "openblas_", ""),          # a 32-bit-integer build
])
def test_blas_is_found_in_each_wheel_layout(monkeypatch, capsys, where, prefix, suffix):
    calls = []
    lib = type("Lib", (), {})()
    for name, result in (("get_num_threads", 1), ("set_num_threads", None),
                         ("get_config", b"OpenBLAS 0.3.21")):
        setattr(lib, f"{prefix}{name}{suffix}", _FakeFunction(calls, name, result))
    monkeypatch.setattr(cli.glob, "glob", lambda pattern: (
        [pattern.replace("*openblas*", "libopenblas.so")] if where + os.sep in pattern else []))
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: lib)
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(variable, raising=False)
    assert cli._blas.__wrapped__() == {"blas": "OpenBLAS 0.3.21", "blas_threads": 1}
    assert ("set_num_threads", 1) in calls and capsys.readouterr().err == ""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    calls.clear()
    cli._blas.__wrapped__()
    assert [call[0] for call in calls] == ["get_config", "get_num_threads"]


def test_a_blas_that_cannot_be_found_is_one_warning(monkeypatch, capsys):
    monkeypatch.setattr(cli.glob, "glob", lambda pattern: [])
    assert cli._blas.__wrapped__() == {"blas": "unknown", "blas_threads": "unknown"}
    assert capsys.readouterr().err == (
        "warning: cannot set the BLAS thread count; it keeps its own\n")
