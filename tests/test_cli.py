from __future__ import annotations

import importlib.util
import json
import tracemalloc
import zipfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from stackparse.cli import main
from stackparse.config import RunConfig, load_config, parse_config_text
from stackparse.embeddings import PretrainedEmbeddings
from stackparse.modelio import load_model, save_model
from stackparse.parser import ParserModel
from stackparse.parser import parse as parse_model_fn
from stackparse.stacking import StackedParser, StackedTagger, train_stacked_parser
from stackparse.tagger import TaggerModel
from stackparse.tagger import tag as tag_fn
from stackparse.treebank import parse_conllu, write_conllu
from util import make_sentence

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
    assert [key for key, _ in comments] == ["command", "best_epoch", score]
    values = dict(comments)
    assert values["command"] == command and 1 <= int(values["best_epoch"]) <= 8
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
    # A tagger method that copied the body of tagger.tag, or a parse path
    # that bypassed parser.parse, would zero their per-layer spans.
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
        calls[kind] = (names["tagger.tag"], names["stacking.tag"], names["parser.parse"])
    # three sentences each; a stacked tagger tags through its own span
    assert calls == {"tagger": (3, 0, 0), "stacked-tagger": (0, 3, 0),
                     "parser": (0, 0, 3), "stacked-parser": (0, 0, 3)}


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
        params = model.all_parameters()
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


def test_corrupt_params_bin_fails_its_crc_check(workdir, capsys):
    path = workdir / "flipped.model"
    save_model(str(path), archive_model("parser"))
    data = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo("params.bin")
    header = info.header_offset  # local header: 30 bytes, then name and extra field
    start = header + 30 + int.from_bytes(data[header + 26:header + 28], "little") \
        + int.from_bytes(data[header + 28:header + 30], "little")
    data[start + info.file_size // 2] ^= 0x10
    path.write_bytes(bytes(data))
    assert run("parse", "--model", path, "--input", workdir / "tb.conllu",
               "--out", workdir / "x.conllu") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Bad CRC-32" in err and err.count("\n") == 1, err


def test_load_holds_the_parameters_about_once(tmp_path):
    """The blob is read straight into the model's arrays, not held next to them."""
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


def _two_tables(payload):
    payload["tables"] = payload["tables"][:2]


def _unigram_as_string(payload):
    payload["tables"][0][0][0] = "ab"


def _negative_count(payload):
    payload["tables"][1][0][1] = -3


def _repeated_bigram(payload):
    payload["tables"][1].append(payload["tables"][1][0])


@pytest.mark.parametrize("corrupt,message", [
    (_two_tables, "expected 3 n-gram tables, got 2"),
    (lambda payload: [payload], "expected a JSON object"),
    (_unigram_as_string, "order-1 n-gram must be a list of 1 strings, got 'ab'"),
    (_negative_count, "must be a positive integer, got -3"),
    (lambda payload: {**payload, "order": True}, "order must be an integer >= 1"),
    (lambda payload: {**payload, "vocab": [["the"]]}, "vocab must be a list of strings"),
    (_repeated_bigram, "order-2 table lists an n-gram twice"),
], ids=["too-few-tables", "top-level-list", "unigram-string", "negative-count",
        "bool-order", "nested-vocab", "repeated-bigram"])
def test_malformed_lm_file_is_one_error_line(workdir, capsys, corrupt, message):
    corpus = workdir / "corpus.txt"
    corpus.write_text("the cat sat here today\n" * 5, encoding="utf-8")
    lm = workdir / "lm.json"
    assert run("lm-train", "--corpus", corpus, "--order", 3, "--out", lm) == 0
    payload = json.loads(lm.read_text(encoding="utf-8"))
    payload = corrupt(payload) or payload
    lm.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert run("lm-rank", "--lm", lm, "--input", corpus, "--out", workdir / "ranked.tsv") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {lm}: not a language model file: ")
    assert message in captured.err and captured.err.count("\n") == 1
    assert not (workdir / "ranked.tsv").exists()


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
    with pytest.raises(SystemExit) as exit_info:
        run("lm-train", "--corpus", corpus, "--out", workdir / "lm.json", *flags)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"
    assert not (workdir / "lm.json").exists()


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
    assert err.startswith("error: numerical failure: ") and err.count("\n") == 1


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
