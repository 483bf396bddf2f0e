"""Every input reader survives mutated input.

Each case takes one valid input of the command line, changes it by a
byte edit or by inserting, duplicating, deleting or swapping lines, and
runs the command on it.  The command must exit 0 or 1, or exit 2 with
exactly one `error:` line on stderr, and no exception may escape `main`.  The
inputs are the CoNLL-U files of seven commands, a config file, an
embeddings file, an LM file, a corpus, the candidates to rank, a
lexicon and every text member of the four kinds of model archive.  The examples are derandomized and
few, so the whole file runs in seconds.
"""

from __future__ import annotations

import contextlib
import io
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stackparse.cli import main
from stackparse.embeddings import PretrainedEmbeddings
from stackparse.modelio import save_model
from stackparse.parser import ParserModel
from stackparse.stacking import StackedParser, StackedTagger
from stackparse.tagger import TaggerModel
from stackparse.treebank import write_conllu
from util import make_sentence

CONFIG = """\
epochs = 1
hidden = 4
layers = 1
word_dim = 3
char_dim = 2
att_dim = 2
dropout = 0.0
parser_word_dim = 3
tag_dim = 2
parser_hidden = 4
parser_layers = 1
d_arc = 3
d_rel = 2
parser_dropout = 0.0
stack_hidden = 4
stack_layers = 1
"""
WORDS = ["the", "cat", "sat", "a", "dog", "ran"]
TAGS, RELS = ["DET", "NOUN", "VERB"], ["det", "nsubj", "root"]
RUNS = settings(max_examples=6, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])


def _treebank() -> str:
    return write_conllu([make_sentence(words, TAGS, [2, 3, 0], RELS)
                         for words in (WORDS[:3], WORDS[3:], ["the", "dog", "sat"])])


def _save_archives(work: Path) -> None:
    """One small seeded archive of each kind, with pretrained tables."""
    rng = np.random.default_rng(3)
    vocab = {w: i for i, w in enumerate(WORDS)}
    pretrained = PretrainedEmbeddings(vocab, rng.normal(size=(len(WORDS), 3)))
    chars = {c: i for i, c in enumerate(sorted(set("".join(WORDS))))}
    tagger = dict(pretrained=pretrained, word_dim=3, char_dim=2, att_dim=2, hidden=4, rng=rng)
    parser = dict(pretrained=pretrained, word_dim=3, tag_dim=2, hidden=4, layers=1, rng=rng)
    base_tagger = TaggerModel(TAGS, vocab, chars, **tagger)
    base_parser = ParserModel(RELS, TAGS, vocab, d_arc=3, d_rel=2, **parser)
    models = {
        "tagger": base_tagger,
        "parser": base_parser,
        "stacked-tagger": StackedTagger(
            base_tagger, TaggerModel(TAGS, vocab, chars, extra_input_dim=3, **tagger)),
        "stacked-parser": StackedParser(base_parser, RELS, TAGS, vocab, **parser),
    }
    for kind, model in models.items():
        save_model(str(work / kind), model)


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    work = tmp_path_factory.mktemp("mutation")
    files = {
        "tb.conllu": _treebank(),
        "cfg.txt": CONFIG,
        "vectors.txt": "".join(f"{w} {i * 0.1:.1f} -0.5 1.0\n" for i, w in enumerate(WORDS)),
        "corpus.txt": "the cat sat here today\n" * 4 + "a dog ran home quickly\n" * 4,
        "cands.txt": "the cat sat here today\nmakan kiasu wah lao zzz\ntoo short\n",
        "lex.txt": "kiasu\nwah lao\n",
    }
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")
    assert _run(["lm-train", "--corpus", work / "corpus.txt", "--order", 3,
                 "--out", work / "lm.json"])[0] == 0
    _save_archives(work)
    return work


def _run(argv) -> tuple[int, str]:
    """main's exit code and stderr; an exception escaping main fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def _assert_handled(code: int, err: str) -> None:
    assert code in (0, 1, 2), code
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """`data` with one byte replaced, inserted or deleted, a new line of
    drawn text inserted, or one line duplicated, deleted or swapped with
    another."""
    lines = data.split(b"\n")
    kind = draw(st.sampled_from(["replace", "insert", "delete", "line", "repeat", "drop",
                                 "swap"]))
    if kind in ("replace", "insert", "delete"):
        at = draw(st.integers(0, max(0, len(data) - 1)))
        byte = bytes([draw(st.integers(0, 255))])
        cut = at + (kind != "insert")
        return data[:at] + (b"" if kind == "delete" else byte) + data[cut:]
    if kind == "line":
        text = draw(st.text(st.characters(codec="utf-8", exclude_characters="\n"), max_size=8))
        lines.insert(draw(st.integers(0, len(lines))), text.encode("utf-8"))
        return b"\n".join(lines)
    i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
    if kind == "repeat":
        lines.insert(j, lines[i])
    elif kind == "drop":
        del lines[i]
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return b"\n".join(lines)


# (input file, argv with {input} standing for the mutated copy)
READERS = {
    "tag": ("tb.conllu", ["tag", "--model", "tagger", "--input", "{input}", "--out", "out"]),
    "parse": ("tb.conllu", ["parse", "--model", "parser", "--input", "{input}", "--out", "out"]),
    "eval": ("tb.conllu", ["eval", "--gold", "tb.conllu", "--pred", "{input}"]),
    "iaa": ("tb.conllu", ["iaa", "--a", "{input}", "--b", "tb.conllu"]),
    "validate": ("tb.conllu", ["validate", "--input", "{input}"]),
    "train-tagger": ("tb.conllu", ["train-tagger", "--train", "{input}", "--config", "cfg.txt",
                                   "--out", "out"]),
    "train-parser": ("tb.conllu", ["train-parser", "--train", "tb.conllu", "--dev", "{input}",
                                   "--config", "cfg.txt", "--out", "out"]),
    "config": ("cfg.txt", ["train-parser", "--train", "tb.conllu", "--config", "{input}",
                           "--out", "out"]),
    "embeddings": ("vectors.txt", ["train-tagger", "--train", "tb.conllu", "--config", "cfg.txt",
                                   "--embeddings", "{input}", "--out", "out"]),
    "lm": ("lm.json", ["lm-rank", "--lm", "{input}", "--input", "cands.txt", "--lexicon",
                       "lex.txt", "--out", "out"]),
    "corpus": ("corpus.txt", ["lm-train", "--corpus", "{input}", "--order", "3", "--out", "out"]),
    "candidates": ("cands.txt", ["lm-rank", "--lm", "lm.json", "--input", "{input}",
                                 "--out", "out"]),
    "lexicon": ("lex.txt", ["lexicon-match", "--input", "cands.txt", "--lexicon", "{input}"]),
}


# Names in an argv that stand for files in the work directory.
FILES = {"tb.conllu", "cfg.txt", "vectors.txt", "corpus.txt", "cands.txt", "lex.txt", "lm.json",
         "out", "tagger", "parser", "stacked-tagger", "stacked-parser"}
USES = {"tagger": "tag", "stacked-tagger": "tag", "parser": "parse", "stacked-parser": "parse"}


@pytest.mark.parametrize("reader", READERS)
def test_a_mutated_input_file_is_handled(work, reader):
    name, argv = READERS[reader]
    original = (work / name).read_bytes()

    @RUNS
    @given(mutations(original))
    def check(data):
        (work / "mutated").write_bytes(data)
        args = [work / "mutated" if a == "{input}" else a for a in argv]
        _assert_handled(*_run([work / a if a in FILES else a for a in args]))

    check()


ARCHIVE_MEMBERS = [
    (kind, member) for kind, members in {
        "tagger": ["meta.txt", "manifest.txt", "tags.txt", "words.txt", "chars.txt",
                   "pretrained_vocab.txt"],
        "parser": ["meta.txt", "manifest.txt", "rels.txt", "tags.txt", "words.txt",
                   "pretrained_vocab.txt"],
        "stacked-tagger": ["meta.txt", "manifest.txt"] + [
            f"{side}/{m}" for side in ("base", "target")
            for m in ("tags.txt", "words.txt", "chars.txt", "pretrained_vocab.txt")],
        "stacked-parser": ["meta.txt", "manifest.txt"] + [
            f"{side}{m}" for side in ("base/", "target/")
            for m in ("rels.txt", "tags.txt", "words.txt", "pretrained_vocab.txt")],
    }.items() for member in members
]


def test_every_archive_text_member_is_mutated(work):
    """The cases below cover each text member of each archive kind."""
    for kind in USES:
        with zipfile.ZipFile(work / kind) as archive:
            members = [name for name in archive.namelist() if name.endswith(".txt")]
        assert sorted(members) == sorted(m for k, m in ARCHIVE_MEMBERS if k == kind)


@pytest.mark.parametrize("kind,member", ARCHIVE_MEMBERS)
def test_a_mutated_archive_member_is_handled(work, kind, member):
    with zipfile.ZipFile(work / kind) as archive:
        original = archive.read(member)

    @RUNS
    @given(mutations(original))
    def check(data):
        with zipfile.ZipFile(work / kind) as source, \
                zipfile.ZipFile(work / "mutated", "w") as target:
            for info in source.infolist():
                target.writestr(info, data if info.filename == member else source.read(info))
        _assert_handled(*_run([USES[kind], "--model", work / "mutated",
                               "--input", work / "tb.conllu", "--out", work / "out"]))

    check()
