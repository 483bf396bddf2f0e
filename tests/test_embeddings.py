from __future__ import annotations

import numpy as np
import pytest

from stackparse.cli import main
from stackparse.embeddings import PretrainedEmbeddings, load_embeddings
from stackparse.modelio import load_model
from stackparse.tagger import tag
from stackparse.treebank import parse_conllu, write_conllu
from util import make_sentence, write_embeddings


def test_load_infers_dimension_and_order(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("the 0.5 -1.25 3.0\ncat 1.0 2.0 0.125\n", encoding="utf-8")
    emb = load_embeddings(str(path))
    assert emb.dim == 3
    assert np.array_equal(emb.lookup("the"), [0.5, -1.25, 3.0])
    assert np.array_equal(emb.lookup("cat"), [1.0, 2.0, 0.125])


def test_lookup_lowercase_fallback_then_zeros(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("the 1.0 2.0\n", encoding="utf-8")
    emb = load_embeddings(str(path))
    assert np.array_equal(emb.lookup("The"), [1.0, 2.0])
    assert np.array_equal(emb.lookup("missing"), [0.0, 0.0])


def test_inconsistent_dimension_is_an_error(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("a 1.0 2.0\nb 3.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 2 values"):
        load_embeddings(str(path))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_values_are_an_error_naming_the_line(tmp_path, value):
    path = tmp_path / "vec.txt"
    path.write_text(f"a 1.0 2.0\nb 3.0 {value}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"vec.txt:2: non-finite embedding value"):
        load_embeddings(str(path))


@pytest.mark.parametrize("text, message", [
    ("a 1 2\na x nan\n", r"vec.txt:2: could not convert string to float: 'x'"),
    ("a 1 2\na 3 nan\n", r"vec.txt:2: non-finite embedding value"),
    ("a 1 2\nb 1 x\n", r"vec.txt:2: could not convert string to float: 'x'"),
])
def test_every_line_is_checked_before_duplicates_are_dropped(tmp_path, text, message):
    path = tmp_path / "vec.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_embeddings(str(path))


def test_first_occurrence_of_a_repeated_token_is_kept(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("a 1 2\nb 3 4\na 5 6\n", encoding="utf-8")
    emb = load_embeddings(str(path))
    assert emb.vocab == {"a": 0, "b": 1}
    assert np.array_equal(emb.lookup("a"), [1.0, 2.0])


def test_write_then_load_round_trip(tmp_path):
    vocab = {"kiasu": 0, "makan": 1}
    matrix = np.array([[0.1, -0.2], [12.5, 1e-3]])
    path = tmp_path / "vec.txt"
    write_embeddings(str(path), vocab, matrix)
    emb = load_embeddings(str(path))
    assert np.array_equal(emb.matrix, matrix)
    assert emb.vocab == vocab


def test_empty_file_gives_empty_table(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("", encoding="utf-8")
    emb = load_embeddings(str(path))
    assert emb.dim == 0
    assert emb.lookup("anything").shape == (0,)


def test_training_with_pretrained_embeddings_through_cli(tmp_path, tiny_cfg):
    sentences = [make_sentence(["the", "cat", "sat"], ["DET", "NOUN", "VERB"],
                               [2, 3, 0], ["det", "nsubj", "root"])]
    (tmp_path / "tb.conllu").write_text(write_conllu(sentences), encoding="utf-8")
    rng = np.random.default_rng(0)
    vocab = {w: i for i, w in enumerate(["the", "cat", "sat", "dog"])}
    write_embeddings(str(tmp_path / "vec.txt"), vocab, rng.standard_normal((4, 5)))
    (tmp_path / "cfg.txt").write_text(tiny_cfg.updated({"epochs": "6"}).to_text(),
                                      encoding="utf-8")
    assert main(["train-tagger", "--train", str(tmp_path / "tb.conllu"),
                 "--dev", str(tmp_path / "tb.conllu"),
                 "--embeddings", str(tmp_path / "vec.txt"),
                 "--out", str(tmp_path / "t.model"),
                 "--config", str(tmp_path / "cfg.txt")]) == 0
    model = load_model(str(tmp_path / "t.model"))
    assert model.pretrained.dim == 5
    # per-token vector = pretrained + trainable + char attention
    assert model.per_token_dim == 5 + model.word_dim + model.char_dim
    result = tag(model, sentences[0])
    assert result.tags == ("DET", "NOUN", "VERB")

    assert main(["train-parser", "--train", str(tmp_path / "tb.conllu"),
                 "--dev", str(tmp_path / "tb.conllu"),
                 "--embeddings", str(tmp_path / "vec.txt"),
                 "--out", str(tmp_path / "p.model"),
                 "--config", str(tmp_path / "cfg.txt")]) == 0
    parser = load_model(str(tmp_path / "p.model"))
    assert parser.pretrained.dim == 5
    assert parser.input_dim == 5 + parser.word_dim + parser.tag_dim
