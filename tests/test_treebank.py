from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackparse.evaluation import make_folds
from stackparse.treebank import (
    ConlluError,
    LabelInventory,
    Sentence,
    Token,
    is_tree,
    parse_conllu,
    shuffled_indices,
    validate,
    write_conllu,
)
from util import make_sentence, random_tree_sentence, split_corpus


def line(index, form, upos, head, deprel):
    return "\t".join([str(index), form, "_", upos, "_", "_", str(head), deprel, "_", "_"])


# -- tokens and sentences -------------------------------------------------------


def test_token_invariants():
    with pytest.raises(ValueError):
        Token(0, "x", "NOUN", 1, "dep")
    with pytest.raises(ValueError):
        Token(1, "x", "NOUN", -1, "dep")
    with pytest.raises(ValueError):
        Token(2, "x", "NOUN", 2, "dep")  # self-loop
    with pytest.raises(ValueError):
        Token(1, "", "NOUN", 0, "root")


def test_label_inventory():
    inv = LabelInventory.ud_english()
    assert len(inv.pos_tags) == 17
    assert "root" in inv.deprels and "discourse" in inv.deprels
    with pytest.raises(ValueError):
        LabelInventory(frozenset({"NOUN"}), frozenset())


# -- parsing -------------------------------------------------------------------


def test_parse_empty_string_gives_empty_list():
    assert parse_conllu("") == []


def test_parse_minimal_two_token_sentence():
    text = "\n".join([line(1, "I", "PRON", 2, "nsubj"),
                      line(2, "go", "VERB", 0, "root")]) + "\n"
    sentences = parse_conllu(text)
    assert len(sentences) == 1
    sentence = sentences[0]
    assert sentence.forms == ("I", "go")
    assert sentence.heads == (2, 0)
    assert sentence.tokens[1].deprel == "root"


def test_parse_head_out_of_range_names_line():
    text = "\n".join([line(1, "a", "DET", 5, "det"),
                      line(2, "b", "NOUN", 0, "root"),
                      line(3, "c", "VERB", 2, "dep")]) + "\n"
    with pytest.raises(ConlluError) as exc:
        parse_conllu(text)
    assert exc.value.line_number == 1
    assert "out of range" in str(exc.value)


def test_parse_malformed_fields_name_lines():
    with pytest.raises(ConlluError, match="line 1.*HEAD"):
        parse_conllu(line(1, "a", "DET", 0, "det").replace("\t0\t", "\tx\t"))
    with pytest.raises(ConlluError, match="line 2"):
        parse_conllu(line(1, "a", "DET", 0, "root") + "\nbad line with no tabs\n")
    with pytest.raises(ConlluError, match="token ID"):
        parse_conllu(line(3, "a", "DET", 0, "root"))


def test_parse_skips_ranges_empty_nodes_and_comments():
    text = "\n".join([
        "# sent_id = 1",
        "1-2\tdunno\t_\t_\t_\t_\t_\t_\t_\t_",
        line(1, "du", "VERB", 0, "root"),
        line(2, "nno", "PART", 1, "neg"),
        "2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_",
    ]) + "\n"
    sentence = parse_conllu(text)[0]
    assert sentence.forms == ("du", "nno")


def test_parse_categories_comment():
    text = "# categories = Copula Deletion, Discourse Particles\n" + \
        line(1, "shiok", "ADJ", 0, "root") + "\n"
    sentence = parse_conllu(text)[0]
    assert sentence.categories == {"Copula Deletion", "Discourse Particles"}


# -- writing / round trip ----------------------------------------------------------


def test_write_empty_list_gives_empty_string():
    assert write_conllu([]) == ""


def test_write_categories_comment_round_trips():
    sentence = make_sentence(["shiok"], ["ADJ"], [0], ["root"],
                             categories=("Copula Deletion",))
    text = write_conllu([sentence])
    assert "# categories = Copula Deletion" in text
    assert parse_conllu(text)[0].categories == {"Copula Deletion"}


def test_round_trip_identity_on_random_trees():
    rng = np.random.default_rng(0)
    sentences = [random_tree_sentence(rng, int(rng.integers(1, 9))) for _ in range(50)]
    parsed = parse_conllu(write_conllu(sentences))
    assert parsed == sentences


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**31))
def test_round_trip_identity_property(n, seed):
    sentence = random_tree_sentence(np.random.default_rng(seed), n)
    assert parse_conllu(write_conllu([sentence])) == [sentence]


def test_unpopulated_columns_are_underscores():
    text = write_conllu([make_sentence(["hi"], ["INTJ"], [0], ["root"])])
    cols = text.strip().split("\t")
    assert cols[2] == "_" and cols[4] == "_" and cols[5] == "_" and cols[8] == "_"


def test_forms_with_internal_spaces_round_trip():
    sentence = make_sentence(["New York", "rocks"], ["PROPN", "VERB"],
                             [2, 0], ["nsubj", "root"])
    assert parse_conllu(write_conllu([sentence])) == [sentence]


# -- validation ----------------------------------------------------------------


@pytest.fixture
def inventory():
    return LabelInventory.ud_english()


def test_validate_well_formed_tree_is_clean(inventory):
    sentence = make_sentence(["I", "go", "home"], ["PRON", "VERB", "NOUN"],
                             [2, 0, 2], ["nsubj", "root", "dobj"])
    assert validate(sentence, inventory) == []


def test_validate_two_cycle_reported_once(inventory):
    sentence = Sentence((Token(1, "a", "NOUN", 2, "dep"),
                         Token(2, "b", "NOUN", 1, "dep"),
                         Token(3, "c", "VERB", 0, "root")))
    kinds = [v.kind for v in validate(sentence, inventory)
             if v.kind in ("cycle", "unreachable")]
    assert kinds.count("cycle") == 1
    # "dep" is not in the UD-English label set, so unknown-deprel also fires
    assert {v.kind for v in validate(sentence, inventory)} == {"cycle", "unknown-deprel"}


def test_validate_unknown_pos(inventory):
    sentence = make_sentence(["x"], ["NOUNX"], [0], ["root"])
    violations = validate(sentence, inventory)
    assert [v.kind for v in violations] == ["unknown-pos"]
    assert violations[0].token_index == 1


def test_validate_multi_root_is_warning_kind(inventory):
    sentence = make_sentence(["a", "b"], ["NOUN", "VERB"], [0, 0], ["root", "root"])
    violations = validate(sentence, inventory)
    assert [v.kind for v in violations] == ["multi-root"]
    assert violations[0].token_index == 2


def test_validate_head_out_of_range_and_unreachable(inventory):
    sentence = Sentence((Token(1, "a", "NOUN", 9, "nsubj"),
                         Token(2, "b", "VERB", 0, "root")))
    kinds = {v.kind for v in validate(sentence, inventory)}
    assert kinds == {"head-out-of-range", "unreachable"}


def test_validate_chain_into_cycle_is_unreachable(inventory):
    sentence = Sentence((Token(1, "a", "NOUN", 2, "nsubj"),
                         Token(2, "b", "NOUN", 3, "nsubj"),
                         Token(3, "c", "NOUN", 2, "nsubj"),
                         Token(4, "d", "VERB", 0, "root")))
    violations = validate(sentence, inventory)
    kinds = sorted(v.kind for v in violations)
    assert kinds == ["cycle", "unreachable"]
    unreachable = [v for v in violations if v.kind == "unreachable"]
    assert unreachable[0].token_index == 1


def test_validate_empty_iff_tree_on_random_injections(inventory):
    rng = np.random.default_rng(42)
    clean = dirty = 0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        sentence = random_tree_sentence(rng, n)
        if rng.random() < 0.5:
            # inject a violation: retarget one non-root token's head to
            # form a 2-cycle or go out of range
            tokens = list(sentence.tokens)
            idx = int(rng.integers(0, n))
            t = tokens[idx]
            if rng.random() < 0.5 and n >= 2:
                other = (idx + 1) % n + 1
                tokens[idx] = Token(t.index, t.form, t.upos, other, t.deprel)
                tokens[other - 1] = Token(other, tokens[other - 1].form,
                                          tokens[other - 1].upos, t.index,
                                          tokens[other - 1].deprel)
            else:
                tokens[idx] = Token(t.index, t.form, t.upos, n + 3, t.deprel)
            broken = Sentence(tuple(tokens))
            if not is_tree(broken.heads):
                dirty += 1
                assert validate(broken, inventory) != []
        else:
            clean += 1
            assert validate(sentence, inventory) == []
    assert clean > 50 and dirty > 50


# -- is_tree --------------------------------------------------------------------


def test_is_tree_basic_cases():
    assert is_tree([2, 0, 2])
    assert not is_tree([2, 1, 0])  # 2-cycle plus separate root
    assert not is_tree([0, 0])     # two roots
    assert not is_tree([5])        # out of range
    assert is_tree([0])


# -- splitting -----------------------------------------------------------------


def _corpus(n):
    rng = np.random.default_rng(7)
    return [random_tree_sentence(rng, int(rng.integers(1, 6))) for _ in range(n)]


def test_split_sizes_match_treebank_division():
    corpus = _corpus(1200)
    train, dev, test = split_corpus(corpus, (0.75, 0.125, 0.125), seed=3)
    assert (len(train), len(dev), len(test)) == (900, 150, 150)


def test_split_single_sentence_all_train():
    corpus = _corpus(1)
    train, dev, test = split_corpus(corpus, (1.0, 0.0, 0.0), seed=0)
    assert train == corpus and dev == [] and test == []


def test_split_deterministic_and_partitioning():
    corpus = _corpus(53)
    a = split_corpus(corpus, (0.6, 0.2, 0.2), seed=11)
    b = split_corpus(corpus, (0.6, 0.2, 0.2), seed=11)
    assert a == b
    train, dev, test = a
    assert len(train) + len(dev) + len(test) == 53
    ids = [id(s) for part in a for s in part]
    assert len(set(ids)) == 53
    c = split_corpus(corpus, (0.6, 0.2, 0.2), seed=12)
    assert c != a


def test_split_rejects_bad_ratios():
    corpus = _corpus(10)
    with pytest.raises(ValueError):
        split_corpus(corpus, (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(ValueError):
        split_corpus([], (1.0, 0.0, 0.0), seed=0)


def test_shuffle_is_platform_independent():
    # frozen expectation: splitmix64-driven Fisher-Yates is pure integer math
    assert shuffled_indices(8, seed=42) == shuffled_indices(8, seed=42)
    assert len(set(shuffled_indices(100, seed=1))) == 100
    assert shuffled_indices(10, seed=42) == [0, 9, 5, 8, 6, 4, 7, 2, 1, 3]
    # the seed is masked to 64 bits
    assert shuffled_indices(10, seed=2**64 + 42) == [0, 9, 5, 8, 6, 4, 7, 2, 1, 3]
    assert make_folds(11, 3, seed=7) == [[1, 8, 9, 10], [3, 5, 6, 7], [0, 2, 4]]
