from __future__ import annotations

import itertools

import numpy as np
import pytest

from stackparse import numcore as nc
from stackparse.parser import (
    ParserModel,
    decode_greedy,
    decode_mst,
    parse,
    score_arcs,
    score_labels,
    train_parser,
)
from stackparse.treebank import is_tree
from util import grad_check, make_sentence


def small_parser(**overrides):
    defaults = dict(word_dim=4, tag_dim=3, hidden=5, layers=1, d_arc=4,
                    d_rel=3, dropout=0.0, rng=nc.make_rng(0))
    defaults.update(overrides)
    return ParserModel(["det", "nsubj", "root"], ["DET", "NOUN", "VERB"],
                       {"the": 0, "cat": 1, "sat": 2}, **defaults)


# -- arc scoring -------------------------------------------------------------------


def test_score_arcs_single_token_forces_root():
    model = small_parser()
    scores = score_arcs(model, ["cat"], ["NOUN"])
    assert scores.shape == (2, 2)
    assert np.isfinite(scores[1, 0])
    assert scores[1, 1] == -np.inf
    assert decode_greedy(scores) == [0]


def test_score_arcs_zeroed_tensor_gives_all_equal_scores():
    model = small_parser()
    model.u_arc.data[:] = 0.0
    scores = score_arcs(model, ["the", "cat"], ["DET", "NOUN"])
    finite = scores[1:][np.isfinite(scores[1:])]
    assert np.allclose(finite, finite[0])
    assert decode_greedy(scores) == [0, 0]


def test_score_arcs_matches_per_pair_biaffine():
    model = small_parser()
    forms, tags = ["the", "cat", "sat"], ["DET", "NOUN", "VERB"]
    scores = score_arcs(model, forms, tags)
    with nc.no_grad():
        fw = model.forward_full(forms, tags)
    for d in range(1, 4):
        for h in range(4):
            if h == d:
                continue
            u = np.append(fw.arc_dep.data[d], 1.0)
            v = fw.arc_head.data[h]
            expected = u @ model.u_arc.data @ v
            assert abs(scores[d, h] - expected) < 1e-10


def test_score_arcs_rejects_empty_sentence():
    with pytest.raises(ValueError):
        score_arcs(small_parser(), [], [])


# -- decoding -------------------------------------------------------------------


def matrix(rows):
    m = np.array(rows, dtype=float)
    np.fill_diagonal(m, -np.inf)
    return m


def test_decode_greedy_returns_tree_when_argmaxes_form_one():
    scores = matrix([[0, 0, 0, 0],
                     [9, 0, 1, 1],    # 1 -> root
                     [0, 9, 0, 1],    # 2 -> 1
                     [0, 1, 9, 0]])   # 3 -> 2
    heads = decode_greedy(scores)
    assert heads == [0, 1, 2]
    assert is_tree(heads)


def test_decode_greedy_can_emit_flagged_cycle():
    scores = matrix([[0, 0, 0],
                     [1, 0, 9],   # 1 -> 2
                     [1, 9, 0]])  # 2 -> 1
    heads = decode_greedy(scores)
    assert heads == [2, 1]
    assert not is_tree(heads)


def test_decode_greedy_all_equal_ties_to_root():
    scores = matrix(np.zeros((4, 4)))
    assert decode_greedy(scores) == [0, 0, 0]


def is_arborescence(heads):
    """Every token reaches the root, no cycles; the root may have several
    children (the single-root tree check is stricter)."""
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


def brute_force_arborescence(scores):
    n = scores.shape[0] - 1
    best_score, best_heads = -np.inf, None
    for heads in itertools.product(range(n + 1), repeat=n):
        if not is_arborescence(heads):
            continue
        total = sum(scores[d, h] for d, h in enumerate(heads, start=1))
        if total > best_score:
            best_score, best_heads = total, list(heads)
    return best_heads, best_score


def test_decode_mst_agrees_with_greedy_when_greedy_is_a_tree():
    scores = matrix([[0, 0, 0, 0],
                     [9, 0, 1, 1],
                     [0, 9, 0, 1],
                     [0, 1, 9, 0]])
    assert decode_mst(scores) == decode_greedy(scores)


def test_decode_mst_on_three_token_cycle_matches_enumeration():
    # 16 arborescences exist on 3 tokens + root; greedy would cycle
    scores = matrix([[0, 0, 0, 0],
                     [1, 0, 9, 2],
                     [1, 8.5, 0, 2],
                     [5, 1, 1, 0]])
    expected, expected_score = brute_force_arborescence(scores)
    count = sum(1 for hs in itertools.product(range(4), repeat=3) if is_arborescence(hs))
    assert count == 16
    heads = decode_mst(scores)
    assert heads == expected
    total = sum(scores[d, h] for d, h in enumerate(heads, start=1))
    assert abs(total - expected_score) < 1e-9


def test_decode_mst_single_token():
    assert decode_mst(matrix([[0, 0], [3, 0]])) == [0]


def test_decode_mst_matches_enumeration_on_random_matrices():
    rng = np.random.default_rng(9)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        scores = rng.standard_normal((n + 1, n + 1)) * 3
        np.fill_diagonal(scores, -np.inf)
        heads = decode_mst(scores)
        assert is_arborescence(heads)
        expected, expected_score = brute_force_arborescence(scores)
        total = sum(scores[d, h] for d, h in enumerate(heads, start=1))
        assert abs(total - expected_score) < 1e-9
        assert heads == expected


def test_decode_mst_single_root_constraint():
    # unconstrained optimum attaches both tokens to the root
    scores = matrix([[0, 0, 0],
                     [9, 0, 1],
                     [9, 1, 0]])
    assert decode_mst(scores) == [0, 0]
    constrained = decode_mst(scores, single_root=True)
    assert sum(1 for h in constrained if h == 0) == 1
    assert is_tree(constrained)


def test_decode_mst_single_root_matches_constrained_enumeration():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        scores = rng.standard_normal((n + 1, n + 1)) * 3
        np.fill_diagonal(scores, -np.inf)
        heads = decode_mst(scores, single_root=True)
        assert is_tree(heads)
        best_heads, best_score = None, -np.inf
        for candidate in itertools.product(range(n + 1), repeat=n):
            if not is_tree(candidate):
                continue
            total = sum(scores[d, h] for d, h in enumerate(candidate, start=1))
            if total > best_score:
                best_heads, best_score = list(candidate), total
        total = sum(scores[d, h] for d, h in enumerate(heads, start=1))
        assert abs(total - best_score) < 1e-9
        assert heads == best_heads


def test_decode_mst_single_root_falls_back_when_no_single_rooted_tree_exists():
    # each token may only attach to the root, so every tree has two root children
    scores = matrix([[0, 0, 0],
                     [1, 0, -np.inf],
                     [2, -np.inf, 0]])
    assert decode_mst(scores) == [0, 0]
    assert decode_mst(scores, single_root=True) == [0, 0]


def test_decode_mst_single_root_respects_forbidden_arcs():
    # token 2 may not attach to the root; with root child 1 the best tree
    # scores 5 + 2 + 1 = 8, with root child 3 it scores 6 + 0.5 + 1 = 7.5
    scores = matrix([[0, 0, 0, 0],
                     [5, 0, 0.5, -np.inf],
                     [-np.inf, 2, 0, 1],
                     [6, -np.inf, 1, 0]])
    assert decode_mst(scores) == [0, 1, 0]
    assert decode_mst(scores, single_root=True) == [0, 1, 2]


@pytest.mark.parametrize("single_root", [False, True])
def test_decode_mst_raises_when_no_arborescence_exists(single_root):
    no_head = matrix([[0, 0, 0],
                      [-np.inf, 0, -np.inf],
                      [1, 1, 0]])
    with pytest.raises(ValueError, match="no candidate head"):
        decode_mst(no_head, single_root=single_root)
    # tokens 1 and 2 may only attach to each other: the cycle has no way in
    closed = matrix([[0, 0, 0, 0],
                     [-np.inf, 0, 1, -np.inf],
                     [-np.inf, 1, 0, -np.inf],
                     [1, 1, 1, 0]])
    with pytest.raises(ValueError):
        decode_mst(closed, single_root=single_root)


@pytest.mark.parametrize("single_root", [False, True])
def test_decode_mst_at_80_tokens_has_no_better_single_head_change(single_root):
    rng = np.random.default_rng(15)
    n = 80
    scores = rng.standard_normal((n + 1, n + 1))
    scores[1:, 0] += 1.5  # the unconstrained optimum has several root children
    np.fill_diagonal(scores, -np.inf)
    valid = is_tree if single_root else is_arborescence
    heads = decode_mst(scores, single_root=single_root)
    assert valid(heads)
    assert (heads.count(0) > 1) != single_root
    for d in range(1, n + 1):
        for h in range(n + 1):
            changed = heads[:d - 1] + [h] + heads[d:]
            if h != heads[d - 1] and valid(changed):
                assert scores[d, h] <= scores[d, heads[d - 1]] + 1e-9, (d, h)


def test_decode_mst_single_root_matches_one_solve_per_root_child():
    # the constrained optimum is the best, over root children r, of the
    # unconstrained optimum with every other root arc forbidden
    rng = np.random.default_rng(16)
    for _ in range(8):
        n = int(rng.integers(20, 60))
        scores = rng.standard_normal((n + 1, n + 1))
        scores[1:, 0] += 2.0
        np.fill_diagonal(scores, -np.inf)
        best = -np.inf
        for r in range(1, n + 1):
            only_r = scores.copy()
            only_r[1:, 0] = -np.inf
            only_r[r, 0] = scores[r, 0]
            heads = decode_mst(only_r)
            best = max(best, sum(scores[d, h] for d, h in enumerate(heads, start=1)))
        heads = decode_mst(scores, single_root=True)
        assert is_tree(heads)
        assert abs(sum(scores[d, h] for d, h in enumerate(heads, start=1)) - best) < 1e-9


def test_mst_score_at_least_greedy_on_tree_outputs():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        scores = rng.standard_normal((n + 1, n + 1)) * 2
        np.fill_diagonal(scores, -np.inf)
        greedy = decode_greedy(scores)
        mst = decode_mst(scores)
        mst_total = sum(scores[d, h] for d, h in enumerate(mst, start=1))
        greedy_total = sum(scores[d, h] for d, h in enumerate(greedy, start=1))
        if is_tree(greedy):
            assert abs(mst_total - greedy_total) < 1e-9
        else:
            assert greedy_total >= mst_total - 1e-9  # greedy relaxation bound


def test_row_constant_shift_keeps_row_argmax():
    rng = np.random.default_rng(12)
    scores = rng.standard_normal((4, 4))
    np.fill_diagonal(scores, -np.inf)
    shifted = scores.copy()
    shifted[2, :] += 11.0
    assert decode_greedy(scores)[1] == decode_greedy(shifted)[1]


def test_uniform_shift_of_all_columns_preserves_decoders():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        scores = rng.standard_normal((n + 1, n + 1)) * 2
        np.fill_diagonal(scores, -np.inf)
        shifted = scores + 4.2  # same constant in every column
        assert decode_greedy(scores) == decode_greedy(shifted)
        assert decode_mst(scores) == decode_mst(shifted)


# -- label scoring ------------------------------------------------------------------


def test_score_labels_single_label_always_wins():
    model = ParserModel(["onlyrel"], ["N"], {"a": 0}, word_dim=3, tag_dim=2,
                        hidden=4, layers=1, d_arc=3, d_rel=2, dropout=0.0,
                        rng=nc.make_rng(1))
    with nc.no_grad():
        fw = model.forward_full(["a", "a"], ["N", "N"])
    scores = score_labels(model, fw, [0, 1])
    assert scores.shape == (2, 1)
    assert np.argmax(scores, axis=1).tolist() == [0, 0]


def test_score_labels_zero_tensor_ties_to_first_label():
    model = small_parser()
    model.u_rel.data[:] = 0.0
    with nc.no_grad():
        fw = model.forward_full(["the", "cat"], ["DET", "NOUN"])
    scores = score_labels(model, fw, [2, 0])
    assert np.argmax(scores, axis=1).tolist() == [0, 0]


def test_score_labels_matches_explicit_summation():
    model = ParserModel(["r1", "r2"], ["N"], {"a": 0}, word_dim=3, tag_dim=2,
                        hidden=4, layers=1, d_arc=3, d_rel=2, dropout=0.0,
                        rng=nc.make_rng(2))
    with nc.no_grad():
        fw = model.forward_full(["a", "a"], ["N", "N"])
    heads = [2, 0]
    scores = score_labels(model, fw, heads)
    rel_dep, rel_head = fw.rel_dep.data, fw.rel_head.data  # no base and no dropout
    for d in (1, 2):
        u = np.append(rel_dep[d], 1.0)
        for label in (0, 1):
            v = np.append(rel_head[heads[d - 1]], 1.0)
            expected = u @ model.u_rel.data[label] @ v
            assert abs(scores[d - 1, label] - expected) < 1e-10


# -- training and parsing --------------------------------------------------------------


def overfit_sentence():
    return make_sentence(["the", "cat", "sat"], ["DET", "NOUN", "VERB"],
                         [2, 3, 0], ["det", "nsubj", "root"])


def test_train_overfits_single_sentence(tiny_cfg):
    cfg = tiny_cfg.updated({"epochs": "30"})
    sentence = overfit_sentence()
    model = train_parser([sentence], [sentence], cfg)
    result = parse(model, sentence)
    assert result.heads == (2, 3, 0)
    assert result.deprels == ("det", "nsubj", "root")
    assert model.dev_uas == 100.0


def test_train_deterministic_given_seed(tiny_cfg):
    cfg = tiny_cfg.updated({"epochs": "3", "parser_dropout": "0.1"})
    treebank = [overfit_sentence()]
    a = train_parser(treebank, treebank, cfg)
    b = train_parser(treebank, treebank, cfg)
    for name, t in a.parameters().items():
        assert np.array_equal(t.data, b.parameters()[name].data), name


def test_train_rejects_empty_and_out_of_range(tiny_cfg):
    with pytest.raises(ValueError):
        train_parser([], [], tiny_cfg)
    from stackparse.treebank import Sentence, Token
    bad = Sentence((Token(1, "a", "N", 7, "dep"),))
    with pytest.raises(ValueError, match="out of range"):
        train_parser([bad], [], tiny_cfg)


def test_parse_purity_and_shapes(tiny_cfg):
    cfg = tiny_cfg.updated({"epochs": "2"})
    sentence = overfit_sentence()
    model = train_parser([sentence], [], cfg)
    first = parse(model, sentence)
    second = parse(model, sentence)
    assert first.heads == second.heads and first.deprels == second.deprels
    assert len(first.heads) == len(sentence) == len(first.deprels)
    assert first.arc_scores.shape == (4, 4)
    assert all(0 <= h <= len(sentence) for h in first.heads)
    mst = parse(model, sentence, decoder="mst")
    assert is_tree(mst.heads)
    with pytest.raises(ValueError):
        parse(model, sentence, decoder="beam")


def test_parse_repair_decodes_mst_from_the_same_forward_pass():
    model = small_parser()
    sentence = make_sentence(["the", "cat", "sat"], ["DET", "NOUN", "VERB"])
    assert not is_tree(parse(model, sentence).heads)
    mst = parse(model, sentence, decoder="mst")
    forward, calls = model.forward_batch, []
    model.forward_batch = lambda *args: calls.append(args) or forward(*args)
    repaired = parse(model, sentence, repair=True)
    assert len(calls) == 1
    assert is_tree(repaired.heads) and repaired.repaired and not mst.repaired
    assert repaired.heads == mst.heads and repaired.deprels == mst.deprels


def test_head_softmax_normalizes(tiny_cfg):
    model = small_parser()
    forms, tags = ["the", "cat", "sat"], ["DET", "NOUN", "VERB"]
    scores = score_arcs(model, forms, tags)
    rows = scores[1:]
    rows = np.where(np.isfinite(rows), rows, -np.inf)
    probs = np.exp(rows - rows.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-12)


def test_loss_decreases_over_first_epochs(tiny_cfg):
    treebank = [overfit_sentence(),
                make_sentence(["a", "dog", "ran"], ["DET", "NOUN", "VERB"],
                              [2, 3, 0], ["det", "nsubj", "root"])]
    losses = []
    for epochs in range(1, 6):
        cfg = tiny_cfg.updated({"epochs": str(epochs)})
        model = train_parser(treebank, [], cfg)
        with nc.no_grad():
            pass
        total = sum(model.loss(s).item() for s in treebank)
        losses.append(total)
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_full_parser_gradient_check(tiny_cfg):
    sentence = overfit_sentence()
    cfg = tiny_cfg.updated({"epochs": "1"})
    model = train_parser([sentence], [], cfg)

    def loss():
        return model.loss(sentence)

    err = grad_check(loss, model.parameters(), epsilon=1e-4,
                        max_coords_per_param=6)
    assert err < 1e-4
