from __future__ import annotations

import math
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stackparse import cli
from stackparse import numcore as nc
from stackparse.numcore import COUPLED, PEEPHOLE, LstmCell, Tensor, bilstm_encode
from stackparse.numcore import lstm as lstm_module
from stackparse.numcore import worker
from stackparse.parser import ParserModel
from stackparse.stacking import StackedParser
from stackparse.tagger import TaggerModel
from stackparse.treebank import ConlluError
from util import (all_parameters, blas_env, grad_check, make_sentence, recur_one, sigmoid,
                  tagger_hidden)


def encode_one(layers, x):
    """One sequence through the batched encoder, as a batch of one."""
    return bilstm_encode(layers, [x])[0]


def vec(*values):
    return Tensor(np.array(values, dtype=np.float64))


def cell_step(cell, x, h_prev, c_prev):
    """One step of `cell` as per-step tape ops on the cell's own tensors:
    the formula the fused bi-LSTM op is tested against."""
    h = cell.hidden_dim
    pre = nc.matmul(cell.w_x, x) + nc.matmul(cell.w_h, h_prev) + cell.bias
    if cell.variant == PEEPHOLE:
        gate_in = sigmoid(pre[0:h] + nc.mul(cell.p_in, c_prev))
        gate_forget = sigmoid(pre[h:2 * h] + nc.mul(cell.p_forget, c_prev))
        candidate = nc.tanh(pre[2 * h:3 * h])
        c = nc.mul(gate_forget, c_prev) + nc.mul(gate_in, candidate)
        gate_out = sigmoid(pre[3 * h:4 * h] + nc.mul(cell.p_out, c))
    else:
        gate_in = sigmoid(pre[0:h])
        candidate = nc.tanh(pre[h:2 * h])
        c = nc.mul(1.0 - gate_in, c_prev) + nc.mul(gate_in, candidate)
        gate_out = sigmoid(pre[2 * h:3 * h])
    return nc.mul(gate_out, nc.tanh(c)), c


def _built_with_rng_none(kind):
    """The parameters and hidden states of a cell or model built with
    rng=None, as the archive loader builds one."""
    if kind in (PEEPHOLE, COUPLED):
        cell = LstmCell(kind, 3, 4, rng=None)
        h, c = cell_step(cell, vec(1.0, -2.0, 3.0), Tensor(np.zeros(4)), Tensor(np.zeros(4)))
        return cell.parameters("cell"), [h.data, c.data]
    vocab, tags, rels = {"the": 0, "cat": 1}, ["DET", "NOUN"], ["det", "root"]
    sentence = make_sentence(["the", "cat"], tags, [2, 0], rels)
    if kind == "tagger":
        model = TaggerModel(tags, vocab, {"a": 0, "t": 1}, word_dim=3, char_dim=2, att_dim=2,
                            hidden=4, rng=None)
        hidden = tagger_hidden(model, model.encode(sentence))
        return model.parameters(), [hidden.data]
    parser = ParserModel(rels, tags, vocab, word_dim=3, tag_dim=2, hidden=4, layers=1,
                         d_arc=3, d_rel=2, rng=None)
    if kind == "parser":
        model, params = parser, parser.parameters()
    else:
        model = StackedParser(parser, rels, tags, vocab, word_dim=3, tag_dim=2, hidden=5,
                              rng=None)
        params = all_parameters(model)
    return params, [model.forward_full(sentence.forms, sentence.upos).recurrent.data]


@pytest.mark.parametrize("kind", [PEEPHOLE, COUPLED, "tagger", "parser", "stacked-parser"])
def test_zero_weights_give_zero_hidden(kind):
    params, hidden = _built_with_rng_none(kind)  # all parameters zero
    assert params and not any(p.data.any() for p in params.values())
    assert all(np.allclose(h, 0.0) for h in hidden)


def test_coupled_large_input_bias_passes_candidate_through():
    cell = LstmCell(COUPLED, 2, 3, rng=nc.make_rng(0))
    cell.bias.data[:3] = 50.0  # input gate -> sigmoid(50) ~ 1, forget ~ 0
    x = vec(0.3, -0.7)
    c_prev = vec(5.0, -5.0, 2.0)
    h, c = cell_step(cell, x, Tensor(np.zeros(3)), c_prev)
    pre = cell.w_x.data @ x.data + cell.bias.data
    candidate = np.tanh(pre[3:6])
    assert np.allclose(c.data, candidate, atol=1e-12)


def test_coupled_forget_plus_input_is_exactly_one():
    rng = nc.make_rng(1)
    cell = LstmCell(COUPLED, 3, 4, rng=rng)
    x = Tensor(rng.standard_normal(3))
    h_prev = Tensor(rng.standard_normal(4) * 0.1)
    c_prev = Tensor(rng.standard_normal(4))
    _, c = cell_step(cell, x, h_prev, c_prev)
    pre = cell.w_x.data @ x.data + cell.w_h.data @ h_prev.data + cell.bias.data
    gate_in = sigmoid(Tensor(pre[:4])).data
    candidate = np.tanh(pre[4:8])
    # forget is computed literally as 1 - input, so this identity is exact
    assert np.array_equal(c.data, (1.0 - gate_in) * c_prev.data + gate_in * candidate)


def _scalar_sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def _reference_peephole(cell, xs):
    """Pure-float reference, one scalar at a time."""
    h_dim = cell.hidden_dim
    w_x, w_h, b = cell.w_x.data, cell.w_h.data, cell.bias.data
    p_i, p_f, p_o = cell.p_in.data, cell.p_forget.data, cell.p_out.data
    h = [0.0] * h_dim
    c = [0.0] * h_dim
    outputs = []
    for x in xs:
        pre = [sum(w_x[r][j] * x[j] for j in range(len(x)))
               + sum(w_h[r][j] * h[j] for j in range(h_dim)) + b[r]
               for r in range(4 * h_dim)]
        new_c, new_h = [0.0] * h_dim, [0.0] * h_dim
        for r in range(h_dim):
            gate_i = _scalar_sigmoid(pre[r] + p_i[r] * c[r])
            gate_f = _scalar_sigmoid(pre[h_dim + r] + p_f[r] * c[r])
            cand = math.tanh(pre[2 * h_dim + r])
            new_c[r] = gate_f * c[r] + gate_i * cand
            gate_o = _scalar_sigmoid(pre[3 * h_dim + r] + p_o[r] * new_c[r])
            new_h[r] = gate_o * math.tanh(new_c[r])
        h, c = new_h, new_c
        outputs.append(list(h))
    return outputs, c


def _reference_coupled(cell, xs):
    h_dim = cell.hidden_dim
    w_x, w_h, b = cell.w_x.data, cell.w_h.data, cell.bias.data
    h = [0.0] * h_dim
    c = [0.0] * h_dim
    outputs = []
    for x in xs:
        pre = [sum(w_x[r][j] * x[j] for j in range(len(x)))
               + sum(w_h[r][j] * h[j] for j in range(h_dim)) + b[r]
               for r in range(3 * h_dim)]
        new_c, new_h = [0.0] * h_dim, [0.0] * h_dim
        for r in range(h_dim):
            gate_i = _scalar_sigmoid(pre[r])
            cand = math.tanh(pre[h_dim + r])
            new_c[r] = (1.0 - gate_i) * c[r] + gate_i * cand
            gate_o = _scalar_sigmoid(pre[2 * h_dim + r])
            new_h[r] = gate_o * math.tanh(new_c[r])
        h, c = new_h, new_c
        outputs.append(list(h))
    return outputs, c


@pytest.mark.parametrize("variant,reference", [
    (PEEPHOLE, _reference_peephole),
    (COUPLED, _reference_coupled),
])
def test_cell_matches_scalar_reference(variant, reference):
    rng = nc.make_rng(7)
    cell = LstmCell(variant, 2, 2, rng=rng)
    if variant == PEEPHOLE:
        cell.p_in.data[:] = rng.standard_normal(2)
        cell.p_forget.data[:] = rng.standard_normal(2)
        cell.p_out.data[:] = rng.standard_normal(2)
    xs = [rng.standard_normal(2) for _ in range(4)]
    h = Tensor(np.zeros(2))
    c = Tensor(np.zeros(2))
    ours = []
    for x in xs:
        h, c = cell_step(cell, Tensor(x), h, c)
        ours.append(h.data.copy())
    ref_h, ref_c = reference(cell, xs)
    for mine, theirs in zip(ours, ref_h):
        assert np.allclose(mine, theirs, atol=1e-12)
    assert np.allclose(c.data, ref_c, atol=1e-12)
    fused = encode_one([(cell, cell)], Tensor(np.stack(xs))).data[:, :2]
    assert np.allclose(fused, np.stack(ref_h), atol=1e-12)


def test_dimension_mismatch_raises():
    cell = LstmCell(PEEPHOLE, 3, 4, rng=nc.make_rng(0))
    with pytest.raises(ValueError, match="expected inputs of width 3, got 2"):
        encode_one([(cell, cell)], Tensor(np.zeros((5, 2))))
    with pytest.raises(ValueError):
        LstmCell("gru", 3, 4)


def rows(*vectors):
    return Tensor(np.stack(vectors))


def test_bilstm_single_element_runs_both_directions_once():
    rng = nc.make_rng(3)
    fwd = LstmCell(PEEPHOLE, 2, 3, rng=rng)
    bwd = LstmCell(PEEPHOLE, 2, 3, rng=rng)
    x = Tensor(rng.standard_normal(2))
    out = encode_one([(fwd, bwd)], rows(x.data))
    assert out.shape == (1, 6)
    zeros = Tensor(np.zeros(3))
    hf, _ = cell_step(fwd, x, zeros, Tensor(np.zeros(3)))
    hb, _ = cell_step(bwd, x, zeros, Tensor(np.zeros(3)))
    assert np.allclose(out.data[0], np.concatenate([hf.data, hb.data]), atol=1e-15)


def test_bilstm_palindrome_symmetry_with_shared_cell():
    rng = nc.make_rng(4)
    cell = LstmCell(COUPLED, 2, 3, rng=rng)
    xs = [rng.standard_normal(2) for _ in range(2)]
    out = encode_one([(cell, cell)], rows(xs[0], xs[1], xs[1], xs[0])).data
    h = cell.hidden_dim
    # with forward cell == backward cell on a palindrome, reversing the
    # sequence swaps the forward/backward halves
    flipped = np.concatenate([out[::-1, h:], out[::-1, :h]], axis=1)
    assert np.allclose(out, flipped, atol=1e-12)


def test_two_layer_encode_equals_manual_composition():
    rng = nc.make_rng(5)
    layer1 = (LstmCell(COUPLED, 2, 3, rng=rng), LstmCell(COUPLED, 2, 3, rng=rng))
    layer2 = (LstmCell(COUPLED, 6, 3, rng=rng), LstmCell(COUPLED, 6, 3, rng=rng))
    seq = Tensor(rng.standard_normal((4, 2)))
    stacked = encode_one([layer1, layer2], seq)
    composed = encode_one([layer2], encode_one([layer1], seq))
    assert np.allclose(stacked.data, composed.data, atol=1e-15)


def test_bilstm_rejects_empty_sequence():
    rng = nc.make_rng(6)
    layer = (LstmCell(COUPLED, 2, 3, rng=rng), LstmCell(COUPLED, 2, 3, rng=rng))
    with pytest.raises(ValueError):
        encode_one([layer], Tensor(np.zeros((0, 2))))


def random_layers(variant, input_dim, hidden_dim, depth, rng):
    """`depth` bi-LSTM layers with random biases and peepholes, so every
    parameter reaches the output."""
    layers = []
    for k in range(depth):
        pair = []
        for _ in range(2):
            cell = LstmCell(variant, input_dim if k == 0 else 2 * hidden_dim, hidden_dim, rng=rng)
            cell.bias.data[:] = rng.standard_normal(cell.bias.shape) * 0.5
            if variant == PEEPHOLE:
                for p in (cell.p_in, cell.p_forget, cell.p_out):
                    p.data[:] = rng.standard_normal(hidden_dim) * 0.5
            pair.append(cell)
        layers.append(tuple(pair))
    return layers


def layer_parameters(layers):
    params = {}
    for k, (fwd, bwd) in enumerate(layers):
        params.update(fwd.parameters(f"lstm{k}/fwd"))
        params.update(bwd.parameters(f"lstm{k}/bwd"))
    return params


def step_encode(layers, x):
    """Reference: the same bi-LSTM as a loop over `cell_step`."""
    seq = [x[t] for t in range(x.shape[0])]
    for fwd, bwd in layers:
        outputs = []
        for cell, order in ((fwd, seq), (bwd, seq[::-1])):
            h = Tensor(np.zeros(cell.hidden_dim))
            c = Tensor(np.zeros(cell.hidden_dim))
            hs = []
            for v in order:
                h, c = cell_step(cell, v, h, c)
                hs.append(h)
            outputs.append(hs if order is seq else hs[::-1])
        seq = [nc.concat([f, b]) for f, b in zip(*outputs)]
    return nc.concat([row[None] for row in seq])


@pytest.mark.parametrize("variant", [PEEPHOLE, COUPLED])
def test_bilstm_encode_gradients(variant):
    rng = nc.make_rng(11)
    layers = random_layers(variant, 3, 2, 2, rng)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    weights = Tensor(rng.standard_normal((4, 4)))

    def loss():
        return (nc.tanh(encode_one(layers, x)) * weights).sum()

    assert grad_check(loss, dict(layer_parameters(layers), x=x)) < 1e-6


@pytest.mark.parametrize("variant", [PEEPHOLE, COUPLED])
@pytest.mark.parametrize("steps", [1, 2, 17])
def test_bilstm_encode_matches_step_loop(variant, steps):
    rng = nc.make_rng(12)
    layers = random_layers(variant, 5, 6, 2, rng)
    x = Tensor(rng.standard_normal((steps, 5)), requires_grad=True)
    weights = Tensor(rng.standard_normal((steps, 12)))
    params = dict(layer_parameters(layers), x=x)
    results = []
    for encode in (encode_one, step_encode):
        nc.zero_grads(params.values())
        out = encode(layers, x)
        (nc.tanh(out) * weights).sum().backward()
        results.append((out.data.copy(), {k: t.grad.copy() for k, t in params.items()}))
    (fused, fused_grads), (ref, ref_grads) = results
    np.testing.assert_allclose(fused, ref, rtol=1e-10, atol=0)
    for name in params:
        np.testing.assert_allclose(fused_grads[name], ref_grads[name], rtol=1e-10,
                                   atol=1e-14, err_msg=name)


def test_bilstm_encode_builds_no_tape_under_no_grad():
    rng = nc.make_rng(13)
    layers = random_layers(PEEPHOLE, 3, 4, 2, rng)
    x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    with nc.no_grad():
        out = encode_one(layers, x)
    assert out.requires_grad is False and out._parents == () and out._backward is None
    assert encode_one(layers, x).requires_grad


@pytest.mark.parametrize("variant,name", [
    (COUPLED, "w_x"), (COUPLED, "w_h"), (COUPLED, "bias"),
    (PEEPHOLE, "p_in"), (PEEPHOLE, "p_forget"), (PEEPHOLE, "p_out"),
])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_bilstm_encode_rejects_non_finite_weights(variant, name, value):
    rng = nc.make_rng(14)
    layers = random_layers(variant, 3, 4, 2, rng)
    getattr(layers[1][1], name).data.reshape(-1)[1] = value
    with pytest.raises(nc.NonFiniteError):
        encode_one(layers, Tensor(rng.standard_normal((5, 3))))


@pytest.mark.parametrize("variant", [PEEPHOLE, COUPLED])
def test_lstm_step_gradients(variant):
    rng = nc.make_rng(8)
    cell = LstmCell(variant, 3, 2, rng=rng)
    if variant == PEEPHOLE:
        cell.p_in.data[:] = 0.3
        cell.p_forget.data[:] = -0.2
        cell.p_out.data[:] = 0.1
    x = Tensor(rng.standard_normal(3), requires_grad=True)
    h0 = Tensor(rng.standard_normal(2) * 0.5, requires_grad=True)
    c0 = Tensor(rng.standard_normal(2), requires_grad=True)
    w_h = Tensor(np.array([1.3, 0.7]))
    w_c = Tensor(np.array([0.9, 1.1]))

    def loss():
        h, c = cell_step(cell, x, h0, c0)
        return (nc.tanh(h) * w_h).sum() + (nc.tanh(c) * w_c).sum()

    params = dict(cell.parameters("cell"), x=x, h0=h0, c0=c0)
    assert grad_check(loss, params) < 1e-6


@pytest.mark.parametrize("variant", [PEEPHOLE, COUPLED])
def test_shared_cell_gradients_match_step_loop(variant):
    """One cell for both directions: its gradient is the sum over both, as
    in the per-step reference."""
    rng = nc.make_rng(15)
    (cell, _), = random_layers(variant, 4, 5, 1, rng)
    layers = [(cell, cell)]
    x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    weights = Tensor(rng.standard_normal((6, 10)))
    params = dict(cell.parameters("cell"), x=x)
    results = []
    for encode in (encode_one, step_encode):
        nc.zero_grads(params.values())
        (nc.tanh(encode(layers, x)) * weights).sum().backward()
        results.append({k: t.grad.copy() for k, t in params.items()})
    for name in params:
        np.testing.assert_allclose(results[0][name], results[1][name], rtol=1e-10,
                                   atol=1e-14, err_msg=name)


@pytest.mark.parametrize("name", ["w_x", "w_h", "bias", "p_out"])
def test_non_finite_backward_cell_weight_raises_in_the_caller(name):
    rng = nc.make_rng(16)
    layers = random_layers(PEEPHOLE, 3, 4, 1, rng)
    x = Tensor(rng.standard_normal((5, 3)))
    good = encode_one(layers, x).data
    weight = getattr(layers[0][1], name).data.reshape(-1)
    saved = weight[0]
    weight[0] = np.nan
    with pytest.raises(nc.NonFiniteError):
        encode_one(layers, x)
    weight[0] = saved
    assert np.array_equal(encode_one(layers, x).data, good)


def _numcore_threads():
    return [t for t in threading.enumerate() if t.name.startswith("numcore")]


def test_no_tape_under_no_grad_with_the_worker_running():
    from stackparse.numcore.worker import in_parallel
    rng = nc.make_rng(17)
    layers = random_layers(COUPLED, 3, 4, 2, rng)
    x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    encode_one(layers, x).sum().backward()
    assert _numcore_threads() == []  # none is kept between calls
    gate = threading.Barrier(2, timeout=10)

    def count():  # both jobs count while both are running
        gate.wait()
        n = len(_numcore_threads())
        gate.wait()
        return n

    assert in_parallel(count, count) == (1, 1)  # one extra thread while a call runs
    with nc.no_grad():
        out = encode_one(layers, x)
    assert out.requires_grad is False and out._parents == () and out._backward is None
    assert _numcore_threads() == []


@pytest.mark.parametrize("depth", [1, 3])
def test_one_tape_node_per_layer(depth):
    rng = nc.make_rng(18)
    layers = random_layers(PEEPHOLE, 3, 4, depth, rng)
    x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    nodes, todo = set(), [encode_one(layers, x)]
    while todo:
        t = todo.pop()
        if t._backward is not None and id(t) not in nodes:
            nodes.add(id(t))
            todo.extend(t._parents)
    assert len(nodes) == depth


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_encodes_like_its_parent():
    rng = nc.make_rng(19)
    layers = random_layers(COUPLED, 3, 4, 1, rng)
    x = Tensor(rng.standard_normal((5, 3)))
    expected = encode_one(layers, x).data  # the parent has run a helper thread
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        pid = os.fork()
    if pid == 0:
        os._exit(0 if np.array_equal(encode_one(layers, x).data, expected) else 1)
    deadline = time.monotonic() + 30
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its encode")
        time.sleep(0.01)
    assert status[1] == 0


def test_concurrent_callers_each_get_the_results_of_a_lone_run():
    """More caller threads than cores, switching often: every caller gets
    the outputs and gradients of a run on its own."""
    rng = nc.make_rng(20)
    cases = []
    for _ in range(4):
        layers = random_layers(PEEPHOLE, 3, 4, 2, rng)
        cases.append((layers, Tensor(rng.standard_normal((6, 3)), requires_grad=True)))

    def run(layers, x):
        params = dict(layer_parameters(layers), x=x)
        nc.zero_grads(params.values())
        out = encode_one(layers, x)
        nc.tanh(out).sum().backward()
        return out.data.copy(), {k: t.grad.copy() for k, t in params.items()}

    expected = [run(*case) for case in cases]
    results = [None] * len(cases)

    def caller(i):
        for _ in range(20):
            results[i] = run(*cases[i])
            if not np.array_equal(results[i][0], expected[i][0]):
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for (out, grads), (want_out, want_grads) in zip(results, expected):
        assert np.array_equal(out, want_out)
        assert all(np.array_equal(grads[k], want_grads[k]) for k in want_grads)


def test_a_worker_error_is_raised_in_the_caller():
    from stackparse.numcore.worker import in_parallel
    with pytest.raises(ZeroDivisionError):
        in_parallel(lambda: 1, lambda: 1 / 0)
    assert in_parallel(lambda: 1, lambda: 2) == (1, 2)


def test_a_job_that_calls_in_parallel_returns():
    from stackparse.numcore.worker import in_parallel
    results = []
    caller = threading.Thread(target=lambda: results.append(
        in_parallel(lambda: 1, lambda: in_parallel(lambda: 2, lambda: 3))), daemon=True)
    caller.start()
    caller.join(timeout=10)
    assert not caller.is_alive(), "a nested in_parallel call did not return within 10 s"
    assert results == [(1, (2, 3))]
    assert _numcore_threads() == []


# -- batched encoding ------------------------------------------------------------------


@pytest.fixture(scope="module")
def one_blas_thread():
    """`recur_one`'s whole-matrix GEMV gives every row the bits of the
    batch's 64-row blocks under one BLAS thread, which the CLI pins; a
    threaded GEMV splits its rows elsewhere."""
    if cli._blas()["blas_threads"] != 1:
        pytest.skip("numpy's bundled OpenBLAS was not found")


def random_cell(variant, input_dim, hidden_dim, rng):
    """A cell with every parameter drawn, W_h scaled so that the gates do
    not saturate and every bit of the state matters."""
    cell = LstmCell(variant, input_dim, hidden_dim, rng=None)
    for name, t in cell.parameters("").items():
        scale = 1.0 / np.sqrt(hidden_dim) if name == "/w_h" else 0.5
        t.data[...] = rng.standard_normal(t.data.shape) * scale
    return cell


# W_h has 3 (coupled) or 4 (peephole) x hidden rows: with 64-row blocks,
# 7 and 12 units give fewer rows than a block, 16 peephole units one
# block, 64 units whole blocks and 100 units blocks and a tail; then the
# paper's tagger, parser and stacked-parser cells once each.
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.sampled_from([PEEPHOLE, COUPLED]), st.sampled_from([7, 12, 16, 64, 100]),
       st.lists(st.integers(1, 12), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
@example(PEEPHOLE, 300, [12, 12, 7, 3, 1], 1)
@example(COUPLED, 400, [10, 9, 9, 2], 2)
@example(COUPLED, 900, [12, 11, 11, 8, 5, 1], 3)
def test_batched_recurrence_equals_each_sequence_alone(one_blas_thread, variant, hidden,
                                                        lengths, seed):
    assert lstm_module._BLOCK_ROWS == 64
    rng = np.random.default_rng(seed)
    cell = random_cell(variant, 5, hidden, rng)
    lengths = sorted(lengths, reverse=True)
    xs = [rng.standard_normal((n, 5)) for n in lengths]
    pre, act, cs, hs = lstm_module._recur(cell, xs)
    for i, x in enumerate(xs):
        n = len(x)
        want = recur_one(cell, x)
        got = (pre[i, :n], act[i, :n], cs[i, :n + 1], hs[i, :n + 1])
        for name, a, b in zip(("pre", "act", "cs", "hs"), got, want):
            assert np.array_equal(a, b), (name, i)


def test_a_batch_leaves_each_sequence_its_bits_under_two_blas_threads():
    """A threaded GEMV may split a block's rows where one thread does not,
    but a sequence's calls are the same in a batch and alone, so its state
    is too; the paper's three cell shapes, in a child whose OpenBLAS was
    loaded with two threads."""
    child = subprocess.run([sys.executable, "-c", """
import numpy as np
from stackparse.numcore import COUPLED, PEEPHOLE, LstmCell
from stackparse.numcore import lstm
rng = np.random.default_rng(30)
for variant, hidden in ((PEEPHOLE, 300), (COUPLED, 400), (COUPLED, 900)):
    cell = LstmCell(variant, 5, hidden, rng=None)
    for name, t in cell.parameters("").items():
        scale = hidden ** -0.5 if name == "/w_h" else 0.5
        t.data[...] = rng.standard_normal(t.data.shape) * scale
    xs = [rng.standard_normal((n, 5)) for n in (12, 7, 3)]
    batch = lstm._recur(cell, xs)
    for i, x in enumerate(xs):
        for name, got, alone in zip(("pre", "act", "cs", "hs"), batch, lstm._recur(cell, [x])):
            if not np.array_equal(got[i, :alone.shape[1]], alone[0]):
                print(variant, hidden, name, i)
"""], env=blas_env(OPENBLAS_NUM_THREADS="2"), check=True, capture_output=True, text=True,
                           timeout=120)
    assert child.stdout == ""


@pytest.mark.parametrize("variant", [PEEPHOLE, COUPLED])
def test_batched_encode_equals_each_sequence_alone(one_blas_thread, variant):
    """Outputs and input gradients bit for bit, in input order, and the
    weights' gradients the sum of the lone runs', with one tape node per
    sequence and layer."""
    rng = nc.make_rng(21)
    layers = random_layers(variant, 3, 70, 2, rng)
    xs = [Tensor(rng.standard_normal((n, 3)), requires_grad=True) for n in (4, 9, 1, 9, 6)]
    weights = [Tensor(rng.standard_normal((len(x.data), 140))) for x in xs]
    params = layer_parameters(layers)
    alone, summed = [], {}
    for x, w in zip(xs, weights):
        nc.zero_grads([x, *params.values()])
        out = encode_one(layers, x)
        (nc.tanh(out) * w).sum().backward()
        alone.append((out.data, x.grad.copy()))
        for name, t in params.items():
            summed[name] = summed.get(name, 0.0) + t.grad
    nc.zero_grads([*xs, *params.values()])
    outs = bilstm_encode(layers, xs)
    loss = None
    for out, w in zip(outs, weights):
        term = (nc.tanh(out) * w).sum()
        loss = term if loss is None else loss + term
    loss.backward()
    for out, x, (want_out, want_dx) in zip(outs, xs, alone):
        assert np.array_equal(out.data, want_out) and np.array_equal(x.grad, want_dx)
        assert len(out._parents) == 1 + len(params) // 2
    for name, t in params.items():
        np.testing.assert_allclose(t.grad, summed[name], rtol=1e-12, atol=1e-15, err_msg=name)
    assert bilstm_encode(layers, []) == []


def _shares(n):
    """`batched` deals its items into `n` shares, all but the first run in
    forked children, whatever cores and threads this process has."""
    return mock.patch.object(worker, "cores", lambda: n)


def _dealt(lengths, shares):
    """Token totals of the shares `batched` deals `lengths` into: longest
    first, each to the share with the fewest tokens so far."""
    totals = [0] * max(1, min(shares, len(lengths)))
    for n in sorted(lengths, reverse=True):
        totals[totals.index(min(totals))] += n
    return totals


@pytest.mark.parametrize("lengths", [[3, 1, 4, 1, 5, 9, 2, 6], [1], [20, 2, 2], []])
def test_batched_cuts_length_sorted_batches_under_the_token_budget(monkeypatch, lengths):
    # `run` is called in the process that runs its share, so each result
    # names its process, its call there and its batch; the budget, the
    # order and the cuts hold within each share.
    monkeypatch.setattr(lstm_module, "BATCH_TOKENS", 10)
    items = [[i] * n for i, n in enumerate(lengths)]
    for shares in (1, 2, 3):
        calls = []

        def run(batch):
            calls.append(batch)
            return [(item[0], os.getpid(), len(calls), [len(x) for x in batch])
                    for item in batch]

        with _shares(shares):
            results = nc.batched(run, items)
        assert [i for i, *_ in results] == list(range(len(items)))
        processes = {}
        for _, pid, call, batch in results:
            processes.setdefault(pid, {})[call] = batch
        assert len(processes) == min(shares, len(items))
        assert len(calls) == len(processes.get(os.getpid(), ()))  # this process's own share
        totals = []
        for pid, by_call in processes.items():
            batches = [by_call[call] for call in sorted(by_call)]
            share = [n for batch in batches for n in batch]
            assert share == sorted(share, reverse=True)
            assert all(len(b) * b[0] <= 10 or len(b) == 1 for b in batches)
            # a cut is made only where the next item would break the budget
            assert all((len(b) + 1) * b[0] > 10 for b in batches[:-1])
            totals.append(sum(share))
            if pid == os.getpid():  # this process runs the share with the longest item
                assert share[0] == max(lengths)
        assert sorted(totals) == (sorted(_dealt(lengths, shares)) if items else [])
        assert sum(len(by_call[c]) for by_call in processes.values() for c in by_call) \
            == len(items)
        _no_children_left()


_SHARE_LAYERS = {variant: random_layers(variant, 3, 20, 2, np.random.default_rng(23))
                 for variant in (PEEPHOLE, COUPLED)}


# 20 units make 60 or 80 rows of W_h: a 64-row block and a tail, or none.
@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=40), st.sampled_from([2, 3]),
       st.sampled_from([PEEPHOLE, COUPLED]))
@example([17], 2, COUPLED)
@example([9] * 11, 3, PEEPHOLE)
@example([60] * 40, 2, COUPLED)
def test_batched_shares_give_the_in_process_results_bit_for_bit(one_blas_thread, lengths,
                                                               shares, variant):
    layers = _SHARE_LAYERS[variant]
    items = [np.random.default_rng(i).standard_normal((n, 3)) for i, n in enumerate(lengths)]

    def run(batch):
        with nc.no_grad():
            return [out.data for out in bilstm_encode(layers, [Tensor(x) for x in batch])]

    with _shares(1):
        alone = nc.batched(run, items)
    with _shares(shares):
        split = nc.batched(run, items)
    assert len(split) == len(items)
    assert all(np.array_equal(a, b) for a, b in zip(alone, split))
    _no_children_left()


# -- shares in forked processes ------------------------------------------------------------


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class LineError(ValueError):
    """An error whose `__init__` takes other arguments than its args, which
    pickle alone cannot rebuild."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _recurse(depth=0):
    return _recurse(depth + 1) + 1


@pytest.mark.parametrize("error", [
    ValueError("cannot parse an empty sentence"),
    nc.NonFiniteError("bilstm_encode produced NaN or Inf values (input shapes (3, 2))"),
    MemoryError(),
    RecursionError,
    LineError(7, "no such token"),
    ConlluError(3, "expected 10 tab-separated fields"),
], ids=lambda error: getattr(error, "__name__", type(error).__name__))
def test_an_error_in_a_child_is_raised_here_with_its_type_and_message(error):
    parent = os.getpid()

    def run(batch):
        if os.getpid() != parent:
            if error is RecursionError:
                _recurse()
            raise error
        return [len(item) for item in batch]

    with _shares(2), pytest.raises(Exception if error is RecursionError else type(error)) as got:
        nc.batched(run, [[1, 2], [3]])
    if error is RecursionError:
        assert type(got.value) is RecursionError
        assert "maximum recursion depth" in str(got.value)
    else:
        assert type(got.value) is type(error)
        assert str(got.value) == str(error) and vars(got.value) == vars(error)
    _no_children_left()


def test_a_killed_child_is_a_child_process_error():
    parent = os.getpid()

    def run(batch):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return [0] * len(batch)

    with _shares(3), pytest.raises(ChildProcessError, match="killed by signal 9"):
        nc.batched(run, [[1, 2, 3], [4, 5], [6]])
    _no_children_left()


def test_an_error_here_stops_the_children_at_once():
    parent = os.getpid()

    def run(batch):
        if os.getpid() == parent:
            raise ValueError("here")
        time.sleep(60)
        return [0] * len(batch)

    start = time.monotonic()
    with _shares(3), pytest.raises(ValueError, match="here"):
        nc.batched(run, [[1, 2, 3], [4, 5], [6]])
    assert time.monotonic() - start < 30
    _no_children_left()


def test_an_unpicklable_result_is_an_error_here():
    with _shares(2), pytest.raises((AttributeError, TypeError, pickle.PicklingError)):
        nc.batched(lambda batch: [lambda: item for item in batch], [[1, 2], [3]])
    _no_children_left()


def test_a_split_forks_only_where_it_is_safe(monkeypatch):
    from stackparse.numcore.worker import in_parallel
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert worker.cores() == 3
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, daemon=True)
    other.start()
    try:
        assert worker.cores() == 1  # a child would lose the other thread
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    parent = os.getpid()

    def run(batch):  # inside a split: no second split, no helper thread
        here, there = in_parallel(threading.get_ident, threading.get_ident)
        return [(os.getpid() == parent, worker.cores(), here == there,
                 threading.active_count())] * len(batch)

    in_children, here = (False, 1, True, 1), (True, 1, True, 1)
    assert sorted(nc.batched(run, [[1], [2], [3]])) == [in_children] * 2 + [here]
    assert nc.batched(run, [[1]]) == [(True, 3, False, 1)]  # one item: no split
    monkeypatch.delattr(os, "fork")
    assert worker.cores() == 1
    _no_children_left()
