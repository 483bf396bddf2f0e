from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stackparse import numcore as nc
from stackparse.numcore import NonFiniteError, Tensor
from stackparse.numcore.tensor import _sigmoid
from util import grad_check, logsumexp_rows_masked, transpose


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def test_add_mul_gradients_match_hand_formulas():
    a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    b = Tensor(np.array([4.0, 5.0, 6.0]), requires_grad=True)
    out = (a * b + a).sum()
    out.backward()
    assert np.allclose(a.grad, b.data + 1.0)
    assert np.allclose(b.grad, a.data)


def test_broadcast_bias_add_reduces_gradient():
    m = Tensor(rand((4, 3)), requires_grad=True)
    bias = Tensor(rand(3, seed=1), requires_grad=True)
    (m + bias).sum().backward()
    assert np.allclose(bias.grad, np.full(3, 4.0))
    assert np.allclose(m.grad, np.ones((4, 3)))


@pytest.mark.parametrize("shape_a,shape_b", [
    ((3, 4), (4, 2)),
    ((3, 4), (4,)),
])
def test_matmul_arities_pass_gradcheck(shape_a, shape_b):
    a = Tensor(rand(shape_a, seed=2), requires_grad=True)
    b = Tensor(rand(shape_b, seed=3), requires_grad=True)

    def loss():
        return nc.tanh(nc.matmul(a, b)).sum()

    assert grad_check(loss, {"a": a, "b": b}) < 1e-6


def test_matmul_and_linear_reject_a_1d_left_operand():
    v, m = Tensor(rand(4, seed=2)), Tensor(rand((4, 4), seed=3))
    with pytest.raises(ValueError, match="2-D"):
        nc.matmul(v, m)
    with pytest.raises(ValueError, match="2-D"):
        nc.linear(v, m)


def three_op_chain(x, w, b):
    """x @ w.T (+ b) as the ops `nc.linear` fuses."""
    out = nc.matmul(x, transpose(w))
    return out if b is None else out + b


# (rows, in, out): M·N·K on both sides of the ~1e6 where OpenBLAS switches kernels.
@pytest.mark.parametrize("rows,dim_in,dim_out", [(7, 24, 12), (30, 200, 100),
                                                 (100, 120, 90), (150, 200, 100)])
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("slot", [True, False])
def test_linear_equals_the_three_op_chain_bit_for_bit(rows, dim_in, dim_out, bias, slot):
    x = Tensor(rand((rows, dim_in), seed=23), requires_grad=True)
    w = Tensor(rand((dim_out, dim_in), seed=24), requires_grad=True)
    b = Tensor(rand(dim_out, seed=25), requires_grad=True) if bias else None
    params = [x, w] + ([b] if bias else [])
    weights = Tensor(rand((rows, dim_out), seed=26))
    results = []
    for op in (nc.linear, three_op_chain):
        with nc.no_grad():
            off_tape = op(x, w, b)
        nc.zero_grads(params)
        w._grad_slot = np.full(w.shape, np.nan) if slot else None  # as `fit` sets it
        out = op(x, w, b)
        (nc.tanh(out) * weights).sum().backward()
        assert (w.grad is w._grad_slot) == slot
        results.append([t.tobytes() for t in [off_tape.data, out.data]
                        + [p.grad for p in params]])
    assert results[0] == results[1]


def test_structural_ops_pass_gradcheck():
    table = Tensor(rand((5, 3), seed=4), requires_grad=True)
    mat = Tensor(rand((4, 4), seed=5), requires_grad=True)

    def loss():
        rows = table[[0, 2, 2, 4]]  # a repeated index array
        joined = nc.concat([rows, mat[0:4, 0:3]], axis=1)  # a pair of 2-D slices
        ones = nc.concat([joined, np.ones((4, 1))], axis=1)
        picked = ones[[0, 1, 2], [1, 3, 6]]  # paired index arrays
        return (nc.leaky_relu(ones).sum() + picked.sum()
                + table[1][0:2].sum()  # an int row, then a 1-D slice
                + nc.tanh(mat[2, 1:]).sum())  # int plus slice

    assert grad_check(loss, {"table": table, "mat": mat}) < 1e-6


@pytest.mark.parametrize("basic,advanced", [
    (1, [1]),
    ((slice(1, 4), slice(None)), ([[1], [2], [3]], [0, 1, 2])),
    ((2, slice(0, 3)), ([2, 2, 2], [0, 1, 2])),
])
def test_basic_and_index_array_keys_give_identical_gradients(basic, advanced):
    grads = []
    for key in (basic, advanced):
        x = Tensor(rand((5, 3), seed=21), requires_grad=True)
        out = x[key]
        weights = Tensor(rand(out.shape, seed=22))
        nc.tanh(out * weights).sum().backward()
        grads.append((out.data.reshape(-1).tobytes(), x.grad.tobytes()))
    assert grads[0] == grads[1]


def test_softmax_rows_sum_to_one_within_1e12():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = Tensor(rng.standard_normal((5, 7)) * 10)
        mask = rng.random((5, 7)) < 0.6
        mask[np.arange(5), rng.integers(0, 7, 5)] = True
        out = nc.softmax_rows_masked(x, mask).data
        assert np.all(np.abs(out.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(out >= 0) and np.all(out[~mask] == 0.0)


def test_softmax_gradient():
    # a row of scores shared by three rows of the mask, as char attention uses it
    x = Tensor(rand(6, seed=6), requires_grad=True)
    mask = np.array([[1, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]], bool)
    weights = rand((3, 6), seed=7)

    def loss():
        return (nc.softmax_rows_masked(x, mask) * Tensor(weights)).sum()

    assert grad_check(loss, {"x": x}) < 1e-6


def old_cross_entropy_chain(a, allowed, gold):
    """The rows' cross-entropy as the tape ops `nc.cross_entropy_rows` fuses:
    the masked log-sum-exp, the gold gather, a mul by -1 plus an add, a sum."""
    norm = logsumexp_rows_masked(a, allowed)
    return nc.add(norm, nc.mul(a[np.arange(len(gold)), gold], -1.0)).sum()


def cross_entropy_case(rows, cols, seed, gold_at):
    """Scores, a mask that allows each row at least one column, and each row's
    gold column: its first allowed one, its last, or one drawn among them."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cols)) * 10.0
    mask = rng.random((rows, cols)) < 0.5
    mask[np.arange(rows), rng.integers(0, cols, rows)] = True
    allowed = [np.flatnonzero(row) for row in mask]
    if gold_at == "first":
        gold = [int(a[0]) for a in allowed]
    elif gold_at == "last":
        gold = [int(a[-1]) for a in allowed]
    else:
        gold = [int(rng.choice(a)) for a in allowed]
    return x, mask, gold


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.integers(1, 6), st.integers(1, 7), st.integers(0, 2**32 - 1),
       st.sampled_from(["first", "last", "drawn"]), st.booleans(),
       st.floats(min_value=0.01, max_value=4.0))
@example(1, 1, 0, "first", False, 1.0)  # 1x1: the one column is gold
@example(5, 1, 1, "last", True, 0.25)   # every row allows one column
def test_cross_entropy_rows_equals_the_old_chain_bit_for_bit(rows, cols, seed, gold_at,
                                                             slot, scale):
    x, mask, gold = cross_entropy_case(rows, cols, seed, gold_at)
    results = []
    for op in (nc.cross_entropy_rows, old_cross_entropy_chain):
        a = Tensor(x, requires_grad=True)
        a._grad_slot = np.full(x.shape, np.nan) if slot else None  # as `fit` sets it
        out = op(a, mask, gold)
        (out * scale).backward()
        assert (a.grad is a._grad_slot) == slot
        results.append((out.data.tobytes(), a.grad.tobytes()))
    assert results[0] == results[1]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8),
       st.floats(min_value=-30, max_value=30))
def test_cross_entropy_rows_shift_invariance(values, shift):
    x = np.array([values])
    every = np.ones(x.shape, bool)
    base = nc.cross_entropy_rows(Tensor(x), every, [1]).item()
    shifted = nc.cross_entropy_rows(Tensor(x + shift), every, [1]).item()
    assert abs(shifted - base) < 1e-12


def test_cross_entropy_rows_gradient_and_mask_shape():
    x = Tensor(rand((3, 5), seed=8), requires_grad=True)
    mask = np.array([[1, 1, 0, 1, 1], [0, 1, 1, 0, 0], [1, 1, 1, 1, 1]], bool)

    def loss():
        return nc.cross_entropy_rows(x, mask, [3, 2, 0])

    assert grad_check(loss, {"x": x}) < 1e-6
    assert nc.cross_entropy_rows(x, mask, [3, 2, 0]).shape == ()
    with pytest.raises(ValueError, match="mask shape"):
        nc.cross_entropy_rows(x, np.ones((5, 3), bool), [0, 0, 0, 0, 0])


def test_cross_entropy_rows_ignores_masked_columns():
    x = Tensor(rand((3, 4), seed=9), requires_grad=True)
    mask = np.array([[True, True, False, True]] * 3)
    gold = [0, 3, 1]
    out = nc.cross_entropy_rows(x, mask, gold)
    expected = (np.log(np.exp(x.data[:, [0, 1, 3]]).sum(axis=1))
                - x.data[np.arange(3), gold]).sum()
    assert abs(out.item() - expected) < 1e-12
    out.backward()
    assert np.all(x.grad[:, 2] == 0.0)


def test_cross_entropy_rows_rejects_empty_rows():
    x = Tensor(rand((2, 2), seed=10))
    with pytest.raises(ValueError, match="at least one column"):
        nc.cross_entropy_rows(x, np.array([[True, True], [False, False]]), [0, 0])


def test_nonfinite_values_rejected():
    with pytest.raises(NonFiniteError):
        Tensor(np.array([1.0, np.nan]))
    big = Tensor(np.full(3, 1e308))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        nc.mul(big, big)


def test_dropout_identity_when_disabled():
    x = Tensor(rand(10, seed=11), requires_grad=True)
    rng = np.random.default_rng(0)
    assert nc.dropout(x, 0.0, rng) is x
    assert nc.dropout(x, 0.5, None) is x
    assert rng.random() == np.random.default_rng(0).random()  # nothing was drawn


def test_dropout_expectation_within_one_percent():
    rng = np.random.default_rng(42)
    x = Tensor(np.full(4, 2.0))
    samples = 100_000
    total = np.zeros(4)
    for _ in range(samples):
        total += nc.dropout(x, 0.15, rng).data
    mean = total / samples
    assert np.all(np.abs(mean - 2.0) / 2.0 < 0.01)


def test_dropout_rate_validation():
    x = Tensor(rand(3, seed=12))
    with pytest.raises(ValueError):
        nc.dropout(x, 1.0, np.random.default_rng(0))


def test_bilinear_labels_matches_einsum_and_gradcheck():
    u = Tensor(rand((3, 4, 5), seed=13), requires_grad=True)
    a = Tensor(rand((6, 4), seed=14), requires_grad=True)
    b = Tensor(rand((6, 5), seed=15), requires_grad=True)
    out = nc.bilinear_labels(u, a, b)
    expected = np.einsum("lpq,np,nq->nl", u.data, a.data, b.data)
    assert np.allclose(out.data, expected, atol=1e-12)

    def loss():
        return nc.tanh(nc.bilinear_labels(u, a, b)).sum()

    assert grad_check(loss, {"u": u, "a": a, "b": b}, max_coords_per_param=20) < 1e-6


def test_no_grad_blocks_tape():
    x = Tensor(rand(3, seed=16), requires_grad=True)
    with nc.no_grad():
        out = nc.tanh(x).sum()
    assert not out.requires_grad
    out2 = nc.tanh(x).sum()
    assert out2.requires_grad


def test_backward_requires_scalar():
    x = Tensor(rand(3, seed=17), requires_grad=True)
    with pytest.raises(ValueError):
        nc.tanh(x).backward()


def test_concat_rows_and_transpose_grads():
    vs = [Tensor(rand(3, seed=s), requires_grad=True) for s in (18, 19, 20)]

    def loss():
        return (transpose(nc.concat([v[None] for v in vs])) * Tensor(rand((3, 3)))).sum()

    params = {f"v{i}": v for i, v in enumerate(vs)}
    assert grad_check(loss, params) < 1e-6


def test_linear_multiplies_by_a_view_off_the_tape_and_a_copy_on_it():
    # At this size OpenBLAS sums a product with a transposed operand in
    # another order than with a C-contiguous one, so the bits tell them apart.
    x = Tensor(rand((7, 24), seed=21), requires_grad=True)
    w = Tensor(rand((12, 24), seed=22), requires_grad=True)
    with nc.no_grad():
        off_tape = nc.linear(x, w)
    on_tape = nc.linear(x, w)
    assert off_tape.data.tobytes() == (x.data @ w.data.T).tobytes()
    assert on_tape.data.tobytes() == (x.data @ w.data.T.copy()).tobytes()
    g = rand((7, 12), seed=23)
    (on_tape * Tensor(g)).sum().backward()
    assert not np.shares_memory(w.grad, w.data)
    assert np.array_equal(w.grad, (x.data.T @ g).T)
    assert np.array_equal(x.grad, g @ w.data.T.copy().T)


def test_sigmoid_divides_once_with_the_two_division_forms_operands():
    """Each element's one division has the operands of the form that
    computed both quotients and selected one, so the bits are the same."""
    x = np.array([0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 745.0, -745.0, 1e308, -1e308,
                  np.nan, *np.random.default_rng(0).normal(scale=20.0, size=200)])
    e = np.exp(-np.abs(x))
    two_divisions = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    assert _sigmoid(x).tobytes() == two_divisions.tobytes()
