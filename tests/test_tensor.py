from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackparse import numcore as nc
from stackparse.numcore import NonFiniteError, Tensor


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
    ((4,), (4, 2)),
    ((4,), (4,)),
])
def test_matmul_arities_pass_gradcheck(shape_a, shape_b):
    a = Tensor(rand(shape_a, seed=2), requires_grad=True)
    b = Tensor(rand(shape_b, seed=3), requires_grad=True)

    def loss():
        return nc.tanh(nc.matmul(a, b)).sum()

    assert nc.grad_check(loss, {"a": a, "b": b}) < 1e-6


def test_structural_ops_pass_gradcheck():
    table = Tensor(rand((5, 3), seed=4), requires_grad=True)
    mat = Tensor(rand((4, 4), seed=5), requires_grad=True)

    def loss():
        rows = table[[0, 2, 2, 4]]  # a repeated index array
        joined = nc.concat([rows, mat[0:4, 0:3]], axis=1)  # a pair of 2-D slices
        ones = nc.append_ones_col(joined)
        picked = ones[[0, 1, 2], [1, 3, 6]]  # paired index arrays
        return (nc.leaky_relu(ones).sum() + picked.sum()
                + table[1][0:2].sum()  # an int row, then a 1-D slice
                + nc.tanh(mat[2, 1:]).sum())  # int plus slice

    assert nc.grad_check(loss, {"table": table, "mat": mat}) < 1e-6


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

    assert nc.grad_check(loss, {"x": x}) < 1e-6


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8),
       st.floats(min_value=-30, max_value=30))
def test_logsumexp_shift_invariance(values, shift):
    x = np.array([values])
    every = np.ones(x.shape, bool)
    base = nc.logsumexp_rows_masked(Tensor(x), every).data[0]
    shifted = nc.logsumexp_rows_masked(Tensor(x + shift), every).data[0]
    assert abs(shifted - (base + shift)) < 1e-12


def test_logsumexp_axis_and_gradient():
    x = Tensor(rand((3, 5), seed=8), requires_grad=True)
    every = np.ones((3, 5), bool)

    def loss():
        return nc.logsumexp_rows_masked(x, every).sum()

    assert nc.grad_check(loss, {"x": x}) < 1e-6
    assert nc.logsumexp_rows_masked(x, every).shape == (3,)
    with pytest.raises(ValueError, match="mask shape"):
        nc.logsumexp_rows_masked(x, np.ones((5, 3), bool))


def test_masked_logsumexp_ignores_masked_columns():
    x = Tensor(rand((3, 4), seed=9), requires_grad=True)
    mask = np.array([[True, True, False, True]] * 3)
    out = nc.logsumexp_rows_masked(x, mask)
    expected = np.log(np.exp(x.data[:, [0, 1, 3]]).sum(axis=1))
    assert np.allclose(out.data, expected, atol=1e-12)

    def loss():
        return nc.logsumexp_rows_masked(x, mask).sum()

    assert nc.grad_check(loss, {"x": x}) < 1e-6
    nc.zero_grads([x])
    loss().backward()
    assert np.all(x.grad[:, 2] == 0.0)


def test_masked_logsumexp_rejects_empty_rows():
    x = Tensor(rand((2, 2), seed=10))
    with pytest.raises(ValueError):
        nc.logsumexp_rows_masked(x, np.array([[True, True], [False, False]]))


def test_nonfinite_values_rejected():
    with pytest.raises(NonFiniteError):
        Tensor(np.array([1.0, np.nan]))
    big = Tensor(np.full(3, 1e308))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        nc.mul(big, big)


def test_dropout_identity_when_disabled():
    x = Tensor(rand(10, seed=11), requires_grad=True)
    rng = np.random.default_rng(0)
    assert nc.dropout(x, 0.0, rng, training=True) is x
    assert nc.dropout(x, 0.5, rng, training=False) is x


def test_dropout_expectation_within_one_percent():
    rng = np.random.default_rng(42)
    x = Tensor(np.full(4, 2.0))
    samples = 100_000
    total = np.zeros(4)
    for _ in range(samples):
        total += nc.dropout(x, 0.15, rng, training=True).data
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

    assert nc.grad_check(loss, {"u": u, "a": a, "b": b}, max_coords_per_param=20) < 1e-6


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
        return nc.transpose(nc.concat([nc.reshape(v, (1, -1)) for v in vs])).sum()

    params = {f"v{i}": v for i, v in enumerate(vs)}
    assert nc.grad_check(loss, params) < 1e-6
