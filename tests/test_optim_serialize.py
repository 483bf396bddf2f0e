from __future__ import annotations

import io

import numpy as np
import pytest

from stackparse.numcore import (
    AdagradState,
    Tensor,
    fit,
    grad_check,
    manifest_arrays,
    manifest_layout,
    manifest_read_into,
)


def step(state, param: Tensor, grad) -> None:
    """One Adagrad update of `param` with the given gradient."""
    param.grad = np.asarray(grad, dtype=np.float64)
    state.apply({"p": param})


def test_adagrad_first_step_closed_form():
    state = AdagradState(learning_rate=0.01, l2_lambda=0.0)
    param = Tensor(np.array([1.0]))
    step(state, param, [1.0])
    expected_delta = -0.01 * 1.0 / (1.0 + 1e-8)
    assert abs(param.data[0] - (1.0 + expected_delta)) < 1e-15


def test_adagrad_zero_gradient_leaves_params_unchanged():
    state = AdagradState(l2_lambda=0.0)
    param = Tensor(np.array([3.0, -2.0]))
    step(state, param, np.zeros(2))
    assert np.array_equal(param.data, np.array([3.0, -2.0]))


def test_adagrad_second_step_uses_accumulated_squares():
    state = AdagradState(learning_rate=0.01, l2_lambda=0.0)
    param = Tensor(np.array([0.0]))
    step(state, param, [1.0])
    first = param.data[0]
    step(state, param, [1.0])
    second_delta = param.data[0] - first
    assert abs(second_delta - (-0.01 / (np.sqrt(2.0) + 1e-8))) < 1e-15


def test_adagrad_l2_term_shrinks_parameters():
    state = AdagradState(learning_rate=0.1, l2_lambda=0.5)
    param = Tensor(np.array([2.0]))
    step(state, param, np.zeros(1))
    # effective gradient = lambda * p = 1.0
    assert param.data[0] < 2.0


def test_adagrad_accumulators_nonnegative_and_nondecreasing():
    rng = np.random.default_rng(0)
    state = AdagradState(l2_lambda=0.0)
    param = Tensor(rng.standard_normal(5))
    previous = np.zeros(5)
    for _ in range(10):
        step(state, param, rng.standard_normal(5))
        acc = state.accumulators["p"]
        assert np.all(acc >= previous)
        previous = acc.copy()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adagrad_rejects_nan_gradients(bad):
    state = AdagradState()
    param = Tensor(np.ones(3))
    with pytest.raises(FloatingPointError, match="'p'"):
        step(state, param, [1.0, bad, 0.0])
    assert np.array_equal(param.data, np.ones(3))


def test_adagrad_apply_skips_missing_grads():
    state = AdagradState(l2_lambda=0.0)
    used = Tensor(np.array([1.0]), requires_grad=True)
    unused = Tensor(np.array([5.0]), requires_grad=True)
    (used * used).sum().backward()
    state.apply({"used": used, "unused": unused})
    assert used.data[0] != 1.0
    assert unused.data[0] == 5.0


@pytest.mark.parametrize("l2_lambda", [0.0, 1e-3])
def test_adagrad_chunked_update_equals_the_whole_array_formula(l2_lambda):
    """Tensors spanning several update chunks, and a scalar, get the plain
    whole-array expression of the update bit for bit."""
    rng = np.random.default_rng(1)
    shapes = {"matrix": (300, 200), "vector": (70001,), "stack": (5, 90, 90), "scalar": ()}
    state = AdagradState(learning_rate=0.05, l2_lambda=l2_lambda)
    params = {k: Tensor(rng.standard_normal(s)) for k, s in shapes.items()}
    expected = {k: t.data.copy() for k, t in params.items()}
    acc = {k: np.zeros(s) for k, s in shapes.items()}
    for _ in range(3):
        for k, t in params.items():
            t.grad = np.asarray(rng.standard_normal(shapes[k]))
            g = t.grad + l2_lambda * expected[k] if l2_lambda else t.grad
            acc[k] += g * g
            expected[k] -= 0.05 * g / (np.sqrt(acc[k]) + 1e-8)
        state.apply(params)
    for k, t in params.items():
        assert t.data.tobytes() == expected[k].tobytes(), k
        assert state.accumulators[k].tobytes() == acc[k].tobytes(), k


SPLIT_SHAPES = {"a": (300, 200), "b": (70001,), "c": (5, 90, 90), "d": ()}


@pytest.mark.parametrize("bad,named", [
    (("c",), "c"), (("d",), "d"), (("a", "c"), "a"), (("b", "c"), "b"), (("d", "b"), "b"),
])
def test_adagrad_non_finite_gradient_changes_nothing(bad, named):
    """Tensors on both threads' runs; the first bad tensor in dict order is
    named and no parameter or accumulator moves."""
    rng = np.random.default_rng(2)
    state = AdagradState(learning_rate=0.05)
    params = {k: Tensor(rng.standard_normal(s)) for k, s in SPLIT_SHAPES.items()}
    for k in "abc":
        params[k].grad = rng.standard_normal(SPLIT_SHAPES[k])
    state.apply(params)  # "d" has no accumulator yet
    for k, t in params.items():
        t.grad = rng.standard_normal(SPLIT_SHAPES[k])
    for k in bad:
        params[k].grad.reshape(-1)[-1] = np.nan if k < "c" else np.inf
    before = {k: t.data.copy() for k, t in params.items()}
    accumulators = {k: acc.copy() for k, acc in state.accumulators.items()}
    with pytest.raises(FloatingPointError, match=f"'{named}'"):
        state.apply(params)
    assert all(np.array_equal(params[k].data, before[k]) for k in params)
    assert state.accumulators.keys() == accumulators.keys()
    assert all(np.array_equal(state.accumulators[k], accumulators[k]) for k in accumulators)


@pytest.mark.parametrize("kwargs", [
    {"learning_rate": 0.0}, {"learning_rate": -0.1}, {"learning_rate": np.nan},
    {"learning_rate": np.inf}, {"epsilon": 0.0}, {"epsilon": -1e-8}, {"epsilon": np.nan},
    {"epsilon": np.inf}, {"l2_lambda": -1e-6}, {"l2_lambda": np.nan}, {"l2_lambda": np.inf},
])
def test_adagrad_rejects_bad_hyperparameters(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        AdagradState(**kwargs)


def test_adagrad_accepts_zero_l2():
    assert AdagradState(l2_lambda=0.0).l2_lambda == 0.0


def test_adagrad_rejects_a_tensor_listed_twice():
    param = Tensor(np.ones(3))
    param.grad = np.ones(3)
    with pytest.raises(ValueError, match="once"):
        AdagradState().apply({"p": param, "q": param})
    assert np.array_equal(param.data, np.ones(3))


class _FitConfig:
    epochs = 3
    learning_rate = 0.1
    l2_lambda = 0.0


def _square_loss(param):
    return lambda target: ((param + (-target)) * (param + (-target))).sum()


def test_fit_restores_the_best_epochs_parameters():
    param = Tensor(np.array([0.0, 0.0]), requires_grad=True)
    after_epoch = []
    scores = [1.0, 3.0, 3.0, 2.0]  # rise, tie, fall: the first best epoch wins

    def dev_score(dev):
        after_epoch.append(param.data.copy())
        return scores[len(after_epoch) - 1]

    class FourEpochs(_FitConfig):
        epochs = 4

    best = fit({"p": param}, _square_loss(param), [1.0, 2.0], ["dev"], dev_score,
               FourEpochs, np.random.default_rng(0))
    assert best == (2, 3.0)
    assert len(after_epoch) == 4
    assert not any(np.array_equal(after_epoch[1], later) for later in after_epoch[2:])
    assert np.array_equal(param.data, after_epoch[1])


def test_fit_without_dev_keeps_the_last_epoch():
    def train(dev, dev_score):
        param = Tensor(np.array([0.0]), requires_grad=True)
        best = fit({"p": param}, _square_loss(param), [1.0, 2.0], dev, dev_score,
                   _FitConfig, np.random.default_rng(0))
        return best, param.data

    scores = iter([1.0, 2.0, 3.0])  # rising, so the last epoch is the best
    with_dev, last_epoch = train(["dev"], lambda dev: next(scores))
    without_dev, kept = train([], None)  # dev_score is never called
    assert with_dev == (3, 3.0)
    assert without_dev == (3, None)
    assert np.array_equal(kept, last_epoch) and kept[0] != 0.0


def test_fit_draws_one_permutation_per_epoch():
    param = Tensor(np.array([0.0]), requires_grad=True)
    seen = []

    def loss(target):
        seen.append(target)
        return _square_loss(param)(target)

    rng = np.random.default_rng(7)
    train = [1.0, 2.0, 3.0, 4.0]
    fit({"p": param}, loss, train, [], None, _FitConfig, rng)
    reference = np.random.default_rng(7)
    orders = [reference.permutation(len(train)) for _ in range(_FitConfig.epochs)]
    assert seen == [train[i] for order in orders for i in order]
    assert rng.random() == reference.random()  # nothing else was drawn


def test_grad_check_quadratic_is_near_exact():
    p = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)

    def loss():
        return (p * p).sum()

    assert grad_check(loss, {"p": p}, epsilon=1e-5) < 1e-7


# -- serialization ------------------------------------------------------------


def to_manifest_blob(params):
    manifest, arrays = manifest_arrays(params)
    return manifest, b"".join(arrays)


def read_back(manifest, blob):
    """Fresh arrays of the stored shapes, read from the blob."""
    arrays = {name: np.empty(shape) for name, (shape, _) in manifest_layout(manifest).items()}
    manifest_read_into(manifest, io.BytesIO(blob), arrays)
    return arrays


def test_manifest_blob_round_trip_is_bit_exact():
    rng = np.random.default_rng(1)
    params = {
        "layer/w": rng.standard_normal((3, 4)),
        "layer/b": rng.standard_normal(4),
        "scalarish": np.array(3.25),
        "transposed": rng.standard_normal((2, 3)).T,
    }
    manifest, blob = to_manifest_blob(params)
    restored = read_back(manifest, blob)
    assert set(restored) == set(params)
    for name, arr in params.items():
        assert restored[name].dtype == arr.dtype
        assert restored[name].shape == arr.shape
        assert restored[name].tobytes() == arr.tobytes()
    manifest2, blob2 = to_manifest_blob(restored)
    assert manifest2 == manifest and blob2 == blob


def test_manifest_format_and_little_endianness():
    params = {"w": np.array([[1.0, 2.0]]), "v": np.array([3.0]), "s": np.array(4.0)}
    manifest, blob = to_manifest_blob(params)
    lines = manifest.strip().split("\n")
    assert lines == ["w 1,2 float64 0", "v 1 float64 16", "s - float64 24"]
    assert blob[:8] == np.array([1.0], dtype="<f8").tobytes()
    assert blob[16:] == np.array([3.0, 4.0], dtype="<f8").tobytes()


def test_only_float64_is_written():
    with pytest.raises(ValueError, match="unsupported dtype float32"):
        manifest_arrays({"v": np.zeros(2, dtype=np.float32)})


@pytest.mark.parametrize("line", [
    "w 2 float64",  # a field short
    "w 2 float64 0 extra",  # a field over
    "w 2 float16 0",
    "w 2 float32 0",
    "w 2,x float64 0",
    "w 2,-1 float64 0",
    "w 2 float64 8.0",
])
def test_malformed_manifest_line_is_named(line):
    manifest = f"v 1 float64 0\n{line}\n"
    with pytest.raises(ValueError) as raised:
        manifest_layout(manifest)
    assert str(raised.value) == f"manifest line 2 is not 'name shape float64 offset': {line!r}"


def test_manifest_naming_a_parameter_twice_is_rejected():
    with pytest.raises(ValueError, match="^manifest line 2 names w a second time$"):
        manifest_layout("w 2 float64 0\nw 2 float64 16\n")


def test_parameter_names_may_not_contain_spaces():
    with pytest.raises(ValueError):
        manifest_arrays({"bad name": np.zeros(1)})


def test_file_round_trip(tmp_path):
    params = {"a": np.arange(6, dtype=np.float64).reshape(2, 3)}
    manifest, arrays = manifest_arrays(params)
    (tmp_path / "model.manifest").write_text(manifest)
    with open(tmp_path / "model.bin", "wb") as f:
        for arr in arrays:
            f.write(arr)
    restored = read_back((tmp_path / "model.manifest").read_text(),
                         (tmp_path / "model.bin").read_bytes())
    assert np.array_equal(restored["a"], params["a"])
    assert (tmp_path / "model.manifest").read_text().startswith("a 2,3 float64 0")


def test_read_into_skips_unasked_entries_and_checks_shapes_and_layout():
    params = {"skip": np.arange(3.0), "w": np.arange(4.0).reshape(2, 2),
              "v": np.array([1.5, -2.0])}
    manifest, blob = to_manifest_blob(params)
    w, v = np.zeros((2, 2)), np.zeros(2)
    manifest_read_into(manifest, io.BytesIO(blob), {"w": w, "v": v})
    assert np.array_equal(w, params["w"]) and np.array_equal(v, [1.5, -2.0])
    with pytest.raises(ValueError, match="has shape"):
        manifest_read_into(manifest, io.BytesIO(blob), {"w": np.zeros(4)})
    with pytest.raises(ValueError, match="lack"):
        manifest_read_into(manifest, io.BytesIO(blob), {"u": np.zeros(4)})
    with pytest.raises(ValueError, match="end early"):
        manifest_read_into(manifest, io.BytesIO(blob[:-1]), {"v": v})
    for dest in (np.zeros(2, dtype=np.float32), np.zeros(4)[::2]):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            manifest_read_into(manifest, io.BytesIO(blob), {"v": dest})
