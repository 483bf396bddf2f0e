from __future__ import annotations

import numpy as np
import pytest

from stackparse.numcore import (
    AdagradState,
    Tensor,
    fit,
    grad_check,
    manifest_arrays,
    manifest_views,
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


def test_adagrad_rejects_nan_gradients():
    state = AdagradState()
    with pytest.raises(FloatingPointError):
        step(state, Tensor(np.zeros(2)), [1.0, np.nan])


def test_adagrad_apply_skips_missing_grads():
    state = AdagradState(l2_lambda=0.0)
    used = Tensor(np.array([1.0]), requires_grad=True)
    unused = Tensor(np.array([5.0]), requires_grad=True)
    (used * used).sum().backward()
    state.apply({"used": used, "unused": unused})
    assert used.data[0] != 1.0
    assert unused.data[0] == 5.0


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


def test_manifest_blob_round_trip_is_bit_exact():
    rng = np.random.default_rng(1)
    params = {
        "layer/w": rng.standard_normal((3, 4)),
        "layer/b": rng.standard_normal(4),
        "scalarish": np.array(3.25),
        "small32": rng.standard_normal((2, 2)).astype(np.float32),
    }
    manifest, blob = to_manifest_blob(params)
    restored = manifest_views(manifest, blob)
    assert set(restored) == set(params)
    for name, arr in params.items():
        assert restored[name].dtype == arr.dtype
        assert restored[name].shape == arr.shape
        assert restored[name].tobytes() == arr.tobytes()
    manifest2, blob2 = to_manifest_blob(restored)
    assert manifest2 == manifest and blob2 == blob


def test_manifest_format_and_little_endianness():
    params = {"w": np.array([[1.0, 2.0]]), "v": np.array([3.0], dtype=np.float32)}
    manifest, blob = to_manifest_blob(params)
    lines = manifest.strip().split("\n")
    assert lines[0] == "w 1,2 float64 0"
    assert lines[1] == "v 1 float32 16"
    assert blob[:8] == np.array([1.0], dtype="<f8").tobytes()
    assert blob[16:20] == np.array([3.0], dtype="<f4").tobytes()


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
    restored = manifest_views((tmp_path / "model.manifest").read_text(),
                              (tmp_path / "model.bin").read_bytes())
    assert np.array_equal(restored["a"], params["a"])
    assert (tmp_path / "model.manifest").read_text().startswith("a 2,3 float64 0")
