from __future__ import annotations

import re
import sys
import tracemalloc

import numpy as np
import pytest

from stackparse import numcore as nc
from stackparse.modelio import _manifest_arrays as manifest_arrays
from stackparse.modelio import _manifest_layout as manifest_layout
from stackparse.modelio import _manifest_views
from stackparse.numcore import AdagradState, Tensor, fit
from stackparse.numcore.init import orthogonal_gate_stack
from stackparse.parser import train_parser
from stackparse.tagger import train_tagger
from util import grad_check, random_tree_sentence


def step(state, param: Tensor, grad) -> None:
    """One Adagrad update of `param`, the state's tensor, with the given gradient."""
    param.grad = np.asarray(grad, dtype=np.float64)
    state.apply()


def test_adagrad_first_step_closed_form():
    param = Tensor(np.array([1.0]))
    state = AdagradState({"p": param}, learning_rate=0.01, l2_lambda=0.0)
    step(state, param, [1.0])
    expected_delta = -0.01 * 1.0 / (1.0 + 1e-8)
    assert abs(param.data[0] - (1.0 + expected_delta)) < 1e-15


def test_adagrad_zero_gradient_leaves_params_unchanged():
    param = Tensor(np.array([3.0, -2.0]))
    state = AdagradState({"p": param}, l2_lambda=0.0)
    step(state, param, np.zeros(2))
    assert np.array_equal(param.data, np.array([3.0, -2.0]))


def test_adagrad_second_step_uses_accumulated_squares():
    param = Tensor(np.array([0.0]))
    state = AdagradState({"p": param}, learning_rate=0.01, l2_lambda=0.0)
    step(state, param, [1.0])
    first = param.data[0]
    step(state, param, [1.0])
    second_delta = param.data[0] - first
    assert abs(second_delta - (-0.01 / (np.sqrt(2.0) + 1e-8))) < 1e-15


def test_adagrad_l2_term_shrinks_parameters():
    param = Tensor(np.array([2.0]))
    state = AdagradState({"p": param}, learning_rate=0.1, l2_lambda=0.5)
    step(state, param, np.zeros(1))
    # effective gradient = lambda * p = 1.0
    assert param.data[0] < 2.0


def test_adagrad_accumulators_nonnegative_and_nondecreasing():
    rng = np.random.default_rng(0)
    param = Tensor(rng.standard_normal(5))
    state = AdagradState({"p": param}, l2_lambda=0.0)
    previous = np.zeros(5)
    for _ in range(10):
        step(state, param, rng.standard_normal(5))
        acc = state.accumulators["p"]
        assert np.all(acc >= previous)
        previous = acc.copy()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adagrad_rejects_nan_gradients(bad):
    param = Tensor(np.ones(3))
    state = AdagradState({"p": param})
    with pytest.raises(FloatingPointError, match="'p'"):
        step(state, param, [1.0, bad, 0.0])
    assert np.array_equal(param.data, np.ones(3))


def test_adagrad_apply_skips_missing_grads():
    used = Tensor(np.array([1.0]), requires_grad=True)
    unused = Tensor(np.array([5.0]), requires_grad=True)
    state = AdagradState({"used": used, "unused": unused}, l2_lambda=0.0)
    (used * used).sum().backward()
    state.apply()
    assert used.data[0] != 1.0
    assert unused.data[0] == 5.0


@pytest.mark.parametrize("l2_lambda", [0.0, 1e-3])
def test_adagrad_chunked_update_equals_the_whole_array_formula(l2_lambda):
    """Tensors spanning several update chunks, and a scalar, get the plain
    whole-array expression of the update bit for bit."""
    rng = np.random.default_rng(1)
    shapes = {"matrix": (300, 200), "vector": (70001,), "stack": (5, 90, 90), "scalar": ()}
    params = {k: Tensor(rng.standard_normal(s)) for k, s in shapes.items()}
    state = AdagradState(params, learning_rate=0.05, l2_lambda=l2_lambda)
    expected = {k: t.data.copy() for k, t in params.items()}
    acc = {k: np.zeros(s) for k, s in shapes.items()}
    for _ in range(3):
        for k, t in params.items():
            t.grad = np.asarray(rng.standard_normal(shapes[k]))
            g = t.grad + l2_lambda * expected[k] if l2_lambda else t.grad
            acc[k] += g * g
            expected[k] -= 0.05 * g / (np.sqrt(acc[k]) + 1e-8)
        state.apply()
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
    params = {k: Tensor(rng.standard_normal(s)) for k, s in SPLIT_SHAPES.items()}
    state = AdagradState(params, learning_rate=0.05)
    for k in "abc":
        params[k].grad = rng.standard_normal(SPLIT_SHAPES[k])
    state.apply()  # "d" has no gradient, so its accumulator stays zero
    for k, t in params.items():
        t.grad = rng.standard_normal(SPLIT_SHAPES[k])
    for k in bad:
        params[k].grad.reshape(-1)[-1] = np.nan if k < "c" else np.inf
    before = {k: t.data.copy() for k, t in params.items()}
    accumulators = {k: acc.copy() for k, acc in state.accumulators.items()}
    with pytest.raises(FloatingPointError, match=f"'{named}'"):
        state.apply()
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
        AdagradState({}, **kwargs)


def test_adagrad_accepts_zero_l2():
    assert AdagradState({}, l2_lambda=0.0).l2_lambda == 0.0


def test_adagrad_rejects_a_tensor_listed_twice():
    param = Tensor(np.ones(3))
    param.grad = np.ones(3)
    with pytest.raises(ValueError, match="once"):
        AdagradState({"p": param, "q": param})
    assert np.array_equal(param.data, np.ones(3))


class _FitConfig:
    epochs = 3
    learning_rate = 0.1
    l2_lambda = 0.0


def _square_loss(param):
    return lambda target, rng: ((param + (-target)) * (param + (-target))).sum()


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

    def loss(target, rng):
        seen.append(target)
        return _square_loss(param)(target, rng)

    rng = np.random.default_rng(7)
    train = [1.0, 2.0, 3.0, 4.0]
    fit({"p": param}, loss, train, [], None, _FitConfig, rng)
    reference = np.random.default_rng(7)
    orders = [reference.permutation(len(train)) for _ in range(_FitConfig.epochs)]
    assert seen == [train[i] for order in orders for i in order]
    assert rng.random() == reference.random()  # nothing else was drawn


def test_fit_hands_its_own_generator_to_the_loss():
    param = Tensor(np.array([0.0]), requires_grad=True)
    given = []

    def loss(target, rng):
        given.append(rng)
        return _square_loss(param)(target, rng)

    rng = np.random.default_rng(3)
    fit({"p": param}, loss, [1.0, 2.0], [], None, _FitConfig, rng)
    assert len(given) == 2 * _FitConfig.epochs and all(g is rng for g in given)


def test_fit_keeps_the_last_epoch_without_a_restore():
    """Rising scores: the last epoch is the best, and its parameters stay
    as they are; nothing is written back into them after it."""
    class Watched(np.ndarray):
        writes = 0

        def __setitem__(self, key, value):
            Watched.writes += 1
            super().__setitem__(key, value)

    param = Tensor(np.array([0.0, 0.0]), requires_grad=True)
    param.data = param.data.view(Watched)
    after_epoch = []

    def dev_score(dev):
        after_epoch.append(param.data.copy())
        return float(len(after_epoch))

    best = fit({"p": param}, _square_loss(param), [1.0, 2.0], ["dev"], dev_score,
               _FitConfig, np.random.default_rng(0))
    assert best == (3, 3.0)
    assert Watched.writes == 0
    assert param.data.tobytes() == after_epoch[-1].tobytes()


def test_fit_holds_one_snapshot():
    """Between an epoch's dev score and the next step, taking a snapshot of
    a better epoch allocates nothing: the one snapshot buffer exists
    before training starts, and a second one never does."""
    nbytes = 8 << 20
    param = Tensor(np.zeros(nbytes // 8), requires_grad=True)
    at_dev, peak_after = [], []

    def loss(target, rng):
        if len(at_dev) > len(peak_after):
            peak_after.append(tracemalloc.get_traced_memory()[1])
        return _square_loss(param)(target, rng)

    def dev_score(dev):
        at_dev.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return float(len(at_dev))  # every epoch is better than the last

    tracemalloc.start()
    try:
        fit({"p": param}, loss, [1.0, 2.0], ["dev"], dev_score, _FitConfig,
            np.random.default_rng(0))
    finally:
        tracemalloc.stop()
    assert len(peak_after) == _FitConfig.epochs - 1
    assert all(peak - current < nbytes // 2 for current, peak in zip(at_dev, peak_after))


def test_fit_leaves_an_untouched_tensor_alone_under_l2():
    """A tensor the loss never reads gets no gradient (.grad stays None
    after backward) and no update, although L2 would move it."""
    used = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    unused = Tensor(np.array([3.0, -4.0]), requires_grad=True)
    before = unused.data.copy()
    grads = []

    def dev_score(dev):  # runs after the epoch's last backward and update
        grads.append((used.grad is not None, unused.grad is None))
        return 1.0

    class WithL2(_FitConfig):
        l2_lambda = 0.5

    fit({"used": used, "unused": unused}, _square_loss(used), [1.0, 2.0], ["dev"], dev_score,
        WithL2, np.random.default_rng(0))
    assert grads == [(True, True)] * WithL2.epochs
    assert unused.data.tobytes() == before.tobytes()
    assert used.grad is None and unused.grad is None  # fit leaves no gradient behind


def test_fit_non_finite_gradient_late_in_the_buffer_changes_nothing():
    """Two overflowing gradients among the last tensors, in the second
    thread's half: the first in `params` order is named, and no parameter
    moves."""
    big = Tensor(np.linspace(-1.0, 1.0, 1000), requires_grad=True)
    tiny, huge = np.array([[1e-300]]), np.array([[1e300]])
    params = {"big": big, "c": Tensor(huge, requires_grad=True),
              "a2": Tensor(tiny, requires_grad=True), "b": Tensor(huge, requires_grad=True),
              "a1": Tensor(tiny, requires_grad=True)}
    before = {k: t.data.copy() for k, t in params.items()}

    def loss(target, rng):
        # Forward (a @ b) @ c = 1e300 is finite; d/da = c b = inf.
        overflow = [nc.matmul(nc.matmul(params[a], params["b"]), params["c"]).sum()
                    for a in ("a1", "a2")]
        return _square_loss(big)(target, rng) + overflow[0] + overflow[1]

    with pytest.raises(FloatingPointError, match="'a2'"), np.errstate(over="ignore"):
        fit(params, loss, [0.5], [], None, _FitConfig, np.random.default_rng(0))
    assert all(t.data.tobytes() == before[k].tobytes() for k, t in params.items())
    assert all(t.grad is None for t in params.values())


def _small_model(rng, shared):
    """An embedding table, a bi-LSTM layer and an output matrix: gradients
    through row gathers, BPTT and a matmul's weight operand.  A shared
    layer runs one cell in both directions."""
    table = nc.parameter(nc.glorot_uniform(rng, 5, 3))
    if shared:
        forward_cell = backward_cell = nc.LstmCell(nc.PEEPHOLE, 3, 4, rng)
    else:
        forward_cell, backward_cell = nc.lstm_layer(nc.COUPLED, 3, 4, rng)
    out = nc.parameter(nc.glorot_uniform(rng, 8, 2))
    cells = {"f": forward_cell} if shared else {"f": forward_cell, "b": backward_cell}
    params = {"table": table, "out": out}
    for prefix, cell in cells.items():
        params.update(cell.parameters(prefix))

    def loss(rows, rng):
        hidden = nc.dropout(nc.bilstm_encode([(forward_cell, backward_cell)], [table[rows]])[0], 0.2,
                            rng)
        return nc.tanh(nc.matmul(hidden, out)).sum()

    return params, loss


@pytest.mark.parametrize("shared", [False, True])
def test_fit_steps_equal_the_whole_array_adagrad_loop(shared):
    """Gradients written into the flat buffer, and the update over it, give
    the parameters of the plain loop: zeroed grads, backward, and the
    whole-array Adagrad expression on each tensor with a gradient."""
    train = [[0, 3, 3, 1], [2, 4], [1, 1, 0]]

    class Config(_FitConfig):
        learning_rate, l2_lambda = 0.05, 1e-3

    params, loss = _small_model(np.random.default_rng(11), shared)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a write race would show
    try:
        fit(params, loss, train, [], None, Config, np.random.default_rng(12))
    finally:
        sys.setswitchinterval(interval)

    expected, reference_loss = _small_model(np.random.default_rng(11), shared)
    acc = {k: np.zeros_like(t.data) for k, t in expected.items()}
    rng = np.random.default_rng(12)
    for _ in range(Config.epochs):
        for i in rng.permutation(len(train)):
            nc.zero_grads(expected.values())
            reference_loss(train[int(i)], rng).backward()
            for k, t in expected.items():
                g = t.grad + Config.l2_lambda * t.data
                acc[k] += g * g
                t.data -= Config.learning_rate * g / (np.sqrt(acc[k]) + 1e-8)
    for k, t in params.items():
        assert t.data.tobytes() == expected[k].data.tobytes(), k


@pytest.mark.parametrize("gates,hidden", [(3, 5), (4, 6), (1, 4)])
def test_orthogonal_gate_stack_equals_one_qr_after_another(gates, hidden):
    """Blocks drawn at once and orthogonalized in pairs equal a draw and
    a QR per gate, in order, bit for bit, and the generator ends in the
    same state."""
    rng, reference = np.random.default_rng(5), np.random.default_rng(5)
    stack = orthogonal_gate_stack(rng, gates, hidden)
    blocks = []
    for _ in range(gates):
        q, r = np.linalg.qr(reference.standard_normal((hidden, hidden)))
        blocks.append(q * np.sign(np.diag(r)))
    assert stack.tobytes() == np.concatenate(blocks, axis=0).tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state
    assert np.allclose(stack[:hidden] @ stack[:hidden].T, np.eye(hidden))


@pytest.mark.parametrize("variant", [nc.COUPLED, nc.PEEPHOLE])
def test_lstm_layer_draws_as_two_cells_do(variant):
    rng, reference = np.random.default_rng(9), np.random.default_rng(9)
    layer = nc.lstm_layer(variant, 3, 5, rng)
    cells = (nc.LstmCell(variant, 3, 5, reference), nc.LstmCell(variant, 3, 5, reference))
    for cell, expected in zip(layer, cells):
        for (name, t), u in zip(cell.parameters("").items(), expected.parameters("").values()):
            assert t.data.tobytes() == u.data.tobytes(), name
    assert rng.bit_generator.state == reference.bit_generator.state


def test_grad_check_quadratic_is_near_exact():
    p = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)

    def loss():
        return (p * p).sum()

    assert grad_check(loss, {"p": p}, epsilon=1e-5) < 1e-7


# -- serialization ------------------------------------------------------------


def manifest_views(manifest, blob, shapes):
    return _manifest_views(manifest_layout(manifest), blob, shapes)


def to_manifest_blob(params):
    manifest, arrays = manifest_arrays(params)
    return manifest, b"".join(arrays)


def read_back(manifest, blob):
    """Every stored array, as a view of the blob."""
    shapes = {name: shape for name, (shape, _) in manifest_layout(manifest).items()}
    return manifest_views(manifest, blob, shapes)


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


def test_views_skip_unasked_entries_and_check_shapes_and_layout():
    params = {"skip": np.arange(3.0), "w": np.arange(4.0).reshape(2, 2),
              "v": np.array([1.5, -2.0])}
    manifest, blob = to_manifest_blob(params)
    buffer = bytearray(blob)
    views = manifest_views(manifest, buffer, {"w": (2, 2), "v": (2,)})
    assert set(views) == {"w", "v"}
    assert np.array_equal(views["w"], params["w"]) and np.array_equal(views["v"], [1.5, -2.0])
    views["v"][0] = 7.0  # a view, not a copy
    assert np.frombuffer(buffer, "<f8")[-2] == 7.0
    with pytest.raises(ValueError, match="has shape"):
        manifest_views(manifest, blob, {"w": (4,)})
    with pytest.raises(ValueError, match="lack"):
        manifest_views(manifest, blob, {"u": (4,)})
    with pytest.raises(ValueError, match="end early"):
        manifest_views(manifest, blob[:-1], {"v": (2,)})
    with pytest.raises(ValueError, match="end early"):  # also past an unasked entry
        manifest_views(manifest, blob[:8], {})
    with pytest.raises(ValueError, match="v overlaps"):
        manifest_views("w 2 float64 0\nv 2 float64 8\n", bytes(32), {"w": (2,)})


@pytest.mark.parametrize("trainer,weight,op", [
    (train_tagger, "lstm0/fwd/w_h", "bilstm_encode"),
    (train_parser, "u_arc", "matmul"),
], ids=["tagger", "parser"])
def test_a_nan_weight_names_the_op_the_epoch_and_the_example(monkeypatch, tiny_cfg, trainer,
                                                             weight, op):
    """A weight set to NaN as training starts: the error names the op that
    first made a NaN, the shapes of its inputs, the epoch and the example."""
    rng = np.random.default_rng(3)
    treebank = [random_tree_sentence(rng, n) for n in (3, 5, 4)]
    real_fit = nc.fit

    def fit_from_nan(params, *args):
        params[weight].data.reshape(-1)[0] = np.nan
        return real_fit(params, *args)

    monkeypatch.setattr(nc, "fit", fit_from_nan)
    with pytest.raises(nc.NonFiniteError) as error:
        trainer(treebank, [], tiny_cfg)
    assert re.fullmatch(rf"epoch 1, training example [012]: {op} produced NaN or Inf "
                        r"values \(input shapes \(\d+, \d+\)(, \(\d+, \d+\))*\)",
                        str(error.value)), str(error.value)
