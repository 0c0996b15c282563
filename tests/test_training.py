"""Optimizer, losses, training loop, history records and evaluation metrics."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from taan.data import SplitDatasets, SyntheticSpec, TaskDataset, generate
from taan.metrics import (
    GaussianMixture,
    build_gram,
    distance_matrix,
    layer_grams,
    mean_pairwise_distance,
)
from taan.network import (
    ArchitectureSpec,
    build_model,
    model_parameters,
    param_views,
)
from taan.regularizers import RegConfig, RegKind, distance_reg
from taan.training import (
    ADAM_BETAS,
    ADAM_EPSILON,
    AdamState,
    History,
    TrainConfig,
    _head_dims,
    adam_step,
    cross_entropy,
    evaluate,
    map_at_k,
    squared_error,
    train,
)
from test_network import LOSS_FNS, heads_only_model, reference_pass, small_model


def test_adam_zero_gradient_is_identity():
    rng = np.random.default_rng(0)
    p = rng.standard_normal((3, 2))
    before = p.copy()
    state = AdamState.for_params(p, 1e-4)
    adam_step(p, np.zeros_like(p), state)
    assert np.array_equal(p, before)
    assert state.step == 1


def test_adam_first_step_moves_by_learning_rate():
    p = np.array([0.5])
    state = AdamState.for_params(p, learning_rate=1e-3)
    adam_step(p, np.array([1.0]), state)
    # Bias correction makes the very first update lr * g / (|g| + eps).
    assert abs(p[0] - (0.5 - 1e-3)) < 1e-10


def test_adam_constant_gradient_limit_is_signed_learning_rate():
    p = np.zeros(2)
    g = np.array([2.0, -0.3])
    state = AdamState.for_params(p, learning_rate=0.01)
    for _ in range(250):
        prev = p.copy()
        adam_step(p, g, state)
    delta = p - prev
    assert np.all(np.abs(delta + 0.01 * np.sign(g)) < 1e-4)


def test_adam_validates_structure():
    p = np.zeros(3)
    state = AdamState.for_params(p, 1e-4)
    with pytest.raises(ValueError):
        adam_step(p, np.zeros(4), state)
    with pytest.raises(ValueError):
        AdamState(np.zeros(1), np.zeros(1), -1, 1e-4)


def test_adam_state_checks_its_settings_as_train_config_does():
    for settings, message in (
        ({"learning_rate": -1.0}, r"learning_rate must be .* \(0, inf\), got -1.0"),
        ({"learning_rate": math.inf}, r"learning_rate must be .* \(0, inf\), got inf"),
    ):
        for make in (
            lambda: TrainConfig(epochs=1, **settings),
            lambda: AdamState.for_params(np.zeros(3), **settings),
        ):
            with pytest.raises(ValueError, match=message):
                make()
    # The constants are unchanged, and the step counter is a whole number >= 0.
    assert (ADAM_BETAS, ADAM_EPSILON) == ((0.9, 0.98), 1e-8)
    with pytest.raises(ValueError, match="step must be a whole number, got 2.5"):
        AdamState(np.zeros(1), np.zeros(1), 2.5, 1e-4)


def per_array_adam(params, grads, ms, vs, step, lr, b1, b2, eps):
    """Reference Adam step looping over separate arrays."""
    bc1 = 1.0 - b1**step
    bc2 = 1.0 - b2**step
    for p, g, m, v in zip(params, grads, ms, vs):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def test_flat_adam_matches_per_array_updates_bitwise():
    model = build_model(ArchitectureSpec(4, (5, 3), (1, 2), 2, basis_count=4), 0)
    rng = np.random.default_rng(3)
    params = [p.copy() for p in model_parameters(model)]
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    state = AdamState.for_params(model.params, 3e-3)
    for step in range(1, 6):
        grad = rng.standard_normal(model.params.size) * 10.0 ** rng.integers(
            -6, 3, model.params.size
        )
        adam_step(model.params, grad, state)
        per_array_adam(
            params, param_views(model, grad), ms, vs, step, 3e-3, 0.9, 0.98, 1e-8
        )
        for p, mine in zip(params, model_parameters(model)):
            assert np.array_equal(p, mine)


def test_squared_error_value_and_grad():
    pred = np.array([[1.0, 2.0], [3.0, 4.0]])
    loss, grad = squared_error(pred, np.zeros((2, 2)))
    assert abs(loss - 7.5) < 1e-14
    assert np.allclose(grad, pred / 2.0)
    with pytest.raises(ValueError):
        squared_error(pred, np.zeros(2))



def test_squared_error_rejects_a_1d_prediction():
    with pytest.raises(ValueError, match=r"prediction of shape \(3,\)"):
        squared_error(np.zeros(3), np.zeros(3))


def test_cross_entropy_value_and_grad():
    loss, grad = cross_entropy(np.zeros((1, 2)), np.array([0]))
    assert abs(loss - math.log(2.0)) < 1e-14
    assert np.allclose(grad, [[-0.5, 0.5]])
    # One-hot targets give the same result as integer labels.
    loss2, grad2 = cross_entropy(np.zeros((1, 2)), np.array([[1.0, 0.0]]))
    assert loss2 == loss and np.array_equal(grad, grad2)
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((1, 2)), np.array([5]))
    with pytest.raises(ValueError, match="batch size does not match"):
        cross_entropy(np.zeros((2, 3)), np.eye(3))


def test_fractional_class_labels_are_rejected():
    with pytest.raises(ValueError, match=r"class label 1\.7 is not an integer"):
        cross_entropy(np.zeros((2, 3)), [0.0, 1.7])
    with pytest.raises(ValueError, match=r"class label nan "):
        cross_entropy(np.zeros((2, 3)), [np.nan, 1.0])
    assert cross_entropy(np.zeros((2, 3)), [0.0, 2.0])[0] == (
        cross_entropy(np.zeros((2, 3)), [0, 2])[0]
    )
    model = identity_model(4)
    fractional = SimpleNamespace(inputs=MAP_SCORES, targets=np.array([1.9, 0.2, 0]))
    with pytest.raises(ValueError, match=r"class label 1\.9 is not an integer"):
        evaluate(model, fractional, 0, "accuracy")


def test_cross_entropy_gradient_finite_difference():
    rng = np.random.default_rng(1)
    pred = rng.standard_normal((3, 4))
    labels = np.array([0, 2, 1])
    _, grad = cross_entropy(pred, labels)
    assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)
    eps = 1e-6
    for i in range(3):
        for j in range(4):
            hi = pred.copy()
            lo = pred.copy()
            hi[i, j] += eps
            lo[i, j] -= eps
            num = (cross_entropy(hi, labels)[0] - cross_entropy(lo, labels)[0]) / (
                2.0 * eps
            )
            assert abs(num - grad[i, j]) < 1e-6


def test_train_config_validation():
    cfg = TrainConfig(epochs=5, loss=("squared_error", "cross_entropy"))
    assert cfg.loss_kinds(2) == ("squared_error", "cross_entropy")
    assert TrainConfig(epochs=0).loss_kinds(3) == ("squared_error",) * 3
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, loss="huber")
    with pytest.raises(ValueError, match="epochs must be a whole number, got 2.5"):
        TrainConfig(epochs=2.5)
    with pytest.raises(ValueError, match="batch_size must be a whole number, got 8.5"):
        TrainConfig(epochs=1, batch_size=8.5)
    assert type(TrainConfig(epochs=2.0, batch_size=np.int64(8)).batch_size) is int
    # A bool is not a count: a JSON true must not become 1.
    with pytest.raises(ValueError, match="epochs must be a whole number, got True"):
        TrainConfig(epochs=True)
    with pytest.raises(ValueError, match="batch_size must be a whole number, got True"):
        TrainConfig(epochs=1, batch_size=np.bool_(True))


def regression_setup(seed=3, task_count=2):
    spec = SyntheticSpec(
        task_count=task_count,
        samples_per_task=120,
        input_dim=4,
        clusters=(0,) * task_count,
        relatedness=0.2,
        noise=0.05,
        seed=seed,
    )
    datasets = generate(spec)
    arch = ArchitectureSpec(4, (8,), 1, task_count=task_count, basis_count=4)
    return build_model(arch, seed + 100), datasets


def test_zero_epochs_changes_nothing():
    model, datasets = regression_setup()
    before = [p.copy() for p in model_parameters(model)]
    _, history = train(model, datasets, TrainConfig(epochs=0))
    assert history.rows == []
    for p, b in zip(model_parameters(model), before):
        assert np.array_equal(p, b)


def test_training_is_seed_deterministic(tmp_path):
    config = TrainConfig(
        epochs=3,
        batch_size=32,
        learning_rate=3e-3,
        seed=11,
        reg=RegConfig(RegKind.DISTANCE, 0.5),
    )
    runs = []
    for rep in range(2):
        model, datasets = regression_setup()
        _, history = train(model, datasets, config)
        path = tmp_path / f"history_{rep}.csv"
        history.to_csv(path)
        runs.append((model_parameters(model), path.read_bytes()))
    for a, b in zip(runs[0][0], runs[1][0]):
        assert np.array_equal(a, b)
    assert runs[0][1] == runs[1][1]


def test_loss_decreases_and_val_metric_matches_evaluate():
    model, datasets = regression_setup()
    config = TrainConfig(epochs=11, batch_size=32, learning_rate=3e-3, seed=5)
    _, history = train(model, datasets, config)
    rows = [dict(zip(History.COLUMNS, r)) for r in history.rows]
    first = np.mean([r["train_loss"] for r in rows if r["epoch"] == 0])
    last = np.mean([r["train_loss"] for r in rows if r["epoch"] == 10])
    assert last < first
    for t, split in enumerate(datasets):
        recorded = {
            r["val_metric"] for r in rows if r["epoch"] == 10 and r["task_id"] == t
        }
        assert recorded == {evaluate(model, split.val, t, "mse")}


def test_fused_validation_matches_evaluate_for_unequal_sizes():
    rng = np.random.default_rng(8)
    arch = ArchitectureSpec(4, (6,), (1, 3, 1, 2), task_count=4, basis_count=5)
    model = build_model(arch, 12)
    sizes = (37, 5, 0, 18)  # task 2 has an empty validation split

    def split(t, n):
        x = rng.standard_normal((n, 4))
        if arch.output_dims[t] == 1:
            return TaskDataset(x, rng.standard_normal((n, 1)))
        return TaskDataset(x, rng.integers(0, arch.output_dims[t], n))

    datasets = [
        SplitDatasets(split(t, 40), split(t, n), None)
        for t, n in enumerate(sizes)
    ]
    datasets[0] = SplitDatasets(datasets[0].train, None, None)
    config = TrainConfig(
        epochs=3,
        batch_size=16,
        learning_rate=3e-3,
        seed=2,
        loss=("squared_error", "cross_entropy", "squared_error", "cross_entropy"),
    )
    _, history = train(model, datasets, config)
    final = {r[1]: r[3] for r in history.rows if r[0] == 2}
    assert math.isnan(final[0]) and math.isnan(final[2])
    assert final[1] == evaluate(model, datasets[1].val, 1, "accuracy")
    assert final[3] == evaluate(model, datasets[3].val, 3, "accuracy")
    datasets[0] = SplitDatasets(datasets[0].train, split(0, 11), None)
    _, history = train(model, datasets, TrainConfig(epochs=1, loss=config.loss))
    assert history.rows[0][3] == evaluate(model, datasets[0].val, 0, "mse")


def reference_train(model, datasets, config):
    """The per-task step: each task draws its rows with np.take on its own
    permutation, runs through reference_pass on its own, and gets its own
    loss call; then one Adam update.  Returns the history rows."""
    rng = np.random.default_rng(config.seed)
    state = AdamState.for_params(model.params, config.learning_rate)
    grids = [layer.grid for layer in model.layers]
    caches = layer_grams(grids, GaussianMixture.standard_normal())
    kinds = config.loss_kinds(model.task_count)
    n = config.batch_size
    steps = max(-(-len(d.train.inputs) // n) for d in datasets)

    def outputs(batches):
        zeros = {t: np.zeros((len(x), model.head_dim(t))) for t, x in batches.items()}
        return reference_pass(model, batches, zeros)[0]

    rows = []
    for epoch in range(config.epochs):
        perms = [rng.permutation(len(d.train.inputs)) for d in datasets]
        epoch_loss = np.zeros(model.task_count)
        for step in range(steps):
            take = np.arange(step * n, (step + 1) * n)
            picks = [np.take(perm, take, mode="wrap") for perm in perms]
            batches = {t: datasets[t].train.inputs[r] for t, r in enumerate(picks)}
            douts = {}
            for t, out in outputs(batches).items():
                target = datasets[t].train.targets[picks[t]]
                loss, douts[t] = LOSS_FNS[kinds[t]](out, target)
                epoch_loss[t] += loss
            grads = reference_pass(model, batches, douts)[1]
            adam_step(model.params, np.concatenate([g.ravel() for g in grads]), state)
        val = outputs({t: d.val.inputs for t, d in enumerate(datasets)})
        dists = [
            mean_pairwise_distance(distance_matrix(layer.coords, cache))
            for layer, cache in zip(model.layers, caches)
        ]
        for t, d in enumerate(datasets):
            if kinds[t] == "squared_error":
                metric = float(np.mean((val[t] - d.val.targets) ** 2))
            else:
                metric = float(np.mean(np.argmax(val[t], axis=1) == d.val.targets))
            for l, dist in enumerate(dists):
                rows.append((epoch, t, epoch_loss[t] / steps, metric, 0.0, l, dist))
    return rows


def test_grouped_step_matches_per_task_loop():
    # Head dims (1, 2, 1, 2) under mixed losses make three head groups:
    # tasks 0 and 2 (not adjacent in the layout), task 1 (cross-entropy)
    # and task 3 (squared error).  The uneven training sizes wrap rows.
    rng = np.random.default_rng(21)
    dims = (1, 2, 1, 2)
    losses = ("squared_error", "cross_entropy", "squared_error", "squared_error")
    arch = ArchitectureSpec(4, (6, 5), dims, task_count=4, basis_count=5)

    def split(t, n):
        x = rng.standard_normal((n, 4))
        if losses[t] == "cross_entropy":
            return TaskDataset(x, rng.integers(0, dims[t], n))
        return TaskDataset(x, rng.standard_normal((n, dims[t])))

    datasets = [
        SplitDatasets(split(t, n), split(t, 9), None)
        for t, n in enumerate((70, 13, 64, 1))
    ]
    config = TrainConfig(
        epochs=3, batch_size=16, learning_rate=3e-3, seed=4, loss=losses
    )
    model, ref_model = small_model(seed=8, arch=arch), small_model(seed=8, arch=arch)
    _, history = train(model, datasets, config)
    ref_rows = reference_train(ref_model, datasets, config)
    assert len(history.rows) == len(ref_rows) == 3 * 4 * 2
    worst = np.max(np.abs(model.params - ref_model.params))
    worst /= np.max(np.abs(ref_model.params))
    for mine, ref in zip(zip(*history.rows), zip(*ref_rows)):
        mine, ref = np.array(mine), np.array(ref)
        if np.any(ref != 0.0):
            worst = max(worst, np.max(np.abs(mine - ref)) / np.max(np.abs(ref)))
        else:
            assert np.array_equal(mine, ref)
    assert worst <= 1e-13


def test_zero_coefficient_matches_no_regularizer():
    results = []
    for reg in (RegConfig(RegKind.DISTANCE, 0.0), RegConfig(RegKind.NONE, 0.0)):
        model, datasets = regression_setup()
        train(model, datasets, TrainConfig(epochs=2, seed=7, reg=reg))
        results.append([p.copy() for p in model_parameters(model)])
    for a, b in zip(*results):
        assert np.array_equal(a, b)


def test_history_reg_value_is_raw_penalty():
    model, datasets = regression_setup()
    config = TrainConfig(
        epochs=2, seed=9, learning_rate=1e-3, reg=RegConfig(RegKind.DISTANCE, 2.0)
    )
    _, history = train(model, datasets, config)
    cache = build_gram(model.layers[0].grid, GaussianMixture.standard_normal())
    expected = sum(distance_reg(layer.coords, cache) for layer in model.layers)
    final = [
        dict(zip(History.COLUMNS, r)) for r in history.rows if r[0] == 1
    ]
    assert all(abs(r["reg_value"] - expected) < 1e-12 for r in final)


def test_coords_train_even_without_regularizer():
    model, datasets = regression_setup()
    before = [layer.coords.copy() for layer in model.layers]
    train(model, datasets, TrainConfig(epochs=2, learning_rate=3e-3, seed=1))
    assert any(
        not np.array_equal(layer.coords, b)
        for layer, b in zip(model.layers, before)
    )


def test_single_task_history_distance_is_zero():
    model, datasets = regression_setup(task_count=1)
    _, history = train(model, datasets, TrainConfig(epochs=1, seed=2))
    assert set(history.column("mean_pairwise_distance")) == {0.0}
    assert set(history.column("task_id")) == {0}


def test_missing_validation_records_nan():
    model, datasets = regression_setup()
    splits = [SplitDatasets(d.train, None, None) for d in datasets]
    _, history = train(model, splits, TrainConfig(epochs=1, seed=4))
    assert all(math.isnan(v) for v in history.column("val_metric"))


def test_heads_only_model_records_one_row_per_epoch_and_task():
    _, datasets = regression_setup()
    model = build_model(ArchitectureSpec(4, (), 1, task_count=2), 0)
    _, history = train(model, datasets, TrainConfig(epochs=3, seed=1))
    rows = [dict(zip(History.COLUMNS, r)) for r in history.rows]
    assert [(r["epoch"], r["task_id"]) for r in rows] == [
        (e, t) for e in range(3) for t in range(2)
    ]
    assert all(r["layer_id"] == -1 for r in rows)
    assert all(math.isnan(r["mean_pairwise_distance"]) for r in rows)
    assert all(math.isfinite(r["train_loss"]) for r in rows)
    for r in rows[-2:]:
        t = r["task_id"]
        assert r["val_metric"] == evaluate(model, datasets[t].val, t, "mse")
    assert set(history.final_mean_distances()) == {-1}


def test_train_input_validation():
    model, datasets = regression_setup()
    with pytest.raises(ValueError):
        train(model, datasets[:1], TrainConfig(epochs=1))
    empty = SimpleNamespace(
        train=SimpleNamespace(inputs=np.zeros((0, 4)), targets=np.zeros((0, 1))),
        val=None,
    )
    with pytest.raises(ValueError):
        train(model, [datasets[0], empty], TrainConfig(epochs=1))
    wrong_width = SimpleNamespace(
        train=SimpleNamespace(inputs=np.zeros((5, 6)), targets=np.zeros((5, 1))),
        val=None,
    )
    with pytest.raises(ValueError):
        train(model, [datasets[0], wrong_width], TrainConfig(epochs=1))


def test_unusable_targets_name_their_task_before_the_first_step():
    model, datasets = regression_setup()
    before = model.params.copy()
    inputs = datasets[1].train.inputs
    wide = SimpleNamespace(inputs=inputs, targets=np.zeros((len(inputs), 2)))
    splits = [
        SplitDatasets(datasets[0].train, None, None), SplitDatasets(wide, None, None)
    ]
    with pytest.raises(ValueError, match=r"task 1: targets have shape \(\d+, 2\)"):
        train(model, splits, TrainConfig(epochs=1))
    arch = ArchitectureSpec(4, (8,), 2, task_count=2, basis_count=4)
    classes = build_model(arch, 0)
    splits = [
        SplitDatasets(
            SimpleNamespace(inputs=inputs, targets=np.full(len(inputs), k)), None, None
        )
        for k in (1, 2)
    ]
    with pytest.raises(ValueError, match=r"task 1: labels outside \[0, 2\)"):
        train(classes, splits, TrainConfig(epochs=1, loss="cross_entropy"))
    # Validation splits go through the same checks, before the first step.
    val = datasets[1].val
    wide_val = SimpleNamespace(inputs=val.inputs, targets=np.zeros((len(val), 2)))
    narrow_val = SimpleNamespace(inputs=val.inputs[:, :3], targets=val.targets)
    for bad, match in (
        (wide_val, r"targets have shape \(\d+, 2\), expected \(n, 1\)"),
        (narrow_val, r"inputs have shape \(\d+, 3\), expected \(n, 4\)"),
    ):
        splits = [
            SplitDatasets(datasets[0].train, None, None),
            SplitDatasets(datasets[1].train, bad, None),
        ]
        with pytest.raises(ValueError, match="task 1: " + match):
            train(model, splits, TrainConfig(epochs=1))
    assert np.array_equal(model.params, before)


@pytest.mark.parametrize(
    "case, message",
    [
        ("one_output_head", "task 0: cross_entropy needs at least 2 output classes, "
         "but its head has 1 output"),
        ("negative_labels", r"task 0: cross_entropy targets must be non-negative "
         r"integer class labels; labels outside \[0, 1\)"),
    ],
    ids=["one_output_head", "negative_labels"],
)
def test_unusable_class_heads_and_labels_name_their_task(case, message):
    inputs = regression_setup()[1][0].train.inputs
    config = TrainConfig(epochs=1, loss="cross_entropy")
    labels = np.arange(len(inputs)) % 2
    if case == "one_output_head":
        model = build_model(ArchitectureSpec(4, (8,), 1, task_count=1, basis_count=4), 0)
        split = SimpleNamespace(inputs=inputs, targets=labels)
        with pytest.raises(ValueError, match=message):
            train(model, [SplitDatasets(split, None, None)], config)
    else:
        split = SimpleNamespace(inputs=inputs, targets=labels - 1)
        with pytest.raises(ValueError, match=message):
            _head_dims([SplitDatasets(split, None, None)], config)


def test_out_of_range_validation_labels_fail_before_the_first_step():
    arch = ArchitectureSpec(4, (8,), 3, task_count=2, basis_count=4)
    model = build_model(arch, 0)
    before = model.params.copy()
    inputs = regression_setup()[1][0].train.inputs
    labelled = SimpleNamespace(inputs=inputs, targets=np.arange(len(inputs)) % 3)
    for label in (7, -1):
        labels = np.array([0, 1, 2, label, 0])
        val = SimpleNamespace(inputs=inputs[:5], targets=labels)
        splits = [
            SplitDatasets(labelled, None, None), SplitDatasets(labelled, val, None)
        ]
        with pytest.raises(ValueError, match=r"task 1: labels outside \[0, 3\)"):
            train(model, splits, TrainConfig(epochs=1, loss="cross_entropy"))
        assert np.array_equal(model.params, before)
        with pytest.raises(ValueError, match=r"labels outside \[0, 3\)"):
            evaluate(model, val, 1, "accuracy")


def test_target_rows_must_be_one_hot():
    # Rows of the head's width are one-hot rows: 0s and a single 1.
    for row in ([5.0, 0.0, 0.0], [-1.0, 2.0, 0.0], [0.5, 0.5, 0.0], [1.0, 1.0, 0.0]):
        with pytest.raises(ValueError, match=r"is not one-hot"):
            cross_entropy(np.zeros((1, 3)), [row])
    stacked = np.eye(3)[[[0, 1], [2, 2]]]
    stacked[1, 0] = [0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match=r"target row \[0\.0, 0\.0, 0\.0\]"):
        cross_entropy(np.zeros((2, 2, 3)), stacked)
    model = identity_model(4)
    bad = SimpleNamespace(inputs=MAP_SCORES, targets=np.eye(4)[[0, 1, 2]])
    bad.targets[1] = [5, -1, 0, 0]
    with pytest.raises(ValueError, match=r"target row \[5\.0, -1\.0, 0\.0, 0\.0\]"):
        evaluate(model, bad, 0, "accuracy")
    arch = ArchitectureSpec(4, (8,), 3, task_count=2, basis_count=4)
    classes = build_model(arch, 0)
    before = classes.params.copy()
    inputs = regression_setup()[1][0].train.inputs
    onehot = np.eye(3)[np.arange(len(inputs)) % 3]
    rows = onehot.copy()
    rows[4] = [5, -1, 0]
    splits = [
        SplitDatasets(SimpleNamespace(inputs=inputs, targets=onehot), None, None),
        SplitDatasets(SimpleNamespace(inputs=inputs, targets=rows), None, None),
    ]
    with pytest.raises(ValueError, match=r"task 1: target row \[5\.0, -1\.0, 0\.0\]"):
        train(classes, splits, TrainConfig(epochs=1, loss="cross_entropy"))
    assert np.array_equal(classes.params, before)


def test_per_task_loss_count_must_match_tasks():
    model, datasets = regression_setup()
    for kinds in (("squared_error",), ("squared_error",) * 3):
        expected = f"got {len(kinds)} loss kinds for 2 tasks"
        with pytest.raises(ValueError, match=expected):
            train(model, datasets, TrainConfig(epochs=1, loss=kinds))


def test_non_finite_loss_stops_training():
    model, datasets = regression_setup()
    # Squared errors of 1e200 overflow to inf on the first step.
    huge = SimpleNamespace(
        inputs=datasets[1].train.inputs,
        targets=np.full_like(datasets[1].train.targets, 1e200),
    )
    splits = [
        SplitDatasets(datasets[0].train, None, None), SplitDatasets(huge, None, None)
    ]
    with np.errstate(over="ignore"), pytest.raises(
        ValueError, match=r"epoch 0, task 1 has loss inf"
    ):
        train(model, splits, TrainConfig(epochs=3, seed=4))


def identity_model(dim):
    return heads_only_model(np.eye(dim), np.zeros(dim))


MAP_SCORES = np.array(
    [
        [0.9, 0.8, 0.1, 0.0],
        [0.1, 0.9, 0.5, 0.2],
        [0.9, 0.5, 0.4, 0.1],
    ]
)
MAP_RELEVANCE = np.array(
    [
        [1, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 1],
    ]
)


def test_map_at_k_hand_fixture():
    # Per-example average precisions are 5/6, 1 and 5/12.
    assert abs(map_at_k(MAP_SCORES, MAP_RELEVANCE, k=10) - 0.75) < 1e-12
    assert abs(map_at_k(MAP_SCORES, MAP_RELEVANCE, k=1) - 2.0 / 3.0) < 1e-12


def test_map_at_k_excludes_unlabeled_rows():
    scores = np.vstack([MAP_SCORES, [0.7, 0.6, 0.5, 0.4]])
    relevance = np.vstack([MAP_RELEVANCE, [0, 0, 0, 0]])
    assert abs(map_at_k(scores, relevance, k=10) - 0.75) < 1e-12
    with pytest.raises(ValueError):
        map_at_k(np.ones((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        map_at_k(np.ones((2, 3)), np.zeros((2, 4)))


def test_map_at_k_refuses_relevance_other_than_0_or_1():
    # Regression targets used to count as relevant wherever nonzero, so an
    # untrained model scored MAP 1.0 on them.
    split = generate(SyntheticSpec(task_count=2, samples_per_task=100))[0]
    model = build_model(ArchitectureSpec(8, (16, 16), 1, task_count=2), 0)
    with pytest.raises(ValueError, match="relevance must be 0 or 1, got -?[0-9.]"):
        evaluate(model, split.test, 0, "map_at_k")
    for bad in ("x", None, 0.5, -1, float("nan")):
        with pytest.raises(ValueError, match=f"relevance must be 0 or 1, got {bad!r}"):
            map_at_k(np.ones((2, 2)), np.array([[1, 0], [bad, 1]], dtype=object))
    assert map_at_k(np.eye(2), np.eye(2, dtype=bool)) == 1.0


def test_evaluate_metrics():
    model = identity_model(4)
    perfect = TaskDataset(MAP_SCORES, MAP_SCORES.copy())
    assert evaluate(model, perfect, 0, "mse") == 0.0
    shifted = TaskDataset(MAP_SCORES, MAP_SCORES + 1.0)
    assert abs(evaluate(model, shifted, 0, "mse") - 1.0) < 1e-14
    labels = TaskDataset(MAP_SCORES, np.array([0, 1, 0]))
    assert evaluate(model, labels, 0, "accuracy") == 1.0
    onehot = np.eye(4)[[0, 1, 1]]
    assert (
        evaluate(model, TaskDataset(MAP_SCORES, onehot), 0, "accuracy")
        == 2.0 / 3.0
    )
    ranked = TaskDataset(MAP_SCORES, MAP_RELEVANCE.astype(float))
    assert abs(evaluate(model, ranked, 0, "map_at_k", k=1) - 2.0 / 3.0) < 1e-12
    with pytest.raises(ValueError):
        evaluate(model, perfect, 0, "rmse")
    narrow = TaskDataset(MAP_SCORES, MAP_SCORES[:, :3])
    with pytest.raises(ValueError, match="target shape"):
        evaluate(model, narrow, 0, "mse")
    empty = SimpleNamespace(inputs=np.zeros((0, 4)), targets=np.zeros((0, 4)))
    with pytest.raises(ValueError):
        evaluate(model, empty, 0, "mse")


def test_history_bookkeeping():
    history = History()
    assert history.final_mean_distances() == {}
    # Rows are tuples in COLUMNS order: epoch, task, train loss, val metric,
    # reg value, layer and mean pairwise distance.
    history.rows.extend([
        (0, 0, 1.0, float("nan"), 0.0, 0, 0.5),
        (1, 0, 1.0, float("nan"), 0.0, 0, 0.25),
        (1, 0, 1.0, float("nan"), 0.0, 1, 0.75),
    ])
    assert history.column("epoch") == [0, 1, 1]
    assert history.final_mean_distances() == {0: 0.25, 1: 0.75}
