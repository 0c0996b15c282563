"""Multi-task training: bias-corrected Adam over the composite loss.

Each optimization step gathers one minibatch per task from all tasks'
stacked training rows at once, runs them through one fused forward and
backward pass with one loss call per head group, sums the task losses, adds
the coordinate-matrix regularizer, and applies a single Adam update to the
model's flat parameter vector.  Everything is driven by one seeded
generator so a run is fully reproducible.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from taan.data import _choice, _items, _real, _whole, _write_csv
from taan.metrics import (
    COMPARISON_MIXTURE,
    distance_matrix,
    layer_grams,
    mean_pairwise_distance,
)
from taan.network import (
    BatchLayout,
    TaanModel,
    forward,
    stacked_backward,
    stacked_forward,
)
from taan.regularizers import RegConfig, reg_grad, regularizer_value


# Adam's decay rates and the offset of its denominator; no caller tunes them.
ADAM_BETAS = (0.9, 0.98)
ADAM_EPSILON = 1e-8


class AdamState:
    """Adam accumulators, step count and learning rate (positive, checked
    as ``TrainConfig`` checks it); the betas and epsilon are constants."""

    def __init__(self, m, v, step, learning_rate):
        self.m = m
        self.v = v
        self.step = _whole("step", step, 0)
        self.learning_rate = _real("learning_rate", learning_rate, 0)

    @classmethod
    def for_params(cls, param, learning_rate):
        return cls(np.zeros_like(param), np.zeros_like(param), 0, learning_rate)


def adam_step(param, grad, state: AdamState):
    """One in-place bias-corrected Adam update of one array (the model's flat
    ``params``, in training); returns (param, state)."""
    if not param.shape == grad.shape == state.m.shape:
        raise ValueError(
            f"shapes differ: {param.shape}, {grad.shape}, state {state.m.shape}"
        )
    state.step += 1
    b1, b2 = ADAM_BETAS
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    param -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)
    return param, state


@dataclass(frozen=True)
class TrainConfig:
    """Loop hyperparameters; ``loss`` is one kind for all tasks or a list or
    tuple with one kind per task, stored as a tuple."""

    epochs: int
    batch_size: int = 64
    learning_rate: float = 1e-4
    seed: int = 0
    reg: RegConfig = field(default_factory=RegConfig)
    loss: object = "squared_error"

    def __post_init__(self):
        for name, least in (("epochs", 0), ("batch_size", 1), ("seed", 0)):
            object.__setattr__(self, name, _whole(name, getattr(self, name), least))
        lr = _real("learning_rate", self.learning_rate, 0)
        object.__setattr__(self, "learning_rate", lr)
        if isinstance(self.loss, str):
            _choice("loss", self.loss, LOSSES)
        else:
            kinds = _items("loss", self.loss)
            kinds = tuple(_choice("loss", kind, LOSSES) for kind in kinds)
            object.__setattr__(self, "loss", kinds)

    def loss_kinds(self, task_count):
        """The loss kind of each of task_count tasks; a per-task tuple of
        another length raises ValueError."""
        if isinstance(self.loss, str):
            return (self.loss,) * task_count
        if len(self.loss) != task_count:
            raise ValueError(f"got {len(self.loss)} loss kinds for {task_count} tasks")
        return self.loss


def squared_error(pred, target):
    """0.5·Σ‖residual‖²/N and its gradient; N is the batch size (axis -2).
    Leading axes stack tasks' batches, with one loss value each."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.shape:
        raise ValueError(
            f"target shape {target.shape} does not match output {pred.shape}"
        )
    if pred.ndim < 2:
        raise ValueError(f"prediction of shape {pred.shape} must be at least 2-D")
    r = pred - target
    n = pred.shape[-2]
    return 0.5 * np.sum(r * r, axis=(-2, -1)) / n, r / n


def _class_labels(target, n_classes=None):
    """Class labels as int64, by one set of rules: rows as wide as
    ``n_classes`` must be one-hot (0s and a single 1) and read as the column
    of their 1; anything else is flattened to labels, whole numbers in
    [0, n_classes) (>= 0 when it is None).  ValueError names a bad row or label."""
    target = np.asarray(target)
    if n_classes is not None and target.ndim >= 2 and target.shape[-1] == n_classes:
        ok = np.all((target == 0) | (target == 1), axis=-1)
        ok &= target.sum(axis=-1) == 1
        if not ok.all():
            row = target[~ok][0].tolist()
            raise ValueError(f"target row {row} is not one-hot (0s and a single 1)")
        return target.argmax(axis=-1)
    labels = target.reshape(-1)
    if labels.dtype.kind == "f":
        bad = ~(np.isfinite(labels) & (labels == np.trunc(labels)))
        if bad.any():
            raise ValueError(f"class label {float(labels[bad][0])!r} is not an integer")
    labels = labels.astype(np.int64)
    high = labels.max(initial=-1) + 1 if n_classes is None else n_classes
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= high:
        raise ValueError(f"labels outside [0, {high})")
    return labels


def _as_onehot(target, n_classes):
    """float64 one-hot rows of width n_classes from labels or one-hot rows
    (``_class_labels``'s rules)."""
    return np.eye(n_classes)[_class_labels(target, n_classes)]


def cross_entropy(pred, target):
    """Mean softmax cross-entropy; target is int labels or one-hot rows.
    Leading axes stack tasks' batches, with one loss value each."""
    onehot = _as_onehot(target, pred.shape[-1])
    if onehot.shape != pred.shape:
        raise ValueError("target batch size does not match output")
    return _softmax_cross_entropy(pred, onehot)


def _softmax_cross_entropy(pred, onehot):
    """``cross_entropy`` on one-hot float rows shaped like pred, unchecked."""
    z = pred - pred.max(axis=-1, keepdims=True)
    expz = np.exp(z)
    total = expz.sum(axis=-1, keepdims=True)
    logp = z - np.log(total)
    n = pred.shape[-2]
    loss = -np.sum(onehot * logp, axis=(-2, -1)) / n
    return loss, (expz / total - onehot) / n


# Each loss kind's step loss and validation metric.  The step's targets are
# checked once, so it skips cross_entropy's checks.
LOSSES = {
    "squared_error": (squared_error, "mse"),
    "cross_entropy": (_softmax_cross_entropy, "accuracy"),
}


class History:
    """Per-epoch records, one row per (epoch, task, layer).

    train_loss is the task's mean per-step loss across the epoch; reg_value
    is the raw regularizer summed over layers at the epoch's end (before the
    coefficient); mean_pairwise_distance averages the layer's squared
    functional distance over distinct task pairs (0 for single-task models).
    Heads-only models get one row per (epoch, task): layer_id -1, distance NaN.
    """

    COLUMNS = (
        "epoch",
        "task_id",
        "train_loss",
        "val_metric",
        "reg_value",
        "layer_id",
        "mean_pairwise_distance",
    )

    def __init__(self):
        self.rows = []

    def column(self, name):
        i = self.COLUMNS.index(name)
        return [row[i] for row in self.rows]

    def final_mean_distances(self):
        """layer_id -> mean pairwise distance at the last recorded epoch."""
        epochs, layers, dists = (
            self.column(c) for c in ("epoch", "layer_id", "mean_pairwise_distance")
        )
        last = max(epochs, default=None)
        return {l: d for e, l, d in zip(epochs, layers, dists) if e == last}

    def to_csv(self, path):
        _write_csv(path, self.COLUMNS, self.rows)


def _task_arrays(model, task, kind, split):
    """One split of a task as float64 inputs (n, input dim) and targets
    (n, head dim), one-hot under cross_entropy; an error names the task."""
    x = model._inputs(task, split.inputs)
    y = np.asarray(split.targets)
    dim = model.head_dim(task)
    try:
        if kind == "squared_error":
            target = y.astype(np.float64, copy=False)
        elif dim < 2:
            raise ValueError(
                "cross_entropy needs at least 2 output classes, "
                f"but its head has {dim} output"
            )
        else:
            target = _as_onehot(y, dim)
        if target.shape != (x.shape[0], dim):
            raise ValueError(f"targets have shape {y.shape}, expected (n, {dim})")
    except ValueError as exc:
        raise ValueError(f"task {task}: {exc}") from exc
    return x, target


def _head_dims(datasets, config):
    """Each task's head dim from its training targets, the inverse of
    ``_task_arrays``: one output per target column, but one per class for a
    single column of class labels under cross_entropy."""
    dims = []
    for t, kind in enumerate(config.loss_kinds(len(datasets))):
        y = np.asarray(datasets[t].train.targets)
        if kind == "squared_error" or (y.ndim == 2 and y.shape[1] > 1):
            dims.append(y.shape[1] if y.ndim == 2 else 1)
            continue
        try:
            dims.append(int(_class_labels(y).max(initial=-1)) + 1)
        except ValueError as exc:
            raise ValueError(
                f"task {t}: cross_entropy targets must be non-negative "
                f"integer class labels; {exc}"
            ) from exc
    return tuple(dims)


def train(model: TaanModel, datasets, config: TrainConfig):
    """Optimize the model in place; returns (model, History).

    datasets holds one train/val split per task (objects with .train/.val
    attributes).  Each layer's Gram matrix is built under
    ``metrics.COMPARISON_MIXTURE``.
    """
    if len(datasets) != model.task_count:
        raise ValueError(
            f"got {len(datasets)} datasets for {model.task_count} tasks"
        )
    kinds = config.loss_kinds(model.task_count)
    train_x, train_y, val_x, val_y = [], [], {}, {}
    width = max(model.head_dim(t) for t in range(model.task_count))
    for t, d in enumerate(datasets):
        if np.asarray(d.train.inputs).shape[0] == 0:
            raise ValueError(f"task {t} has an empty training split")
        x, y = _task_arrays(model, t, kinds[t], d.train)
        train_x.append(x)
        # Zero-padded to the widest head so that all tasks' targets stack.
        train_y.append(np.pad(y, [(0, 0), (0, width - y.shape[1])]))
        if d.val is not None and np.asarray(d.val.inputs).shape[0] > 0:
            val_x[t], val_y[t] = _task_arrays(model, t, kinds[t], d.val)
    rng = np.random.default_rng(config.seed)
    state = AdamState.for_params(model.params, config.learning_rate)
    caches = layer_grams([layer.grid for layer in model.layers], COMPARISON_MIXTURE)
    reg_on = config.reg.coefficient > 0
    # All tasks' rows stacked once; each step is one gather from each stack.
    sizes = [x.shape[0] for x in train_x]
    offsets = np.cumsum([0] + sizes[:-1])
    stacked_x, stacked_y = np.concatenate(train_x), np.concatenate(train_y)
    n, tasks = config.batch_size, model.task_count
    steps = max(int(math.ceil(size / n)) for size in sizes)
    batch = BatchLayout(model, dict.fromkeys(range(tasks), n), kinds.__getitem__)
    draw = np.arange(steps * n).reshape(steps, 1, n)
    losses = [LOSSES[kinds[group.tasks[0]]][0] for group in batch.groups]
    if val_x:
        val_batch = BatchLayout(
            model, {t: x.shape[0] for t, x in val_x.items()}, kinds.__getitem__
        )
        np.concatenate([val_x[t] for t in val_batch.stack_order], out=val_batch.x)
        val_targets = [np.stack([val_y[t] for t in g.tasks]) for g in val_batch.groups]
    history = History()
    for epoch in range(config.epochs):
        # Each task's epoch wraps its permutation; row s of the order holds
        # step s's rows of every task, stacked in the layout's task order.
        draws = [
            np.take(rng.permutation(size), draw, mode="wrap") + start
            for size, start in zip(sizes, offsets)
        ]
        order = np.concatenate([draws[t] for t in batch.stack_order], axis=1)
        order = order.reshape(steps, -1)
        epoch_loss = np.zeros(tasks)
        for rows in order:
            # mode="clip" writes into batch.x; the default would buffer it.
            stacked_x.take(rows, axis=0, mode="clip", out=batch.x)
            outs = stacked_forward(model, batch)
            y = stacked_y.take(rows, axis=0)
            douts = []
            for group, loss_fn, out in zip(batch.groups, losses, outs):
                target = y[group.rows, : out.shape[2]].reshape(out.shape)
                loss, dout = loss_fn(out, target)
                epoch_loss[group.tasks] += loss
                douts.append(dout)
            total = stacked_backward(model, batch, douts)
            if reg_on:
                for (_, _, gc), layer, cache in zip(
                    batch.layer_grads, model.layers, caches
                ):
                    gc += config.reg.coefficient * reg_grad(
                        config.reg.kind, layer.coords, cache
                    )
            adam_step(model.params, total, state)
        bad = np.flatnonzero(~np.isfinite(epoch_loss))
        if bad.size:
            raise ValueError(
                f"training diverged: epoch {epoch}, task {bad[0]} has loss "
                f"{epoch_loss[bad[0]]:g}"
            )
        reg_value = sum(
            regularizer_value(config.reg.kind, layer.coords, caches[l])
            for l, layer in enumerate(model.layers)
        )
        mean_dists = [
            mean_pairwise_distance(distance_matrix(layer.coords, caches[l]))
            for l, layer in enumerate(model.layers)
        ]
        metrics = {}
        if val_x:
            outs = stacked_forward(model, val_batch)
            for group, out, y in zip(val_batch.groups, outs, val_targets):
                metric = LOSSES[kinds[group.tasks[0]]][1]
                scores = [_score(o, t, metric) for o, t in zip(out, y)]
                metrics.update(zip(group.tasks.tolist(), scores))
        layer_dists = list(enumerate(mean_dists)) or [(-1, math.nan)]
        history.rows.extend(
            (epoch, t, epoch_loss[t] / steps, metrics.get(t, math.nan),
             float(reg_value), l, dist)
            for t in range(tasks)
            for l, dist in layer_dists
        )
    return model, history


def _average_precision_at_k(scores, relevant, k):
    order = np.argsort(-scores, kind="stable")[:k]
    hits = relevant[order]
    if not np.any(relevant):
        return None
    precision = np.cumsum(hits) / (np.arange(hits.shape[0]) + 1.0)
    denom = min(int(np.sum(relevant)), k)
    return float(np.sum(precision * hits) / denom)


def map_at_k(scores, relevance, k=10):
    """Mean average precision truncated at k over ranked label scores.

    relevance is a binary (n, labels) matrix of bools or of the numbers 0
    and 1, else ValueError naming the first other value; rows without any
    relevant label are excluded from the mean.
    """
    k = _whole("k", k, 1)
    scores = np.asarray(scores, dtype=np.float64)
    relevance = np.asarray(relevance)
    if scores.shape != relevance.shape or scores.ndim != 2:
        raise ValueError("scores and relevance must share a 2-D shape")
    bad = [v for v in relevance.ravel().tolist() if v not in (0, 1)]
    if bad:
        raise ValueError(f"relevance must be 0 or 1, got {bad[0]!r}")
    values = [
        ap
        for row_scores, row_rel in zip(scores, relevance != 0)
        if (ap := _average_precision_at_k(row_scores, row_rel, k)) is not None
    ]
    if not values:
        raise ValueError("no example has a relevant label")
    return float(np.mean(values))


def evaluate(model: TaanModel, dataset, task, metric, k=10):
    """Score one task's dataset: metric is mse, accuracy or map_at_k."""
    inputs = np.asarray(dataset.inputs, dtype=np.float64)
    if inputs.shape[0] == 0:
        raise ValueError("cannot evaluate an empty dataset")
    outs, _ = forward(model, {task: inputs})
    return _score(outs[task], dataset.targets, metric, k)


def _score(out, targets, metric, k=10):
    if _choice("metric", metric, ("mse", "accuracy", "map_at_k")) == "map_at_k":
        return map_at_k(out, targets, k)
    if metric == "accuracy":
        targets = _as_onehot(targets, out.shape[1])
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != out.shape:
        raise ValueError(f"target shape {targets.shape} does not match {out.shape}")
    if metric == "mse":
        return float(np.mean((out - targets) ** 2))
    return float(np.mean(np.argmax(out, axis=1) == np.argmax(targets, axis=1)))
