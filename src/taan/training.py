"""Multi-task training: bias-corrected Adam over the composite loss.

Each optimization step draws one minibatch per task, runs all of them
through one fused forward and backward pass, sums the task losses, adds the
coordinate-matrix regularizer, and applies a single Adam update to the
model's flat parameter vector.  Everything is driven by one seeded
generator so a run is fully reproducible.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from taan.data import _write_csv
from taan.metrics import (
    GaussianMixture,
    distance_matrix,
    layer_grams,
    mean_pairwise_distance,
)
from taan.network import TaanModel, backward, coord_views, forward
from taan.regularizers import RegConfig, RegKind, reg_grad, regularizer_value

LOSS_KINDS = ("squared_error", "cross_entropy")


class AdamState:
    """Adam accumulators plus the hyperparameters that drive the update."""

    def __init__(self, m, v, step, learning_rate, beta1, beta2, epsilon):
        self.m = m
        self.v = v
        self.step = step
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        if step < 0:
            raise ValueError("step counter must be >= 0")

    @classmethod
    def for_params(
        cls, param, learning_rate=1e-4, beta1=0.9, beta2=0.98, epsilon=1e-8
    ):
        m, v = np.zeros_like(param), np.zeros_like(param)
        return cls(m, v, 0, learning_rate, beta1, beta2, epsilon)


def adam_step(param, grad, state: AdamState):
    """One in-place bias-corrected Adam update of one array (the model's flat
    ``params``, in training); returns (param, state)."""
    if not param.shape == grad.shape == state.m.shape:
        raise ValueError(
            f"shapes differ: {param.shape}, {grad.shape}, state {state.m.shape}"
        )
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    param -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)
    return param, state


@dataclass(frozen=True)
class TrainConfig:
    """Loop hyperparameters; ``loss`` is one kind for all tasks or a tuple
    with one kind per task."""

    epochs: int
    batch_size: int = 64
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.98
    epsilon: float = 1e-8
    seed: int = 0
    reg: RegConfig = field(default_factory=lambda: RegConfig(RegKind.NONE, 0.0))
    loss: object = "squared_error"

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        for name in ("learning_rate", "beta1", "beta2", "epsilon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")
        if self.beta1 >= 1 or self.beta2 >= 1:
            raise ValueError("beta1 and beta2 must be < 1")
        kinds = (self.loss,) if isinstance(self.loss, str) else tuple(self.loss)
        for kind in kinds:
            if kind not in LOSS_KINDS:
                raise ValueError(f"unknown loss kind {kind!r}")

    def loss_kind(self, task):
        if isinstance(self.loss, str):
            return self.loss
        return self.loss[task]


def squared_error(pred, target):
    """0.5·Σ‖residual‖²/N and its gradient; N is the batch size."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.shape:
        raise ValueError(
            f"target shape {target.shape} does not match output {pred.shape}"
        )
    r = pred - target
    n = pred.shape[0]
    return 0.5 * float(np.sum(r * r)) / n, r / n


def _class_labels(target):
    """Class labels as a 1-D int64 array; a label that is not a whole
    number raises ValueError naming it."""
    labels = np.asarray(target).reshape(-1)
    if labels.dtype.kind == "f":
        bad = ~(np.isfinite(labels) & (labels == np.trunc(labels)))
        if bad.any():
            raise ValueError(f"class label {float(labels[bad][0])!r} is not an integer")
    return labels.astype(np.int64)


def _as_onehot(target, n_classes):
    target = np.asarray(target)
    if target.ndim == 2 and target.shape[1] == n_classes:
        return np.asarray(target, dtype=np.float64)
    labels = _class_labels(target)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels outside [0, {n_classes})")
    onehot = np.zeros((labels.shape[0], n_classes))
    onehot[np.arange(labels.shape[0]), labels] = 1.0
    return onehot


def cross_entropy(pred, target):
    """Mean softmax cross-entropy; target is int labels or one-hot rows."""
    onehot = _as_onehot(target, pred.shape[1])
    if onehot.shape[0] != pred.shape[0]:
        raise ValueError("target batch size does not match output")
    z = pred - pred.max(axis=1, keepdims=True)
    expz = np.exp(z)
    total = expz.sum(axis=1, keepdims=True)
    logp = z - np.log(total)
    n = pred.shape[0]
    loss = -float(np.sum(onehot * logp)) / n
    return loss, (expz / total - onehot) / n


_LOSS_FNS = {"squared_error": squared_error, "cross_entropy": cross_entropy}


def loss_and_grad(kind, pred, target):
    return _LOSS_FNS[kind](pred, target)


class History:
    """Per-epoch records, one row per (epoch, task, layer).

    train_loss is the task's mean per-step loss across the epoch; reg_value
    is the raw regularizer summed over layers at the epoch's end (before the
    coefficient); mean_pairwise_distance averages the layer's squared
    functional distance over distinct task pairs (0 for single-task models).
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

    def append(self, **kwargs):
        if set(kwargs) != set(self.COLUMNS):
            raise ValueError(f"history row needs exactly {self.COLUMNS}")
        self.rows.append(tuple(kwargs[c] for c in self.COLUMNS))

    def column(self, name):
        i = self.COLUMNS.index(name)
        return [row[i] for row in self.rows]

    def final_mean_distances(self):
        """layer_id -> mean pairwise distance at the last recorded epoch."""
        if not self.rows:
            return {}
        last = max(self.column("epoch"))
        out = {}
        for row in self.rows:
            record = dict(zip(self.COLUMNS, row))
            if record["epoch"] == last:
                out[record["layer_id"]] = record["mean_pairwise_distance"]
        return out

    def to_csv(self, path):
        _write_csv(path, self.COLUMNS, self.rows)


def _split_pair(entry):
    if hasattr(entry, "train") and hasattr(entry, "val"):
        return entry.train, entry.val
    train, val = entry
    return train, val


def _data_arrays(dataset):
    inputs = np.asarray(dataset.inputs, dtype=np.float64)
    targets = np.asarray(dataset.targets)
    return inputs, targets


def train(model: TaanModel, datasets, config: TrainConfig):
    """Optimize the model in place; returns (model, History).

    datasets holds one train/val split per task (objects with .train/.val
    attributes, or (train, val) pairs).  Each layer's Gram matrix is built
    under the standard normal mixture.
    """
    pairs = [_split_pair(d) for d in datasets]
    if len(pairs) != model.task_count:
        raise ValueError(
            f"got {len(pairs)} datasets for {model.task_count} tasks"
        )
    if not isinstance(config.loss, str) and len(config.loss) != model.task_count:
        raise ValueError(
            f"got {len(config.loss)} loss kinds for {model.task_count} tasks"
        )
    for t in range(model.task_count):
        if config.loss_kind(t) == "cross_entropy" and model.head_dim(t) < 2:
            raise ValueError(
                f"task {t}: cross_entropy needs at least 2 output classes, "
                f"but its head has {model.head_dim(t)} output"
            )
    train_x, train_y, val_x, val_y = [], [], {}, {}
    for t, (tr, va) in enumerate(pairs):
        x, y = _data_arrays(tr)
        if x.shape[0] == 0:
            raise ValueError(f"task {t} has an empty training split")
        if x.ndim != 2 or x.shape[1] != model.input_dim:
            raise ValueError(
                f"task {t} inputs have shape {x.shape}, expected "
                f"(n, {model.input_dim})"
            )
        train_x.append(x)
        train_y.append(y)
        if va is not None and np.asarray(va.inputs).shape[0] > 0:
            val_x[t], val_y[t] = _data_arrays(va)
    rng = np.random.default_rng(config.seed)
    state = AdamState.for_params(
        model.params, config.learning_rate, config.beta1, config.beta2, config.epsilon
    )
    caches = layer_grams(
        [layer.grid for layer in model.layers], GaussianMixture.standard_normal()
    )
    reg_on = config.reg.kind is not RegKind.NONE
    steps = max(
        int(math.ceil(x.shape[0] / config.batch_size)) for x in train_x
    )
    history = History()
    for epoch in range(config.epochs):
        perms = [rng.permutation(x.shape[0]) for x in train_x]
        epoch_loss = np.zeros(model.task_count)
        for step in range(steps):
            take = np.arange(
                step * config.batch_size, (step + 1) * config.batch_size
            )
            rows = [np.take(perm, take, mode="wrap") for perm in perms]
            outs, trace = forward(
                model, {t: x[r] for t, (x, r) in enumerate(zip(train_x, rows))}
            )
            douts = {}
            for t, out in outs.items():
                loss, douts[t] = loss_and_grad(
                    config.loss_kind(t), out, train_y[t][rows[t]]
                )
                epoch_loss[t] += loss
            total = backward(model, trace, douts)
            if reg_on and config.reg.coefficient > 0:
                coord_grads = coord_views(model, total)
                for l, layer in enumerate(model.layers):
                    coord_grads[l] += config.reg.coefficient * reg_grad(
                        config.reg.kind, layer.coords, caches[l]
                    )
            adam_step(model.params, total, state)
        bad = np.flatnonzero(~np.isfinite(epoch_loss))
        if bad.size:
            raise ValueError(
                f"training diverged: epoch {epoch}, task {bad[0]} has loss "
                f"{epoch_loss[bad[0]]:g}"
            )
        reg_value = 0.0
        if reg_on:
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
            outs, _ = forward(model, val_x)
            for t, out in outs.items():
                kind = config.loss_kind(t)
                metrics[t] = _score(
                    out, val_y[t], "mse" if kind == "squared_error" else "accuracy"
                )
        for t in range(model.task_count):
            metric = metrics.get(t, math.nan)
            for l in range(len(model.layers)):
                history.append(
                    epoch=epoch,
                    task_id=t,
                    train_loss=epoch_loss[t] / steps,
                    val_metric=metric,
                    reg_value=float(reg_value),
                    layer_id=l,
                    mean_pairwise_distance=mean_dists[l],
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

    relevance is a binary (n, labels) matrix; rows without any relevant
    label are excluded from the mean.
    """
    scores = np.asarray(scores, dtype=np.float64)
    relevance = np.asarray(relevance)
    if scores.shape != relevance.shape or scores.ndim != 2:
        raise ValueError("scores and relevance must share a 2-D shape")
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
    inputs, targets = _data_arrays(dataset)
    if inputs.shape[0] == 0:
        raise ValueError("cannot evaluate an empty dataset")
    outs, _ = forward(model, {task: inputs})
    return _score(outs[task], targets, metric, k)


def _score(out, targets, metric, k=10):
    if metric == "mse":
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != out.shape:
            raise ValueError(
                f"target shape {targets.shape} does not match {out.shape}"
            )
        return float(np.mean((out - targets) ** 2))
    if metric == "accuracy":
        predicted = np.argmax(out, axis=1)
        labels = np.asarray(targets)
        if labels.ndim == 2 and labels.shape[1] == out.shape[1]:
            labels = np.argmax(labels, axis=1)
        else:
            labels = _class_labels(labels)
        return float(np.mean(predicted == labels))
    if metric == "map_at_k":
        return map_at_k(out, targets, k)
    raise ValueError(f"unknown metric {metric!r}")
