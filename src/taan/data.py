"""Synthetic multi-task regression data with planted task clusters, plus
the one CSV format every taan file uses and its load/save for tabular task
data.

Targets blend a cluster-level random map with a task-private one,
y = (1-δ)·g_cluster(x) + δ·h_task(x) + noise·ε, so δ=0 makes tasks in one
cluster pointwise identical and δ=1 makes every task an independent random
function.  Inputs are standard normal, matching the default metric measure.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

SPLIT_TAGS = ("train", "val", "test")
HIDDEN_UNITS = 16


def _whole(name, value, least=None):
    """``value`` as an int when it is a whole number (an int, a numpy int or
    a whole-valued float) and at least ``least``, if given; anything else, a
    bool too, raises ValueError naming the field."""
    try:
        whole = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{name} must be a whole number, got {value}")
    if least is not None and whole < least:
        raise ValueError(f"{name} must be >= {least}, got {whole}")
    return whole


def _real(name, value, low=-math.inf, high=math.inf, closed=False):
    """A finite int, float or numpy number (not a bool) between ``low`` and
    ``high``, ends included when ``closed``, as a float; else ValueError."""
    number = isinstance(value, (int, float, np.integer, np.floating))
    try:
        real = float(value) if number and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int too big for a float
        real = math.nan
    if math.isfinite(real) and (low <= real <= high if closed else low < real < high):
        return real
    left = "[" if closed and low > -math.inf else "("
    right = "]" if closed and high < math.inf else ")"
    interval = f"{left}{low:g}, {high:g}{right}"
    raise ValueError(f"{name} must be a finite number in {interval}, got {value!r}")


def _flag(name, value):
    """A bool or numpy bool (a JSON true or false) as a bool; else ValueError."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ValueError(f"{name} must be true or false, got {value!r}")


def _items(name, value, count=None):
    """A list or tuple, of ``count`` items if given, as a tuple; anything
    else, a string, an object, a number or None too, raises ValueError."""
    if isinstance(value, (list, tuple)) and count in (None, len(value)):
        return tuple(value)
    of = "" if count is None else f" of {count} items"
    raise ValueError(f"{name} must be a list{of}, got {value!r}")


def _choice(name, value, options):
    """One of the names ``options``; else ValueError, which lists them."""
    if isinstance(value, str) and value in options:
        return value
    raise ValueError(f"{name} must be one of {', '.join(options)}, got {value!r}")


def _path(name, value):
    """A file or directory name, a non-empty string; else ValueError."""
    if isinstance(value, str) and value:
        return value
    raise ValueError(f"{name} must be a file name, got {value!r}")


@dataclass(frozen=True)
class TaskDataset:
    """One task's examples: inputs (n, d) and targets (n, k) or labels (n,)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        targets = np.asarray(self.targets)
        if inputs.ndim != 2:
            raise ValueError(f"inputs must be 2-D, got shape {inputs.shape}")
        if targets.ndim not in (1, 2):
            raise ValueError(
                f"targets must be 1-D labels or 2-D reals, got {targets.shape}"
            )
        if targets.shape[0] != inputs.shape[0]:
            raise ValueError(
                f"row mismatch: {inputs.shape[0]} inputs, "
                f"{targets.shape[0]} targets"
            )
        if not np.all(np.isfinite(inputs)) or not np.all(
            np.isfinite(np.asarray(targets, dtype=np.float64))
        ):
            raise ValueError("datasets must not contain non-finite entries")
        inputs.setflags(write=False)
        targets.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    def __len__(self):
        return self.inputs.shape[0]


@dataclass(frozen=True)
class SplitDatasets:
    train: TaskDataset
    val: TaskDataset
    test: TaskDataset


@dataclass(frozen=True)
class SyntheticSpec:
    """Benchmark layout.

    clusters maps each task to a cluster id; relatedness δ interpolates
    between identical-within-cluster (0) and fully independent (1) targets.
    """

    task_count: int = 8
    samples_per_task: int = 1000
    input_dim: int = 8
    clusters: tuple = None
    relatedness: float = 0.3
    noise: float = 0.1
    seed: int = 0
    output_dim: int = 1
    train_fraction: float = 0.6
    val_fraction: float = 0.2
    shared_inputs: bool = False

    def __post_init__(self):
        for name in ("task_count", "samples_per_task", "input_dim", "output_dim"):
            object.__setattr__(self, name, _whole(name, getattr(self, name), 1))
        object.__setattr__(self, "seed", _whole("seed", self.seed, 0))
        for name, high in (("relatedness", 1), ("noise", math.inf)):
            value = _real(name, getattr(self, name), 0, high, closed=True)
            object.__setattr__(self, name, value)
        for name in ("train_fraction", "val_fraction"):
            object.__setattr__(self, name, _real(name, getattr(self, name), 0, 1))
        clusters = self.clusters
        if clusters is None:
            clusters = (0,) * self.task_count
        ids = _items("clusters", clusters, self.task_count)
        ids = tuple(_whole("clusters", c, 0) for c in ids)
        object.__setattr__(self, "clusters", ids)
        flag = _flag("shared_inputs", self.shared_inputs)
        object.__setattr__(self, "shared_inputs", flag)
        if self.train_fraction + self.val_fraction >= 1:
            raise ValueError("train and val fractions must leave a test split")
        if min(self.split_sizes()) < 1:
            raise ValueError("every split needs at least one sample")

    def split_sizes(self):
        n = self.samples_per_task
        n_train = int(round(self.train_fraction * n))
        n_val = int(round(self.val_fraction * n))
        return n_train, n_val, n - n_train - n_val


def _random_map(rng, in_dim, out_dim):
    a = rng.standard_normal((in_dim, HIDDEN_UNITS))
    a /= np.linalg.norm(a, axis=0)
    b = rng.standard_normal((HIDDEN_UNITS, out_dim))
    return a, b


def _apply_map(theta, x):
    # Unit-norm directions make each projection exactly N(0,1); the centered
    # cubic (u^3-3u)/sqrt(6) then has unit variance and no linear component,
    # so independently drawn maps are near-orthogonal as functions.
    a, b = theta
    u = x @ a
    z = (u * u * u - 3.0 * u) / np.sqrt(6.0)
    return z @ b / np.sqrt(HIDDEN_UNITS)


def generate(spec: SyntheticSpec):
    """Draw the benchmark; returns one SplitDatasets per task."""
    rng = np.random.default_rng(spec.seed)
    cluster_maps = {
        cid: _random_map(rng, spec.input_dim, spec.output_dim)
        for cid in sorted(set(spec.clusters))
    }
    task_maps = [
        _random_map(rng, spec.input_dim, spec.output_dim)
        for _ in range(spec.task_count)
    ]
    shape = (spec.samples_per_task, spec.input_dim)
    if spec.shared_inputs:
        x = rng.standard_normal(shape)
    delta = spec.relatedness
    n_train, n_val, _ = spec.split_sizes()
    out = []
    for t in range(spec.task_count):
        if not spec.shared_inputs:
            x = rng.standard_normal(shape)
        y = (1.0 - delta) * _apply_map(cluster_maps[spec.clusters[t]], x)
        y += delta * _apply_map(task_maps[t], x)
        y += spec.noise * rng.standard_normal(y.shape)
        bounds = ((0, n_train), (n_train, n_train + n_val), (n_train + n_val, None))
        parts = (TaskDataset(x[lo:hi], y[lo:hi]) for lo, hi in bounds)
        out.append(SplitDatasets(*parts))
    return out


def _header(n_inputs, n_targets):
    """The task-file columns: x0..x{d-1} then y0..y{k-1}."""
    return [f"x{i}" for i in range(n_inputs)] + [f"y{i}" for i in range(n_targets)]


def _write_csv(path, header, rows):
    """Write a header line, then one line per row, each cell as str(v): for
    a float, the shortest text that reads back bitwise, so identical runs
    give identical bytes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def _read_csv(path):
    """Read a numeric CSV as (header, float64 array with one row per line).

    Blank lines are skipped.  An empty file, a row whose length differs from
    the header's, a non-number or non-finite cell, and a file with no data
    rows raise ValueError naming the path and, for a row, its line.
    """
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {lineno}: expected {len(header)} "
                    f"columns, got {len(row)}"
                )
            try:
                values = [float(cell) for cell in row]
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{path}: line {lineno}: non-finite value")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return header, np.array(rows, dtype=np.float64)


def load_csv(path) -> TaskDataset:
    """Read one task file, rejecting malformed or non-finite cells.  Its
    header fixes the columns: it must be x0..x{d-1},y0..y{k-1}, d, k >= 1."""
    header, values = _read_csv(path)
    n = sum(name.startswith("x") for name in header)
    if not 0 < n < len(header) or header != _header(n, len(header) - n):
        raise ValueError(
            f"{path}: header {header!r} is not x0..x{{d-1}},y0..y{{k-1}} "
            "with d, k >= 1"
        )
    return TaskDataset(values[:, :n], values[:, n:])


def save_csv(dataset: TaskDataset, path):
    """Inverse of load_csv; 1-D labels become one target column.  Cells are
    written by ``_write_csv``'s one rule, so reruns give identical bytes."""
    targets = np.asarray(dataset.targets, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets[:, None]
    header = _header(dataset.inputs.shape[1], targets.shape[1])
    _write_csv(path, header, np.hstack([dataset.inputs, targets]).tolist())
