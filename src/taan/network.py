"""Shared-weight multi-task network with per-task adaptive activations.

Every hidden layer is a linear map shared by all tasks followed by an
activation whose hinge coordinates are task-specific; each task has its own
linear output head.  One forward pass carries any set of tasks' batches
through the shared layers together, and caches the pre-activations and
their interval indices so the manual backward pass can chain through the
activation's x- and coordinate-derivatives without searching again.
"""

import copy
import json
import math
import os
import zipfile

import numpy as np

from taan import _backend
from taan.apl import BASIS_RANGE, BasisGrid
from taan.data import _flag, _items, _real, _whole
from taan.metrics import GaussianMixture

COORD_INIT_SCALE = 0.01


class _Owned:
    """Base of the objects a model owns: rebinding an attribute that is
    already set raises ValueError naming the slot (``_name`` is its
    prefix); setting it to the object it holds, as ``arr += d`` does, is
    allowed."""

    _name = "model."

    def __setattr__(self, attr, value):
        if self.__dict__.get(attr, value) is not value:
            raise _rebind_error(self._name + attr)
        object.__setattr__(self, attr, value)


def _rebind_error(slot):
    return ValueError(
        f"{slot} is fixed at model construction; write through the array "
        "(arr[...] = value) instead of rebinding it"
    )


class _Fixed(tuple):
    """A model's layers or heads; item assignment raises ValueError naming
    the item's first slot."""

    def __new__(cls, items, slots):
        self = super().__new__(cls, items)
        self.slots = slots  # each item's first slot in the model's layout
        return self

    def __setitem__(self, i, value):
        raise _rebind_error(self.slots[i][0])


class LinearLayer(_Owned):
    """A dense map y = x W' + b of a model: ``weight`` (out, in) and ``bias``
    (out,) are views of its ``params``."""

    def __init__(self, name, weight, bias):
        self.__dict__.update(_name=name, weight=weight, bias=bias)

    @property
    def out_dim(self):
        return self.weight.shape[0]

    @property
    def in_dim(self):
        return self.weight.shape[1]


class AalLayer(_Owned):
    """One shared linear layer of a model plus every task's activation
    coordinates on ``grid``, a (tasks, len(grid)) view of its ``params``."""

    def __init__(self, name, linear, coords, grid):
        self.__dict__.update(_name=name, linear=linear, coords=coords, grid=grid)


def _layout(input_dim, widths, basis_counts, output_dims):
    """The slot table of a model with these sizes: (name, offset, shape) of
    every array in ``params``, packed as each layer's weight, bias and
    coords (a row per task), then each head's weight and bias; and the
    length of ``params``."""
    slots, fan_in = [], input_dim
    for l, (width, m) in enumerate(zip(widths, basis_counts)):
        p = f"layers[{l}]."
        slots += [(p + "linear.weight", (width, fan_in)), (p + "linear.bias", (width,))]
        slots.append((p + "coords", (len(output_dims), m)))
        fan_in = width
    for t, d in enumerate(output_dims):
        slots += [(f"heads[{t}].weight", (d, fan_in)), (f"heads[{t}].bias", (d,))]
    *starts, size = np.cumsum([0] + [math.prod(s) for _, s in slots]).tolist()
    return [(name, start, s) for (name, s), start in zip(slots, starts)], size


class TaanModel(_Owned):
    """Shared layers plus per-task heads, over one float64 vector.

    ``layout`` is the slot table ``_layout`` builds from the sizes: layer l
    maps to ``widths[l]`` units through activations on ``grids[l]``, and
    task t's head has ``output_dims[t]`` outputs.  ``params`` (a contiguous
    float64 vector as long as the table) becomes the model's own vector,
    not copied; without it the model starts at zeros.  ``layers`` and
    ``heads`` are the model's own objects over views of ``params``.  The
    arrays are writable, but neither they, the objects nor ``params`` can
    be rebound: that raises ``ValueError`` naming the slot.
    """

    def __init__(self, input_dim, widths, grids, output_dims, params=None):
        if len(widths) != len(grids) or not output_dims:
            got = f"{len(widths)} widths, {len(grids)} grids, {len(output_dims)} heads"
            raise ValueError(f"need a grid per width and a head or more, got {got}")
        layout, size = _layout(input_dim, widths, [len(g) for g in grids], output_dims)
        if params is None:
            params = np.zeros(size)
        elif not (
            isinstance(params, np.ndarray)
            and params.shape == (size,)
            and params.dtype == np.float64
            and params.flags.c_contiguous
        ):
            dtype = getattr(params, "dtype", type(params).__name__)
            raise ValueError(
                f"params has shape {np.shape(params)} and dtype {dtype}, "
                f"expected a contiguous ({size},) float64 vector"
            )
        n = 3 * len(grids)
        self.params, self.layout = params, layout
        self._arrays = v = tuple(_views(params, layout))
        own = []
        for l, (grid, w, b, c) in enumerate(zip(grids, *[iter(v[:n])] * 3)):
            p = f"layers[{l}]."
            own.append(AalLayer(p, LinearLayer(p + "linear.", w, b), c, grid))
        self.layers = _Fixed(own, layout[0:n:3])
        pairs = enumerate(zip(v[n::2], v[n + 1 :: 2]))
        own = [LinearLayer(f"heads[{t}].", w, b) for t, (w, b) in pairs]
        self.heads = _Fixed(own, layout[n::2])
        self.task_count = len(own)

    def _sizes(self):
        """The constructor's arguments but ``params``."""
        return (
            self.input_dim,
            [layer.linear.out_dim for layer in self.layers],
            [layer.grid for layer in self.layers],
            [head.out_dim for head in self.heads],
        )

    def __reduce__(self):
        # Copies and pickles are rebuilt by the constructor over a copy of
        # params, so a shallow copy does not share it either.
        return TaanModel, (*self._sizes(), self.params.copy())

    @property
    def input_dim(self):
        return self.layout[0][2][1]  # the first weight is (out, input_dim)

    def _task(self, task):
        """The task id as an int (not a bool); anything else raises ValueError."""
        is_int = isinstance(task, (int, np.integer)) and not isinstance(task, bool)
        if not (is_int and 0 <= task < self.task_count):
            raise ValueError(
                f"unknown task id {task!r} for a {self.task_count}-task model"
            )
        return int(task)

    def _inputs(self, task, x):
        """x as float64 rows of width input_dim; any other shape raises
        ValueError naming the task."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(
                f"task {task}: inputs have shape {x.shape}, expected "
                f"(n, {self.input_dim})"
            )
        return x

    def head_dim(self, task):
        return self.heads[self._task(task)].out_dim


class _HeadGroup:
    """Tasks whose heads share an output dim and whose batches share a row
    count.  Their batches are adjacent in the stack, so ``rows`` is one
    slice of it; ``block`` indexes their heads' weights and biases in
    ``params``, which need not be adjacent."""

    def __init__(self, model, tasks, spans):
        head, (s, e) = model.heads[tasks[0]], spans[tasks[0]]
        self.tasks, self.size = np.array(tasks), head.weight.size
        self.shape = (len(tasks), e - s, head.out_dim)
        self.rows = slice(s, spans[tasks[-1]][1])
        starts = np.array([model.heads.slots[t][1] for t in tasks])
        self.block = (starts[:, None] + np.arange(self.size + head.out_dim)).ravel()

    def heads(self, params):
        """The group's head weights (G, out, width) and biases (G, out)."""
        g, _, out = self.shape
        block = params[self.block].reshape(g, -1)
        return block[:, : self.size].reshape(g, out, -1), block[:, self.size :]


class BatchLayout:
    """Layout of a stacked batch, from each task's row count, and the arrays
    of its pass.  Tasks form a head group when their heads have the same
    output dim, their batches the same row count and ``key`` (the loss kind,
    in training) gives them the same value.  Batches are stacked group by
    group in ``stack_order``; ``spans`` holds each task's row range and
    ``row_task`` the task of every row.  The layout is its pass's trace:
    ``stacked_forward`` reads the stacked inputs ``x``, writes each layer's
    ``buffers`` (pre-activations, flat interval indices, activations) and
    ``scratch``, and keeps each layer's coordinate ``tables`` as built;
    ``stacked_backward`` writes ``grad``, a vector laid out like
    ``model.params``, through its per-layer (weight, bias, coords) views
    ``layer_grads``.  A pass rewrites every layer slot of ``grad`` and the
    heads of the layout's tasks, so the other heads stay exactly zero.  A
    layout's next pass overwrites its last trace and gradient."""

    def __init__(self, model, sizes, key=lambda task: None):
        members = {}
        for t, n in sizes.items():
            members.setdefault((model.head_dim(t), n, key(t)), []).append(t)
        self.stack_order = [t for tasks in members.values() for t in tasks]
        counts = [sizes[t] for t in self.stack_order]
        ends = np.cumsum(counts).tolist()
        self.spans = {t: (e - sizes[t], e) for t, e in zip(self.stack_order, ends)}
        self.row_task = np.repeat(self.stack_order, counts)
        self.groups = [_HeadGroup(model, ts, self.spans) for ts in members.values()]
        n, widths = len(self.row_task), [l.linear.out_dim for l in model.layers]
        self.x = np.empty((n, model.input_dim))
        self.buffers = [
            (np.empty((n, w)), np.empty(n * w, np.intp), np.empty((n, w)))
            for w in widths
        ]
        self.tables = []
        self.grad = np.zeros_like(model.params)
        views = _views(self.grad, model.layout[: 3 * len(widths)])
        self.layer_grads = list(zip(*[iter(views)] * 3))
        size = n * max(widths, default=0)
        self.scratch = np.empty(size), np.empty(size, bool)


def forward(model: TaanModel, batches):
    """Run every task's batch through the network in one pass.

    ``batches`` maps task id -> inputs of shape (rows, input_dim).  The rows
    are stacked, so each shared layer is one matmul and one interval lookup,
    every task's activation is read off one table of all tasks' coordinate
    rows, and each head group is one batched matmul.  Returns
    ({task: outputs}, trace): the trace is the pass's own ``BatchLayout``,
    which holds everything backward needs and no later pass reuses.
    """
    xs = {task: model._inputs(task, x) for task, x in batches.items()}
    if not xs:
        raise ValueError("forward needs at least one task batch")
    batch = BatchLayout(model, {t: x.shape[0] for t, x in xs.items()})
    np.concatenate([xs[t] for t in batch.stack_order], out=batch.x)
    by_task = {}
    for group, out in zip(batch.groups, stacked_forward(model, batch)):
        by_task.update(zip(group.tasks, out))
    return {task: by_task[task] for task in xs}, batch


def stacked_forward(model, batch):
    """The pass over the stacked rows ``batch.x``; returns one (G, rows,
    out) output array per head group and leaves the trace in ``batch``.
    ``train`` calls it directly.  It and ``stacked_backward`` are public in
    this module, though not in ``taan``, so that perfbench's tracer, which
    wraps public functions, times the training step's pass."""
    h = batch.x
    batch.tables = [
        _backend.suffix_tables(layer.coords, layer.grid.breakpoints)
        for layer in model.layers
    ]
    for layer, (a, idx, h_out), table in zip(
        model.layers, batch.buffers, batch.tables, strict=True
    ):
        bps = layer.grid.breakpoints
        np.matmul(h, layer.linear.weight.T, out=a)
        a += layer.linear.bias
        flat = a.ravel()
        work = [s[: flat.size] for s in batch.scratch]
        layer.grid.intervals(flat, idx, work)
        # Row r's entries live in its task's block of the stacked tables.
        rows = idx.reshape(a.shape)
        rows += (batch.row_task * (bps.size + 1))[:, None]
        _backend.apl_forward(flat, idx, table, bps, h_out.ravel(), work[0])
        h = h_out
    outs = []
    for group in batch.groups:
        weight, bias = group.heads(model.params)
        rows = h[group.rows].reshape(*group.shape[:2], h.shape[1])
        out = np.matmul(rows, weight.transpose(0, 2, 1))
        out += bias[:, None, :]
        outs.append(out)
    return outs


def backward(model: TaanModel, trace: BatchLayout, output_grads):
    """Chain each task's output gradient back to the parameters.

    ``output_grads`` maps every task of the forward pass to the gradient of
    its outputs.  Returns the summed gradient as a new vector laid out like
    ``model.params``: the shared linear layers and the coordinate rows and
    heads of the tasks in the pass; every other task's coordinate row and
    head is exactly zero.
    """
    if set(output_grads) != set(trace.spans):
        raise ValueError(
            f"output gradients for tasks {sorted(output_grads)}, but the "
            f"forward pass ran tasks {sorted(trace.spans)}"
        )
    for task, (s, e) in trace.spans.items():
        if np.shape(output_grads[task]) != (e - s, model.head_dim(task)):
            raise ValueError(
                f"task {task} output gradient has shape "
                f"{np.shape(output_grads[task])}, expected "
                f"({e - s}, {model.head_dim(task)})"
            )
    douts = [
        np.asarray([output_grads[t] for t in group.tasks], dtype=np.float64)
        for group in trace.groups
    ]
    return stacked_backward(model, trace, douts).copy()


def stacked_backward(model, batch, douts):
    """Backward of ``stacked_forward`` over the trace in ``batch``, from one
    (G, rows, out) output gradient per head group; returns ``batch.grad``,
    written in place."""
    grad = batch.grad
    hs = [batch.x] + [h for _, _, h in batch.buffers]
    dh = np.empty_like(hs[-1])
    for group, g in zip(batch.groups, douts):
        weight, _ = group.heads(model.params)
        h = hs[-1][group.rows].reshape(*group.shape[:2], dh.shape[1])
        dw = np.matmul(g.transpose(0, 2, 1), h).reshape(len(g), -1)
        grad[group.block] = np.concatenate([dw, g.sum(axis=1)], axis=1).ravel()
        dh[group.rows] = np.matmul(g, weight).reshape(-1, dh.shape[1])
    steps = list(zip(model.layers, batch.layer_grads, batch.buffers, batch.tables, hs))
    for l in range(len(steps) - 1, -1, -1):
        layer, (gw, gb, gc), (a, idx, _), table, h = steps[l]
        gx, gcoords = _backend.apl_backward(
            a.ravel(), idx, table, layer.grid.breakpoints, dh.ravel()
        )
        da = gx.reshape(a.shape)
        gw[:] = da.T @ h
        gb[:] = da.sum(axis=0)
        gc[:] = gcoords
        if l > 0:
            dh = da @ layer.linear.weight
    return grad


class ArchitectureSpec:
    """Widths and activation-basis layout of a model.

    ``output_dim`` may be a single int (all heads alike) or a list or tuple
    of one int per task.
    """

    def __init__(
        self,
        input_dim,
        hidden_widths,
        output_dim,
        task_count,
        basis_count=8,
        basis_range=BASIS_RANGE,
    ):
        self.task_count = _whole("task_count", task_count, 1)
        self.input_dim = _whole("input_dim", input_dim, 1)
        widths = _items("hidden_widths", hidden_widths)
        self.hidden_widths = tuple(_whole("hidden_widths", w, 1) for w in widths)
        if isinstance(output_dim, (list, tuple)):
            dims = _items("output_dim", output_dim, self.task_count)
        else:
            dims = (output_dim,) * self.task_count
        self.output_dims = tuple(_whole("output_dim", d, 1) for d in dims)
        self.basis_count = _whole("basis_count", basis_count, 1)
        lo, hi = _items("basis_range", basis_range, 2)
        lo = _real("basis_range[0]", lo)
        self.basis_range = (lo, _real("basis_range[1]", hi, lo))


def build_model(arch: ArchitectureSpec, seed) -> TaanModel:
    """Seeded initialization: He-uniform weights, zero biases, coordinate
    rows i.i.d. uniform on [-0.01, 0.01] (a near-ReLU start with just enough
    asymmetry for tasks to diverge); ``seed`` is a whole number >= 0."""
    rng = np.random.default_rng(_whole("seed", seed, 0))
    grid = BasisGrid.even(arch.basis_count, *arch.basis_range)
    grids = [grid] * len(arch.hidden_widths)
    model = TaanModel(arch.input_dim, arch.hidden_widths, grids, arch.output_dims)
    # Draws follow the layout: each layer's weight then coords, then heads.
    for (name, _, shape), arr in zip(model.layout, model_parameters(model)):
        if name.endswith("weight"):
            limit = np.sqrt(6.0 / shape[1])
            arr[:] = rng.uniform(-limit, limit, size=shape)
        elif name.endswith("coords"):
            arr[:] = rng.uniform(-COORD_INIT_SCALE, COORD_INIT_SCALE, size=shape)
    return model


def to_hard_sharing(model: TaanModel) -> TaanModel:
    """Copy of the model with every coordinate row replaced by the row mean,
    so all tasks share one activation per layer."""
    shared = copy.copy(model)
    for layer in shared.layers:
        # Already-identical rows are kept verbatim instead of re-averaged, so
        # the reduction is exactly idempotent despite rounding in the mean.
        if not np.all(layer.coords == layer.coords[0]):
            layer.coords[:] = layer.coords.mean(axis=0)
    return shared


def tie_heads(model: TaanModel) -> TaanModel:
    """Copy of the model with every head replaced by a copy of head 0."""
    first = model.heads[0]
    if any(h.out_dim != first.out_dim for h in model.heads):
        raise ValueError("cannot tie heads with different output dims")
    tied = copy.copy(model)
    for head in tied.heads[1:]:
        head.weight[:], head.bias[:] = first.weight, first.bias
    return tied


def param_views(model: TaanModel, flat):
    """Split a flat vector laid out like ``model.params`` (a gradient, say)
    into per-array views, in layout order."""
    if flat.shape != model.params.shape:
        raise ValueError(
            f"flat vector has shape {flat.shape}, expected {model.params.shape}"
        )
    return _views(flat, model.layout)


def _views(flat, slots):
    """Views of ``flat`` shaped as the given slots of a model's layout."""
    return [flat[s : s + math.prod(shape)].reshape(shape) for _, s, shape in slots]


def model_parameters(model: TaanModel):
    """The model's own trainable arrays in layout order (layer W, b, coords;
    head W, b); each is a view of ``model.params``."""
    return list(model._arrays)


CHECKPOINT_FORMAT = 2


def save_checkpoint(model: TaanModel, path, mixture=None, seed=None):
    """Write the model (plus optional mixture and seed) as an npz archive.

    The archive has at most four members, whatever the layer and task
    counts: ``meta`` (JSON: format version, widths, per-layer basis counts,
    head output dims, seed), ``params`` (``model.params``), ``breakpoints``
    (every layer's grid, concatenated) and, when a mixture is given,
    ``mixture`` (rows: weights, means, sigmas).  float64 arrays round-trip
    bitwise.  Like ``np.savez``, a path without the ``.npz`` suffix gets it;
    the archive goes to a temporary file beside the target that is then
    moved into place, so no save leaves a partial file.  Every model array
    is a view of ``params``, so that one member holds them all.
    """
    input_dim, widths, grids, output_dims = model._sizes()
    meta = {
        "format": CHECKPOINT_FORMAT,
        "task_count": model.task_count,
        "input_dim": input_dim,
        "widths": widths,
        "basis_counts": [len(grid) for grid in grids],
        "output_dims": output_dims,
        "seed": None if seed is None else _whole("seed", seed, 0),
        "has_mixture": mixture is not None,
    }
    arrays = {
        "meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        "params": model.params,
        "breakpoints": np.concatenate(
            [np.zeros(0)] + [grid.breakpoints for grid in grids]
        ),
    }
    if mixture is not None:
        arrays["mixture"] = np.stack([mixture.weights, mixture.means, mixture.sigmas])
    path = os.fspath(path)
    path += "" if path.endswith(".npz") else ".npz"
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path):
    """Inverse of save_checkpoint; returns (model, mixture, seed).

    ``params`` is copied once, checked for finiteness and handed to the
    constructor with the sizes in ``meta``, which checks its length and
    takes the copy as the model's own vector.  Layers with
    equal breakpoints share one ``BasisGrid``.  A file that is not an npz
    archive, a missing or malformed member, a missing ``meta`` key and
    ``meta`` values that do not describe a model raise one ValueError
    naming the path.  The file is opened once and closed on every path,
    also when ``np.load`` fails on a truncated archive.
    """
    try:
        with open(path, "rb") as fh:  # np.load's own test for a zip archive
            if fh.read(4) not in (b"PK\x03\x04", b"PK\x05\x06"):
                raise ValueError("not an npz checkpoint archive")
            fh.seek(0)
            with np.load(fh) as archive:
                return _checkpoint_from_archive(archive)
    except KeyError as exc:
        raise ValueError(f"checkpoint {path}: meta has no key {exc}") from exc
    except (AttributeError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from exc


def _checkpoint_from_archive(archive):
    def data(key, shape=None):
        if key not in archive.files:
            raise ValueError(f"no member {key!r}")
        arr = archive[key]
        if shape is not None and arr.shape != shape:
            raise ValueError(f"{key} has shape {arr.shape}, expected {shape}")
        return arr

    meta = json.loads(bytes(data("meta")).decode())
    version = meta.get("format", 1)
    if version != CHECKPOINT_FORMAT:
        raise ValueError(
            f"format {version}, not {CHECKPOINT_FORMAT}; format 1, the old "
            "per-array layout with one member per array, is no longer read"
        )
    task_count, input_dim = (
        _whole(f"meta {key}", meta[key], 0) for key in ("task_count", "input_dim")
    )
    widths, counts, output_dims = (
        [_whole(f"meta {key}[{i}]", n, 0) for i, n in enumerate(meta[key])]
        for key in ("widths", "basis_counts", "output_dims")
    )
    if (len(widths), len(output_dims)) != (len(counts), task_count):
        raise ValueError(
            f"meta has {len(widths)} widths, {len(counts)} basis counts and "
            f"{len(output_dims)} output dims for {task_count} tasks"
        )
    bps = data("breakpoints", (sum(counts),))
    grids, by_row, start = [], {}, 0
    for m in counts:
        row = bps[start : start + m]
        start += m
        key = row.tobytes()
        if key not in by_row:
            by_row[key] = BasisGrid(row)
        grids.append(by_row[key])
    # A copy: the archive's array is a view, and a model owns its vector.
    params = np.array(data("params"), dtype=np.float64)
    if not np.all(np.isfinite(params)):
        raise ValueError("params has non-finite entries")
    model = TaanModel(input_dim, widths, grids, output_dims, params)
    mixture = None
    if _flag("meta has_mixture", meta["has_mixture"]):
        mix = data("mixture")
        if mix.ndim != 2 or mix.shape[0] != 3:
            raise ValueError(
                f"mixture has shape {mix.shape}, expected (3, components)"
            )
        mixture = GaussianMixture(*mix)
    elif "mixture" in archive.files:
        raise ValueError("meta has_mixture is false, but the archive has 'mixture'")
    seed = meta["seed"]
    return model, mixture, None if seed is None else _whole("meta seed", seed, 0)
