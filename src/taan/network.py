"""Shared-weight multi-task network with per-task adaptive activations.

Every hidden layer is a linear map shared by all tasks followed by an
activation whose hinge coordinates are task-specific; each task has its own
linear output head.  One forward pass carries any set of tasks' batches
through the shared layers together, and caches the pre-activations and
their interval indices so the manual backward pass can chain through the
activation's x- and coordinate-derivatives without searching again.
"""

import json
import math
import os
import zipfile

import numpy as np

from taan import _backend
from taan.apl import BasisGrid, validate_coordinates
from taan.data import _real, _whole
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


class LinearLayer:
    """Dense map y = x W' + b with weight (out, in) and bias (out,)."""

    def __init__(self, weight, bias):
        self.weight = np.ascontiguousarray(weight, dtype=np.float64)
        self.bias = np.ascontiguousarray(bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError(
                f"inconsistent linear shapes {self.weight.shape}, "
                f"{self.bias.shape}"
            )
        if not (
            np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))
        ):
            raise ValueError("linear layer entries must be finite")

    @property
    def out_dim(self):
        return self.weight.shape[0]

    @property
    def in_dim(self):
        return self.weight.shape[1]


class AalLayer:
    """One shared linear layer plus the per-task activation coordinates."""

    def __init__(self, linear, coords, grid):
        self.linear = linear
        self.grid = grid
        self.coords = validate_coordinates(coords, grid)


class _OwnedLinear(_Owned, LinearLayer):
    def __init__(self, name, weight, bias):  # views of params: validated already
        self.__dict__.update(_name=name, weight=weight, bias=bias)


class _OwnedAal(_Owned, AalLayer):
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
    """Shared layers plus per-task heads.

    Construction checks each given array against its slot in the table
    ``_layout`` builds from their sizes (a mis-shaped one raises ValueError
    naming the slot and both shapes), then copies them into one float64
    vector ``params`` laid out as that table, ``layout``; ``load_checkpoint``
    binds its loaded vector instead.  ``layers`` and ``heads`` are the
    model's own objects over views of ``params``; the caller's objects are
    only read.  The arrays are writable, but neither they, the objects nor
    ``params`` can be rebound: that raises ``ValueError`` naming the slot.
    """

    def __init__(self, layers, heads, task_count):
        if len(heads) != task_count or task_count < 1:
            need = f"expected {task_count} heads (one per task, at least one)"
            raise ValueError(f"{need}, got {len(heads)}")
        layout, _ = _layout(
            layers[0].linear.in_dim if layers else heads[0].in_dim,
            [x.linear.out_dim for x in layers],
            [len(x.grid) for x in layers],
            [x.out_dim for x in heads],
        )
        arrays = [a for x in layers for a in (x.linear.weight, x.linear.bias, x.coords)]
        arrays += [a for x in heads for a in (x.weight, x.bias)]
        for a, (name, _, shape) in zip(arrays, layout):
            if a.shape != shape:
                raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
        params = np.concatenate([a.ravel() for a in arrays])
        self._bind(params, layout, [x.grid for x in layers])

    def _bind(self, params, layout, grids):
        """Take ``params`` (float64, contiguous, owning its data; not copied)
        as this model's vector, laid out as ``layout`` (from ``_layout``),
        with layer l on ``grids[l]``."""
        n = 3 * len(grids)
        self.params, self.layout = params, layout
        self._arrays = v = tuple(param_views(self, params))
        own = []
        for l, (grid, w, b, c) in enumerate(zip(grids, *[iter(v[:n])] * 3)):
            p = f"layers[{l}]."
            own.append(_OwnedAal(p, _OwnedLinear(p + "linear.", w, b), c, grid))
        self.layers = _Fixed(own, layout[0:n:3])
        pairs = enumerate(zip(v[n::2], v[n + 1 :: 2]))
        own = [_OwnedLinear(f"heads[{t}].", w, b) for t, (w, b) in pairs]
        self.heads = _Fixed(own, layout[n::2])
        self.task_count = len(own)

    def __reduce__(self):
        # Copies and pickles are rebuilt by the constructor, so their arrays
        # are views of their own params rather than detached copies.
        return TaanModel, (list(self.layers), list(self.heads), self.task_count)

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
    ``stacked_forward`` reads the stacked inputs ``x`` and writes each
    layer's ``buffers`` (pre-activations, flat interval indices,
    activations), its coordinate ``tables`` and ``scratch``, so a layout's
    next pass overwrites its last trace."""

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
        self.tables = [
            np.empty((2, model.task_count * (len(l.grid) + 1))) for l in model.layers
        ]
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
    views = _layer_views(model, model.params)
    for layer, (w, b, c), (a, idx, h_out), table in zip(
        model.layers, views, batch.buffers, batch.tables, strict=True
    ):
        bps = layer.grid.breakpoints
        np.matmul(h, w.T, out=a)
        a += b
        flat = a.ravel()
        work = [s[: flat.size] for s in batch.scratch]
        layer.grid.intervals(flat, idx, work)
        # Row r's entries live in its task's block of the stacked tables.
        rows = idx.reshape(a.shape)
        rows += (batch.row_task * (bps.size + 1))[:, None]
        table[...] = _backend.suffix_tables(c, bps)
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
    its outputs.  Returns the summed gradient as one vector laid out like
    ``model.params``: the shared linear layers and the coordinate rows and
    heads of the tasks in the pass; every other task's coordinate row and
    head stays exactly zero.
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
    return stacked_backward(model, trace, douts)


def stacked_backward(model, batch, douts):
    """Backward of ``stacked_forward`` over the trace in ``batch``, from one
    (G, rows, out) output gradient per head group."""
    grad = np.zeros_like(model.params)
    hs = [batch.x] + [h for _, _, h in batch.buffers]
    dh = np.empty_like(hs[-1])
    for group, g in zip(batch.groups, douts):
        weight, _ = group.heads(model.params)
        h = hs[-1][group.rows].reshape(*group.shape[:2], dh.shape[1])
        dw = np.matmul(g.transpose(0, 2, 1), h).reshape(len(g), -1)
        grad[group.block] = np.concatenate([dw, g.sum(axis=1)], axis=1).ravel()
        dh[group.rows] = np.matmul(g, weight).reshape(-1, dh.shape[1])
    views = zip(_layer_views(model, model.params), _layer_views(model, grad))
    steps = list(zip(model.layers, views, batch.buffers, batch.tables, hs))
    for l in range(len(steps) - 1, -1, -1):
        layer, ((w, _, _), (gw, gb, gc)), (a, idx, _), table, h = steps[l]
        gx, gcoords = _backend.apl_backward(
            a.ravel(), idx, table, layer.grid.breakpoints, dh.ravel()
        )
        da = gx.reshape(a.shape)
        gw[:] = da.T @ h
        gb[:] = da.sum(axis=0)
        gc[:] = gcoords
        if l > 0:
            dh = da @ w
    return grad


class ArchitectureSpec:
    """Widths and activation-basis layout of a model.

    ``output_dim`` may be a single int (all heads alike) or one int per task.
    """

    def __init__(
        self,
        input_dim,
        hidden_widths,
        output_dim,
        task_count,
        basis_count=8,
        basis_range=(-2.0, 2.0),
    ):
        self.task_count = _whole("task_count", task_count, 1)
        self.input_dim = _whole("input_dim", input_dim, 1)
        self.hidden_widths = tuple(_whole("hidden_widths", w, 1) for w in hidden_widths)
        dims = output_dim if np.ndim(output_dim) else [output_dim] * self.task_count
        self.output_dims = tuple(_whole("output_dim", d, 1) for d in dims)
        self.basis_count = _whole("basis_count", basis_count, 1)
        pair = tuple(basis_range) if np.iterable(basis_range) else (basis_range,)
        if len(pair) != 2:
            raise ValueError(f"basis_range must be two numbers (lo, hi), got {pair}")
        lo = _real("basis_range[0]", pair[0])
        self.basis_range = (lo, _real("basis_range[1]", pair[1], lo))
        if len(self.output_dims) != self.task_count:
            raise ValueError("need one output dim per task")


def build_model(arch: ArchitectureSpec, seed) -> TaanModel:
    """Seeded initialization: He-uniform weights, zero biases, coordinate
    rows i.i.d. uniform on [-0.01, 0.01] (a near-ReLU start with just enough
    asymmetry for tasks to diverge); ``seed`` is a whole number >= 0."""
    rng = np.random.default_rng(_whole("seed", seed, 0))
    grid = BasisGrid.even(arch.basis_count, *arch.basis_range)
    depth = len(arch.hidden_widths)
    layout, size = _layout(
        arch.input_dim, arch.hidden_widths, [len(grid)] * depth, arch.output_dims
    )
    model = TaanModel.__new__(TaanModel)
    model._bind(np.zeros(size), layout, [grid] * depth)
    # Draws follow the layout: each layer's weight then coords, then heads.
    for (name, _, shape), arr in zip(layout, model_parameters(model)):
        if name.endswith("weight"):
            limit = np.sqrt(6.0 / shape[1])
            arr[:] = rng.uniform(-limit, limit, size=shape)
        elif name.endswith("coords"):
            arr[:] = rng.uniform(-COORD_INIT_SCALE, COORD_INIT_SCALE, size=shape)
    return model


def _shared_coords(coords):
    # Already-identical rows are kept verbatim instead of re-averaged, so the
    # reduction is exactly idempotent despite rounding in the mean.
    if np.all(coords == coords[0]):
        return coords
    return np.repeat(coords.mean(axis=0, keepdims=True), coords.shape[0], axis=0)


def to_hard_sharing(model: TaanModel) -> TaanModel:
    """Replace every coordinate row with the row mean so all tasks share one
    activation per layer; weights, biases and heads are copied unchanged."""
    layers = [
        AalLayer(l.linear, _shared_coords(l.coords), l.grid) for l in model.layers
    ]
    return TaanModel(layers, model.heads, model.task_count)


def tie_heads(model: TaanModel) -> TaanModel:
    """Copy of the model with every head replaced by a copy of head 0."""
    first = model.heads[0]
    if any(h.out_dim != first.out_dim for h in model.heads):
        raise ValueError("cannot tie heads with different output dims")
    return TaanModel(model.layers, [first] * model.task_count, model.task_count)


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


def _layer_views(model, flat):
    """Each layer's (weight, bias, coords) views of a flat vector laid out
    like ``model.params``."""
    n = 3 * len(model.layers)
    if flat is model.params:  # made through the table at binding, kept
        return zip(*[iter(model._arrays[:n])] * 3)
    return zip(*[iter(_views(flat, model.layout[:n]))] * 3)


def coord_views(model: TaanModel, flat):
    """Each layer's coordinate-matrix view of a flat vector in the layout."""
    return [c for _, _, c in _layer_views(model, flat)]


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
    meta = {
        "format": CHECKPOINT_FORMAT,
        "task_count": model.task_count,
        "input_dim": model.input_dim,
        "widths": [layer.linear.out_dim for layer in model.layers],
        "basis_counts": [len(layer.grid) for layer in model.layers],
        "output_dims": [h.out_dim for h in model.heads],
        "seed": None if seed is None else int(seed),
        "has_mixture": mixture is not None,
    }
    arrays = {
        "meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        "params": model.params,
        "breakpoints": np.concatenate(
            [np.zeros(0)] + [layer.grid.breakpoints for layer in model.layers]
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

    ``_layout`` builds the slot table from the sizes in ``meta``; ``params``
    is checked once, for shape and finiteness, and becomes the model's own
    vector, with the layers and heads bound over views of it.  Layers with
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
    layout, size = _layout(input_dim, widths, counts, output_dims)
    params = data("params", (size,))
    if not np.all(np.isfinite(params)):
        raise ValueError("params has non-finite entries")
    model = TaanModel.__new__(TaanModel)
    # A copy: the archive's array is a view, and a model owns its vector.
    model._bind(np.array(params, dtype=np.float64), layout, grids)
    mixture = None
    if meta["has_mixture"]:
        mix = data("mixture")
        if mix.ndim != 2 or mix.shape[0] != 3:
            raise ValueError(
                f"mixture has shape {mix.shape}, expected (3, components)"
            )
        mixture = GaussianMixture(*mix)
    seed = meta["seed"]
    return model, mixture, None if seed is None else _whole("meta seed", seed, 0)
