"""Multi-task network: forward against a scalar-loop oracle, backward against
finite differences, sharing reductions, checkpoint round-trips."""

import copy
import gc
import json
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from taan.apl import BasisGrid, apl_eval
from taan.metrics import GaussianMixture
from taan.training import cross_entropy, squared_error
from taan.network import (
    ArchitectureSpec,
    BatchLayout,
    TaanModel,
    backward,
    build_model,
    forward,
    load_checkpoint,
    model_parameters,
    param_views,
    save_checkpoint,
    stacked_backward,
    stacked_forward,
    tie_heads,
    to_hard_sharing,
)

ARCH = ArchitectureSpec(4, (5, 3), 2, task_count=3, basis_count=4)
LOSS_FNS = {"squared_error": squared_error, "cross_entropy": cross_entropy}


def small_model(seed=0, arch=ARCH):
    model = build_model(arch, seed)
    # Spread the coordinates out so the activations are far from plain relu.
    rng = np.random.default_rng(seed + 1)
    for layer in model.layers:
        layer.coords[:] = rng.uniform(-0.5, 0.5, layer.coords.shape)
    return model


def loop_forward(model, task, x):
    """Scalar-loop re-implementation of the forward pass."""
    outs = []
    for row in x:
        h = row
        for layer in model.layers:
            a = layer.linear.weight @ h + layer.linear.bias
            h = np.array(
                [apl_eval(float(v), layer.coords[task], layer.grid) for v in a]
            )
        head = model.heads[task]
        outs.append(head.weight @ h + head.bias)
    return np.array(outs)


def test_forward_matches_scalar_loop():
    model = small_model()
    rng = np.random.default_rng(10)
    x = rng.standard_normal((7, ARCH.input_dim))
    for task in range(ARCH.task_count):
        outs, trace = forward(model, {task: x})
        out = outs[task]
        assert out.shape == (7, 2)
        assert np.allclose(out, loop_forward(model, task, x), atol=1e-12)
        assert len(trace.buffers) == len(model.layers)
        assert trace.buffers[0][2].shape == (7, 5)


def test_tasks_differ_through_coordinates_only():
    model = small_model()
    rng = np.random.default_rng(11)
    x = rng.standard_normal((5, ARCH.input_dim))
    out0 = forward(model, {0: x})[0][0]
    out1 = forward(model, {1: x})[0][1]
    assert not np.allclose(out0, out1)
    # Forcing task 1's coordinates and head to task 0's removes the gap.
    for layer in model.layers:
        layer.coords[1] = layer.coords[0]
    model.heads[1].weight[:] = model.heads[0].weight
    model.heads[1].bias[:] = model.heads[0].bias
    out1b = forward(model, {1: x})[0][1]
    assert np.array_equal(out0, forward(model, {0: x})[0][0])
    assert np.array_equal(out0, out1b)


def objective(model, task, x):
    out = forward(model, {task: x})[0][task]
    return 0.5 * float((out**2).sum())


def test_backward_matches_finite_differences():
    model = small_model()
    rng = np.random.default_rng(12)
    x = rng.standard_normal((6, ARCH.input_dim))
    task = 1
    outs, trace = forward(model, {task: x})
    grads = backward(model, trace, {task: outs[task].copy()})
    params = model_parameters(model)
    grad_arrays = param_views(model, grads)
    eps = 1e-6
    for arr, g in zip(params, grad_arrays):
        flat = arr.reshape(-1)
        picks = rng.choice(flat.size, size=min(4, flat.size), replace=False)
        for idx in picks:
            orig = flat[idx]
            flat[idx] = orig + eps
            hi = objective(model, task, x)
            flat[idx] = orig - eps
            lo = objective(model, task, x)
            flat[idx] = orig
            num = (hi - lo) / (2.0 * eps)
            ana = g.reshape(-1)[idx]
            assert abs(num - ana) < 1e-4 * max(1.0, abs(ana)), (
                arr.shape,
                idx,
                num,
                ana,
            )


def test_backward_leaves_other_tasks_untouched():
    model = small_model()
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, ARCH.input_dim))
    outs, trace = forward(model, {2: x})
    views = param_views(model, backward(model, trace, {2: np.ones_like(outs[2])}))
    layer_coords = views[2 : 3 * len(model.layers) : 3]
    head_weight = views[3 * len(model.layers) :: 2]
    head_bias = views[3 * len(model.layers) + 1 :: 2]
    for l in range(len(model.layers)):
        assert np.any(layer_coords[l][2] != 0.0)
        assert np.array_equal(layer_coords[l][0], np.zeros(4))
        assert np.array_equal(layer_coords[l][1], np.zeros(4))
    for t in (0, 1):
        assert np.array_equal(head_weight[t], np.zeros_like(model.heads[t].weight))
        assert np.array_equal(head_bias[t], np.zeros_like(model.heads[t].bias))


def reference_pass(model, batches, output_grads):
    """Per-task loop with dense (rows, width, M) hinge arrays: each task's
    batch on its own through the network and back, gradients summed per
    array.  Returns ({task: outputs}, gradients in layout order)."""
    params = model_parameters(model)
    grads = [np.zeros_like(p) for p in params]
    n_shared = 3 * len(model.layers)
    outs = {}
    for t, x in batches.items():
        hs, pres, hinges = [x], [], []
        for layer in model.layers:
            a = hs[-1] @ layer.linear.weight.T + layer.linear.bias
            hinge = np.maximum(layer.grid.breakpoints - a[..., None], 0.0)
            hs.append(np.maximum(a, 0.0) + hinge @ layer.coords[t])
            pres.append(a)
            hinges.append(hinge)
        head = model.heads[t]
        outs[t] = hs[-1] @ head.weight.T + head.bias
        g = output_grads[t]
        grads[n_shared + 2 * t] += g.T @ hs[-1]
        grads[n_shared + 2 * t + 1] += g.sum(axis=0)
        dh = g @ head.weight
        for l in range(len(model.layers) - 1, -1, -1):
            layer, a, hinge = model.layers[l], pres[l], hinges[l]
            da = dh * ((a >= 0.0) - (hinge > 0.0) @ layer.coords[t])
            grads[3 * l] += da.T @ hs[l]
            grads[3 * l + 1] += da.sum(axis=0)
            grads[3 * l + 2][t] += np.einsum("nh,nhm->m", dh, hinge)
            dh = da @ layer.linear.weight
    return outs, grads


def fused_against_reference(model, batches, losses, targets):
    outs, trace = forward(model, batches)
    douts = {t: LOSS_FNS[losses[t]](outs[t], targets[t])[1] for t in batches}
    ref_outs, ref_grads = reference_pass(model, batches, douts)
    grads = param_views(model, backward(model, trace, douts))
    worst = 0.0
    for t in batches:
        assert outs[t].shape == ref_outs[t].shape
        err = np.max(np.abs(outs[t] - ref_outs[t])) / np.max(np.abs(ref_outs[t]))
        worst = max(worst, err)
    for g, ref in zip(grads, ref_grads):
        if np.any(ref != 0.0):
            worst = max(worst, np.max(np.abs(g - ref)) / np.max(np.abs(ref)))
        else:
            assert np.array_equal(g, ref)
    return worst


def test_fused_gradient_matches_per_task_reference():
    # The acceptance shape (8 tasks, width 32, M = 16, batch 64) and the
    # wide_deep shape (4 tasks, 2 x 64, M = 64, batch 256).
    rng = np.random.default_rng(16)
    for arch, batch in (
        (ArchitectureSpec(8, (32,), 1, task_count=8, basis_count=16), 64),
        (ArchitectureSpec(16, (64, 64), 1, task_count=4, basis_count=64), 256),
    ):
        model = small_model(seed=5, arch=arch)
        batches = {
            t: rng.standard_normal((batch, arch.input_dim))
            for t in range(arch.task_count)
        }
        targets = {t: rng.standard_normal((batch, 1)) for t in batches}
        losses = {t: "squared_error" for t in batches}
        assert fused_against_reference(model, batches, losses, targets) <= 1e-13


def test_fused_step_with_unequal_heads_mixed_losses_and_batch_sizes():
    rng = np.random.default_rng(17)
    arch = ArchitectureSpec(4, (6, 5), (1, 3, 2, 4), task_count=4, basis_count=7)
    model = small_model(seed=6, arch=arch)
    sizes = {0: 9, 1: 4, 3: 1}  # task 2 sits out: its slots stay zero
    batches = {t: rng.standard_normal((n, 4)) for t, n in sizes.items()}
    losses = {0: "squared_error", 1: "cross_entropy", 3: "cross_entropy"}
    targets = {
        0: rng.standard_normal((9, 1)),
        1: rng.integers(0, 3, 4),
        3: rng.integers(0, 4, 1),
    }
    assert fused_against_reference(model, batches, losses, targets) <= 1e-13


def buffer_arrays(trace):
    return [trace.x, *(a for arrays in trace.buffers for a in arrays)]


def trace_arrays(trace):
    return [*buffer_arrays(trace), *trace.tables]


def test_a_layouts_passes_share_its_buffers():
    # Two passes over one layout write into the same buffers (the tables
    # are kept as each pass builds them), and the second pass's values are
    # those of a fresh forward over its own inputs.
    rng = np.random.default_rng(18)
    model = small_model(seed=7)
    sizes = {2: 6, 0: 6, 1: 3}
    layout = BatchLayout(model, sizes)
    traces, outs = [], []
    for _ in range(2):
        batches = {t: rng.standard_normal((n, 4)) for t, n in sizes.items()}
        np.concatenate([batches[t] for t in layout.stack_order], out=layout.x)
        outs.append(stacked_forward(model, layout))
        traces.append(buffer_arrays(layout))
    for a, b in zip(*traces):
        assert np.shares_memory(a, b)
    fresh_outs, fresh = forward(model, batches)
    for a, b in zip(trace_arrays(fresh), trace_arrays(layout)):
        assert np.array_equal(a, b)
    for group, out in zip(layout.groups, outs[1]):
        for t, o in zip(group.tasks, out):
            assert np.array_equal(o, fresh_outs[t])


@pytest.mark.parametrize("sizes", [{2: 6, 0: 6, 1: 3}, {1: 4}], ids=["all", "subset"])
def test_a_layouts_backward_passes_share_its_gradient(sizes):
    # Two backward passes over one layout return its one gradient vector,
    # and the second pass's values are a fresh layout's, bitwise; the heads
    # of tasks outside the layout are never written and stay exactly zero.
    rng = np.random.default_rng(21)
    model = small_model(seed=10)
    layout = BatchLayout(model, sizes)
    grads = []
    for _ in range(2):
        layout.x[:] = rng.standard_normal(layout.x.shape)
        outs = stacked_forward(model, layout)
        douts = [rng.standard_normal(out.shape) for out in outs]
        grads.append(stacked_backward(model, layout, douts))
    assert grads[0] is grads[1] is layout.grad
    fresh = BatchLayout(model, sizes)
    fresh.x[:] = layout.x
    stacked_forward(model, fresh)
    assert np.array_equal(stacked_backward(model, fresh, douts), grads[1])
    names = [name for name, _, _ in model.layout]
    views = dict(zip(names, param_views(model, grads[1])))
    for t in range(model.task_count):
        head = [views[f"heads[{t}].weight"], views[f"heads[{t}].bias"]]
        assert all(np.any(v != 0.0) == (t in sizes) for v in head), t


def test_backward_returns_a_new_array_each_call():
    rng = np.random.default_rng(22)
    model = small_model(seed=11)
    outs, trace = forward(model, {0: rng.standard_normal((4, 4))})
    douts = {0: rng.standard_normal(outs[0].shape)}
    first, second = (backward(model, trace, douts) for _ in range(2))
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, trace.grad)
    assert np.array_equal(first, second)


def test_a_layout_for_another_depth_is_rejected():
    # One layer fewer, with the width the heads expect: only the depth differs.
    model = small_model(arch=ArchitectureSpec(4, (5, 5), 2, task_count=3))
    shallow = build_model(ArchitectureSpec(4, (5,), 2, task_count=3), 0)
    layout = BatchLayout(shallow, {0: 2})
    with pytest.raises(ValueError):
        stacked_forward(model, layout)


def test_forward_calls_return_unaliased_traces():
    rng = np.random.default_rng(19)
    model = small_model(seed=8)
    batches = {t: rng.standard_normal((5, 4)) for t in range(3)}
    outs, first = forward(model, batches)
    douts = {t: rng.standard_normal(out.shape) for t, out in outs.items()}
    grad = backward(model, first, douts)
    kept = [a.copy() for a in trace_arrays(first)]
    forward(model, {t: x + 1.0 for t, x in batches.items()})
    second = forward(model, batches)[1]
    for a, b, c in zip(trace_arrays(first), trace_arrays(second), kept):
        assert not np.shares_memory(a, b)
        assert np.array_equal(a, c)
    assert np.array_equal(backward(model, first, douts), grad)


def test_a_layouts_later_passes_allocate_no_layer_sized_block():
    # The acceptance config's step (8 tasks x 64 rows, width 32, M = 16) and
    # its validation pass (8 tasks x 200 rows).  After the first pass on a
    # layout, a pass allocates nothing as large as one layer's array.
    rng = np.random.default_rng(20)
    arch = ArchitectureSpec(8, (32,), 1, task_count=8, basis_count=16)
    model = small_model(seed=9, arch=arch)
    for rows in (64, 200):
        layout = BatchLayout(model, dict.fromkeys(range(8), rows))
        layout.x[:] = rng.standard_normal((8 * rows, 8))
        stacked_forward(model, layout)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            stacked_forward(model, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 8 * rows * 32 * 8, (rows, peak - start)


def loaded_small_model(tmp_path):
    save_checkpoint(small_model(), tmp_path / "m.npz")
    return load_checkpoint(tmp_path / "m.npz")[0]


@pytest.mark.parametrize(
    "make", [lambda _: small_model(), loaded_small_model], ids=["built", "loaded"]
)
def test_rebound_arrays_fail_loudly(tmp_path, make):
    # The model's arrays are views of model.params; rebinding one would leave
    # a slot that nothing reads, so the assignment itself is refused.
    model = make(tmp_path)
    with pytest.raises(ValueError, match=r"heads\[1\]\.weight"):
        model.heads[1] = model.heads[0]
    with pytest.raises(ValueError, match=r"layers\[1\]\.coords"):
        model.layers[1].coords = model.layers[1].coords.copy()
    with pytest.raises(ValueError, match=r"heads\[0\]\.bias"):
        model.heads[0].bias = np.zeros(2)
    with pytest.raises(ValueError, match=r"layers\[0\]\.linear\.weight"):
        model.layers[0].linear.weight = model.layers[0].linear.weight.copy()
    with pytest.raises(ValueError, match=r"model\.params"):
        model.params = model.params.copy()
    assert_packed(model)
    # In-place updates rebind an attribute to the object it holds.
    coords = model.layers[1].coords
    before = coords.copy()
    model.layers[1].coords += 1.0
    assert model.layers[1].coords is coords
    assert np.array_equal(param_views(model, model.params)[5], before + 1.0)
    assert_packed(model)


def heads_only_model(weight, bias):
    """A one-task model without hidden layers whose head is (weight, bias)."""
    params = np.concatenate([np.ravel(weight), bias]).astype(np.float64)
    return TaanModel(np.shape(weight)[1], [], [], [len(bias)], params)


def test_the_constructor_takes_params_uncopied():
    grid = BasisGrid.even(4)
    # small_model's sizes: 4 inputs, widths (5, 3), M = 4, three 2-wide heads.
    sizes = (4, (5, 3), [grid, grid], (2, 2, 2))
    params = np.arange(91.0)
    model = TaanModel(*sizes, params)
    assert model.params is params and model.layout == small_model().layout
    assert model.layers[1].coords[0, 0] == 4 * 5 + 5 + 3 * 4 + 3 * 5 + 3
    assert model.layers[0].grid is grid and model.task_count == 3
    assert not np.any(TaanModel(*sizes).params)


@pytest.mark.parametrize(
    "params, got",
    [
        (np.zeros(90), "shape (90,) and dtype float64"),
        (np.zeros(92), "shape (92,) and dtype float64"),
        (np.zeros(91, np.float32), "shape (91,) and dtype float32"),
        (np.zeros((1, 91)), "shape (1, 91) and dtype float64"),
        (np.zeros(182)[::2], "shape (91,) and dtype float64"),
        ([0.0] * 91, "shape (91,) and dtype list"),
    ],
    ids=["short", "long", "float32", "matrix", "strided", "list"],
)
def test_params_of_the_wrong_length_or_dtype_are_named(params, got):
    grid = BasisGrid.even(4)
    message = f"params has {got}, expected a contiguous (91,) float64 vector"
    with pytest.raises(ValueError, match=re.escape(message)):
        TaanModel(4, (5, 3), [grid, grid], (2, 2, 2), params)


def test_hard_sharing_with_tied_heads_is_task_independent():
    model = small_model(seed=3)
    shared = tie_heads(to_hard_sharing(model))
    rng = np.random.default_rng(14)
    x = rng.standard_normal((8, ARCH.input_dim))
    base = forward(shared, {0: x})[0][0]
    for task in range(1, ARCH.task_count):
        out = forward(shared, {task: x})[0][task]
        assert np.max(np.abs(out - base)) <= 1e-12


def test_hard_sharing_idempotent():
    # Identical rows are passed through verbatim, so a second reduction is a
    # bitwise no-op regardless of the task count.
    for task_count, seed in ((4, 4), (3, 5), (8, 6)):
        arch = ArchitectureSpec(4, (5,), 1, task_count=task_count, basis_count=4)
        model = small_model(seed=seed, arch=arch)
        once = to_hard_sharing(model)
        twice = to_hard_sharing(once)
        for a, b in zip(once.layers, twice.layers):
            assert np.array_equal(a.coords, b.coords)


def test_tie_heads_requires_matching_dims():
    arch = ArchitectureSpec(4, (5,), (1, 2), task_count=2, basis_count=4)
    model = build_model(arch, 0)
    with pytest.raises(ValueError):
        tie_heads(model)


def test_build_model_seeding_and_init_ranges():
    a = build_model(ARCH, 7)
    b = build_model(ARCH, 7)
    c = build_model(ARCH, 8)
    for pa, pb in zip(model_parameters(a), model_parameters(b)):
        assert np.array_equal(pa, pb)
    assert any(
        not np.array_equal(pa, pc)
        for pa, pc in zip(model_parameters(a), model_parameters(c))
    )
    fan_in = ARCH.input_dim
    for layer in a.layers:
        limit = np.sqrt(6.0 / fan_in)
        assert np.max(np.abs(layer.linear.weight)) <= limit
        assert np.array_equal(layer.linear.bias, np.zeros(layer.linear.out_dim))
        assert np.max(np.abs(layer.coords)) <= 0.01
        fan_in = layer.linear.out_dim
    for head in a.heads:
        assert np.max(np.abs(head.weight)) <= np.sqrt(6.0 / fan_in)
        assert np.array_equal(head.bias, np.zeros(head.out_dim))


def test_model_parameters_alias_model_buffers():
    model = small_model()
    params = model_parameters(model)
    assert params[0] is model.layers[0].linear.weight
    assert params[2] is model.layers[0].coords
    assert params[-1] is model.heads[-1].bias
    # 3 arrays per layer + 2 per head.
    assert len(params) == 3 * len(model.layers) + 2 * len(model.heads)
    grads = param_views(model, np.zeros_like(model.params))
    assert len(grads) == len(params)
    for p, g in zip(params, grads):
        assert p.shape == g.shape


def assert_packed(model):
    """Every model array is a view into model.params, in layout order."""
    arrays = []
    for layer in model.layers:
        arrays += [layer.linear.weight, layer.linear.bias, layer.coords]
    for head in model.heads:
        arrays += [head.weight, head.bias]
    assert model.params.dtype == np.float64 and model.params.flags.c_contiguous
    assert model.params.size == sum(a.size for a in arrays)
    start = 0
    for a in arrays:
        assert a.base is model.params
        assert a.__array_interface__["data"][0] == (
            model.params.__array_interface__["data"][0] + 8 * start
        )
        start += a.size
    for a, p in zip(arrays, model_parameters(model)):
        assert np.shares_memory(a, p) and a.shape == p.shape


def test_every_array_is_a_view_of_params(tmp_path):
    model = small_model()
    assert_packed(model)
    # Writing through an array moves params and vice versa.
    model.layers[1].coords[2, 3] = 7.0
    assert 7.0 in model.params
    model.params[:] = 0.0
    assert np.all(model.heads[2].weight == 0.0)
    model = small_model()
    save_checkpoint(model, tmp_path / "m.npz")
    loaded, _, _ = load_checkpoint(tmp_path / "m.npz")
    assert_packed(loaded)
    assert np.array_equal(loaded.params, model.params)
    for derived in (to_hard_sharing(model), tie_heads(model)):
        assert_packed(derived)
        assert not np.shares_memory(derived.params, model.params)
    assert_packed(model)
    assert_packed(heads_only_model(np.eye(3), np.zeros(3)))


def test_copies_and_pickles_stay_packed():
    model = small_model()
    copies = (copy.copy(model), copy.deepcopy(model), pickle.loads(pickle.dumps(model)))
    for other in copies:
        assert_packed(other)
        assert np.array_equal(other.params, model.params)
        assert not np.shares_memory(other.params, model.params)


def test_param_views_checks_the_size():
    model = small_model()
    with pytest.raises(ValueError):
        param_views(model, np.zeros(model.params.size + 1))


def test_checkpoint_round_trip_bitwise(tmp_path):
    model = small_model(seed=9)
    mixture = GaussianMixture(
        np.array([0.25, 0.75]), np.array([-1.0, 2.0]), np.array([0.5, 1.5])
    )
    path = tmp_path / "model.npz"
    save_checkpoint(model, path, mixture=mixture, seed=123)
    loaded, loaded_mixture, seed = load_checkpoint(path)
    assert seed == 123
    assert loaded.task_count == model.task_count
    for la, lb in zip(model.layers, loaded.layers):
        assert np.array_equal(la.linear.weight, lb.linear.weight)
        assert np.array_equal(la.linear.bias, lb.linear.bias)
        assert np.array_equal(la.coords, lb.coords)
        assert np.array_equal(la.grid.breakpoints, lb.grid.breakpoints)
    for ha, hb in zip(model.heads, loaded.heads):
        assert np.array_equal(ha.weight, hb.weight)
        assert np.array_equal(ha.bias, hb.bias)
    assert np.array_equal(loaded_mixture.weights, mixture.weights)
    assert np.array_equal(loaded_mixture.means, mixture.means)
    assert np.array_equal(loaded_mixture.sigmas, mixture.sigmas)
    # Layers built on the same grid share one BasisGrid object after loading.
    assert loaded.layers[0].grid is loaded.layers[1].grid
    # Without extras the optional slots come back empty.
    bare = tmp_path / "bare.npz"
    save_checkpoint(model, bare)
    _, none_mixture, none_seed = load_checkpoint(bare)
    assert none_mixture is None and none_seed is None


def test_checkpoint_file_name_and_no_leftovers(tmp_path):
    model = small_model(seed=2)
    save_checkpoint(model, str(tmp_path / "plain"))
    save_checkpoint(model, tmp_path / "plain.npz", seed=1)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.npz"]
    loaded, _, seed = load_checkpoint(tmp_path / "plain.npz")
    assert seed == 1 and np.array_equal(loaded.params, model.params)


def test_checkpoint_seed_is_a_whole_number(tmp_path):
    # The loader's rule for meta's seed, applied before anything is written.
    model, path = small_model(), tmp_path / "m.npz"
    for seed, message in (
        (2.5, "seed must be a whole number, got 2.5"),
        (True, "seed must be a whole number, got True"),
        (-1, "seed must be >= 0, got -1"),
    ):
        with pytest.raises(ValueError, match=message):
            save_checkpoint(model, path, seed=seed)
    assert not list(tmp_path.iterdir())
    for seed in (np.int64(4), 4.0):
        save_checkpoint(model, path, seed=seed)
        loaded_seed = load_checkpoint(path)[2]
        assert type(loaded_seed) is int and loaded_seed == 4


@pytest.mark.parametrize("failure", ["write", "replace"])
def test_checkpoint_failed_save_leaves_no_temporary_file(tmp_path, monkeypatch, failure):
    def fail(*args, **kwargs):
        raise OSError(f"{failure} failed")

    path = tmp_path / "model.npz"
    if failure == "write":
        monkeypatch.setattr(np, "savez", fail)
    else:
        path.mkdir()  # the archive cannot replace a directory
    with pytest.raises(OSError):
        save_checkpoint(small_model(), path)
    assert not list(tmp_path.glob("*.tmp"))


def rewrite_members(path, out, **changes):
    """Copy an npz archive to ``out`` with members replaced (None drops)."""
    with np.load(path) as data:
        members = {k: data[k] for k in data.files}
    members.update(changes)
    np.savez(out, **{k: v for k, v in members.items() if v is not None})
    return out


def test_checkpoint_missing_member_names_path_and_key(tmp_path):
    path = tmp_path / "model.npz"
    mixture = GaussianMixture.standard_normal()
    save_checkpoint(small_model(), path, mixture=mixture)
    for key in ("meta", "params", "breakpoints", "mixture"):
        broken = rewrite_members(path, tmp_path / "broken.npz", **{key: None})
        with pytest.raises(ValueError, match=repr(key)) as info:
            load_checkpoint(broken)
        assert str(broken) in str(info.value)


def test_checkpoint_old_per_array_layout_is_rejected(tmp_path):
    meta = {
        "task_count": 1,
        "layer_count": 0,
        "output_dims": [1],
        "seed": None,
        "has_mixture": False,
    }
    old = tmp_path / "old.npz"
    np.savez(
        old,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        head0_weight=np.ones((1, 3)),
        head0_bias=np.zeros(1),
    )
    with pytest.raises(ValueError, match="old per-array layout") as info:
        load_checkpoint(old)
    assert str(old) in str(info.value)


def test_checkpoint_bad_params_are_rejected(tmp_path):
    path = tmp_path / "model.npz"
    model = small_model()
    save_checkpoint(model, path)
    nan_params = model.params.copy()
    nan_params[7] = np.nan
    for params, match in ((model.params[:-1], "shape"), (nan_params, "non-finite")):
        broken = rewrite_members(path, tmp_path / "broken.npz", params=params)
        with pytest.raises(ValueError, match=match) as info:
            load_checkpoint(broken)
        assert str(broken) in str(info.value)


def meta_member(meta):
    return np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)


def edit_meta(**changes):
    """Member changes that rewrite the one-layer checkpoint's meta."""
    meta = {
        "format": 2, "task_count": 3, "input_dim": 4, "widths": [5],
        "basis_counts": [4], "output_dims": [2, 2, 2], "seed": None,
        "has_mixture": True,
    }
    meta.update(changes)
    return {"meta": meta_member({k: v for k, v in meta.items() if v != "drop"})}


@pytest.mark.parametrize(
    "members",
    [
        # zip() would pair the one basis count with the first width only.
        edit_meta(widths=[5, 5]),
        edit_meta(widths="drop"),
        edit_meta(task_count="drop"),
        {"meta": np.frombuffer(b"{not json", dtype=np.uint8)},
        {"meta": np.frombuffer(b"\xff\xfe", dtype=np.uint8)},
        {"meta": np.frombuffer(b"[2]", dtype=np.uint8)},
        {"breakpoints": np.array([1.0, 0.5, 0.0, -1.0])},
        {"breakpoints": np.array([-1.0, np.nan, 0.0, 1.0])},
        {"mixture": np.array([[0.5, 0.4], [0.0, 0.0], [1.0, 1.0]])},
        edit_meta(task_count=0),
        edit_meta(widths=[-5]),
        {"mixture": np.array([[1.0], [0.0]])},
    ],
    ids=[
        "widths_longer_than_basis_counts", "missing_widths", "missing_task_count",
        "bad_json", "bad_utf8", "meta_not_object", "descending_breakpoints",
        "nan_breakpoint", "mixture_weights", "zero_tasks", "negative_width",
        "mixture_shape",
    ],
)
def test_checkpoint_corrupt_meta_is_one_error_naming_the_path(tmp_path, members):
    model = small_model(arch=ArchitectureSpec(4, (5,), 2, task_count=3, basis_count=4))
    path = tmp_path / "model.npz"
    save_checkpoint(model, path, mixture=GaussianMixture.standard_normal())
    broken = rewrite_members(path, tmp_path / "broken.npz", **members)
    with pytest.raises(ValueError) as info:
        load_checkpoint(broken)
    assert str(info.value).count(str(broken)) == 1


@pytest.mark.parametrize(
    "flag", [0, None, [], "false", False],
    ids=["zero", "null", "empty_list", "string_false", "false"],
)
def test_checkpoint_has_mixture_is_a_bool_that_matches_the_members(tmp_path, flag):
    # Read by truthiness, each of these dropped the archive's mixture, and
    # analyze reported distances under N(0, 1) instead.
    model = small_model(arch=ArchitectureSpec(4, (5,), 2, task_count=3, basis_count=4))
    path = tmp_path / "model.npz"
    save_checkpoint(model, path, mixture=GaussianMixture.standard_normal())
    members = edit_meta(has_mixture=flag)
    broken = rewrite_members(path, tmp_path / "broken.npz", **members)
    with pytest.raises(ValueError, match="meta has_mixture") as info:
        load_checkpoint(broken)
    assert str(broken) in str(info.value)


def test_checkpoint_truncated_file_names_the_path(tmp_path):
    # np.load gives up the file it opened before its archive reader raises on
    # a truncated zip, so a loader that hands np.load the path leaks that
    # handle; the loader's own handle is closed on every path.
    path = tmp_path / "model.npz"
    save_checkpoint(small_model(), path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="not a zip file") as info:
            load_checkpoint(path)
        assert str(info.value).count(str(path)) == 1
        del info
        gc.collect()
    assert not [str(w.message) for w in caught if w.category is ResourceWarning]


def test_checkpoint_non_npz_file_names_the_path(tmp_path):
    # np.load would read an 11-byte text file as pickled data and advise
    # loading it unsafely.
    path = tmp_path / "bad.npz"
    path.write_text("hello world")
    with pytest.raises(ValueError, match="not an npz checkpoint archive") as info:
        load_checkpoint(path)
    assert str(info.value).count(str(path)) == 1
    assert "allow_pickle" not in str(info.value)


def mixed_grid_model():
    rng = np.random.default_rng(4)
    grids = [
        BasisGrid.even(6),
        BasisGrid(np.array([-1.0, 0.25, 3.0])),
        BasisGrid.even(1),
    ]
    model = TaanModel(3, (5, 4, 2), grids, (1, 3))
    model.params[:] = rng.standard_normal(model.params.size)
    return model


@pytest.mark.parametrize(
    "make",
    [
        lambda: small_model(arch=ArchitectureSpec(4, (5,), (1, 3, 2), task_count=3)),
        mixed_grid_model,
        lambda: heads_only_model(np.arange(6.0).reshape(2, 3), np.ones(2)),
    ],
    ids=["unequal_heads", "per_layer_grids", "heads_only"],
)
def test_checkpoint_round_trip_shapes(tmp_path, make):
    model = make()
    save_checkpoint(model, tmp_path / "m.npz", seed=5)
    loaded, mixture, seed = load_checkpoint(tmp_path / "m.npz")
    assert mixture is None and seed == 5
    assert loaded.layout == model.layout
    assert loaded.params.tobytes() == model.params.tobytes()
    for a, b in zip(model.layers, loaded.layers):
        assert a.grid.breakpoints.tobytes() == b.grid.breakpoints.tobytes()


def test_geometry_checkpoint_has_four_members(tmp_path):
    arch = ArchitectureSpec(8, (64, 64, 64), 1, task_count=16, basis_count=64)
    mixture = GaussianMixture(
        np.array([0.2, 0.3, 0.5]),
        np.array([-1.0, 0.0, 1.0]),
        np.array([0.5, 1.0, 2.0]),
    )
    path = tmp_path / "geometry.npz"
    save_checkpoint(build_model(arch, 3), path, mixture=mixture)
    with np.load(path) as data:
        assert sorted(data.files) == ["breakpoints", "meta", "mixture", "params"]


def test_task_ids_are_ints_not_bools():
    model = small_model()
    x = np.zeros((2, ARCH.input_dim))
    for call in (lambda: model.head_dim(True), lambda: forward(model, {True: x})):
        with pytest.raises(ValueError, match="unknown task id True "):
            call()
    assert model.head_dim(np.int64(1)) == model.head_dim(1)


def test_validation_errors():
    model = small_model()
    rng = np.random.default_rng(15)
    with pytest.raises(ValueError):
        forward(model, {99: rng.standard_normal((2, ARCH.input_dim))})
    for bad in (-1, ARCH.task_count):
        with pytest.raises(ValueError, match=f"unknown task id {bad} "):
            model.head_dim(bad)
    with pytest.raises(ValueError):
        forward(model, {0: rng.standard_normal((2, ARCH.input_dim + 1))})
    with pytest.raises(ValueError):
        forward(model, {0: rng.standard_normal(ARCH.input_dim)})
    with pytest.raises(ValueError, match="or more, got 0 widths, 0 grids, 0 heads"):
        TaanModel(3, [], [], [])
    out, trace = forward(model, {0: rng.standard_normal((2, ARCH.input_dim))})
    with pytest.raises(ValueError):
        backward(model, trace, {0: np.ones((2, 3))})
    with pytest.raises(ValueError):
        ArchitectureSpec(4, (5,), (1, 2, 3), task_count=2)
    with pytest.raises(ValueError):
        ArchitectureSpec(0, (5,), 1, task_count=1)
    with pytest.raises(ValueError, match="need a grid per width .* 1 widths, 0 grids"):
        TaanModel(4, [3], [], [1, 1])
    with pytest.raises(ValueError, match="at least one task batch"):
        forward(model, {})
    with pytest.raises(ValueError, match=r"forward pass ran tasks \[0\]"):
        backward(model, trace, {1: np.ones((2, 2))})
    with pytest.raises(ValueError, match="task_count must be >= 1"):
        ArchitectureSpec(4, (5,), 1, task_count=0)
    # Sizes are whole numbers: a fractional one is named, a whole float is an int.
    with pytest.raises(ValueError, match="hidden_widths must be a whole .* got 32.5"):
        ArchitectureSpec(8, (32.5,), 1, task_count=8)
    whole = ArchitectureSpec(8.0, (np.int64(32),), 1, task_count=8, basis_count=16.0)
    assert (whole.input_dim, whole.hidden_widths, whole.basis_count) == (8, (32,), 16)
    assert all(type(n) is int for n in (whole.input_dim, *whole.hidden_widths))
    # A bool is not a size: a JSON true must not become 1.
    for name, value in (
        ("task_count", True),
        ("hidden_widths", (True,)),
        ("output_dim", np.bool_(True)),
        ("basis_count", True),
    ):
        sizes = dict(input_dim=8, hidden_widths=(4,), output_dim=1, task_count=1)
        with pytest.raises(ValueError, match=f"{name} must be a whole number, got True"):
            ArchitectureSpec(**{**sizes, name: value})
