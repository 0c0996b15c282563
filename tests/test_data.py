"""Synthetic benchmark generation, CSV round-trips and the one rule each for
whole and for real numbers."""

import json
import math
import re

import numpy as np
import pytest

from taan.analysis import check_l1_bounds, layer1_unit_gaussians
from taan.apl import BasisGrid
from taan.data import (
    SPLIT_TAGS,
    SyntheticSpec,
    TaskDataset,
    generate,
    _whole,
    _write_csv,
    load_csv,
    save_csv,
)
from taan.metrics import GaussianMixture, mc_inner_and_distance
from taan.moments import GaussianParams
from taan.network import ArchitectureSpec, build_model, load_checkpoint, save_checkpoint
from taan.regularizers import RegConfig, RegKind
from taan.training import AdamState, TrainConfig, map_at_k
from test_network import meta_member, rewrite_members


def test_generation_is_seed_deterministic():
    spec = SyntheticSpec(task_count=3, samples_per_task=50, input_dim=5, seed=42)
    a = generate(spec)
    b = generate(spec)
    for da, db in zip(a, b):
        for tag in SPLIT_TAGS:
            assert np.array_equal(getattr(da, tag).inputs, getattr(db, tag).inputs)
            assert np.array_equal(getattr(da, tag).targets, getattr(db, tag).targets)
    c = generate(SyntheticSpec(task_count=3, samples_per_task=50, input_dim=5, seed=43))
    assert not np.array_equal(a[0].train.targets, c[0].train.targets)


def test_zero_relatedness_makes_cluster_tasks_identical():
    spec = SyntheticSpec(
        task_count=3,
        samples_per_task=60,
        input_dim=4,
        clusters=(0, 0, 1),
        relatedness=0.0,
        noise=0.0,
        seed=7,
        shared_inputs=True,
    )
    data = generate(spec)
    assert np.array_equal(data[0].train.inputs, data[1].train.inputs)
    assert np.array_equal(data[0].train.targets, data[1].train.targets)
    assert np.array_equal(data[0].test.targets, data[1].test.targets)
    # A task in a different cluster uses a different map.
    assert not np.allclose(data[0].train.targets, data[2].train.targets)


def test_full_relatedness_decorrelates_tasks():
    # At relatedness 1 every task is an independent random function, so
    # same-cluster targets on shared inputs should be nearly uncorrelated.
    spec = SyntheticSpec(
        task_count=4,
        samples_per_task=4000,
        input_dim=20,
        clusters=(0, 0, 0, 0),
        relatedness=1.0,
        noise=0.0,
        seed=1,
        shared_inputs=True,
        train_fraction=0.8,
        val_fraction=0.1,
    )
    data = generate(spec)
    ys = [d.train.targets[:, 0] for d in data]
    worst = max(
        abs(np.corrcoef(ys[i], ys[j])[0, 1])
        for i in range(4)
        for j in range(i + 1, 4)
    )
    assert worst < 0.2


def test_splits_partition_the_samples():
    spec = SyntheticSpec(
        task_count=2, samples_per_task=103, input_dim=3, seed=5,
        train_fraction=0.6, val_fraction=0.2,
    )
    n_train, n_val, n_test = spec.split_sizes()
    assert (n_train, n_val, n_test) == (62, 21, 20)
    for split in generate(spec):
        assert len(split.train) == n_train
        assert len(split.val) == n_val
        assert len(split.test) == n_test
        stacked = np.vstack(
            [split.train.inputs, split.val.inputs, split.test.inputs]
        )
        assert stacked.shape == (103, 3)
        # Disjoint contiguous slices: no row appears in two splits.
        assert len({row.tobytes() for row in stacked}) == 103
        for tag in SPLIT_TAGS:
            part = getattr(split, tag)
            assert part.targets.shape == (len(part), 1)


def test_shared_inputs_flag():
    base = dict(task_count=2, samples_per_task=40, input_dim=4, seed=9)
    shared = generate(SyntheticSpec(shared_inputs=True, **base))
    assert np.array_equal(shared[0].train.inputs, shared[1].train.inputs)
    separate = generate(SyntheticSpec(shared_inputs=False, **base))
    assert not np.array_equal(separate[0].train.inputs, separate[1].train.inputs)


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(task_count=0)
    with pytest.raises(ValueError):
        SyntheticSpec(input_dim=0)
    with pytest.raises(ValueError):
        SyntheticSpec(relatedness=1.5)
    with pytest.raises(ValueError):
        SyntheticSpec(noise=-0.1)
    with pytest.raises(ValueError):
        SyntheticSpec(task_count=3, clusters=(0, 1))
    with pytest.raises(ValueError):
        SyntheticSpec(clusters=(0,) * 7 + (-1,))
    with pytest.raises(ValueError):
        SyntheticSpec(train_fraction=0.9, val_fraction=0.2)
    with pytest.raises(ValueError):
        SyntheticSpec(train_fraction=0.0)
    with pytest.raises(ValueError):
        SyntheticSpec(samples_per_task=3, train_fraction=0.6, val_fraction=0.2)
    with pytest.raises(ValueError, match="clusters must be a whole number, got 1.7"):
        SyntheticSpec(task_count=2, clusters=[0, 1.7])
    with pytest.raises(ValueError, match="samples_per_task .* got 100.5"):
        SyntheticSpec(samples_per_task=100.5)
    whole = SyntheticSpec(task_count=2.0, samples_per_task=100.0, clusters=[0, 1.0])
    assert whole.split_sizes() == (60, 20, 20) and whole.clusters == (0, 1)
    # Defaults fill one cluster per task.
    assert SyntheticSpec(task_count=3).clusters == (0, 0, 0)
    # A bool is not a count or an id: a JSON true must not become 1.
    with pytest.raises(ValueError, match="task_count must be a whole number, got True"):
        SyntheticSpec(task_count=True)
    with pytest.raises(ValueError, match="clusters must be a whole number, got False"):
        SyntheticSpec(task_count=1, clusters=[False])


@pytest.mark.parametrize("value", [None, "abc"])
def test_whole_rejects_what_is_not_a_number(value):
    with pytest.raises(ValueError, match=f"size must be a whole number, got {value}"):
        _whole("size", value)


TINY = ArchitectureSpec(2, (3,), 1, task_count=2, basis_count=4)


def checkpoint_size(key, tmp_path):
    """Loads a checkpoint whose ``meta`` sets ``key`` (``widths[0]`` sets the
    first width) to a value; returns the size the loaded model has there, or
    for ``seed`` the seed the loader returns."""
    path = tmp_path / "model.npz"
    save_checkpoint(build_model(TINY, 0), path)
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["meta"]).decode())
    name, _, index = key.partition("[")
    read = {
        "task_count": lambda m, _: m.task_count,
        "input_dim": lambda m, _: m.input_dim,
        "widths": lambda m, _: m.layers[0].linear.out_dim,
        "basis_counts": lambda m, _: len(m.layers[0].grid),
        "output_dims": lambda m, _: m.head_dim(0),
        "seed": lambda _, seed: seed,
    }[name]

    def load(value):
        if index:
            meta[name][0] = value
        else:
            meta[name] = value
        edited = rewrite_members(path, tmp_path / "edited.npz", meta=meta_member(meta))
        model, _, seed = load_checkpoint(edited)
        return read(model, seed)

    return load


def mc_pair(n):
    grid, rng = BasisGrid.even(4), np.random.default_rng(0)
    c = np.linspace(-0.5, 0.5, 4)
    return mc_inner_and_distance(c, -c, grid, GaussianMixture.standard_normal(), n, rng)


def mc_bounds(n):
    model = build_model(TINY, 0)
    report = check_l1_bounds(model, layer1_unit_gaussians(model), 1.0, (0, 1), n)
    return report.inner_left, report.dist_left


SCORES = np.array([[0.9, 0.1, 0.5], [0.2, 0.8, 0.3]])
RELEVANT = np.array([[0, 1, 1], [1, 0, 0]])

# Each site of the whole-number rule: (reader of a value, the field its
# errors name, the floor or None, a valid whole number).
WHOLE_SITES = {
    "basis_count": (lambda v, _: len(BasisGrid.even(v)), "basis_count", 1, 5),
    "mc_inner_and_distance": (
        lambda v, _: mc_pair(v), "Monte-Carlo sample count", 2, 1000
    ),
    "check_l1_bounds": (
        lambda v, _: mc_bounds(v), "Monte-Carlo sample count", 2, 1000
    ),
    "map_at_k": (lambda v, _: map_at_k(SCORES, RELEVANT, v), "k", 1, 2),
    "arch_input_dim": (
        lambda v, _: ArchitectureSpec(v, (4,), 1, task_count=1).input_dim,
        "input_dim", 1, 3,
    ),
    "arch_hidden_widths": (
        lambda v, _: ArchitectureSpec(3, (v,), 1, task_count=1).hidden_widths[0],
        "hidden_widths", 1, 4,
    ),
    "arch_output_dim": (
        lambda v, _: ArchitectureSpec(3, (4,), v, task_count=1).output_dims[0],
        "output_dim", 1, 2,
    ),
    "arch_basis_count": (
        lambda v, _: ArchitectureSpec(3, (4,), 1, 1, basis_count=v).basis_count,
        "basis_count", 1, 8,
    ),
    **{
        f"meta_{key}": (
            lambda v, tmp, key=key: checkpoint_size(key, tmp)(v),
            f"meta {key}", 0, whole,
        )
        for key, whole in (
            ("task_count", 2), ("input_dim", 2), ("widths[0]", 3),
            ("basis_counts[0]", 4), ("output_dims[0]", 1), ("seed", 7),
        )
    },
}


@pytest.mark.parametrize("site", WHOLE_SITES)
def test_sizes_ids_and_counts_are_whole_numbers(site, tmp_path):
    read, field, least, whole = WHOLE_SITES[site]
    bad = [(whole + 0.5, "a whole number"), (True, "a whole number")]
    if least is not None:
        bad.append((least - 1, f">= {least}"))
    for value, rule in bad:
        message = f"{field} must be {rule}, got {value}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read(value, tmp_path)
    # A whole-valued float, which JSON can produce, reads as the int.
    got, want = read(float(whole), tmp_path), read(whole, tmp_path)
    assert got == want and type(got) is type(want)


def l1_bound(c1):
    model = build_model(TINY, 0)
    return check_l1_bounds(model, layer1_unit_gaussians(model), c1, (0, 1), 100)


# Each site of the real-number rule: (reader of a value, the field its errors
# name, its interval as the errors write it, a value outside it or None when
# every finite number is inside, a valid value, and a valid int or None).
REAL_SITES = {
    "learning_rate": (
        lambda v: TrainConfig(epochs=1, learning_rate=v).learning_rate,
        "learning_rate", "(0, inf)", 0, 3e-3, 2,
    ),
    "adam_learning_rate": (
        lambda v: AdamState.for_params(np.zeros(2), v).learning_rate,
        "learning_rate", "(0, inf)", -1, 3e-3, 2,
    ),
    "coefficient": (
        lambda v: RegConfig(RegKind.DISTANCE, v).coefficient,
        "coefficient", "[0, inf)", -0.1, 0.1, 0,
    ),
    "relatedness": (
        lambda v: SyntheticSpec(relatedness=v).relatedness,
        "relatedness", "[0, 1]", 1.5, 0.3, 1,
    ),
    "noise": (
        lambda v: SyntheticSpec(noise=v).noise, "noise", "[0, inf)", -0.1, 0.3, 0
    ),
    "train_fraction": (
        lambda v: SyntheticSpec(train_fraction=v).train_fraction,
        "train_fraction", "(0, 1)", 0, 0.5, None,
    ),
    "val_fraction": (
        lambda v: SyntheticSpec(val_fraction=v).val_fraction,
        "val_fraction", "(0, 1)", 1, 0.3, None,
    ),
    "c1": (lambda v: l1_bound(v).inner_right, "c1", "(0, inf)", 0, 1.5, 2),
    "mu": (lambda v: GaussianParams(v, 1.0).mu, "mu", "(-inf, inf)", None, -0.5, 3),
    "sigma": (lambda v: GaussianParams(0.0, v).sigma, "sigma", "(0, inf)", 0, 0.5, 2),
    "basis_range_lo": (
        lambda v: ArchitectureSpec(3, (4,), 1, 1, basis_range=(v, 9.0)).basis_range[0],
        "basis_range[0]", "(-inf, inf)", None, -1.5, -2,
    ),
    "basis_range_hi": (
        lambda v: ArchitectureSpec(3, (4,), 1, 1, basis_range=(-2, v)).basis_range[1],
        "basis_range[1]", "(-2, inf)", -2, 1.5, 3,
    ),
}


@pytest.mark.parametrize("site", REAL_SITES)
def test_real_settings_are_finite_numbers_in_their_interval(site):
    read, field, interval, outside, real, whole = REAL_SITES[site]
    # 10**400 is an int too big for a float.
    bad = [True, "0.5", None, math.nan, math.inf, -math.inf, 10**400]
    for value in bad + ([outside] if outside is not None else []):
        message = f"{field} must be a finite number in {interval}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read(value)
    # An int or a numpy float inside the interval reads as a float.
    for value in (np.float64(real), whole):
        if value is not None:
            got = read(value)
            assert type(got) is float and got == read(float(value))


def test_dataset_validation():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError):
        TaskDataset(np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError):
        TaskDataset(x, np.zeros((3, 1)))
    with pytest.raises(ValueError):
        TaskDataset(x, np.zeros((4, 1, 1)))
    with pytest.raises(ValueError):
        TaskDataset(x, np.full(4, np.nan))
    ds = TaskDataset(x, np.zeros(4))
    assert len(ds) == 4
    with pytest.raises(ValueError):
        ds.inputs[0, 0] = 1.0


def test_csv_round_trip_bitwise(tmp_path):
    spec = SyntheticSpec(task_count=1, samples_per_task=30, input_dim=3, seed=2)
    ds = generate(spec)[0].train
    path = tmp_path / "task0_train.csv"
    save_csv(ds, path)
    again = load_csv(path)
    assert np.array_equal(ds.inputs, again.inputs)
    assert np.array_equal(ds.targets, again.targets)
    # Saving the reloaded dataset reproduces the file byte for byte.
    second = tmp_path / "again.csv"
    save_csv(again, second)
    assert path.read_bytes() == second.read_bytes()
    # 1-D class labels are written as one target column.
    labels = TaskDataset(ds.inputs, np.arange(len(ds)) % 3)
    save_csv(labels, tmp_path / "labels.csv")
    read = load_csv(tmp_path / "labels.csv")
    assert np.array_equal(read.targets, labels.targets[:, None])


def test_csv_cells_are_written_by_one_rule(tmp_path):
    # str(v) gives the bytes of the older rule, repr(float(v)) for floats
    # and str(v) otherwise, for Python and numpy floats and ints alike.
    rng = np.random.default_rng(11)
    edge = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e16, 1e-7]
    edge += [2.2250738585072014e-308, np.finfo(float).max, 0.1, 1 / 3]
    bits = rng.integers(0, 2**64, 400, dtype=np.uint64).view(np.float64)
    floats = [*edge, *bits.tolist()]
    rows = [[v, np.float64(v)] for v in floats]
    rows += [[7, np.int64(-3)], [np.float32(0.1), 2**70]]
    path = tmp_path / "cells.csv"
    _write_csv(path, ["a", "b"], rows)
    old = ["a,b"] + [
        ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
        for row in rows
    ]
    assert path.read_bytes() == ("\n".join(old) + "\n").encode("utf-8")


def test_csv_fixture_and_header(tmp_path):
    # The header x0..x{d-1},y0..y{k-1} is written from a dataset's shape and
    # read back as its column counts.
    path = tmp_path / "wide.csv"
    save_csv(TaskDataset(np.zeros((2, 2)), np.zeros((2, 3))), path)
    assert path.read_text(encoding="utf-8").splitlines()[0] == "x0,x1,y0,y1,y2"
    ds = load_csv(path)
    assert (ds.inputs.shape, ds.targets.shape) == ((2, 2), (2, 3))


def test_load_csv_error_reporting(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return p

    good = write("good.csv", "x0,x1,y0\n1.0,2.0,3.0\n\n-1.5,0.25,0.0\n")
    ds = load_csv(good)
    assert np.array_equal(ds.inputs, [[1.0, 2.0], [-1.5, 0.25]])
    assert np.array_equal(ds.targets, [[3.0], [0.0]])

    # A header other than x0..x{d-1},y0..y{k-1}, d, k >= 1, is refused
    # naming its file.
    for name, header in (
        ("names", "a,b,c"),
        ("gap", "x0,x2,y0"),
        ("order", "x0,y0,x1"),
        ("no_y", "x0,x1,x2"),
        ("no_x", "y0,y1,y2"),
    ):
        path = write(f"{name}.csv", f"{header}\n1,2,3\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: header")):
            load_csv(path)
    with pytest.raises(ValueError, match="empty file"):
        load_csv(write("empty.csv", ""))
    with pytest.raises(ValueError, match="line 3"):
        load_csv(write("short.csv", "x0,x1,y0\n1,2,3\n1,2\n"))
    with pytest.raises(ValueError, match="line 2"):
        load_csv(write("text.csv", "x0,x1,y0\nfoo,2,3\n"))
    with pytest.raises(ValueError, match="non-finite"):
        load_csv(write("nan.csv", "x0,x1,y0\n1,2,nan\n"))
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(write("headeronly.csv", "x0,x1,y0\n"))
