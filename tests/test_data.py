"""Synthetic benchmark generation and CSV round-trips."""

import numpy as np
import pytest

from taan.data import (
    SPLIT_TAGS,
    CsvSchema,
    SyntheticSpec,
    TaskDataset,
    generate,
    _whole,
    _write_csv,
    load_csv,
    save_csv,
)


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
    for t, split in enumerate(generate(spec)):
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
            assert part.split == tag
            assert part.task_id == t
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


def test_dataset_validation():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError):
        TaskDataset(np.zeros(4), np.zeros(4), 0, "train")
    with pytest.raises(ValueError):
        TaskDataset(x, np.zeros((3, 1)), 0, "train")
    with pytest.raises(ValueError):
        TaskDataset(x, np.zeros((4, 1, 1)), 0, "train")
    with pytest.raises(ValueError):
        TaskDataset(x, np.full(4, np.nan), 0, "train")
    with pytest.raises(ValueError):
        TaskDataset(x, np.zeros(4), 0, "holdout")
    with pytest.raises(ValueError):
        TaskDataset(x, np.zeros(4), -1, "train")
    ds = TaskDataset(x, np.zeros(4), 0, "train")
    assert len(ds) == 4
    with pytest.raises(ValueError):
        ds.inputs[0, 0] = 1.0


def test_csv_round_trip_bitwise(tmp_path):
    spec = SyntheticSpec(task_count=1, samples_per_task=30, input_dim=3, seed=2)
    ds = generate(spec)[0].train
    path = tmp_path / "task0_train.csv"
    save_csv(ds, path)
    again = load_csv(path, CsvSchema(3, 1), task_id=0, split="train")
    assert np.array_equal(ds.inputs, again.inputs)
    assert np.array_equal(ds.targets, again.targets)
    # Saving the reloaded dataset reproduces the file byte for byte.
    second = tmp_path / "again.csv"
    save_csv(again, second)
    assert path.read_bytes() == second.read_bytes()
    # 1-D class labels are written as one target column.
    labels = TaskDataset(ds.inputs, np.arange(len(ds)) % 3, 0, "train")
    save_csv(labels, tmp_path / "labels.csv")
    read = load_csv(tmp_path / "labels.csv", CsvSchema(3, 1))
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


def test_csv_fixture_and_header():
    schema = CsvSchema(2, 1)
    assert schema.header() == ["x0", "x1", "y0"]
    with pytest.raises(ValueError):
        CsvSchema(0, 1)


def test_load_csv_error_reporting(tmp_path):
    schema = CsvSchema(2, 1)

    def write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return p

    good = write("good.csv", "x0,x1,y0\n1.0,2.0,3.0\n\n-1.5,0.25,0.0\n")
    ds = load_csv(good, schema, task_id=3, split="val")
    assert ds.task_id == 3 and ds.split == "val"
    assert np.array_equal(ds.inputs, [[1.0, 2.0], [-1.5, 0.25]])
    assert np.array_equal(ds.targets, [[3.0], [0.0]])

    with pytest.raises(ValueError, match="empty file"):
        load_csv(write("empty.csv", ""), schema)
    with pytest.raises(ValueError, match="header"):
        load_csv(write("header.csv", "a,b,c\n1,2,3\n"), schema)
    with pytest.raises(ValueError, match="line 3"):
        load_csv(write("short.csv", "x0,x1,y0\n1,2,3\n1,2\n"), schema)
    with pytest.raises(ValueError, match="line 2"):
        load_csv(write("text.csv", "x0,x1,y0\nfoo,2,3\n"), schema)
    with pytest.raises(ValueError, match="non-finite"):
        load_csv(write("nan.csv", "x0,x1,y0\n1,2,nan\n"), schema)
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(write("headeronly.csv", "x0,x1,y0\n"), schema)
