"""End-to-end command-line runs, in subprocesses except where a test spies
on what the CLI hands its writers."""

import dataclasses
import inspect
import json
import re
import shlex
import subprocess
import sys
import zipfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import taan._backend
import taan.analysis as analysis
import taan.cli as cli
from conftest import child_env
from taan.data import (
    SPLIT_TAGS,
    SplitDatasets,
    SyntheticSpec,
    TaskDataset,
    _read_csv,
    load_csv,
    save_csv,
)
from taan.analysis import load_heatmap_csv
from taan.metrics import COMPARISON_MIXTURE, mean_pairwise_distance
from taan.network import (
    ArchitectureSpec,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from taan.regularizers import RegConfig
from taan.training import TrainConfig, evaluate

SMALL_CONFIG = {
    "seed": 3,
    "arch": {"hidden_widths": [6], "basis_count": 4},
    "train": {"epochs": 2, "batch_size": 16, "learning_rate": 1e-3},
    "data": {
        "synthetic": {
            "task_count": 2,
            "samples_per_task": 40,
            "input_dim": 3,
            "clusters": [0, 0],
            "relatedness": 0.3,
            "noise": 0.1,
        }
    },
}


def run_cli(*argv, cwd):
    return subprocess.run(
        [sys.executable, "-m", "taan", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=child_env(),
        timeout=300,
    )


def write_config(tmp_path, overrides=None):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    if overrides:
        for dotted, value in overrides.items():
            node = cfg
            *parents, leaf = dotted.split(".")
            for key in parents:
                node = node.setdefault(key, {})
            node[leaf] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_gen_data_writes_all_split_files(tmp_path):
    cfg = write_config(tmp_path)
    proc = run_cli("gen-data", "--config", str(cfg), "--out", "run1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    data_dir = tmp_path / "run1" / "data"
    names = sorted(p.name for p in data_dir.iterdir())
    assert names == [
        f"task{t}_{split}.csv"
        for t in (0, 1)
        for split in ("test", "train", "val")
    ]
    ds = load_csv(data_dir / "task0_train.csv")
    assert ds.inputs.shape == (24, 3)
    # The same seed regenerates the files byte for byte.
    proc2 = run_cli("gen-data", "--config", str(cfg), "--out", "run2", cwd=tmp_path)
    assert proc2.returncode == 0, proc2.stderr
    for name in names:
        assert (tmp_path / "run1" / "data" / name).read_bytes() == (
            tmp_path / "run2" / "data" / name
        ).read_bytes()
    # The files train exactly as the data they were written from: a config
    # that lists them, with the same top-level seed, writes the same bytes.
    tasks = [
        {split: str(data_dir / f"task{t}_{split}.csv") for split in SPLIT_TAGS}
        for t in (0, 1)
    ]
    listed = write_config(tmp_path, {"data": {"csv": tasks}})
    runs = {}
    for name, config in (("synthetic", cfg), ("listed", listed)):
        out = tmp_path / name
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
        runs[name] = [
            (out / member).read_bytes()
            for member in ("history/history.csv", "checkpoints/model.npz")
        ]
    assert runs["synthetic"] == runs["listed"]


def test_train_checkpoint_and_reproducible_history(tmp_path):
    cfg = write_config(tmp_path)
    for out in ("a", "b"):
        proc = run_cli("train", "--config", str(cfg), "--out", out, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "final epoch mean train loss" in proc.stdout
    model, mixture, seed = load_checkpoint(tmp_path / "a/checkpoints/model.npz")
    assert model.task_count == 2
    assert len(model.layers) == 1
    assert model.layers[0].linear.weight.shape == (6, 3)
    assert seed == 3
    assert np.array_equal(mixture.weights, [1.0])
    hist_a = (tmp_path / "a/history/history.csv").read_text(encoding="utf-8")
    hist_b = (tmp_path / "b/history/history.csv").read_text(encoding="utf-8")
    assert hist_a == hist_b
    lines = hist_a.strip().split("\n")
    assert lines[0] == (
        "epoch,task_id,train_loss,val_metric,reg_value,layer_id,"
        "mean_pairwise_distance"
    )
    # 2 epochs x 2 tasks x 1 layer.
    assert len(lines) == 1 + 4


def test_train_regularizer_flags_show_up_in_history(tmp_path):
    cfg = write_config(tmp_path)
    proc = run_cli(
        "train", "--config", str(cfg), "--out", "reg",
        "--reg", "dis", "--coef", "0.5", cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    lines = (
        (tmp_path / "reg/history/history.csv")
        .read_text(encoding="utf-8")
        .strip()
        .split("\n")
    )
    reg_col = lines[0].split(",").index("reg_value")
    values = {float(line.split(",")[reg_col]) for line in lines[1:]}
    assert all(v > 0.0 for v in values)


def test_analyze_exports_matrices_and_summary(tmp_path):
    cfg = write_config(tmp_path)
    assert run_cli("train", "--config", str(cfg), "--out", "run", cwd=tmp_path).returncode == 0
    proc = run_cli("analyze", "--out", "run", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    matrix, labels = load_heatmap_csv(tmp_path / "run/matrices/layer0.csv")
    assert labels == ("task0", "task1")
    assert matrix.shape == (2, 2)
    pgm = (tmp_path / "run/matrices/layer0.pgm").read_bytes()
    assert pgm.startswith(b"P5\n2 2\n255\n")
    summary = (tmp_path / "run/reports/analysis.txt").read_text(encoding="utf-8")
    assert summary.startswith("layer 0: mean pairwise distance")


def test_analyze_accepts_explicit_checkpoint(tmp_path):
    cfg = write_config(tmp_path)
    assert run_cli("train", "--config", str(cfg), "--out", "run", cwd=tmp_path).returncode == 0
    proc = run_cli(
        "analyze",
        "--checkpoint", "run/checkpoints/model.npz",
        "--out", "elsewhere",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "elsewhere/matrices/layer0.csv").exists()


def test_check_moments_passes(tmp_path):
    proc = run_cli("check", "moments", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "moments:" in proc.stdout and "pass" in proc.stdout


def test_check_gradients_passes(tmp_path):
    proc = run_cli("check", "gradients", "--seed", "0", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("pass") == 3


def test_check_gradients_apl_family_differences_the_kernels(monkeypatch, capsys):
    # dF/dx 1% off in the backward kernel every pass runs must fail the apl
    # family itself, not only the network family downstream of it.
    apl_backward = taan._backend.apl_backward

    def skewed(*args):
        gx, gcoords = apl_backward(*args)
        return 1.01 * gx, gcoords

    monkeypatch.setattr(taan._backend, "apl_backward", skewed)
    assert cli.check_gradients(0) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("gradients/apl: ") and lines[0].endswith("-> FAIL")


def test_check_bounds_passes_and_writes_csv(tmp_path):
    proc = run_cli("check", "bounds", "--seed", "1", "--out", "bc", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "bounds: pass" in proc.stdout
    text = (tmp_path / "bc/reports/bounds.csv").read_text(encoding="utf-8")
    assert text.startswith("task1,task2,side,")


def bound_table(out):
    """The rows of ``check bounds``' tables in its stdout, split on spaces."""
    return [
        line.split() for line in out.splitlines()
        if line.startswith(("inner ", "dist "))
    ]


def test_check_bounds_passes_where_sampling_noise_failed_it(capsys):
    """At c1 = 1 the one-sided 3-SE test failed correct code on seeds 415,
    499 and 873 of 0-999: each Monte-Carlo side estimated its bound
    exactly.  At c1 = 1.02 with positive sides they pass."""
    for seed in (415, 499, 873):
        assert cli.check_bounds(seed) == 0, seed
        out = capsys.readouterr().out
        assert [row[-1] for row in bound_table(out)] == ["yes"] * 4
        assert out.endswith("bounds: pass\n")


@pytest.mark.parametrize("factor", (0.95, 1.05))
@pytest.mark.parametrize("name", ("inner_product", "distance_sq"))
def test_check_bounds_fails_a_closed_form_off_by_5_percent(
    monkeypatch, capsys, tmp_path, name, factor
):
    """A closed form 5% off fails in either direction: its side lies
    more than 5 standard errors from the Monte-Carlo estimate, though a
    5% excess still passes the one-sided test.  The table, the CSV and the
    exit status give that one verdict."""
    exact = getattr(analysis, name)
    monkeypatch.setattr(analysis, name, lambda *args: factor * exact(*args))
    assert cli.check_bounds(1, str(tmp_path)) == 1
    out = capsys.readouterr().out
    assert out.endswith("bounds: FAIL\n")
    csv_rows = [
        line.split(",")
        for line in (tmp_path / "reports/bounds.csv").read_text(encoding="utf-8").splitlines()[1:]
    ]
    table = bound_table(out)
    assert [row[0] for row in table] == [row[2] for row in csv_rows]
    assert [row[-1] for row in table] == [
        {"1": "yes", "0": "NO"}[row[-1]] for row in csv_rows
    ]
    # Tasks 0 vs 1 on the scaled side; the distance of task 0 to itself is
    # 0 however it is scaled.
    side = {"inner_product": "inner", "distance_sq": "dist"}[name]
    assert [row[-1] for row in csv_rows if row[:3] == ["0", "1", side]] == ["0"]


def test_bad_config_fails_cleanly(tmp_path):
    cfg = write_config(
        tmp_path, overrides={"data.synthetic.relatedness": 2.0}
    )
    proc = run_cli("train", "--config", str(cfg), "--out", "x", cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "relatedness" in proc.stderr


def test_seeds_are_whole_numbers_at_least_zero(tmp_path, capsys):
    arch = ArchitectureSpec(3, (4,), 1, task_count=1)
    makers = (
        lambda seed: SyntheticSpec(task_count=1, samples_per_task=10, seed=seed),
        lambda seed: TrainConfig(epochs=1, seed=seed),
        lambda seed: build_model(arch, seed),
    )
    for seed, message in (
        (2.5, "seed must be a whole number, got 2.5"),
        (True, "seed must be a whole number, got True"),
        (-1, "seed must be >= 0, got -1"),
    ):
        for make in makers:
            with pytest.raises(ValueError, match=message):
                make(seed)
    # A config's seed at the top level, under train or under data.synthetic.
    for where in ("seed", "train.seed", "data.synthetic.seed"):
        cfg = write_config(tmp_path, {where: 2.5})
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "run")]
        assert cli.main(argv) == 1
        assert "error: seed must be a whole number, got 2.5" in capsys.readouterr().err


def test_missing_subcommand_is_a_usage_error(tmp_path, capsys):
    proc = run_cli(cwd=tmp_path)
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()
    # In-process, the one parser that main keeps survives the usage error.
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()
    out = tmp_path / "after"
    cfg = write_config(tmp_path)
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(list((out / "data").glob("task*_*.csv"))) == 6


@pytest.mark.parametrize(
    "argv",
    (
        ["check", "moments", "--seed", "1"],
        ["check", "moments", "--out", "run"],
        ["check", "gradients", "--out", "run"],
    ),
    ids=("moments_seed", "moments_out", "gradients_out"),
)
def test_a_check_takes_only_the_flags_it_reads(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.PARSER.parse_args(argv)
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[2:])}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_analyze_takes_no_seed(capsys):
    # Nor a config: analyze reads only its checkpoint and writes under --out.
    for flag, value in (("--seed", "1"), ("--config", "c.json")):
        with pytest.raises(SystemExit) as info:
            cli.PARSER.parse_args(["analyze", flag, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


# A command with an empty flag, and the flag its error must name.
EMPTY_FLAGS = {
    "train": (["train", "--out", ""], "out"),
    "gen": (["gen-data", "--out", ""], "out"),
    "analyze": (["analyze", "--checkpoint", ""], "checkpoint"),
    "bounds": (["check", "bounds", "--out", ""], "out"),
}


@pytest.mark.parametrize("case", EMPTY_FLAGS)
def test_an_empty_flag_is_refused_by_name(tmp_path, monkeypatch, capsys, case):
    """A flag takes effect whenever it is given: an empty ``--out`` or
    ``--checkpoint`` exits 1 naming it and writes nothing, rather than
    falling back to the config's ``out``, the default checkpoint or the
    working directory."""
    argv, name = EMPTY_FLAGS[case]
    cfg = write_config(tmp_path)
    if argv[0] in ("train", "gen-data"):
        argv = [*argv, "--config", str(cfg)]
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {name} must be a file name, got ''\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_commands_create_only_the_directories_they_write(tmp_path):
    ckpt = tmp_path / "model.npz"
    arch = ArchitectureSpec(3, (4,), 1, task_count=2, basis_count=4)
    save_checkpoint(build_model(arch, 0), ckpt)
    runs = {
        "analyze": (["analyze", "--checkpoint", str(ckpt)], {"matrices", "reports"}),
        "gen": (["gen-data", "--config", str(write_config(tmp_path))], {"data"}),
        "bounds": (["check", "bounds", "--seed", "1"], {"reports"}),
    }
    for name, (argv, expected) in runs.items():
        out = tmp_path / name
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == expected, name


def write_diverging_config(tmp_path):
    """A config whose one CSV task has targets of 1e200, so that training
    diverges in its first epoch."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 2))
    csv = tmp_path / "train.csv"
    save_csv(TaskDataset(x, np.full((30, 1), 1e200)), csv)
    cfg = {
        "arch": {"hidden_widths": [4], "basis_count": 4},
        "train": {"epochs": 2, "batch_size": 16},
        "data": {"csv": [{"train": str(csv)}]},
    }
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_a_failed_command_creates_no_directory(tmp_path, capsys):
    # Each command's inputs fail to read or check, or training fails, and
    # it says why.
    runs = {
        "analyze": (
            ["analyze", "--checkpoint", str(tmp_path / "no.npz")],
            None,
            "No such file or directory",
        ),
        "train": (
            ["train"],
            {"data.synthetic.task_count": 0},
            "task_count must be >= 1, got 0",
        ),
        "train_output_dim": (
            ["train"],
            {"arch.output_dim": 3},
            "task 0: targets have shape (24, 1), expected (n, 3)",
        ),
        "train_diverges": (
            ["train"], write_diverging_config(tmp_path), "epoch 0, task 0"
        ),
        "gen": (
            ["gen-data"],
            {"data": {"synthetic": [1]}},
            "config data.synthetic must be a JSON object, got list",
        ),
    }
    for name, (argv, config, message) in runs.items():
        if isinstance(config, dict):
            config = write_config(tmp_path, config)
        if config:
            argv = [*argv, "--config", str(config)]
        out = tmp_path / name
        # A diverging run overflows before train stops it; numpy only warns,
        # but pytest turns warnings into errors.
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main([*argv, "--out", str(out)]) == 1, name
        assert message in capsys.readouterr().err, name
        assert not out.exists(), name


def write_class_csvs(tmp_path, labels):
    """One task's train/val CSVs (columns x0, x1, y0) with the given labels;
    returns the config path for cross-entropy training on them."""
    rng = np.random.default_rng(4)
    paths = {}
    for split in ("train", "val"):
        x = rng.standard_normal((len(labels), 2))
        path = tmp_path / f"{split}.csv"
        save_csv(TaskDataset(x, np.array(labels, float)[:, None]), path)
        paths[split] = str(path)
    cfg = {
        "seed": 2,
        "arch": {"hidden_widths": [6], "basis_count": 4},
        "train": {"epochs": 2, "batch_size": 16, "loss": "cross_entropy"},
        "data": {"synthetic": None, "csv": [paths]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_train_csv_class_labels_under_cross_entropy(tmp_path):
    cfg = write_class_csvs(tmp_path, [0, 1, 2] * 20)
    proc = run_cli("train", "--config", str(cfg), "--out", "run", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    model, _, _ = load_checkpoint(tmp_path / "run/checkpoints/model.npz")
    assert model.head_dim(0) == 3
    lines = (tmp_path / "run/history/history.csv").read_text().split("\n")
    header = lines[0].split(",")
    for line in filter(None, lines[1:]):
        row = dict(zip(header, line.split(",")))
        # Three balanced classes start near ln 3; a one-class head reads 0.
        assert float(row["train_loss"]) > 0.5
        assert 0.0 <= float(row["val_metric"]) < 1.0


def test_train_rejects_unusable_class_labels(tmp_path):
    cfg = write_class_csvs(tmp_path, [0] * 30)
    proc = run_cli("train", "--config", str(cfg), "--out", "one", cwd=tmp_path)
    assert proc.returncode == 1
    assert "task 0" in proc.stderr and "cross_entropy" in proc.stderr
    cfg = write_class_csvs(tmp_path, [0.0, 1.5, 2.0] * 10)
    proc = run_cli("train", "--config", str(cfg), "--out", "frac", cwd=tmp_path)
    assert proc.returncode == 1
    assert "task 0" in proc.stderr and "integer class labels" in proc.stderr
    cfg = write_class_csvs(tmp_path, [-1, 0, 1] * 10)
    proc = run_cli("train", "--config", str(cfg), "--out", "neg", cwd=tmp_path)
    assert proc.returncode == 1
    assert "task 0" in proc.stderr and "non-negative integer" in proc.stderr


def test_train_rejects_out_of_range_validation_labels(tmp_path, capsys):
    cfg = write_class_csvs(tmp_path, [0, 1, 2] * 20)
    path = tmp_path / "val.csv"
    val = load_csv(path)
    targets = val.targets.copy()
    targets[7] = 5.0
    save_csv(TaskDataset(val.inputs, targets), path)
    out = str(tmp_path / "run")
    assert cli.main(["train", "--config", str(cfg), "--out", out]) == 1
    err = capsys.readouterr().err
    assert "task 0: labels outside [0, 3)" in err
    assert not (tmp_path / "run/history/history.csv").exists()


def test_train_csv_one_hot_rows_match_labels_and_must_be_one_hot(tmp_path, capsys):
    # A CSV task with as many target columns as classes holds one-hot rows:
    # valid rows train exactly like the label column they encode.
    path = write_class_csvs(tmp_path, [0, 1, 2] * 20)
    runs = {}
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    for split in ("train", "val"):
        part = load_csv(tmp_path / f"{split}.csv")
        onehot = np.eye(3)[part.targets[:, 0].astype(int)]
        save_csv(TaskDataset(part.inputs, onehot), tmp_path / f"{split}.csv")
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
    for run in ("a", "b"):
        runs[run] = (tmp_path / run / "history/history.csv").read_bytes()
    assert runs["a"] == runs["b"]
    capsys.readouterr()
    train = load_csv(tmp_path / "train.csv")
    rows = train.targets.copy()
    rows[3] = [5, -1, 0]
    save_csv(TaskDataset(train.inputs, rows), tmp_path / "train.csv")
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "c")]) == 1
    err = capsys.readouterr().err
    assert "task 0: target row [5.0, -1.0, 0.0] is not one-hot" in err
    assert not (tmp_path / "c/history/history.csv").exists()


def test_train_per_task_loss_list_scores_each_task_by_its_kind(tmp_path):
    # Task 0 regresses one real column, task 1 classifies labels 0-2: the
    # heads are (1, 3), and each last-epoch val_metric is its kind's metric.
    rng = np.random.default_rng(5)
    tasks, vals = [], []
    for t in range(2):
        paths = {}
        for split, n in (("train", 60), ("val", 30)):
            y = rng.standard_normal((n, 1)) if t == 0 else (np.arange(n) % 3)[:, None]
            data = TaskDataset(rng.standard_normal((n, 2)), y)
            paths[split] = str(tmp_path / f"task{t}_{split}.csv")
            save_csv(data, paths[split])
        tasks.append(paths)
        vals.append(load_csv(paths["val"]))
    cfg = {
        "seed": 3,
        "arch": {"hidden_widths": [6], "basis_count": 4},
        "train": {"epochs": 3, "batch_size": 16,
                  "loss": ["squared_error", "cross_entropy"]},
        "data": {"csv": tasks},
    }
    path, out = tmp_path / "config.json", tmp_path / "run"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 0
    model, _, _ = load_checkpoint(out / "checkpoints/model.npz")
    assert (model.head_dim(0), model.head_dim(1)) == (1, 3)
    header, rows = _read_csv(out / "history/history.csv")
    history = dict(zip(header, rows.T))
    last = history["epoch"] == history["epoch"].max()
    for t, metric in enumerate(("mse", "accuracy")):
        [logged] = history["val_metric"][last & (history["task_id"] == t)]
        assert logged == evaluate(model, vals[t], t, metric), (t, logged)


def test_train_loss_count_must_match_task_count(tmp_path, capsys):
    # With and without an explicit output_dim, the head dims are not
    # inferred from a loss list of the wrong length.
    for overrides in ({}, {"arch.output_dim": 1}):
        overrides["train.loss"] = ["squared_error"]
        cfg = write_config(tmp_path, overrides)
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "run")]
        assert cli.main(argv) == 1
        assert "error: got 1 loss kinds for 2 tasks" in capsys.readouterr().err


def test_train_summary_is_the_mean_over_the_last_epoch(tmp_path, capsys):
    overrides = {
        "arch.hidden_widths": [6, 5],
        "data.synthetic.task_count": 3,
        "data.synthetic.clusters": [0, 0, 1],
    }
    cfg, out = write_config(tmp_path, overrides), tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    line = capsys.readouterr().out.strip().split("\n")[-1]
    header, rows = _read_csv(out / "history/history.csv")
    history = dict(zip(header, rows.T))
    last = history["epoch"] == history["epoch"].max()
    # Two rows (one per layer) per task; the line averages over the tasks.
    losses = [history["train_loss"][last & (history["task_id"] == t)] for t in range(3)]
    assert all(v.size == 2 and v[0] == v[1] for v in losses)
    mean = np.mean([v[0] for v in losses])
    assert line == f"final epoch mean train loss: {mean:.6f} (3 tasks, 2 epochs)"


def test_train_heads_only_model_writes_history_and_summary(tmp_path, capsys):
    cfg, out = write_config(tmp_path, {"arch.hidden_widths": []}), tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    line = capsys.readouterr().out.strip().split("\n")[-1]
    # history.csv holds NaN cells, which the numeric CSV reader rejects.
    header, *lines = (out / "history/history.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), l.split(","))) for l in lines]
    assert [(r["epoch"], r["task_id"]) for r in rows] == [
        (e, t) for e in "01" for t in "01"
    ]
    assert {(r["layer_id"], r["mean_pairwise_distance"]) for r in rows} == {
        ("-1", "nan")
    }
    last = [float(r["train_loss"]) for r in rows if r["epoch"] == "1"]
    mean = np.mean(last)
    assert line == f"final epoch mean train loss: {mean:.6f} (2 tasks, 2 epochs)"


def test_analyze_refuses_a_model_without_activation_layers(tmp_path, capsys):
    cfg, out = write_config(tmp_path, {"arch.hidden_widths": []}), tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["analyze", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: model has no activation layers\n"
    assert sorted(p.name for p in out.iterdir()) == ["checkpoints", "history"]


def test_analyze_measures_what_training_measured(tmp_path):
    overrides = {
        "arch.hidden_widths": [6, 5],
        "train.epochs": 3,
        "train.reg": {"kind": "dis", "coefficient": 0.5},
    }
    cfg, out = write_config(tmp_path, overrides), tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    model, mixture, _ = load_checkpoint(out / "checkpoints/model.npz")
    for name in ("weights", "means", "sigmas"):
        assert np.array_equal(
            getattr(mixture, name), getattr(COMPARISON_MIXTURE, name)
        )
    header, rows = _read_csv(out / "history/history.csv")
    history = dict(zip(header, rows.T))
    last = history["epoch"] == history["epoch"].max()
    for l, matrix in enumerate(analysis.layer_distances(model, mixture)):
        trained = history["mean_pairwise_distance"][last & (history["layer_id"] == l)]
        assert trained.size == 2 and np.all(trained == mean_pairwise_distance(matrix))


def test_train_csv_only_config_uses_the_csv(tmp_path):
    # The default config's synthetic block must not shadow a CSV source.
    path = write_class_csvs(tmp_path, [0, 1, 2] * 20)
    cfg = json.loads(path.read_text(encoding="utf-8"))
    del cfg["data"]["synthetic"]
    path.write_text(json.dumps(cfg), encoding="utf-8")
    proc = run_cli("train", "--config", str(path), "--out", "run", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    model, _, _ = load_checkpoint(tmp_path / "run/checkpoints/model.npz")
    assert model.task_count == 1 and model.input_dim == 2
    assert model.head_dim(0) == 3
    proc = run_cli("gen-data", "--config", str(path), "--out", "gen", cwd=tmp_path)
    assert proc.returncode == 1 and "data.synthetic" in proc.stderr


def test_train_rejects_both_data_sources(tmp_path):
    path = write_class_csvs(tmp_path, [0, 1, 2] * 20)
    cfg = json.loads(path.read_text(encoding="utf-8"))
    cfg["data"]["synthetic"] = SMALL_CONFIG["data"]["synthetic"]
    path.write_text(json.dumps(cfg), encoding="utf-8")
    proc = run_cli("train", "--config", str(path), "--out", "run", cwd=tmp_path)
    assert proc.returncode == 1
    assert "data.synthetic" in proc.stderr and "data.csv" in proc.stderr
    # A config that clears the default synthetic block names both sources too.
    path.write_text(json.dumps({"data": {"synthetic": None}}), encoding="utf-8")
    args = cli.PARSER.parse_args(
        ["train", "--config", str(path), "--out", str(tmp_path)]
    )
    with pytest.raises(ValueError, match="config needs data.synthetic or data.csv"):
        cli.cmd_train(args)


def test_config_that_is_not_a_json_object_names_the_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    for text, kind in (("[1, 2]", "list"), ('"train"', "str"), ("null", "NoneType")):
        path.write_text(text, encoding="utf-8")
        argv = ["train", "--config", str(path), "--out", str(tmp_path / "run")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: config {path} must hold a JSON object, got {kind}\n"
    assert not (tmp_path / "run").exists()


def test_csv_task_entries_and_schema_are_checked_by_name(tmp_path, capsys):
    path = write_class_csvs(tmp_path, [0, 1, 2] * 20)
    cfg = json.loads(path.read_text(encoding="utf-8"))
    argv = ["train", "--config", str(path), "--out", str(tmp_path / "run")]
    entry = cfg["data"]["csv"][0]
    for tasks in ([{"val": entry["val"]}], ["task0.csv"]):
        path.write_text(json.dumps({**cfg, "data": {"csv": tasks}}), encoding="utf-8")
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "error: data.csv[0] has no train file\n"
    # A file name is a non-empty string: 1 used to open the process's stdout,
    # and 0, false and "" to train without that split.
    for value in (1, True, 0, False, ""):
        tasks = [{**entry, "val": value}]
        path.write_text(json.dumps({**cfg, "data": {"csv": tasks}}), encoding="utf-8")
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        message = f"data.csv[0].val must be a file name, got {value!r}"
        assert err == f"error: {message}\n"
    # The one schema is task 0's train file: a file with other columns, here
    # task 1's test file with 3 inputs against 2, is refused naming both.
    wide = tmp_path / "wide.csv"
    save_csv(TaskDataset(np.zeros((4, 3)), np.zeros((4, 1))), wide)
    tasks = [entry, {"train": entry["train"], "test": str(wide)}]
    path.write_text(json.dumps({**cfg, "data": {"csv": tasks}}), encoding="utf-8")
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {wide} has 3 input and 1 target columns, but {entry['train']} "
        "has 2 input and 1 target columns\n"
    )
    assert not (tmp_path / "run").exists()


def test_csv_block_without_schema_or_tasks_names_what_is_missing(tmp_path, capsys):
    """``data.csv`` is the task list itself: the old object form, with or
    without its ``tasks``, an empty list and a bare entry are refused."""
    path = write_class_csvs(tmp_path, [0, 1, 2] * 20)
    cfg = json.loads(path.read_text(encoding="utf-8"))
    tasks = cfg["data"]["csv"]
    argv = ["train", "--config", str(path), "--out", str(tmp_path / "run")]
    for csv_cfg in ({}, {"tasks": tasks}, [], tasks[0]):
        path.write_text(json.dumps({**cfg, "data": {"csv": csv_cfg}}), encoding="utf-8")
        assert cli.main(argv) == 1
        message = f"data.csv must be a non-empty list of tasks, got {csv_cfg!r}"
        assert capsys.readouterr().err == f"error: {message}\n"


# Edits to write_config's file and the error each must give.
BAD_OBJECTS = {
    "top_level_key": (
        {"learning_rate": 3e-3},
        "unknown config key 'learning_rate'; the top level takes out, seed, "
        "arch, train, data",
    ),
    "data_key": (
        {"data.synthetc": {"task_count": 2}},
        "unknown config key 'data.synthetc'; data takes synthetic, csv",
    ),
    "reg_key": (
        {"train.reg": {"kind": "dis", "coef": 0.1}},
        "unknown config key 'train.reg.coef'; train.reg takes kind, coefficient",
    ),
    "reg_string": (
        {"train.reg": "dis"}, "config train.reg must be a JSON object, got str"
    ),
    "data_list": ({"data": [1]}, "config data must be a JSON object, got list"),
    # data.csv is a list of task objects.
    "csv_list": ({"data": {"csv": [1]}}, "data.csv[0] has no train file"),
    "csv_key": (
        {"data": {"csv": {"tasks": [], "sep": ";"}}},
        "data.csv must be a non-empty list of tasks, got {'tasks': [], 'sep': ';'}",
    ),
    "task_entry_key": (
        {"data": {"csv": [{"train": "t", "tset": "s"}]}},
        "unknown config key 'data.csv[0].tset'; data.csv[0] takes train, val, test",
    ),
    "train_list": ({"train": [1]}, "config train must be a JSON object, got list"),
    "arch_list": ({"arch": [1]}, "config arch must be a JSON object, got list"),
    "synthetic_list": (
        {"data": {"synthetic": [1]}},
        "config data.synthetic must be a JSON object, got list",
    ),
}


@pytest.mark.parametrize("case", BAD_OBJECTS)
def test_config_objects_no_class_reads_are_checked_by_name(tmp_path, capsys, case):
    overrides, message = BAD_OBJECTS[case]
    cfg = write_config(tmp_path, overrides)
    argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run" / "checkpoints" / "model.npz").exists()
    # The flags that write into train.reg do not get there first.
    assert cli.main([*argv, "--reg", "dis", "--coef", "0.1"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("key", ["input_dim", "task_count"])
@pytest.mark.parametrize("change", [0, 1], ids=["data_value", "other_value"])
def test_the_data_fixes_input_dim_and_task_count(tmp_path, capsys, key, change):
    """``arch`` may not set the input width or the task count, not even to
    the data's value (3 inputs and 2 tasks in SMALL_CONFIG)."""
    value = SMALL_CONFIG["data"]["synthetic"][key] + change
    cfg = write_config(tmp_path, {f"arch.{key}": value})
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"got multiple values for keyword argument {key!r}" in err
    assert not out.exists()


# A config setting, a bad value for it and what the error must say.
BAD_REALS = {
    "lr_bool": (
        "train.learning_rate", True,
        "learning_rate must be a finite number in (0, inf), got True",
    ),
    "lr_str": (
        "train.learning_rate", "3e-3",
        "learning_rate must be a finite number in (0, inf), got '3e-3'",
    ),
    "relatedness_bool": (
        "data.synthetic.relatedness", True,
        "relatedness must be a finite number in [0, 1], got True",
    ),
    "coefficient_str": (
        "train.reg.coefficient", "0.1",
        "coefficient must be a finite number in [0, inf), got '0.1'",
    ),
    "basis_range_one": (
        "arch.basis_range", [1], "basis_range must be a list of 2 items, got [1]"
    ),
    "beta2": ("train.beta2", 0.999, "unexpected keyword argument 'beta2'"),
    "coefficient_without_kind": (
        "train.reg", {"kind": "none", "coefficient": 2.5},
        "coefficient 2.5 needs a regularizer kind: trace, cos or dis",
    ),
}


@pytest.mark.parametrize("case", BAD_REALS)
def test_train_config_reals_are_checked_by_name(tmp_path, capsys, case):
    where, value, message = BAD_REALS[case]
    cfg = write_config(tmp_path, {where: value})
    argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8"
)
README_JSON = re.findall(r"```json\n(.*?)```", README, re.DOTALL)
README_PYTHON = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
README_SH = re.findall(r"```sh\n(.*?)```", README, re.DOTALL)


def test_readme_taan_commands_parse():
    """Every ``taan`` line of README's ``sh`` blocks parses, comments
    stripped, so a documented flag the parser no longer takes fails here
    and not in a user's shell.  Nothing is run."""
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in README_SH
        for line in block.splitlines()
        if line.startswith("taan ")
    ]
    assert len(commands) >= 7
    for argv in commands:
        assert cli.PARSER.parse_args(argv).command == argv[0]


def test_readme_quick_start_runs_as_written(capsys):
    assert len(README_PYTHON) == 1
    exec(compile(README_PYTHON[0], "README.md", "exec"), {})
    scores, *matrix = capsys.readouterr().out.strip().split("\n")
    # Four test MSEs, then the 4 x 4 layer-0 distance matrix.
    scores = json.loads(scores)
    assert len(scores) == 4 and all(mse > 0.0 for mse in scores)
    assert len(matrix) == 4


def test_readme_has_json_examples():
    assert len(README_JSON) >= 2


def build_like_train(path):
    """What ``taan train`` builds from the config file at ``path`` before its
    first step, in its order, with one stand-in row per task in place of the
    data: no file the config names is read."""
    cfg = cli.load_config(SimpleNamespace(config=str(path)))
    if "csv" in cfg["data"]:
        # Stand-in sizes: the files, which fix them, are not read.
        dims, tasks = (1, 1), len(cli._csv_files(cfg["data"]["csv"]))
    else:
        spec = cli._synthetic_spec(cfg)
        dims, tasks = (spec.input_dim, spec.output_dim), spec.task_count
    config = cli._train_config(cfg)
    row = TaskDataset(np.zeros((1, dims[0])), np.zeros((1, dims[1])))
    arch = cli._architecture(cfg, [SplitDatasets(row, None, None)] * tasks, config)
    return build_model(arch, cfg["seed"])


@pytest.mark.parametrize("block", range(len(README_JSON)))
def test_readme_json_examples_build_what_train_builds(tmp_path, block):
    """Each README config builds as ``taan train`` builds it before its first
    step."""
    path = tmp_path / "config.json"
    path.write_text(README_JSON[block], encoding="utf-8")
    data = json.loads(README_JSON[block])["data"]
    if "csv" in data:
        assert build_like_train(path).task_count == len(data["csv"])
    else:
        assert build_like_train(path).task_count == data["synthetic"]["task_count"]


# The fuzz values, as JSON text.
FUZZ_VALUES = (
    "true", "2.5", "-1", "0", '"x"', "null", "[1]", "{}", "[]", '"1"', '"false"'
)
FILE_NAMES = {'"x"', '"1"', '"false"'}  # the fuzz values that are file names

# Every setting of a taan config and the fuzz values it takes.
FUZZ_LEAVES = {
    "out": FILE_NAMES,
    "seed": {"0"},
    "arch.hidden_widths": {"[1]", "[]"},
    "arch.output_dim": set(),
    "arch.basis_count": set(),
    "arch.basis_range": set(),
    "train.epochs": {"0"},
    "train.batch_size": set(),
    "train.learning_rate": {"2.5"},
    "train.seed": {"0"},
    "train.loss": set(),
    "train.reg.kind": set(),
    "train.reg.coefficient": {"2.5", "0"},
    "data.synthetic.task_count": set(),
    "data.synthetic.samples_per_task": set(),
    "data.synthetic.input_dim": set(),
    "data.synthetic.clusters": {"null"},
    "data.synthetic.relatedness": {"0"},
    "data.synthetic.noise": {"2.5", "0"},
    "data.synthetic.seed": {"0"},
    "data.synthetic.output_dim": set(),
    "data.synthetic.train_fraction": set(),
    "data.synthetic.val_fraction": set(),
    "data.synthetic.shared_inputs": {"true"},
    "data.csv[0].train": FILE_NAMES,
    "data.csv[0].val": FILE_NAMES | {"null"},
    "data.csv[0].test": FILE_NAMES | {"null"},
}


def fuzz_name(leaf):
    """What an error about ``leaf`` must name: a CSV task file's full path,
    else the field, as the class that reads it names it."""
    return leaf if leaf.startswith("data.csv[") else leaf.rsplit(".", 1)[-1]


def fuzz_pool(block):
    """The leaves fuzzed in README config ``block``: all but those of the
    data source it does not use."""
    data = json.loads(README_JSON[block])["data"]
    return [
        leaf for leaf in FUZZ_LEAVES
        if not leaf.startswith("data.") or re.split(r"[.\[]", leaf)[1] in data
    ]


def fuzz_verdict(tmp_path, block, edits):
    """Build README config ``block`` with ``edits`` (leaf -> JSON text). None
    when the case keeps the rule: it builds when each value is one its leaf
    takes, and else raises ValueError naming a leaf whose value is not; a
    line saying how it broke the rule otherwise."""
    cfg = json.loads(README_JSON[block])
    for leaf, text in edits.items():
        node = cfg
        *parents, last = re.findall(r"[^.\[\]]+", leaf)
        for key in parents:
            node = node[int(key)] if key.isdigit() else node.setdefault(key, {})
        node[last] = json.loads(text)
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    bad = [fuzz_name(leaf) for leaf, v in edits.items() if v not in FUZZ_LEAVES[leaf]]
    try:
        build_like_train(path)
    except Exception as exc:  # only a ValueError naming a bad leaf keeps the rule
        if isinstance(exc, ValueError) and any(name in str(exc) for name in bad):
            return None
        return f"config {block} with {edits}: {exc!r}"
    return f"config {block} with {edits}: built" if bad else None


def test_config_fuzzer_every_setting_builds_or_names_itself(tmp_path):
    """Every fuzz value at every leaf of each README config that has it,
    then seeded cases that set two to four leaves of one config at once."""
    pools = [fuzz_pool(block) for block in range(len(README_JSON))]
    broken = [
        fuzz_verdict(tmp_path, block, {leaf: text})
        for block, pool in enumerate(pools)
        for leaf in pool
        for text in FUZZ_VALUES
    ]
    rng = np.random.default_rng(20191)
    for _ in range(200):
        block = int(rng.integers(len(pools)))
        leaves = rng.choice(pools[block], size=rng.integers(2, 5), replace=False)
        values = rng.choice(FUZZ_VALUES, size=len(leaves))
        edits = {str(leaf): str(text) for leaf, text in zip(leaves, values)}
        broken.append(fuzz_verdict(tmp_path, block, edits))
    assert [line for line in broken if line] == []


def test_config_fuzzer_a_coefficient_without_a_kind_takes_only_0(tmp_path):
    """A rule across two leaves, which FUZZ_LEAVES cannot state: beside a
    kind ``train.reg.coefficient`` takes 2.5 too, but with
    ``train.reg.kind`` removed from each README config it builds only at 0
    and otherwise fails naming ``coefficient``."""
    path = tmp_path / "fuzz.json"
    broken = []
    for block, text in enumerate(README_JSON):
        for value in FUZZ_VALUES:
            cfg = json.loads(text)
            reg = cfg.setdefault("train", {}).setdefault("reg", {})
            reg.pop("kind", None)
            reg["coefficient"] = json.loads(value)
            path.write_text(json.dumps(cfg), encoding="utf-8")
            try:
                build_like_train(path)
            except ValueError as exc:
                if value == "0" or "coefficient" not in str(exc):
                    broken.append(f"config {block} with {value}: {exc!r}")
            else:
                if value != "0":
                    broken.append(f"config {block} with {value}: built")
    assert broken == []


def task0(path):
    """A config path with every list index replaced by 0."""
    return re.sub(r"\[\d+\]", "[0]", path)


def config_leaves(node, path=""):
    """The dotted path of every leaf of a JSON config; a list of objects is
    walked into, any other list is a leaf."""
    if isinstance(node, dict):
        items = [(f"{path}.{k}" if path else k, v) for k, v in node.items()]
    elif isinstance(node, list) and node and all(isinstance(v, dict) for v in node):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(node)]
    else:
        return [path]
    return [leaf for sub, v in items for leaf in config_leaves(v, sub)]


def test_config_fuzzer_covers_every_setting(tmp_path, monkeypatch):
    """FUZZ_LEAVES is exactly the settings of the config classes and of the
    objects the CLI checks itself, and holds every leaf of README's configs,
    so a new setting fails here until it has its fuzz cases."""
    # The CLI fills arch's input_dim and task_count from the data.
    fixed = ("input_dim", "task_count")
    arch = [p for p in inspect.signature(ArchitectureSpec).parameters if p not in fixed]
    objects = {
        "arch": arch,
        "train": [f.name for f in dataclasses.fields(TrainConfig)],
        "train.reg": [f.name for f in dataclasses.fields(RegConfig)],
        "data.synthetic": [f.name for f in dataclasses.fields(SyntheticSpec)],
    }
    check = cli._keys

    def spy(value, name, keys=None):
        if keys is not None:
            objects[task0(name)] = list(keys)
        return check(value, name, keys)

    monkeypatch.setattr(cli, "_keys", spy)
    readme = set()
    for block in README_JSON:
        path = tmp_path / "config.json"
        path.write_text(block, encoding="utf-8")
        build_like_train(path)
        readme.update(task0(leaf) for leaf in config_leaves(json.loads(block)))
    paths = {f"{o}.{key}" if o else key for o, keys in objects.items() for key in keys}
    # A path that names an object, or the list of the CSV task objects, is
    # not a setting.
    settings = {
        p for p in paths
        if not any(o == p or o.startswith((p + ".", p + "[")) for o in objects)
    }
    assert set(FUZZ_LEAVES) == settings
    assert readme <= set(FUZZ_LEAVES)


def test_the_cli_defaults_only_what_no_class_defaults():
    """Each default has one owner: ``cli.DEFAULT_CONFIG`` sets no leaf that
    the class reading its object defaults (as the class's signature shows),
    so a config means the same whether it writes that value out or not."""
    classes = {
        "arch": ArchitectureSpec,
        "train": TrainConfig,
        "train.reg": RegConfig,
        "data.synthetic": SyntheticSpec,
    }
    defaulted = {
        name: {
            p.name for p in inspect.signature(cls).parameters.values()
            if p.default is not inspect.Parameter.empty
        }
        for name, cls in classes.items()
    }
    restated = [
        leaf for leaf in config_leaves(cli.DEFAULT_CONFIG)
        if leaf.rpartition(".")[2] in defaulted.get(leaf.rpartition(".")[0], ())
    ]
    assert restated == []
    assert defaulted["train.reg"] == {"kind", "coefficient"}


def test_a_data_block_is_taken_as_written(tmp_path):
    """No config, an empty data block, an empty synthetic block and one that
    writes out SyntheticSpec's task count all generate SyntheticSpec's
    benchmark; an empty synthetic block is a data source of its own."""
    path = tmp_path / "config.json"

    def load(data):
        path.write_text(json.dumps({"data": data}), encoding="utf-8")
        return cli.load_config(SimpleNamespace(config=str(path)))

    specs = [cli._synthetic_spec(cli.load_config(SimpleNamespace(config=None)))]
    for data in ({}, {"synthetic": {}}, {"synthetic": {"task_count": 8}}):
        specs.append(cli._synthetic_spec(load(data)))
    assert specs == [SyntheticSpec()] * 4
    cfg = load({"synthetic": {}, "csv": [{"train": "t.csv"}]})
    with pytest.raises(ValueError, match="config sets both data.synthetic and data.csv"):
        cli._load_datasets(cfg)


def test_a_coefficient_without_a_regularizer_is_refused(tmp_path, capsys):
    # It used to train unregularized, write reg_value 0 and exit 0.
    out = tmp_path / "run"
    argv = ["train", "--config", str(write_config(tmp_path)), "--out", str(out)]
    assert cli.main([*argv, "--coef", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err == "error: coefficient 0.5 needs a regularizer kind: trace, cos or dis\n"
    assert not out.exists()


def test_train_seed_flag_equals_the_config_seed(tmp_path):
    # In process: --seed 5 over a seed-3 config trains what "seed": 5 does.
    flagged = write_config(tmp_path)
    seeded = tmp_path / "seed5.json"
    seeded.write_text(json.dumps({**SMALL_CONFIG, "seed": 5}), encoding="utf-8")
    runs = {
        "flag": [str(flagged), "--seed", "5"],
        "file": [str(seeded)],
        "seed3": [str(flagged)],
    }
    outputs = {}
    for name, config in runs.items():
        out = tmp_path / name
        assert cli.main(["train", "--config", *config, "--out", str(out)]) == 0
        with zipfile.ZipFile(out / "checkpoints/model.npz") as zf:
            members = {m: zf.read(m) for m in zf.namelist()}
        outputs[name] = ((out / "history/history.csv").read_bytes(), members)
    assert outputs["flag"] == outputs["file"]
    assert outputs["flag"] != outputs["seed3"]


def test_train_divergence_exits_1_without_checkpoint(tmp_path):
    path = write_diverging_config(tmp_path)
    proc = run_cli("train", "--config", str(path), "--out", "run", cwd=tmp_path)
    assert proc.returncode == 1
    assert "epoch 0, task 0" in proc.stderr
    assert not (tmp_path / "run").exists()


def test_train_task_count_without_clusters_uses_one_cluster(tmp_path):
    # A synthetic block without clusters gets SyntheticSpec's single
    # cluster, whatever its task count.
    cfg = {
        "train": {"epochs": 2},
        "data": {"synthetic": {"task_count": 4, "samples_per_task": 50}},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    proc = run_cli("train", "--config", str(path), "--out", "run", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    model, _, _ = load_checkpoint(tmp_path / "run/checkpoints/model.npz")
    assert model.task_count == 4


def test_every_cli_csv_reads_back_bitwise(tmp_path, monkeypatch):
    """Each CSV the CLI writes reads back through the one reader with the
    header and the exact values that were written.  Runs in-process, with
    spies recording what each writer was given."""
    written = {"data": [], "history": [], "matrices": [], "bounds": []}

    def spy(name, record):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            record(args, result)
            return result

        monkeypatch.setattr(cli, name, wrapper)

    spy("save_csv", lambda a, _: written["data"].append(a))
    spy("train", lambda a, r: written["history"].append(r[1]))
    spy("export_heatmap", lambda a, _: written["matrices"].append(a))
    spy("bound_report_csv", lambda a, _: written["bounds"].extend(a[0]))
    cfg, out = str(write_config(tmp_path)), str(tmp_path / "run")
    for command in ("gen-data", "train"):
        assert cli.main([command, "--config", cfg, "--out", out]) == 0
    for argv in (["analyze"], ["check", "bounds"]):
        assert cli.main([*argv, "--out", out]) == 0

    def assert_reads_back(path, header, values):
        got_header, got = _read_csv(path)
        assert got_header == list(header)
        assert got.tobytes() == np.asarray(values, dtype=np.float64).tobytes()

    assert len(written["data"]) == 6
    for part, path in written["data"]:
        values = np.hstack([part.inputs, part.targets])
        assert_reads_back(path, ("x0", "x1", "x2", "y0"), values)
    (history,) = written["history"]
    path = tmp_path / "run/history/history.csv"
    assert_reads_back(path, history.COLUMNS, history.rows)
    ((matrix, path, _),) = [a for a in written["matrices"] if a[2] == "csv"]
    assert_reads_back(path, ("task0", "task1"), matrix)
    # The side column is text, which the numeric reader refuses by line; the
    # other columns are compared cell by cell.
    path = tmp_path / "run/reports/bounds.csv"
    with pytest.raises(ValueError, match="line 2: could not convert string"):
        _read_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "task1,task2,side,mc_mean,stderr,bound,passed"
    expected = [
        (*r.tasks, side, left, se, right, float(ok))
        for r in written["bounds"]
        for side, left, se, right, ok in (
            ("inner", r.inner_left, r.inner_se, r.inner_right, r.inner_pass),
            ("dist", r.dist_left, r.dist_se, r.dist_right, r.dist_pass),
        )
    ]
    assert len(lines) == 1 + len(expected) == 5
    for line, row in zip(lines[1:], expected):
        cells = line.split(",")
        assert cells[2] == row[2]
        got = np.array([float(c) for c in cells[:2] + cells[3:]])
        assert got.tobytes() == np.array(row[:2] + row[3:], dtype=np.float64).tobytes()
