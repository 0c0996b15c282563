"""End-to-end command-line runs, in subprocesses except where a test spies
on what the CLI hands its writers."""

import json
import re
import subprocess
import sys
import zipfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import taan.cli as cli
from conftest import child_env
from taan.data import (
    CsvSchema,
    SplitDatasets,
    SyntheticSpec,
    TaskDataset,
    _read_csv,
    load_csv,
    save_csv,
)
from taan.analysis import check_l1_bounds, load_heatmap_csv
from taan.network import (
    ArchitectureSpec,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from taan.training import TrainConfig

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
    ds = load_csv(data_dir / "task0_train.csv", CsvSchema(3, 1))
    assert ds.inputs.shape == (24, 3)
    # The same seed regenerates the files byte for byte.
    proc2 = run_cli("gen-data", "--config", str(cfg), "--out", "run2", cwd=tmp_path)
    assert proc2.returncode == 0, proc2.stderr
    for name in names:
        assert (tmp_path / "run1" / "data" / name).read_bytes() == (
            tmp_path / "run2" / "data" / name
        ).read_bytes()


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


def test_check_bounds_passes_and_writes_csv(tmp_path):
    proc = run_cli("check", "bounds", "--seed", "1", "--out", "bc", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "bounds: pass" in proc.stdout
    text = (tmp_path / "bc/reports/bounds.csv").read_text(encoding="utf-8")
    assert text.startswith("task1,task2,side,")


def test_check_bounds_seed_415_fails_by_sampling_noise_only(monkeypatch, capsys):
    """At c1 = 1 the Monte-Carlo sides estimate the bounds exactly, so the
    one-sided 3-SE test fails about 0.13% of live sides by chance; seed 415
    is one such FAIL.  Its failing side is within 5 SE of the closed form,
    so the FAIL is sampling noise, not a wrong closed form."""
    reports = []

    def record(*args, **kwargs):
        reports.append(check_l1_bounds(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "check_l1_bounds", record)
    assert cli.check_bounds(415) == 1
    assert "bounds: FAIL" in capsys.readouterr().out
    sides = [
        (r.inner_left, r.inner_se, r.inner_right, r.inner_pass) for r in reports
    ] + [(r.dist_left, r.dist_se, r.dist_right, r.dist_pass) for r in reports]
    failing = [side for side in sides if not side[3]]
    assert len(failing) == 1
    for left, se, right, _ in failing:
        assert abs(left - right) <= 5.0 * se


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


def write_class_csvs(tmp_path, labels):
    """One task's train/val CSVs (columns x0, x1, y0) with the given labels;
    returns the config path for cross-entropy training on them."""
    rng = np.random.default_rng(4)
    paths = {}
    for split in ("train", "val"):
        x = rng.standard_normal((len(labels), 2))
        path = tmp_path / f"{split}.csv"
        save_csv(TaskDataset(x, np.array(labels, float)[:, None], 0, split), path)
        paths[split] = str(path)
    cfg = {
        "seed": 2,
        "arch": {"hidden_widths": [6], "basis_count": 4},
        "train": {"epochs": 2, "batch_size": 16, "loss": "cross_entropy"},
        "data": {
            "synthetic": None,
            "csv": {
                "schema": {"n_inputs": 2, "n_targets": 1},
                "tasks": [paths],
            }
        },
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
    val = load_csv(path, CsvSchema(2, 1), 0, "val")
    targets = val.targets.copy()
    targets[7] = 5.0
    save_csv(TaskDataset(val.inputs, targets, 0, "val"), path)
    out = str(tmp_path / "run")
    assert cli.main(["train", "--config", str(cfg), "--out", out]) == 1
    err = capsys.readouterr().err
    assert "task 0: labels outside [0, 3)" in err
    assert not (tmp_path / "run/history/history.csv").exists()


def test_train_csv_one_hot_rows_match_labels_and_must_be_one_hot(tmp_path, capsys):
    # A CSV task whose n_targets equals its class count holds one-hot rows:
    # valid rows train exactly like the label column they encode.
    path = write_class_csvs(tmp_path, [0, 1, 2] * 20)
    runs = {}
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    cfg = json.loads(path.read_text(encoding="utf-8"))
    cfg["data"]["csv"]["schema"]["n_targets"] = 3
    path.write_text(json.dumps(cfg), encoding="utf-8")
    for split in ("train", "val"):
        part = load_csv(tmp_path / f"{split}.csv", CsvSchema(2, 1), 0, split)
        onehot = np.eye(3)[part.targets[:, 0].astype(int)]
        save_csv(TaskDataset(part.inputs, onehot, 0, split), tmp_path / f"{split}.csv")
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
    for run in ("a", "b"):
        runs[run] = (tmp_path / run / "history/history.csv").read_bytes()
    assert runs["a"] == runs["b"]
    capsys.readouterr()
    train = load_csv(tmp_path / "train.csv", CsvSchema(2, 3), 0, "train")
    rows = train.targets.copy()
    rows[3] = [5, -1, 0]
    save_csv(TaskDataset(train.inputs, rows, 0, "train"), tmp_path / "train.csv")
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "c")]) == 1
    err = capsys.readouterr().err
    assert "task 0: target row [5.0, -1.0, 0.0] is not one-hot" in err
    assert not (tmp_path / "c/history/history.csv").exists()


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
    csv_cfg = cfg["data"]["csv"]
    for tasks in ([{"val": csv_cfg["tasks"][0]["val"]}], ["task0.csv"]):
        edited = {**cfg, "data": {"csv": {**csv_cfg, "tasks": tasks}}}
        path.write_text(json.dumps(edited), encoding="utf-8")
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "error: data.csv.tasks[0] has no train file\n"
    # A JSON schema size goes through the one whole-number rule.
    schema = {"n_inputs": 2.5, "n_targets": 1}
    edited = {**cfg, "data": {"csv": {**csv_cfg, "schema": schema}}}
    path.write_text(json.dumps(edited), encoding="utf-8")
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: n_inputs must be a whole number, got 2.5\n"


def test_csv_block_without_schema_or_tasks_names_what_is_missing(tmp_path, capsys):
    path = write_class_csvs(tmp_path, [0, 1, 2] * 20)
    cfg = json.loads(path.read_text(encoding="utf-8"))
    schema, tasks = cfg["data"]["csv"]["schema"], cfg["data"]["csv"]["tasks"]
    argv = ["train", "--config", str(path), "--out", str(tmp_path / "run")]
    no_schema = "data.csv needs a schema object"
    no_tasks = "data.csv needs a non-empty tasks list"
    for csv_cfg, message in (
        ({"tasks": tasks}, no_schema),
        ({"schema": [2, 1], "tasks": tasks}, no_schema),
        ({"schema": schema}, no_tasks),
        ({"schema": schema, "tasks": []}, no_tasks),
        ({"schema": schema, "tasks": tasks[0]}, no_tasks),
    ):
        edited = {**cfg, "data": {"csv": csv_cfg}}
        path.write_text(json.dumps(edited), encoding="utf-8")
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


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
        "arch.basis_range", [1], "basis_range must be two numbers (lo, hi), got (1,)"
    ),
    "beta2": ("train.beta2", 0.999, "unexpected keyword argument 'beta2'"),
}


@pytest.mark.parametrize("case", BAD_REALS)
def test_train_config_reals_are_checked_by_name(tmp_path, capsys, case):
    where, value, message = BAD_REALS[case]
    cfg = write_config(tmp_path, {where: value})
    argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


README_JSON = re.findall(
    r"```json\n(.*?)```",
    (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8"),
    re.DOTALL,
)


def test_readme_has_json_examples():
    assert len(README_JSON) >= 2


@pytest.mark.parametrize("block", range(len(README_JSON)))
def test_readme_json_examples_build_what_train_builds(tmp_path, block):
    """Each README config goes through what ``taan train`` builds before its
    first step, with one stand-in row per task in place of the data."""
    path = tmp_path / "config.json"
    path.write_text(README_JSON[block], encoding="utf-8")
    cfg = cli.load_config(SimpleNamespace(config=str(path)))
    config = cli._train_config(cfg)
    if "csv" in cfg["data"]:
        schema = CsvSchema(**cfg["data"]["csv"]["schema"])
        dims = (schema.n_inputs, schema.n_targets)
        tasks = len(cfg["data"]["csv"]["tasks"])
    else:
        spec = cli._synthetic_spec(cfg)
        dims, tasks = (spec.input_dim, spec.output_dim), spec.task_count
    row = TaskDataset(np.zeros((1, dims[0])), np.zeros((1, dims[1])), 0, "train")
    arch = cli._architecture(cfg, [SplitDatasets(row, None, None)] * tasks, config)
    assert arch.task_count == tasks


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
    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 2))
    csv = tmp_path / "train.csv"
    save_csv(TaskDataset(x, np.full((30, 1), 1e200), 0, "train"), csv)
    cfg = {
        "arch": {"hidden_widths": [4], "basis_count": 4},
        "train": {"epochs": 2, "batch_size": 16},
        "data": {
            "csv": {
                "schema": {"n_inputs": 2, "n_targets": 1},
                "tasks": [{"train": str(csv)}],
            }
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    proc = run_cli("train", "--config", str(path), "--out", "run", cwd=tmp_path)
    assert proc.returncode == 1
    assert "epoch 0, task 0" in proc.stderr
    assert not list((tmp_path / "run/checkpoints").iterdir())
    assert not (tmp_path / "run/history/history.csv").exists()


def test_train_task_count_without_clusters_uses_one_cluster(tmp_path):
    # The CLI's default clusters are for its default 8 tasks; a file that
    # sets only task_count gets SyntheticSpec's single cluster.
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
    for argv in (("gen-data",), ("train",), ("analyze",)):
        assert cli.main([*argv, "--config", cfg, "--out", out]) == 0
    assert cli.main(["check", "bounds", "--out", out]) == 0

    def assert_reads_back(path, header, values):
        got_header, got = _read_csv(path)
        assert got_header == list(header)
        assert got.tobytes() == np.asarray(values, dtype=np.float64).tobytes()

    assert len(written["data"]) == 6
    for part, path in written["data"]:
        values = np.hstack([part.inputs, part.targets])
        assert_reads_back(path, CsvSchema(3, 1).header(), values)
    (history,) = written["history"]
    path = tmp_path / "run/history/history.csv"
    assert_reads_back(path, history.COLUMNS, history.rows)
    ((report, path, _),) = [a for a in written["matrices"] if a[2] == "csv"]
    assert_reads_back(path, report.labels, report.matrix)
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
