"""The benchmark harness's self-test, run as a tier-1 test: the benchmark
imports names from the package (``evaluate``, ``load_checkpoint``,
``GramCache``, ``_backend.BACKEND`` and more), so deleting one of them fails
here rather than in every benchmark run.  Also the kernel table's imports,
as README runs it: from a checkout, without PYTHONPATH, and the output
identity check, with the checkout as both trees."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    # run.py imports the package from its own checkout's src/ and writes only
    # under the git-ignored .perfbench/.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-test"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_kernel_table_imports_the_package_from_its_checkout(tmp_path):
    # main() sits behind __main__, so run_path only imports the script.
    script = ROOT / "benchmarks" / "bench_kernels.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", f"import runpy; runpy.run_path({str(script)!r})"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_identity_check_finds_the_checkout_identical_to_itself(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 3,
        "arch": {"hidden_widths": [6], "basis_count": 4},
        "train": {"epochs": 2, "batch_size": 16},
        "data": {"synthetic": {"task_count": 2, "samples_per_task": 40}},
    }), encoding="utf-8")
    script = ROOT / "benchmarks" / "identity.py"
    proc = subprocess.run(
        [sys.executable, str(script), str(ROOT), str(ROOT), str(config)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    rows = [line.split() for line in proc.stdout.splitlines()[1:-1]]
    assert {row[0] for row in rows} == {"same"}
    assert {row[-1] for row in rows} == {
        *(f"config0/data/task{t}_{split}.csv" for t in (0, 1)
          for split in ("train", "val", "test")),
        "config0/checkpoints/model.npz",
        "config0/history/history.csv",
        "config0/matrices/layer0.csv",
        "config0/matrices/layer0.pgm",
        "config0/reports/analysis.txt",
        "bounds/reports/bounds.csv",
        "stdout/00-gen-data",
        "stdout/01-train",
        "stdout/02-analyze",
        "stdout/03-check-bounds",
        "stdout/04-check-gradients",
        "stdout/05-check-moments",
    }
    assert proc.stdout.endswith("18 files, 0 differ\n")


def test_identity_check_counts_changed_and_missing_files(capsys):
    spec = importlib.util.spec_from_file_location(
        "identity", ROOT / "benchmarks" / "identity.py"
    )
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    parent, change = {"a": "1", "b": "2"}, {"a": "1", "b": "3", "c": "4"}
    lines, differ = identity.compare(parent, change)
    assert differ == 2
    assert [line.split() for line in lines] == [
        ["same", "1", "1", "a"], ["DIFF", "2", "3", "b"], ["DIFF", "-", "4", "c"]
    ]
    # Two trees and at least one config, and no flags.
    for argv in (["tree", "tree"], ["-h"], ["tree", "tree", "--seed"]):
        assert identity.main(argv) == 2
        assert capsys.readouterr().err.startswith("usage: ")
