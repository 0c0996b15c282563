"""The benchmark harness's self-test, run as a tier-1 test: the benchmark
imports names from the package (``evaluate``, ``load_checkpoint``,
``GramCache``, ``_backend.BACKEND`` and more), so deleting one of them fails
here rather than in every benchmark run.  Also the kernel table's imports,
as README runs it: from a checkout, without PYTHONPATH."""

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
