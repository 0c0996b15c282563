"""The benchmark harness's self-test, run as a tier-1 test: the benchmark
imports names from the package (``evaluate``, ``load_checkpoint``,
``GramCache``, ``_backend.BACKEND`` and more), so deleting one of them fails
here rather than in every benchmark run."""

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
