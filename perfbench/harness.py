"""Runs of run.py in child processes: the report and the self-test."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 900

WORKLOAD_NAMES = ("mtl_sweep", "wide_deep", "geometry")

# End-to-end metrics by the names users know them, per workload; BENCHMARK.json
# carries their workload-neutral forms (op_ms_cal, workload_s_cal, ...).
NAMED = {
    "mtl_sweep": ("setup_s", "train_step_ms", "test_mse", "peak_rss_mb"),
    "wide_deep": ("setup_s", "train_step_ms", "test_mse", "peak_rss_mb"),
    "geometry": (
        "setup_s",
        "analyze_ms_p50",
        "analyze_ms_p90",
        "mc_samples_per_s",
        "peak_rss_mb",
    ),
}


def result_path(workload, seed, trace, smoke):
    suffix = "-smoke" if smoke else ""
    return OUT / "results" / f"{workload}-seed{seed}-trace{trace}{suffix}.json"


def run_child(workload, seed, seconds, trace, smoke=False, cwd=ROOT, script=None):
    """Run one benchmark process; returns (returncode, last-line JSON, result)."""
    cmd = [
        sys.executable,
        str(script or HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(
        cmd, cwd=cwd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    final = None
    if proc.returncode == 0 and lines:
        final = json.loads(lines[-1])
    path = result_path(workload, seed, trace, smoke)
    result = None
    if final is not None and path.is_file():
        result = json.loads(path.read_text(encoding="utf-8"))
    return proc.returncode, final, result, proc


def report(seconds, seeds):
    """Every workload on each seed, untraced, as one table."""
    rows = []
    env = None
    for workload in WORKLOAD_NAMES:
        for seed in seeds:
            rc, final, result, proc = run_child(workload, seed, seconds, 0)
            if result is None:
                print(f"{workload} seed {seed}: run failed (exit {rc})")
                print(proc.stderr.strip())
                return 1
            env = result["env"]
            for name in NAMED[workload]:
                rows.append((workload, seed, name, result["named"].get(name)))
            rows.append(
                (
                    workload,
                    seed,
                    "fail_ratio",
                    {
                        "value": result["fail_ratio"],
                        "unit": "ratio",
                        "n": final["attempted"],
                    },
                )
            )
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "seed"))
    print(f"seeds: {seeds[0]} (default), {seeds[1]} (held out)")
    print(f"{'workload':<10} {'seed':>5} {'metric':<17} {'value':>12} {'unit':<5} samples")
    for workload, seed, name, m in rows:
        if m is None or "dropped" in m:
            reason = "missing" if m is None else m["dropped"]
            print(f"{workload:<10} {seed:>5} {name:<17} {'-':>12} {'':<5} dropped: {reason}")
            continue
        print(
            f"{workload:<10} {seed:>5} {name:<17} {m['value']:>12.6g} "
            f"{m['unit']:<5} n={m['n']}"
        )
    print("no wait-time metrics: one caller, single-threaded program")
    return 0


def _check(results, label, ok, detail=""):
    results.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {label}{': ' + detail if detail and not ok else ''}")


def _emitted(final, defs):
    got = {k: v.get("unit") for k, v in final["metrics"].items()}
    want = {m["name"]: m["unit"] for m in defs}
    ok = got == want and all(
        isinstance(v.get("value"), (int, float)) for v in final["metrics"].values()
    )
    return ok, f"got {sorted(set(got) ^ set(want))} differing"


def _counts(final):
    return {
        k: v["value"]
        for k, v in final["metrics"].items()
        if k.endswith((".calls", ".elems", ".errors"))
    }


def self_test(spec):
    """Tiny-size runs of every workload, checking the harness itself."""
    results = []
    for workload in WORKLOAD_NAMES:
        rc, final, result, proc = run_child(workload, 0, 1, 0, smoke=True)
        _check(results, f"{workload}: untraced run succeeds", result is not None,
               proc.stderr.strip()[-300:])
        if result is None:
            continue
        _check(results, f"{workload}: result has exactly the four keys",
               set(final) == {"correct", "attempted", "failed", "metrics"})
        _check(results, f"{workload}: outputs correct",
               final["correct"] and final["failed"] == 0 and final["attempted"] >= 1,
               "; ".join(result["failures"][:3]))
        ok, detail = _emitted(final, spec["end_to_end"])
        _check(results, f"{workload}: every end-to-end metric with its unit", ok, detail)
        missing = [
            name for name in NAMED[workload]
            if not (
                name in result["named"]
                and (
                    "unit" in result["named"][name]
                    or result["named"][name].get("dropped")
                )
            )
        ]
        _check(results, f"{workload}: named metrics emitted or dropped with a reason",
               not missing and "fail_ratio" in result, f"missing {missing}")
        traced = []
        for _ in range(2):
            rc, final, result, proc = run_child(workload, 0, 1, 1, smoke=True)
            _check(results, f"{workload}: traced run succeeds", result is not None,
                   proc.stderr.strip()[-300:])
            if result is None:
                break
            traced.append(final)
            info = result["trace_info"]
            _check(results, f"{workload}: wrapped attributes restored to the originals",
                   info["changed_attributes"] == [])
            _check(results, f"{workload}: self times >= 0, self + children = duration",
                   info["span_problems"] == [])
            ok, detail = _emitted(final, spec["per_layer"])
            _check(results, f"{workload}: every per-layer metric with its unit", ok, detail)
        if len(traced) == 2:
            _check(results, f"{workload}: calls/elems repeat exactly between traced runs",
                   _counts(traced[0]) == _counts(traced[1]))
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, final, _result, _proc = run_child(
        WORKLOAD_NAMES[0], 0, 1, 0, smoke=True, cwd=bare,
        script=bare / "perfbench" / "run.py",
    )
    _check(results, "without the package source: non-zero exit, no result",
           rc != 0 and final is None)
    shutil.rmtree(bare, ignore_errors=True)
    passed = all(results)
    print(f"self-test: {sum(results)}/{len(results)} checks passed")
    return 0 if passed else 1
