"""taan benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds 25 --trace 0|1
    python3 perfbench/run.py --report      # every workload, two seeds
    python3 perfbench/run.py --self-test   # tiny sizes, checks the harness

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory and nowhere else.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json untraced, its per-layer
metrics with ``--trace 1``.  Everything a run measured, with the machine
facts, is also written to ``.perfbench/results/``.
"""

import time

_T0 = time.perf_counter()  # set-up time starts before numpy and taan load

import argparse
import ctypes
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import harness
from harness import HERE, OUT, ROOT

SRC = ROOT / "src"
DEFAULT_SEED = 0
# Not used while the benchmark was written; later claims are checked on it.
HELD_OUT_SEED = 7919
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150
WAIT_NOTE = (
    "no wait-time metrics: one caller, a single-threaded program (at most the "
    "BLAS thread pool), nothing queues"
)


@dataclass
class Context:
    seed: int
    seconds: int
    smoke: bool
    workdir: Path


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "taan" / "__init__.py").is_file():
        fail(f"no taan package under {SRC.relative_to(ROOT)}/; run from a checkout")
    sys.path.insert(0, str(SRC))
    import taan

    if Path(taan.__file__).resolve().parent != (SRC / "taan").resolve():
        fail(f"imported taan from {taan.__file__}, not from the checkout")
    return taan


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    return json.loads(path.read_text(encoding="utf-8"))


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment(seed):
    import numpy
    import scipy
    from taan import _backend

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "taan_backend": _backend.BACKEND,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def workdir_for(args, suffix=""):
    path = OUT / "work" / f"{args.workload}-s{args.seed}-t{args.trace}{suffix}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_setup_seconds(args):
    """Set-up time of a fresh process doing only this run's set-up."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--setup-only",
    ]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def per_layer_value(name, stats, tracer, overhead_s):
    """Resolve a per-layer metric name against the traced run."""
    if name == "trace.overhead_s":
        return overhead_s
    parts = name.split(".")
    if len(parts) == 2 and parts[1] == "errors":
        return tracer.errors[parts[0]]
    *span, stat = parts
    span = ".".join(span)
    if span == "moments":
        rows = [v for k, v in stats.items() if k.startswith("moments.")]
    else:
        rows = [stats[span]] if span in stats else []
    if stat == "ns_per_elem":
        elems = sum(r["elems"] for r in rows)
        return sum(r["s"] for r in rows) * 1e9 / elems if elems else 0.0
    return sum(r[stat] for r in rows)


def print_named(named, attempted, failed, setup):
    rows = [("setup_s", setup)] + list(named.items())
    for key, m in rows:
        if "dropped" in m:
            print(f"{key:<18} dropped: {m['dropped']}")
            continue
        detail = f"n={m['n']}"
        if "p25" in m:
            detail += f", p25 {m['p25']:.6g}, p75 {m['p75']:.6g}"
        for extra in ("steps", "samples"):
            if extra in m:
                detail += f", {extra}={m[extra]}"
        print(f"{key:<18} {m['value']:.6g} {m['unit']}  ({detail})")
    ratio = failed / attempted if attempted else float("nan")
    print(f"{'fail_ratio':<18} {ratio:.6g}  ({failed} failed of {attempted})")
    print(WAIT_NOTE)


def run_workload(args, spec):
    from workloads import WORKLOADS

    import tracer as tracing

    workload = WORKLOADS[args.workload]
    workdir = workdir_for(args, "-setup" if args.setup_only else "")
    try:
        ctx = Context(args.seed, args.seconds, args.smoke, workdir)
        if args.setup_only:
            workload.prepare(ctx)
            print(json.dumps({"setup_s": time.perf_counter() - _T0}))
            return 0
        if args.trace:
            return traced_run(args, spec, workload, ctx, tracing)
        plan = workload.prepare(ctx)
        setup_s = time.perf_counter() - _T0
        ref = workload.reference()
        ops = workload.run(plan, ref)
        rss = peak_rss_mb()
        ref.calibrate()
        workload.verify(plan, ops)
        named, checks = workload.summarize(plan, ops)
        setups = [setup_s] + [
            child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)
        ]
        setup = {
            "value": statistics.median(setups),
            "unit": "s",
            "n": len(setups),
            "samples": [round(s, 6) for s in setups],
        }
        named["peak_rss_mb"] = {"value": rss, "unit": "MB", "n": 1}
        units = [(op, workload.op_unit(plan, op)) for op in ops]
        op_ms_cal = statistics.median(
            op.cal_s * 1e3 / unit for op, unit in units if unit
        )
        checks["reference"] = {
            "blocks": len(ref.times),
            "median_s": statistics.median(ref.times),
            "workload_s_raw": sum(op.wall_s for op in ops),
        }
        values = {
            "setup_s": setup["value"],
            "op_ms_cal": op_ms_cal,
            "workload_s_cal": sum(op.cal_s for op in ops),
            "peak_rss_mb": rss,
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
        return finish(args, spec, workload, ops, named, setup, metrics, checks, {})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_run(args, spec, workload, ctx, tracing):
    # The untraced comparison pass gets its own inputs, so a cache shared
    # across calls cannot make the traced pass cheaper than a fresh run.
    plan_b = workload.prepare(ctx, tag=1)
    plan_a = workload.prepare(ctx, tag=0)
    ref = workload.reference()
    ops_b = workload.run(plan_b, ref)
    before = tracing.module_snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ops_a = workload.run(plan_a, ref)
    finally:
        tracer.uninstall()
    changed = tracing.changed_attributes(before, tracing.module_snapshot())
    if changed:
        fail(f"tracer left attributes replaced: {changed[:5]}")
    problems = tracer.check()
    if problems:
        fail(f"span invariants violated: {problems}")
    ref.calibrate()
    untraced_s = sum(op.cal_s for op in ops_b)
    traced_s = sum(op.cal_s for op in ops_a)
    ops = ops_b + ops_a
    workload.verify(plan_b, ops_b)
    workload.verify(plan_a, ops_a)
    named, checks = workload.summarize(plan_a, ops_a)
    stats = tracer.layer_stats()
    overhead_s = traced_s - untraced_s
    metrics = {
        m["name"]: {
            "value": per_layer_value(m["name"], stats, tracer, overhead_s),
            "unit": m["unit"],
        }
        for m in spec["per_layer"]
    }
    spans_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.npz"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(spans_path)
    trace_info = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "overhead_s": overhead_s,
        "overhead_share": overhead_s / untraced_s,
        "spans": len(tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "changed_attributes": changed,
        "span_problems": problems,
        "missing_targets": tracer.missing,
        "layers": stats,
    }
    print(
        f"tracing overhead: {overhead_s:.3f} s on {untraced_s:.3f} s untraced "
        f"({len(tracer.start)} spans)"
    )
    return finish(args, spec, workload, ops, named, None, metrics, checks, trace_info)


def finish(args, spec, workload, ops, named, setup, metrics, checks, trace_info):
    why = {w["name"]: w["why"] for w in spec["workloads"]}[workload.name]
    failed = [op for op in ops if op.failure]
    env = environment(args.seed)
    print(
        f"perfbench {workload.name}: seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}{' smoke' if args.smoke else ''}"
    )
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"why: {why}")
    if setup is not None:
        print_named(named, len(ops), len(failed), setup)
    for op in failed[:10]:
        print(f"FAILED {op.kind}: {op.failure}")
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": env,
        "named": dict(named, setup_s=setup) if setup else named,
        "fail_ratio": len(failed) / len(ops),
        "failures": [f"{op.kind}: {op.failure}" for op in failed],
        "checks": checks,
        "wait_time": WAIT_NOTE,
        "trace_info": trace_info,
        "metrics": metrics,
    }
    path = harness.result_path(workload.name, args.seed, args.trace, args.smoke)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1, default=str), encoding="utf-8")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(ops),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    spec = load_spec()
    import_package()
    if args.report:
        return harness.report(args.seconds, (DEFAULT_SEED, HELD_OUT_SEED))
    if args.self_test:
        return harness.self_test(spec)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
