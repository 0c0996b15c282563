"""The benchmark's workloads.

Each workload is a closed loop with one caller: the next operation starts
only after the previous one has returned.  Every input (data-spec seeds,
model seeds, coordinate draws, mixtures) is drawn from the run's ``--seed``;
the package receives only the generated configs and checkpoints.  Training
and analysis go through ``taan.cli.main`` in-process with its output
captured; the Monte-Carlo bound check goes through
``taan.analysis.check_l1_bounds``.

A workload has three phases: ``prepare`` (inputs and a short warm-up, timed
as set-up), ``run`` (the timed operations), and ``verify`` (output checks,
after timing and after any tracer has been removed).
"""

import contextlib
import csv
import io
import json
import math
import statistics
import time
import zipfile
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

# Sized for about 25 s of operations on a 2-core x86 machine with the numpy
# kernels (one mtl_sweep sweep takes about 28 s there); the plan scales with
# --seconds in whole operations.
NOMINAL_SECONDS = 25.0

# Agreement required between an analyze matrix entry and the per-pair
# recomputation, relative to the layer matrix's largest entry: distance_matrix
# forms q_i + q_j - 2 p_ij, whose rounding error scales with the matrix rather
# than with each entry (entry-wise it reaches about 1e-12 on small entries).
DISTANCE_RTOL = 1e-12
# Two-sided distance, in standard errors, between a Monte-Carlo estimate and
# its closed form.
MC_MAX_Z = 5.0


class Reference:
    """A fixed block of work, timed between operations.

    The machine's speed drifts by tens of percent over minutes on a shared
    host.  Each workload supplies a block that imitates its dominant cost
    without touching taan, so no change to the package can move it.  Blocks
    run for a fixed share of the loop's time, right after the operations, so
    they see the speed the operations saw.  An operation's calibrated time is
    its wall time x ``nominal_s`` / the median of the blocks that followed it.
    """

    SHARE = 0.1

    def __init__(self, work, nominal_s):
        self._work = work
        self.nominal_s = nominal_s
        self.times = []
        for _ in range(3):
            self.block()
        self.times = []
        self._debt = 0.0
        self._ops = []

    def block(self):
        t0 = time.perf_counter()
        self._work()
        dt = time.perf_counter() - t0
        self.times.append(dt)
        return dt

    def record(self, op):
        """Note an operation, then run blocks until they have taken SHARE of
        the operations' time; returns the operation."""
        op.ref_from = len(self.times)
        self._ops.append(op)
        self._debt += self.SHARE * op.wall_s
        while self._debt > 0.0:
            self._debt -= self.block()
        return op

    def calibrate(self):
        """Set ``cal_s`` on every recorded operation.

        An operation shorter than a block may have none after it; it shares
        the next block.
        """
        end, later = len(self.times), None
        for op in reversed(self._ops):
            if later is not None and op.ref_from < later:
                end = later
            later = op.ref_from
            group = self.times[op.ref_from:max(end, op.ref_from + 1)]
            group = group or self.times[-1:]
            op.cal_s = op.wall_s * self.nominal_s / statistics.median(group)


def small_ops_work():
    """Many small matmuls and hinge products with Python-level glue."""
    rng = np.random.default_rng(12345)
    x = rng.standard_normal((64, 32))
    w = rng.standard_normal((32, 32))
    bps = np.linspace(-2.0, 2.0, 16)
    c = rng.standard_normal(16)

    def work():
        for _ in range(200):
            a = x @ w.T
            h = np.maximum(bps[None, :] - a.ravel()[:, None], 0.0)
            float((h @ c).sum())
            sum(float(v) for v in a[0])

    return work


def kernel_work(n, m, backward=True):
    """The dense numpy hinge kernel on n elements and m hinges."""
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(n)
    g = rng.standard_normal(n)
    c = 0.1 * rng.standard_normal(m)
    bps = np.linspace(-2.0, 2.0, m)

    def work():
        hinge = np.maximum(bps[None, :] - x[:, None], 0.0)
        np.maximum(x, 0.0) + hinge @ c
        if backward:
            g * ((x >= 0.0) - (hinge > 0.0) @ c)
            g @ hinge

    return work


def scalar_moments_work(m, components):
    """Pairwise scalar erfc/exp arithmetic, shaped like a Gram build."""
    bps = [-2.0 + 4.0 * i / (m - 1) for i in range(m)]

    def work():
        acc = 0.0
        for k in range(components):
            mu, sigma = 0.1 * k, 1.0 + 0.2 * k
            for i in range(m):
                for j in range(i, m):
                    c = (min(bps[i], bps[j]) - mu) / sigma
                    acc += (sigma * sigma + bps[i] * bps[j]) * 0.5 * math.erfc(
                        -c / math.sqrt(2.0)
                    ) + sigma * math.exp(-0.5 * c * c)
        return acc

    return work


@dataclass
class Op:
    """One timed operation and what its checks need."""

    kind: str
    wall_s: float
    rc: int
    info: dict
    failure: str = ""
    extra: dict = field(default_factory=dict)
    ref_from: int = 0
    cal_s: float = 0.0


def _rng(seed, *path):
    return np.random.default_rng([int(seed), *path])


def _seed_from(rng):
    return int(rng.integers(1, 2**31 - 1))


def call_cli(cli, argv):
    """Run ``taan.cli.main`` in-process; returns (rc, wall_s, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
    return rc, wall, out.getvalue(), err.getvalue()


def scaled(count, seconds, smoke, minimum=1):
    if smoke:
        return minimum
    return max(minimum, int(round(count * seconds / NOMINAL_SECONDS)))


def npz_members(path):
    """Archive member name -> bytes.

    ``np.savez`` stamps each zip member with the wall-clock time, so
    checkpoints are compared by their array payloads, not container bytes.
    """
    with zipfile.ZipFile(path) as zf:
        return {name: zf.read(name) for name in sorted(zf.namelist())}


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def timing(values, unit, scale=1.0):
    """Median and quartiles of a sample, in the given unit."""
    vals = [v * scale for v in values]
    return {
        "value": statistics.median(vals),
        "unit": unit,
        "n": len(vals),
        "p25": percentile(vals, 25),
        "p75": percentile(vals, 75),
    }


# --------------------------------------------------------------------------
# Training workloads: ``taan train`` through the CLI.


class TrainingWorkload:
    """Repeated ``taan train`` runs; each config is trained twice."""

    name = ""

    def configs(self, seed, seconds, smoke, tag):
        """[(config dict, extra CLI args)]; every entry is run twice."""
        raise NotImplementedError

    def prepare(self, ctx, tag=0):
        import taan.cli as cli

        work = ctx.workdir / f"inputs{tag}"
        work.mkdir(parents=True, exist_ok=True)
        runs = []
        for i, (cfg, args) in enumerate(
            self.configs(ctx.seed, ctx.seconds, ctx.smoke, tag)
        ):
            path = work / f"config{i}.json"
            path.write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
            runs.append({"config": cfg, "config_path": path, "args": args})
        # Warm-up: the first training run in a process is about 30% slower.
        warm = dict(runs[0]["config"])
        warm["train"] = dict(warm["train"], epochs=1)
        wpath = work / "warmup.json"
        wpath.write_text(json.dumps(warm), encoding="utf-8")
        rc, _, _, err = call_cli(
            cli,
            ["train", "--config", str(wpath), "--out", str(work / "warmup")],
        )
        if rc != 0:
            raise RuntimeError(f"warm-up training failed: {err.strip()}")
        return {"runs": runs, "out": ctx.workdir / f"out{tag}"}

    def run(self, plan, ref):
        import taan.cli as cli

        ops = []
        for rep in (0, 1):
            for i, entry in enumerate(plan["runs"]):
                out = plan["out"] / f"run{i}_rep{rep}"
                argv = [
                    "train",
                    "--config",
                    str(entry["config_path"]),
                    "--out",
                    str(out),
                    *entry["args"],
                ]
                rc, wall, _, err = call_cli(cli, argv)
                info = {"run": i, "rep": rep, "out": out, "stderr": err}
                ops.append(ref.record(Op("train", wall, rc, info)))
        return ops

    @staticmethod
    def steps(cfg):
        syn = cfg["data"]["synthetic"]
        n_train = int(round(syn["train_fraction"] * syn["samples_per_task"]))
        per_epoch = int(math.ceil(n_train / cfg["train"]["batch_size"]))
        return cfg["train"]["epochs"] * per_epoch

    def verify(self, plan, ops):
        from taan.data import SyntheticSpec, generate
        from taan.network import load_checkpoint
        from taan.training import evaluate

        first = {}
        datasets = {}
        for op in ops:
            entry = plan["runs"][op.info["run"]]
            if op.rc != 0:
                op.failure = f"taan train exited {op.rc}: {op.info['stderr'].strip()}"
                continue
            hist_path = op.info["out"] / "history" / "history.csv"
            ckpt_path = op.info["out"] / "checkpoints" / "model.npz"
            history = hist_path.read_bytes()
            members = npz_members(ckpt_path)
            if op.info["rep"] == 0:
                first[op.info["run"]] = (history, members)
            elif first.get(op.info["run"]) != (history, members):
                op.failure = "rerun of the same config is not byte-identical"
                continue
            with open(hist_path, newline="", encoding="utf-8") as fh:
                losses = [float(r["train_loss"]) for r in csv.DictReader(fh)]
            if not all(math.isfinite(v) for v in losses):
                op.failure = "non-finite train loss in history.csv"
                continue
            syn = dict(entry["config"]["data"]["synthetic"])
            key = json.dumps(syn, sort_keys=True)
            if key not in datasets:
                syn["clusters"] = tuple(syn["clusters"])
                datasets[key] = generate(SyntheticSpec(**syn))
            model, _mixture, _seed = load_checkpoint(ckpt_path)
            mses = [
                evaluate(model, split.test, t, "mse")
                for t, split in enumerate(datasets[key])
            ]
            if not all(math.isfinite(v) for v in mses):
                op.failure = "non-finite test MSE"
                continue
            op.extra["test_mse"] = float(np.mean(mses))

    def op_unit(self, plan, op):
        """Divisor of an operation's time for the per-operation metric."""
        return self.steps(plan["runs"][op.info["run"]]["config"])

    def summarize(self, plan, ops):
        per_step = [
            op.wall_s / self.steps(plan["runs"][op.info["run"]]["config"])
            for op in ops
        ]
        mses = [op.extra["test_mse"] for op in ops if "test_mse" in op.extra]
        steps = sum(self.steps(plan["runs"][op.info["run"]]["config"]) for op in ops)
        named = {
            "train_step_ms": dict(
                timing(per_step, "ms", 1e3),
                what="wall of one taan train run / its optimizer steps",
                steps=steps,
            ),
        }
        if mses:
            named["test_mse"] = {
                "value": float(np.mean(mses)),
                "unit": "mse",
                "n": len(mses),
                "what": "mean over checkpoints of the mean per-task test MSE",
            }
        return named, {}


class MtlSweep(TrainingWorkload):
    name = "mtl_sweep"
    COEFFICIENTS = (0.0, 0.1, 1.0, 10.0)

    def reference(self):
        return Reference(small_ops_work(), nominal_s=0.020)

    def configs(self, seed, seconds, smoke, tag):
        rng = _rng(seed, 1, tag)
        out = []
        for _ in range(scaled(1, seconds, smoke)):
            cfg = {
                "seed": _seed_from(rng),
                "arch": {
                    "hidden_widths": [32],
                    "basis_count": 16,
                    "basis_range": [-2.0, 2.0],
                },
                "train": {
                    "epochs": 2 if smoke else 150,
                    "batch_size": 64,
                    "learning_rate": 3e-3,
                    "loss": "squared_error",
                    "reg": {"kind": "dis", "coefficient": 0.0},
                },
                "data": {
                    "synthetic": {
                        "task_count": 8,
                        "samples_per_task": 200 if smoke else 1000,
                        "input_dim": 8,
                        "clusters": [0, 0, 0, 0, 1, 1, 1, 1],
                        "relatedness": 0.3,
                        "noise": 0.3,
                        "train_fraction": 0.3,
                        "val_fraction": 0.2,
                        "seed": _seed_from(rng),
                    }
                },
            }
            for coef in self.COEFFICIENTS:
                out.append((cfg, ["--reg", "dis", "--coef", repr(coef)]))
        return out


class WideDeep(TrainingWorkload):
    name = "wide_deep"

    def reference(self):
        return Reference(kernel_work(16384, 64), nominal_s=0.010)

    def configs(self, seed, seconds, smoke, tag):
        rng = _rng(seed, 2, tag)
        out = []
        for _ in range(scaled(3, seconds, smoke)):
            cfg = {
                "seed": _seed_from(rng),
                "arch": {
                    "hidden_widths": [64, 64],
                    "basis_count": 64,
                    "basis_range": [-2.0, 2.0],
                },
                "train": {
                    "epochs": 1 if smoke else 7,
                    "batch_size": 256,
                    "learning_rate": 3e-3,
                    "loss": "squared_error",
                    "reg": {"kind": "cos", "coefficient": 0.1},
                },
                "data": {
                    "synthetic": {
                        "task_count": 4,
                        "samples_per_task": 512 if smoke else 2048,
                        "input_dim": 16,
                        "clusters": [0, 0, 1, 1],
                        "relatedness": 0.3,
                        "noise": 0.3,
                        "train_fraction": 0.5,
                        "val_fraction": 0.1,
                        "seed": _seed_from(rng),
                    }
                },
            }
            out.append((cfg, []))
        return out


# --------------------------------------------------------------------------
# Geometry: ``taan analyze`` over distinct checkpoints, and layer-1
# Monte-Carlo bound checks.  No training.


def gram_arrays(breakpoints, weights, means, sigmas):
    """Closed-form basis moments under a Gaussian mixture, vectorized.

    The benchmark's own implementation of the moment formulas in
    ``taan.moments``, used to check analyze output independently of
    ``taan.metrics.build_gram``.  Returns (relu_relu, relu_hinge,
    hinge_hinge).
    """
    b = np.asarray(breakpoints, dtype=np.float64)
    bi, bj = b[:, None], b[None, :]
    bt = np.minimum(bi, bj)
    s = 0.0
    v = np.zeros(b.size)
    g = np.zeros((b.size, b.size))

    def pdf(z):
        return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    for p, mu, sg in zip(weights, means, sigmas):
        a0 = -mu / sg
        s += p * ((mu * mu + sg * sg) * (1.0 - ndtr(a0)) + mu * sg * pdf(a0))
        c = (bt - mu) / sg
        g += p * (
            (mu * mu + sg * sg + bi * bj - (bi + bj) * mu) * ndtr(c)
            + (bi + bj - mu - bt) * sg * pdf(c)
        )
        a1 = (b - mu) / sg
        cross = (
            (b * mu - mu * mu - sg * sg) * (ndtr(a1) - ndtr(a0))
            + sg * mu * pdf(a1)
            + sg * (b - mu) * pdf(a0)
        )
        v += p * np.where(b > 0.0, cross, 0.0)
    return float(s), v, g


class Geometry:
    name = "geometry"
    TASKS = 16
    WIDTHS = (64, 64, 64)
    BASIS = 64
    MC_SAMPLES = 1_000_000
    # With standard-normal inputs the Monte-Carlo means estimate exactly the
    # c1 = 1 sums, so at c1 = 1 the one-sided 3-standard-error test in
    # BoundCheckReport.passed fails about once in 740 sides by sampling noise
    # alone.  Non-negative coordinates keep every inner product positive, so
    # c1 = 1.02 puts the bound at least ~15 standard errors away (the
    # largest SE/value seen at 10^6 samples is 0.11%); closeness to the exact
    # value is checked two-sided at MC_MAX_Z.
    C1 = 1.02

    def reference(self):
        moments = scalar_moments_work(self.BASIS, 3)
        kernel = kernel_work(100_000, 16, backward=False)

        def work():
            moments()
            kernel()

        return Reference(work, nominal_s=0.0135)

    def _checkpoint(self, rng, path):
        from taan.metrics import GaussianMixture
        from taan.network import ArchitectureSpec, build_model, save_checkpoint

        arch = ArchitectureSpec(
            input_dim=8,
            hidden_widths=self.WIDTHS,
            output_dim=1,
            task_count=self.TASKS,
            basis_count=self.BASIS,
        )
        model = build_model(arch, _seed_from(rng))
        for layer in model.layers:
            layer.coords[:] = rng.uniform(-1.0, 1.0, layer.coords.shape)
        mixture = GaussianMixture(
            rng.dirichlet(np.ones(3)),
            rng.uniform(-1.0, 1.0, 3),
            rng.uniform(0.5, 2.0, 3),
        )
        save_checkpoint(model, path, mixture=mixture, seed=0)

    def _bound_model(self, rng):
        from taan.network import ArchitectureSpec, build_model

        arch = ArchitectureSpec(
            input_dim=8, hidden_widths=(16,), output_dim=1, task_count=4,
            basis_count=16,
        )
        model = build_model(arch, _seed_from(rng))
        layer = model.layers[0]
        layer.coords[:] = rng.uniform(0.0, 0.5, layer.coords.shape)
        pair = tuple(int(t) for t in rng.choice(4, size=2, replace=False))
        return model, pair, _seed_from(rng)

    def prepare(self, ctx, tag=0):
        import taan.cli as cli
        from taan.analysis import check_l1_bounds, layer1_unit_gaussians

        rng = _rng(ctx.seed, 3, tag)
        work = ctx.workdir / f"inputs{tag}"
        work.mkdir(parents=True, exist_ok=True)
        n_analyze = scaled(400, ctx.seconds, ctx.smoke, minimum=12)
        n_bounds = scaled(3, ctx.seconds, ctx.smoke, minimum=2 if ctx.smoke else 1)
        checkpoints = []
        for i in range(n_analyze):
            path = work / f"ckpt{i}.npz"
            self._checkpoint(rng, path)
            checkpoints.append(path)
        samples = 20_000 if ctx.smoke else self.MC_SAMPLES
        bounds = [self._bound_model(rng) for _ in range(n_bounds)]
        # Warm-up on inputs of the same shape that the timed loop never sees.
        warm_rng = _rng(ctx.seed, 3, tag, 99)
        self._checkpoint(warm_rng, work / "warmup.npz")
        rc, _, _, err = call_cli(
            cli,
            ["analyze", "--checkpoint", str(work / "warmup.npz"),
             "--out", str(work / "warmup")],
        )
        if rc != 0:
            raise RuntimeError(f"warm-up analyze failed: {err.strip()}")
        model, pair, seed = self._bound_model(warm_rng)
        check_l1_bounds(
            model, layer1_unit_gaussians(model), self.C1, pair,
            min(samples, 100_000), seed,
        )
        return {
            "checkpoints": checkpoints,
            "bounds": bounds,
            "samples": samples,
            "out": ctx.workdir / f"out{tag}",
        }

    def run(self, plan, ref):
        import taan.analysis as analysis
        import taan.cli as cli

        ops = []
        for i, ckpt in enumerate(plan["checkpoints"]):
            out = plan["out"] / f"analyze{i}"
            rc, wall, _, err = call_cli(
                cli, ["analyze", "--checkpoint", str(ckpt), "--out", str(out)]
            )
            info = {"ckpt": ckpt, "out": out, "stderr": err}
            ops.append(ref.record(Op("analyze", wall, rc, info)))
        for model, pair, seed in plan["bounds"]:
            t0 = time.perf_counter()
            try:
                units = analysis.layer1_unit_gaussians(model)
                report = analysis.check_l1_bounds(
                    model, units, self.C1, pair, plan["samples"], seed
                )
                rc, error = 0, ""
            except Exception as exc:  # counted as a failed operation
                report, rc, error = None, 1, repr(exc)
            wall = time.perf_counter() - t0
            info = {"report": report, "stderr": error}
            ops.append(ref.record(Op("bounds", wall, rc, info)))
        return ops

    def _verify_analyze(self, op):
        from taan.metrics import GramCache, distance_sq
        from taan.network import load_checkpoint

        model, mixture, _ = load_checkpoint(op.info["ckpt"])
        worst = 0.0
        for l, layer in enumerate(model.layers):
            path = op.info["out"] / "matrices" / f"layer{l}.csv"
            with open(path, encoding="utf-8") as fh:
                labels = fh.readline().strip().split(",")
                matrix = np.array(
                    [[float(c) for c in line.split(",")] for line in fh if line.strip()]
                )
            t = layer.coords.shape[0]
            if len(labels) != t or matrix.shape != (t, t):
                return f"layer {l}: matrix shape {matrix.shape} for {t} tasks", worst
            if not np.array_equal(matrix, matrix.T):
                return f"layer {l}: matrix is not symmetric", worst
            if np.any(np.diag(matrix) != 0.0):
                return f"layer {l}: diagonal is not zero", worst
            cache = GramCache(
                *gram_arrays(
                    layer.grid.breakpoints,
                    mixture.weights,
                    mixture.means,
                    mixture.sigmas,
                )
            )
            ref = np.zeros((t, t))
            for i in range(t):
                for j in range(i + 1, t):
                    ref[i, j] = ref[j, i] = distance_sq(
                        layer.coords[i], layer.coords[j], cache
                    )
            err = float(np.max(np.abs(matrix - ref)) / np.max(np.abs(ref)))
            worst = max(worst, err)
            if not err <= DISTANCE_RTOL:
                i, j = np.unravel_index(np.argmax(np.abs(matrix - ref)), ref.shape)
                return (
                    f"layer {l} pair ({i},{j}): {matrix[i, j]!r} vs "
                    f"recomputed {ref[i, j]!r}"
                ), worst
        return "", worst

    def verify(self, plan, ops):
        for op in ops:
            if op.rc != 0:
                op.failure = f"{op.kind} exited {op.rc}: {op.info['stderr'].strip()}"
            elif op.kind == "analyze":
                op.failure, op.extra["max_rel_err"] = self._verify_analyze(op)
            else:
                r = op.info["report"]
                z_inner = abs(r.inner_left - r.inner_right / self.C1) / r.inner_se
                z_dist = abs(r.dist_left - r.dist_right / self.C1) / r.dist_se
                op.extra["max_z"] = max(z_inner, z_dist)
                if not r.passed:
                    op.failure = "bound report did not pass"
                elif not max(z_inner, z_dist) <= MC_MAX_Z:
                    op.failure = (
                        f"Monte-Carlo side {max(z_inner, z_dist):.2f} standard "
                        "errors from the closed form"
                    )

    def op_unit(self, plan, op):
        """Divisor of an operation's time for the per-operation metric."""
        return 1 if op.kind == "analyze" else None

    def summarize(self, plan, ops):
        analyze = [op.wall_s for op in ops if op.kind == "analyze"]
        bounds = [op.wall_s for op in ops if op.kind == "bounds"]
        named = {
            "analyze_ms_p50": dict(
                timing(analyze, "ms", 1e3), what="wall of one taan analyze call"
            ),
        }
        if len(analyze) >= 100:
            named["analyze_ms_p90"] = {
                "value": percentile(analyze, 90) * 1e3,
                "unit": "ms",
                "n": len(analyze),
                "what": "90th percentile of taan analyze wall",
            }
        else:
            named["analyze_ms_p90"] = {
                "dropped": (
                    f"{len(analyze)} samples: p90 needs at least 10 beyond it"
                )
            }
        samples = plan["samples"] * len(bounds)
        named["mc_samples_per_s"] = {
            "value": samples / sum(bounds),
            "unit": "1/s",
            "n": len(bounds),
            "samples": samples,
            "what": "Monte-Carlo samples / wall of the check_l1_bounds calls",
        }
        errs = [op.extra["max_rel_err"] for op in ops if "max_rel_err" in op.extra]
        zs = [op.extra["max_z"] for op in ops if "max_z" in op.extra]
        checks = {
            "analyze_max_rel_err": max(errs) if errs else None,
            "mc_max_z": max(zs) if zs else None,
        }
        return named, checks


WORKLOADS = {w.name: w for w in (MtlSweep(), WideDeep(), Geometry())}
