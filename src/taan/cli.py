"""Command-line front end.

Subcommands: gen-data (synthetic benchmark to CSV), train (checkpoint +
history), analyze (distance matrices + heatmaps), check (self-diagnostics:
closed-form moments vs quadrature, analytic gradients vs finite
differences, layer-1 bounds vs Monte Carlo).  A JSON config supplies
experiment settings; flags override file values.  Exit status is 0 only on
full success.
"""

import argparse
import copy
import json
import sys
from pathlib import Path

import numpy as np

from taan.analysis import (
    bound_report_csv,
    bound_report_text,
    check_l1_bounds,
    export_heatmap,
    layer1_unit_gaussians,
    layer_distances,
)
from taan.apl import BasisGrid, apl_eval, apl_grad_coords, apl_grad_x
from taan.data import (
    CsvSchema,
    SplitDatasets,
    SyntheticSpec,
    generate,
    load_csv,
    save_csv,
)
from taan.metrics import GaussianMixture, build_gram, mean_pairwise_distance
from taan.moments import (
    GaussianParams,
    moment_b0_sq,
    moment_b0b,
    moment_bb,
    oracle_moment,
)
from taan.network import (
    ArchitectureSpec,
    backward,
    build_model,
    forward,
    load_checkpoint,
    model_parameters,
    param_views,
    save_checkpoint,
)
from taan.regularizers import RegConfig, RegKind, reg_grad, regularizer_value
from taan.training import TrainConfig, _head_dims, train

# The CLI's own defaults; everything else defaults in TrainConfig,
# ArchitectureSpec and SyntheticSpec.
DEFAULT_CONFIG = {
    "out": "taan_out",
    "seed": 0,
    "arch": {"hidden_widths": [16, 16]},
    "train": {"epochs": 10, "reg": {"kind": "none", "coefficient": 0.0}},
    "data": {"synthetic": {"clusters": [0, 0, 0, 0, 1, 1, 1, 1]}},
}

def _deep_merge(base, override):
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def load_config(args):
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            kind = type(file_cfg).__name__
            raise ValueError(
                f"config {args.config} must hold a JSON object, got {kind}"
            )
        file_data = file_cfg.get("data", {})
        if "csv" in file_data:
            # A CSV source replaces the default synthetic benchmark.
            cfg["data"] = {}
        elif "task_count" in (file_data.get("synthetic") or {}):
            # The default clusters are for the default task count; without
            # clusters of its own, a file's task count gets SyntheticSpec's.
            del cfg["data"]["synthetic"]["clusters"]
        cfg = _deep_merge(cfg, file_cfg)
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "out", None):
        cfg["out"] = args.out
    if getattr(args, "reg", None):
        cfg["train"]["reg"]["kind"] = args.reg
    if getattr(args, "coef", None) is not None:
        cfg["train"]["reg"]["coefficient"] = args.coef
    return cfg


def _outdirs(out, *names):
    """The named subdirectories of ``out``, created; each command names
    only the ones it writes."""
    dirs = {name: Path(out) / name for name in names}
    for path in dirs.values():
        path.mkdir(parents=True, exist_ok=True)
    return dirs


def _synthetic_spec(cfg):
    if not cfg["data"].get("synthetic"):
        raise ValueError("config has no data.synthetic section")
    params = dict(cfg["data"]["synthetic"])
    params.setdefault("seed", cfg["seed"])
    return SyntheticSpec(**params)


def _load_datasets(cfg):
    data_cfg = cfg.get("data", {})
    csv_cfg = data_cfg.get("csv")
    if data_cfg.get("synthetic"):
        if csv_cfg:
            raise ValueError("config sets both data.synthetic and data.csv")
        return generate(_synthetic_spec(cfg))
    if not csv_cfg:
        raise ValueError("config needs data.synthetic or data.csv")
    if not isinstance(csv_cfg.get("schema"), dict):
        raise ValueError("data.csv needs a schema object")
    tasks = csv_cfg.get("tasks")
    if not (isinstance(tasks, list) and tasks):
        raise ValueError("data.csv needs a non-empty tasks list")
    schema = CsvSchema(**csv_cfg["schema"])
    out = []
    for t, entry in enumerate(tasks):
        if not (isinstance(entry, dict) and entry.get("train")):
            raise ValueError(f"data.csv.tasks[{t}] has no train file")
        out.append(
            SplitDatasets(
                load_csv(entry["train"], schema, t, "train"),
                load_csv(entry["val"], schema, t, "val")
                if entry.get("val")
                else None,
                load_csv(entry["test"], schema, t, "test")
                if entry.get("test")
                else None,
            )
        )
    return out


def _architecture(cfg, datasets, config):
    arch_cfg = dict(cfg["arch"])
    first = datasets[0].train
    arch_cfg.setdefault("input_dim", first.inputs.shape[1])
    if "output_dim" not in arch_cfg:
        arch_cfg["output_dim"] = _head_dims(datasets, config)
    arch_cfg["task_count"] = len(datasets)
    return ArchitectureSpec(**arch_cfg)


def _train_config(cfg):
    params = dict(cfg["train"])
    reg_cfg = params.pop("reg")
    params.setdefault("seed", cfg["seed"])
    if isinstance(params.get("loss"), list):
        params["loss"] = tuple(params["loss"])
    return TrainConfig(
        reg=RegConfig(reg_cfg["kind"], reg_cfg["coefficient"]), **params
    )


def cmd_gen_data(args):
    cfg = load_config(args)
    dirs = _outdirs(cfg["out"], "data")
    spec = _synthetic_spec(cfg)
    datasets = generate(spec)
    for split in datasets:
        for part in (split.train, split.val, split.test):
            path = dirs["data"] / f"task{part.task_id}_{part.split}.csv"
            save_csv(part, path)
            print(f"wrote {path} ({len(part)} rows)")
    return 0


def cmd_train(args):
    cfg = load_config(args)
    dirs = _outdirs(cfg["out"], "checkpoints", "history")
    datasets = _load_datasets(cfg)
    config = _train_config(cfg)
    arch = _architecture(cfg, datasets, config)
    model = build_model(arch, cfg["seed"])
    model, history = train(model, datasets, config)
    ckpt = dirs["checkpoints"] / "model.npz"
    save_checkpoint(
        model, ckpt, mixture=GaussianMixture.standard_normal(), seed=cfg["seed"]
    )
    history_path = dirs["history"] / "history.csv"
    history.to_csv(history_path)
    print(f"wrote {ckpt}")
    print(f"wrote {history_path}")
    epochs, losses = history.column("epoch"), history.column("train_loss")
    if epochs:
        # One row per task and layer: the last epoch's mean is over tasks.
        last = [loss for e, loss in zip(epochs, losses) if e == epochs[-1]]
        print(
            f"final epoch mean train loss: {float(np.mean(last)):.6f} "
            f"({model.task_count} tasks, {config.epochs} epochs)"
        )
    return 0


def cmd_analyze(args):
    cfg = load_config(args)
    dirs = _outdirs(cfg["out"], "matrices", "reports")
    ckpt = args.checkpoint or Path(cfg["out"]) / "checkpoints" / "model.npz"
    model, mixture, _seed = load_checkpoint(ckpt)
    reports = layer_distances(model, mixture=mixture)
    lines = []
    for report in reports:
        for fmt in ("csv", "pgm"):
            path = dirs["matrices"] / f"layer{report.layer_id}.{fmt}"
            export_heatmap(report, path, fmt)
            print(f"wrote {path}")
        mean = mean_pairwise_distance(report.matrix)
        lines.append(
            f"layer {report.layer_id}: mean pairwise distance {mean:.6g}, "
            f"max {report.matrix.max():.6g}"
        )
    summary = dirs["reports"] / "analysis.txt"
    summary.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {summary}")
    return 0


def _closed_moment(pair, g):
    if pair[0] == "relu_sq":
        return moment_b0_sq(g)
    if pair[0] == "relu_hinge":
        return moment_b0b(pair[1], g)
    return moment_bb(pair[1], pair[2], g)


def check_moments():
    mus = (-3.0, -1.5, 0.0, 1.5, 3.0)
    sigmas = (0.3, 1.0, 2.0, 3.0)
    hinges = (-2.0, -0.5, 0.0, 0.7, 1.5, 3.0)
    hinge_pairs = (
        (-2.0, -0.5),
        (-0.5, 0.7),
        (0.7, 0.7),
        (1.5, 3.0),
        (-2.0, 3.0),
        (0.0, 1.0),
    )
    pairs = [("relu_sq",)]
    pairs += [("relu_hinge", b) for b in hinges]
    pairs += [("hinge_hinge", bi, bj) for bi, bj in hinge_pairs]
    worst = 0.0
    count = 0
    for mu in mus:
        for sigma in sigmas:
            g = GaussianParams(mu, sigma)
            for pair in pairs:
                err = abs(_closed_moment(pair, g) - oracle_moment(pair, g))
                worst = max(worst, err)
                count += 1
    ok = worst <= 1e-8
    print(
        f"moments: {count} combinations, max |closed form - quadrature| "
        f"= {worst:.3e} -> {'pass' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def _rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _fd_worst(objective, arr, grad, entries):
    """Worst relative error of grad.flat[i] against the central difference
    of objective() in arr.flat[i], perturbed in place and then restored."""
    eps, worst = 1e-5, 0.0
    for i in entries:
        old = arr.flat[i]
        arr.flat[i] = old + eps
        hi = objective()
        arr.flat[i] = old - eps
        lo = objective()
        arr.flat[i] = old
        worst = max(worst, _rel_err(grad.flat[i], (hi - lo) / (2.0 * eps)))
    return worst


def _check_apl_gradients(rng):
    grid = BasisGrid.even(6)
    worst = 0.0
    for _ in range(30):
        coords = rng.uniform(-1.0, 1.0, len(grid))
        x = float(rng.uniform(-3.0, 3.0))
        gaps = np.abs(np.append(grid.breakpoints, 0.0) - x)
        if gaps.min() < 1e-3:
            continue
        # Entry 0 is x, the rest are the coordinates.
        point = np.append(x, coords)
        grad = np.append(apl_grad_x(x, coords, grid), apl_grad_coords(x, grid))

        def objective():
            return apl_eval(point[0], point[1:], grid)

        worst = max(worst, _fd_worst(objective, point, grad, range(point.size)))
    return worst


def _check_reg_gradients(rng):
    grid = BasisGrid.even(6)
    cache = build_gram(grid, GaussianMixture.standard_normal())
    worst = 0.0
    for _ in range(3):
        alpha = rng.uniform(-1.0, 1.0, (4, len(grid)))
        for kind in (k for k in RegKind if k is not RegKind.NONE):
            grad = reg_grad(kind, alpha, cache)

            def objective():
                return regularizer_value(kind, alpha, cache)

            worst = max(worst, _fd_worst(objective, alpha, grad, range(alpha.size)))
    return worst


def _check_network_gradients(rng):
    arch = ArchitectureSpec(
        input_dim=4, hidden_widths=(5,), output_dim=2, task_count=2,
        basis_count=4,
    )
    model = build_model(arch, int(rng.integers(1 << 31)))
    for layer in model.layers:
        layer.coords[:] = rng.uniform(-0.5, 0.5, layer.coords.shape)
    x = rng.standard_normal((3, arch.input_dim))
    projection = rng.standard_normal((3, 2))
    _, trace = forward(model, {0: x})
    grads = param_views(model, backward(model, trace, {0: projection}))

    def objective():
        return float(np.sum(forward(model, {0: x})[0][0] * projection))

    worst = 0.0
    for arr, grad in zip(model_parameters(model), grads):
        entries = rng.choice(arr.size, size=min(4, arr.size), replace=False)
        worst = max(worst, _fd_worst(objective, arr, grad, entries))
    return worst


def check_gradients(seed):
    rng = np.random.default_rng(seed)
    families = (
        ("apl", _check_apl_gradients),
        ("regularizers", _check_reg_gradients),
        ("network", _check_network_gradients),
    )
    ok = True
    for name, fn in families:
        worst = fn(rng)
        passed = worst <= 1e-4
        ok = ok and passed
        print(
            f"gradients/{name}: max relative error vs finite differences "
            f"= {worst:.3e} -> {'pass' if passed else 'FAIL'}"
        )
    return 0 if ok else 1


def check_bounds(seed, out=None):
    rng = np.random.default_rng(seed)
    arch = ArchitectureSpec(
        input_dim=6, hidden_widths=(8,), output_dim=1, task_count=2,
        basis_count=6,
    )
    model = build_model(arch, seed)
    layer = model.layers[0]
    layer.coords[:] = rng.uniform(-0.5, 0.5, layer.coords.shape)
    units = layer1_unit_gaussians(model)
    reports = [
        check_l1_bounds(model, units, 1.0, pair, 200_000, seed + 1)
        for pair in ((0, 0), (0, 1))
    ]
    ok = True
    for report in reports:
        print(bound_report_text(report))
        ok = ok and report.passed
    if out is not None:
        path = _outdirs(out, "reports")["reports"] / "bounds.csv"
        bound_report_csv(reports, path)
        print(f"wrote {path}")
    print(f"bounds: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_check(args):
    if args.kind == "moments":
        return check_moments()
    if args.kind == "gradients":
        return check_gradients(args.seed)
    return check_bounds(args.seed, args.out)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="taan",
        description=(
            "Multi-task networks with task-adaptive piecewise-linear "
            "activations"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, reg=False):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory")
        if reg:
            p.add_argument(
                "--reg",
                choices=[kind.value for kind in RegKind],
                help="coordinate-matrix regularizer",
            )
            p.add_argument(
                "--coef", type=float, help="regularizer coefficient"
            )

    p_gen = sub.add_parser("gen-data", help="write the synthetic benchmark")
    common(p_gen)
    p_gen.set_defaults(func=cmd_gen_data)

    p_train = sub.add_parser("train", help="train a model")
    common(p_train, reg=True)
    p_train.set_defaults(func=cmd_train)

    p_an = sub.add_parser("analyze", help="distance matrices and heatmaps")
    common(p_an)
    p_an.add_argument("--checkpoint", help="checkpoint path (.npz)")
    p_an.set_defaults(func=cmd_analyze)

    p_check = sub.add_parser("check", help="numeric self-diagnostics")
    p_check.add_argument("kind", choices=("moments", "gradients", "bounds"))
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--out", help="also write a CSV report here")
    p_check.set_defaults(func=cmd_check)
    return parser


# Built once per process: an in-process caller of ``main`` pays only for
# the parse.
PARSER = build_parser()


def main(argv=None):
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
