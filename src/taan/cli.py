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
from taan import _backend
from taan.apl import BasisGrid
from taan.data import (
    SPLIT_TAGS,
    SplitDatasets,
    SyntheticSpec,
    _path,
    generate,
    load_csv,
    save_csv,
)
from taan.metrics import COMPARISON_MIXTURE, build_gram, mean_pairwise_distance
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

# The values no class defaults; everything else defaults in TrainConfig,
# RegConfig, ArchitectureSpec and SyntheticSpec.
DEFAULT_CONFIG = {
    "out": "taan_out",
    "seed": 0,
    "arch": {"hidden_widths": [16, 16]},
    "train": {"epochs": 10},
}


def _keys(value, name, keys=None):
    """``value`` if it is a JSON object with no key outside ``keys``, else
    ValueError naming ``name``, its place in the config.  An object that
    becomes a class's keyword arguments passes no ``keys``: that class
    checks them."""
    if not isinstance(value, dict):
        kind = type(value).__name__
        raise ValueError(f"config {name} must be a JSON object, got {kind}")
    for key in value:
        if keys is not None and key not in keys:
            where = f"{name}.{key}" if name else key
            raise ValueError(
                f"unknown config key {where!r}; {name or 'the top level'} takes "
                + ", ".join(keys)
            )
    return value


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
        _keys(file_cfg, "", ("out", "seed", "arch", "train", "data"))
        file_data = _keys(file_cfg.get("data", {}), "data", ("synthetic", "csv"))
        if file_data.get("synthetic") is not None:
            _keys(file_data["synthetic"], "data.synthetic")
        cfg = _deep_merge(cfg, file_cfg)
        _keys(cfg["arch"], "arch")
        reg = _keys(cfg["train"], "train").get("reg", {})
        _keys(reg, "train.reg", ("kind", "coefficient"))
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        cfg["out"] = args.out
    if getattr(args, "reg", None):
        cfg["train"].setdefault("reg", {})["kind"] = args.reg
    if getattr(args, "coef", None) is not None:
        cfg["train"].setdefault("reg", {})["coefficient"] = args.coef
    _path("out", cfg["out"])
    # The data block as written; none, or {}, is SyntheticSpec's benchmark.
    cfg["data"] = cfg.get("data") or {"synthetic": {}}
    return cfg


def _outdirs(out, *names):
    """The named subdirectories of ``out``, created; each command names
    only the ones it writes, once its inputs are read and checked."""
    dirs = {name: Path(out) / name for name in names}
    for path in dirs.values():
        path.mkdir(parents=True, exist_ok=True)
    return dirs


def _synthetic_spec(cfg):
    synthetic = cfg["data"].get("synthetic")
    if synthetic is None:
        raise ValueError("config has no data.synthetic section")
    params = dict(synthetic)
    params.setdefault("seed", cfg["seed"])
    return SyntheticSpec(**params)


def _load_datasets(cfg):
    data_cfg = cfg["data"]
    csv_cfg = data_cfg.get("csv")
    if data_cfg.get("synthetic") is not None:
        if csv_cfg is not None:
            raise ValueError("config sets both data.synthetic and data.csv")
        return generate(_synthetic_spec(cfg))
    if csv_cfg is None:
        raise ValueError("config needs data.synthetic or data.csv")
    files = _csv_files(csv_cfg)
    # Each file read once; each must have the columns of task 0's train file.
    parts = {path: load_csv(path) for names in files for path in names if path}
    first = files[0][0]
    for path, part in parts.items():
        if _columns(part) != _columns(parts[first]):
            raise ValueError(
                f"{path} has {_columns(part)}, but {first} has {_columns(parts[first])}"
            )
    return [SplitDatasets(*map(parts.get, names)) for names in files]


def _columns(part):
    """A task file's column counts, as an error names them."""
    return f"{part.inputs.shape[1]} input and {part.targets.shape[1]} target columns"


def _csv_files(tasks):
    """Each task's (train, val, test) file names from the ``data.csv`` task
    list, None for a split an entry leaves out; nothing is read."""
    if not (isinstance(tasks, list) and tasks):
        raise ValueError(f"data.csv must be a non-empty list of tasks, got {tasks!r}")
    files = []
    for t, entry in enumerate(tasks):
        where = f"data.csv[{t}]"
        if not (isinstance(entry, dict) and "train" in entry):
            raise ValueError(f"{where} has no train file")
        _keys(entry, where, SPLIT_TAGS)
        files.append([entry.get(split) for split in SPLIT_TAGS])
        for split, name in zip(SPLIT_TAGS, files[-1]):
            if split == "train" or name is not None:
                _path(f"{where}.{split}", name)
    return files


def _architecture(cfg, datasets, config):
    arch_cfg = dict(cfg["arch"])
    if "output_dim" not in arch_cfg:
        arch_cfg["output_dim"] = _head_dims(datasets, config)
    # The data fixes both, so an arch that sets either fails naming it.
    width, tasks = datasets[0].train.inputs.shape[1], len(datasets)
    return ArchitectureSpec(input_dim=width, task_count=tasks, **arch_cfg)


def _train_config(cfg):
    params = dict(cfg["train"])
    reg = RegConfig(**params.pop("reg", {}))
    params.setdefault("seed", cfg["seed"])
    return TrainConfig(reg=reg, **params)


def cmd_gen_data(args):
    cfg = load_config(args)
    datasets = generate(_synthetic_spec(cfg))
    dirs = _outdirs(cfg["out"], "data")
    for t, split in enumerate(datasets):
        for tag in SPLIT_TAGS:
            part = getattr(split, tag)
            path = dirs["data"] / f"task{t}_{tag}.csv"
            save_csv(part, path)
            print(f"wrote {path} ({len(part)} rows)")
    return 0


def cmd_train(args):
    cfg = load_config(args)
    datasets = _load_datasets(cfg)
    config = _train_config(cfg)
    model = build_model(_architecture(cfg, datasets, config), cfg["seed"])
    model, history = train(model, datasets, config)
    # Created after training, so a run that fails leaves no directory.
    dirs = _outdirs(cfg["out"], "checkpoints", "history")
    ckpt = dirs["checkpoints"] / "model.npz"
    save_checkpoint(model, ckpt, mixture=COMPARISON_MIXTURE, seed=cfg["seed"])
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
    out = _path("out", args.out)
    default = Path(out) / "checkpoints" / "model.npz"
    ckpt = default if args.checkpoint is None else _path("checkpoint", args.checkpoint)
    model, mixture, _seed = load_checkpoint(ckpt)
    matrices = layer_distances(model, mixture=mixture)
    # Created once the matrices exist, so a run that fails leaves no directory.
    dirs = _outdirs(out, "matrices", "reports")
    lines = []
    for l, matrix in enumerate(matrices):
        for fmt in ("csv", "pgm"):
            path = dirs["matrices"] / f"layer{l}.{fmt}"
            export_heatmap(matrix, path, fmt)
            print(f"wrote {path}")
        lines.append(
            f"layer {l}: mean pairwise distance "
            f"{mean_pairwise_distance(matrix):.6g}, max {matrix.max():.6g}"
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
    """Differences the kernels every pass runs: ``apl_forward`` for the
    value, ``apl_backward`` with an upstream gradient of 1 for both slopes."""
    grid = BasisGrid.even(6)
    bps = grid.breakpoints
    worst = 0.0
    for _ in range(30):
        coords = rng.uniform(-1.0, 1.0, len(grid))
        x = float(rng.uniform(-3.0, 3.0))
        gaps = np.abs(np.append(bps, 0.0) - x)
        if gaps.min() < 1e-3:
            continue
        # Entry 0 is x, the rest are the coordinates.
        point = np.append(x, coords)
        at, tables = point[:1], _backend.suffix_tables(coords, bps)
        gx, gcoords = _backend.apl_backward(
            at, grid.intervals(at), tables, bps, np.ones(1)
        )
        grad = np.append(gx, gcoords)

        def objective():
            tables = _backend.suffix_tables(point[1:], bps)
            return float(_backend.apl_forward(at, grid.intervals(at), tables, bps)[0])

        worst = max(worst, _fd_worst(objective, point, grad, range(point.size)))
    return worst


def _check_reg_gradients(rng):
    grid = BasisGrid.even(6)
    cache = build_gram(grid, COMPARISON_MIXTURE)
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


# c1 above 1 keeps the one-sided test in ``BoundCheckReport.passed`` clear
# of sampling noise: with N(0, I) inputs each Monte-Carlo side estimates its
# closed form, the bound over c1, exactly, and the report's two-sided test
# against that closed form still fails one that is wrong in either direction.
BOUND_C1 = 1.02


def check_bounds(seed, out=None):
    out = None if out is None else _path("out", out)
    rng = np.random.default_rng(seed)
    arch = ArchitectureSpec(
        input_dim=6, hidden_widths=(8,), output_dim=1, task_count=2,
        basis_count=6,
    )
    model = build_model(arch, seed)
    layer = model.layers[0]
    # Non-negative coordinates keep every side positive.
    layer.coords[:] = rng.uniform(0.0, 0.5, layer.coords.shape)
    units = layer1_unit_gaussians(model)
    reports = [
        check_l1_bounds(model, units, BOUND_C1, pair, 200_000, seed + 1)
        for pair in ((0, 0), (0, 1))
    ]
    for report in reports:
        print(bound_report_text(report))
    if out is not None:
        path = _outdirs(out, "reports")["reports"] / "bounds.csv"
        bound_report_csv(reports, path)
        print(f"wrote {path}")
    ok = all(report.passed for report in reports)
    print(f"bounds: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


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
    p_an.add_argument(
        "--out", default=DEFAULT_CONFIG["out"], help="output directory"
    )
    p_an.add_argument("--checkpoint", help="checkpoint path (.npz)")
    p_an.set_defaults(func=cmd_analyze)

    p_check = sub.add_parser("check", help="numeric self-diagnostics")
    kinds = p_check.add_subparsers(dest="kind", required=True)
    p_mom = kinds.add_parser("moments", help="closed forms vs quadrature")
    p_mom.set_defaults(func=lambda args: check_moments())
    p_grad = kinds.add_parser("gradients", help="analytic vs finite differences")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(func=lambda args: check_gradients(args.seed))
    p_bounds = kinds.add_parser("bounds", help="layer-1 bounds vs Monte Carlo")
    p_bounds.add_argument("--seed", type=int, default=0)
    p_bounds.add_argument("--out", help="also write a CSV report here")
    p_bounds.set_defaults(func=lambda args: check_bounds(args.seed, args.out))
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
