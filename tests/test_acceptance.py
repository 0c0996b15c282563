"""Acceptance gate: one test per core numeric/behavioral guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
guarantee.  The benchmark fixture for the regularization-trend and
MTL-benefit tests trains 5 seeds x (4 regularizer settings + 8 single-task
baselines) and is shared between both tests; expect it to dominate the
suite's runtime (about a minute).
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import child_env
from taan.analysis import (
    check_l1_bounds,
    cluster_separation,
    layer1_unit_gaussians,
    layer_distances,
)
from taan.apl import BasisGrid, apl_eval, apl_grad_coords, apl_grad_x
from taan.data import SyntheticSpec, generate
from taan.metrics import (
    GaussianMixture,
    build_gram,
    distance_sq,
    inner_product,
    mc_inner_and_distance,
    norm,
)
from taan.moments import GaussianParams, moment_b0_sq, moment_b0b, moment_bb, oracle_moment
from taan.network import (
    ArchitectureSpec,
    backward,
    build_model,
    forward,
    model_parameters,
    param_views,
    tie_heads,
    to_hard_sharing,
)
from taan.regularizers import (
    RegConfig,
    RegKind,
    cosine_reg,
    distance_reg,
    reg_grad,
    trace_norm,
    trace_norm_grad,
)
from taan.training import TrainConfig, evaluate, train


def rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_01_closed_form_moments_match_quadrature():
    """260 (mu, sigma, breakpoint) combinations within 1e-8 of quadrature."""
    t0 = time.monotonic()
    mus = (-3.0, -1.5, 0.0, 1.5, 3.0)
    sigmas = (0.3, 1.0, 2.0, 3.0)
    singles = (-2.0, -0.5, 0.0, 0.7, 1.5, 3.0)
    pairs = (
        (-2.0, -0.5),
        (-0.5, 0.7),
        (0.7, 0.7),
        (1.5, 3.0),
        (-2.0, 3.0),
        (0.0, 1.0),
    )
    count = 0
    worst = 0.0
    for mu in mus:
        for sigma in sigmas:
            g = GaussianParams(mu, sigma)
            checks = [(("relu_sq",), moment_b0_sq(g))]
            checks += [(("relu_hinge", b), moment_b0b(b, g)) for b in singles]
            checks += [
                (("hinge_hinge", bi, bj), moment_bb(bi, bj, g))
                for bi, bj in pairs
            ]
            for pair, closed in checks:
                worst = max(worst, abs(closed - oracle_moment(pair, g)))
                count += 1
    assert count >= 200
    assert worst <= 1e-8, f"worst |closed - quadrature| = {worst:.3e}"
    assert time.monotonic() - t0 < 10.0


def random_metric_instance(rng, max_m=6):
    m = int(rng.integers(1, max_m + 1))
    grid = BasisGrid(np.sort(rng.uniform(-2.5, 2.5, m)))
    k = int(rng.integers(1, 4))
    w = rng.uniform(0.2, 1.0, k)
    w /= w.sum()
    mixture = GaussianMixture(
        w, rng.uniform(-2.0, 2.0, k), rng.uniform(0.3, 2.0, k)
    )
    return grid, mixture


def test_02_metric_soundness():
    """Gram PSD, Cauchy-Schwarz, triangle inequality and polarization on
    1000 random (grid, mixture) instances."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20)
    for _ in range(1000):
        grid, mixture = random_metric_instance(rng)
        cache = build_gram(grid, mixture)
        m = cache.basis_count
        full = np.empty((m + 1, m + 1))
        full[0, 0] = cache.relu_relu
        full[0, 1:] = full[1:, 0] = cache.relu_hinge
        full[1:, 1:] = cache.hinge_hinge
        assert np.linalg.eigvalsh(full).min() >= -1e-10
        c = [rng.uniform(-2.0, 2.0, m) for _ in range(3)]
        ip = inner_product(c[0], c[1], cache)
        n0, n1 = norm(c[0], cache), norm(c[1], cache)
        assert abs(ip) <= n0 * n1 * (1.0 + 1e-10) + 1e-12
        polarized = n0**2 + n1**2 - 2.0 * ip
        d01 = distance_sq(c[0], c[1], cache)
        assert abs(d01 - polarized) <= 1e-10 * max(1.0, abs(polarized))
        d12 = np.sqrt(distance_sq(c[1], c[2], cache))
        d02 = np.sqrt(distance_sq(c[0], c[2], cache))
        assert d02 <= np.sqrt(d01) + d12 + 1e-10
    assert time.monotonic() - t0 < 30.0


def test_03_monte_carlo_matches_closed_forms():
    """inner_product and distance_sq vs 1e7-sample Monte Carlo, 20 pairs."""
    rng = np.random.default_rng(0)
    for trial in range(20):
        m = int(rng.integers(1, 5))
        grid = BasisGrid(np.sort(rng.uniform(-2.5, 2.5, m)))
        k = int(rng.integers(1, 3))
        w = rng.uniform(0.2, 1.0, k)
        w /= w.sum()
        mixture = GaussianMixture(
            w, rng.uniform(-2.0, 2.0, k), rng.uniform(0.3, 2.0, k)
        )
        cache = build_gram(grid, mixture)
        c1 = rng.uniform(-1.5, 1.5, m)
        c2 = rng.uniform(-1.5, 1.5, m)
        (ip_mc, ip_se), (d_mc, d_se) = mc_inner_and_distance(
            c1, c2, grid, mixture, 10_000_000,
            np.random.default_rng(1000 + trial),
        )
        assert abs(ip_mc - inner_product(c1, c2, cache)) <= 4.0 * ip_se
        assert abs(d_mc - distance_sq(c1, c2, cache)) <= 4.0 * d_se


def fd_entry(fn, arr, i, j, eps):
    hi = arr.copy()
    lo = arr.copy()
    hi[i, j] += eps
    lo[i, j] -= eps
    return (fn(hi) - fn(lo)) / (2.0 * eps)


def test_04_gradients_match_finite_differences():
    """Activation, all three regularizer, and network gradients within
    relative error 1e-4 of central differences at 100 points each."""
    rng = np.random.default_rng(40)
    eps = 1e-5
    worst = {}

    # Activation: 100 non-degenerate evaluation points.
    grid = BasisGrid.even(6)
    done = 0
    w = 0.0
    while done < 100:
        coords = rng.uniform(-1.0, 1.0, 6)
        x = float(rng.uniform(-3.0, 3.0))
        if np.abs(np.append(grid.breakpoints, 0.0) - x).min() < 1e-3:
            continue
        done += 1
        fd_x = (
            apl_eval(x + eps, coords, grid) - apl_eval(x - eps, coords, grid)
        ) / (2.0 * eps)
        w = max(w, rel_err(apl_grad_x(x, coords, grid), fd_x))
        gc = apl_grad_coords(x, grid)
        i = int(rng.integers(6))
        hi, lo = coords.copy(), coords.copy()
        hi[i] += eps
        lo[i] -= eps
        fd_c = (apl_eval(x, hi, grid) - apl_eval(x, lo, grid)) / (2.0 * eps)
        w = max(w, rel_err(gc[i], fd_c))
    worst["apl"] = w

    # Regularizers: 100 random matrix entries per kind.
    cache = build_gram(grid, GaussianMixture.standard_normal())
    fns = {
        RegKind.TRACE_NORM: (trace_norm, lambda a: trace_norm_grad(a)),
        RegKind.COSINE: (
            lambda a: cosine_reg(a, cache),
            lambda a: reg_grad(RegKind.COSINE, a, cache),
        ),
        RegKind.DISTANCE: (
            lambda a: distance_reg(a, cache),
            lambda a: reg_grad(RegKind.DISTANCE, a, cache),
        ),
    }
    for kind, (value_fn, grad_fn) in fns.items():
        w = 0.0
        for _ in range(10):
            while True:
                alpha = (
                    rng.uniform(0.1, 1.0, (4, 6))
                    if kind is RegKind.COSINE
                    else rng.uniform(-1.0, 1.0, (4, 6))
                )
                if kind is not RegKind.TRACE_NORM:
                    break
                # Non-degenerate: singular values separated from zero so the
                # nuclear norm is differentiable at alpha.
                if np.linalg.svd(alpha, compute_uv=False).min() > 0.05:
                    break
            grad = grad_fn(alpha)
            for _ in range(10):
                i = int(rng.integers(4))
                j = int(rng.integers(6))
                w = max(
                    w, rel_err(grad[i, j], fd_entry(value_fn, alpha, i, j, eps))
                )
        worst[kind.value] = w

    # Network backward: 100 parameter entries across 10 random setups.
    w = 0.0
    arch = ArchitectureSpec(4, (5,), 2, task_count=2, basis_count=4)
    for setup in range(10):
        model = build_model(arch, 400 + setup)
        for layer in model.layers:
            layer.coords[:] = rng.uniform(-0.5, 0.5, layer.coords.shape)
        x = rng.standard_normal((3, 4))
        projection = rng.standard_normal((3, 2))
        _, trace = forward(model, {0: x})
        grads = param_views(model, backward(model, trace, {0: projection}))
        params = model_parameters(model)

        def objective():
            return float(np.sum(forward(model, {0: x})[0][0] * projection))

        for _ in range(10):
            a = int(rng.integers(len(params)))
            flat, gflat = params[a].reshape(-1), grads[a].reshape(-1)
            i = int(rng.integers(flat.size))
            old = flat[i]
            flat[i] = old + eps
            hi = objective()
            flat[i] = old - eps
            lo = objective()
            flat[i] = old
            w = max(w, rel_err(gflat[i], (hi - lo) / (2.0 * eps)))
    worst["network"] = w

    assert all(v <= 1e-4 for v in worst.values()), worst


def jacobi_singular_values(a, sweeps=60, tol=1e-14):
    """One-sided Jacobi SVD, independent of the LAPACK route."""
    a = np.array(a, dtype=np.float64)
    if a.shape[0] < a.shape[1]:
        a = a.T.copy()
    n = a.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[:, p] @ a[:, q]
                app = a[:, p] @ a[:, p]
                aqq = a[:, q] @ a[:, q]
                denom = np.sqrt(app * aqq)
                if denom > 0.0:
                    off = max(off, abs(apq) / denom)
                if abs(apq) < 1e-300:
                    continue
                tau = (aqq - app) / (2.0 * apq)
                if tau == 0.0:
                    t = 1.0
                else:
                    t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                ap = a[:, p].copy()
                a[:, p] = c * ap - s * a[:, q]
                a[:, q] = s * ap + c * a[:, q]
        if off < tol:
            break
    return np.sqrt(np.sum(a * a, axis=0))


def test_05_nuclear_norm_matches_jacobi_svd():
    """trace_norm vs an in-test one-sided Jacobi SVD on 100 matrices up to
    16x64, absolute error within 1e-10."""
    rng = np.random.default_rng(0)
    shapes = [(16, 64), (1, 17), (16, 2), (8, 8)]
    while len(shapes) < 100:
        shapes.append((int(rng.integers(1, 17)), int(rng.integers(1, 65))))
    worst = 0.0
    for shape in shapes:
        a = rng.standard_normal(shape)
        worst = max(worst, abs(trace_norm(a) - jacobi_singular_values(a).sum()))
    assert worst <= 1e-10, f"worst |diff| = {worst:.3e}"


def test_06_hard_sharing_reduction():
    """Identical coordinate rows + tied heads collapse the tasks to one
    function; to_hard_sharing is idempotent."""
    arch = ArchitectureSpec(6, (8, 5), 1, task_count=8, basis_count=8)
    model = build_model(arch, 60)
    rng = np.random.default_rng(61)
    for layer in model.layers:
        layer.coords[:] = rng.uniform(-0.5, 0.5, layer.coords.shape)
    shared = tie_heads(to_hard_sharing(model))
    x = rng.standard_normal((16, 6))
    base = forward(shared, {0: x})[0][0]
    for task in range(1, 8):
        out = forward(shared, {task: x})[0][task]
        assert np.max(np.abs(out - base)) <= 1e-12
    once = to_hard_sharing(model)
    twice = to_hard_sharing(once)
    for a, b in zip(once.layers, twice.layers):
        assert np.array_equal(a.coords, b.coords)


def test_07_layer1_bounds_hold_and_are_tight():
    """On the exact-Gaussian construction with envelope constant 1, both
    layer-1 bounds hold and are equalities within 3 standard errors at 1e6
    Monte-Carlo samples for each of 10 seeds."""
    arch = ArchitectureSpec(6, (8,), 1, task_count=2, basis_count=6)
    for seed in range(10):
        model = build_model(arch, seed)
        rng = np.random.default_rng(seed + 500)
        model.layers[0].coords[:] = rng.uniform(
            -0.5, 0.5, model.layers[0].coords.shape
        )
        units = layer1_unit_gaussians(model)
        report = check_l1_bounds(
            model, units, 1.0, (0, 1), mc_samples=1_000_000, seed=seed + 99
        )
        assert report.inner_pass and report.dist_pass, (seed, report)
        assert abs(report.inner_left - report.inner_right) <= 3.0 * report.inner_se
        assert abs(report.dist_left - report.dist_right) <= 3.0 * report.dist_se


CLUSTERS = (0, 0, 0, 0, 1, 1, 1, 1)
SEEDS = (103, 104, 105, 304, 305)
COEFFICIENTS = (0.0, 0.1, 1.0, 10.0)
HIDDEN = (32,)
BASIS_COUNT = 16
EPOCHS = 150
BATCH = 64
LEARNING_RATE = 3e-3


def _benchmark_data(seed):
    return generate(
        SyntheticSpec(
            task_count=8,
            samples_per_task=1000,
            input_dim=8,
            clusters=CLUSTERS,
            relatedness=0.3,
            noise=0.3,
            seed=seed,
            train_fraction=0.3,
            val_fraction=0.2,
        )
    )


def _taan_run(datasets, seed, coefficient):
    arch = ArchitectureSpec(8, HIDDEN, 1, task_count=8, basis_count=BASIS_COUNT)
    model = build_model(arch, seed + 1000)
    reg = (
        RegConfig(RegKind.DISTANCE, coefficient)
        if coefficient > 0
        else RegConfig(RegKind.NONE, 0.0)
    )
    config = TrainConfig(
        epochs=EPOCHS,
        batch_size=BATCH,
        learning_rate=LEARNING_RATE,
        seed=seed + 2000,
        reg=reg,
    )
    model, history = train(model, datasets, config)
    mse = float(
        np.mean(
            [evaluate(model, d.test, t, "mse") for t, d in enumerate(datasets)]
        )
    )
    distance = float(np.mean(list(history.final_mean_distances().values())))
    separation = cluster_separation(layer_distances(model)[-1].matrix, CLUSTERS)
    return mse, distance, separation


def _stl_run(datasets, seed):
    losses = []
    for t, split in enumerate(datasets):
        arch = ArchitectureSpec(8, HIDDEN, 1, task_count=1, basis_count=BASIS_COUNT)
        model = build_model(arch, seed + 1000 + 31 * t)
        config = TrainConfig(
            epochs=EPOCHS,
            batch_size=BATCH,
            learning_rate=LEARNING_RATE,
            seed=seed + 2000 + 17 * t,
        )
        model, _ = train(model, [split], config)
        losses.append(evaluate(model, split.test, 0, "mse"))
    return float(np.mean(losses))


@pytest.fixture(scope="module")
def benchmark_results():
    t0 = time.monotonic()
    results = {}
    for seed in SEEDS:
        datasets = _benchmark_data(seed)
        sweep = {c: _taan_run(datasets, seed, c) for c in COEFFICIENTS}
        results[seed] = {"sweep": sweep, "stl_mse": _stl_run(datasets, seed)}
    results["elapsed"] = time.monotonic() - t0
    return results


def test_08_distance_non_increasing_in_regularizer_strength(benchmark_results):
    """Final mean pairwise activation distance is non-increasing in the
    distance-regularizer coefficient over {0, 0.1, 1, 10} on every seed."""
    for seed in SEEDS:
        sweep = benchmark_results[seed]["sweep"]
        dists = [sweep[c][1] for c in COEFFICIENTS]
        assert all(
            dists[i + 1] <= dists[i] for i in range(len(dists) - 1)
        ), (seed, dists)
    assert benchmark_results["elapsed"] < 600.0


def test_09_mtl_benefit_and_cluster_recovery(benchmark_results):
    """Mean test MSE orders regularized <= plain multi-task <= single-task on
    at least 4 of 5 seeds, and the final-layer distance matrix separates the
    planted clusters (within < between) on at least 4 of 5 seeds."""
    chain_wins = 0
    recovery_wins = 0
    for seed in SEEDS:
        sweep = benchmark_results[seed]["sweep"]
        stl = benchmark_results[seed]["stl_mse"]
        chain_wins += sweep[0.1][0] <= sweep[0.0][0] <= stl
        within, between = sweep[0.1][2]
        recovery_wins += within < between
    assert chain_wins >= 4, f"MSE chain held on {chain_wins}/5 seeds"
    assert recovery_wins >= 4, f"cluster recovery on {recovery_wins}/5 seeds"


def test_10_seeded_reruns_are_byte_identical(tmp_path):
    """The train command repeated with one seed writes byte-identical
    history CSVs."""
    config = {
        "seed": 5,
        "arch": {"hidden_widths": [8], "basis_count": 4},
        "train": {
            "epochs": 3,
            "batch_size": 32,
            "learning_rate": 1e-3,
            "reg": {"kind": "dis", "coefficient": 0.5},
        },
        "data": {
            "synthetic": {
                "task_count": 2,
                "samples_per_task": 60,
                "input_dim": 4,
                "clusters": [0, 0],
                "relatedness": 0.3,
                "noise": 0.1,
            }
        },
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    payloads = []
    for out in ("first", "second"):
        proc = subprocess.run(
            [sys.executable, "-m", "taan", "train", "--config", str(cfg),
             "--out", out],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=child_env(),
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        payloads.append((tmp_path / out / "history/history.csv").read_bytes())
    assert payloads[0] == payloads[1]
