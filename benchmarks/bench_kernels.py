"""Throughput of the activation kernels.

Run as ``python3 benchmarks/bench_kernels.py``.  Times the three kernel
passes over a grid of (elements, basis size) on an evenly spaced grid, and
reports the best of ``REPEATS`` runs in nanoseconds per element:

* ``intervals``: the even-grid interval lookup, next to the binary search
  (``searchsorted``) it replaces on even grids;
* ``apl_forward``: the value pass over the suffix tables;
* ``apl_backward``: dF/dx and the coordinate gradient;

the Gram cache build (``metrics.build_gram``) in milliseconds, at the
acceptance shape (M = 16, standard normal) and the geometry shape (M = 64,
a 3-component mixture), and ``save_checkpoint`` / ``load_checkpoint`` in
milliseconds at the geometry shape (16 tasks, three 64-wide layers,
M = 64, a 3-component mixture), next to the median of ``MODEL_REPEATS``
``build_model`` calls at that shape; and the Monte-Carlo throughput, in
samples per second over ``MC_SAMPLES`` samples, of
``metrics.mc_inner_and_distance`` (a 2-component mixture, M = 4) and of
``analysis.check_l1_bounds`` (8 inputs, 16 units, M = 16).
"""

import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from taan import _backend
from taan.analysis import check_l1_bounds, layer1_unit_gaussians
from taan.apl import BasisGrid
from taan.metrics import GaussianMixture, build_gram, mc_inner_and_distance
from taan.network import ArchitectureSpec, build_model, load_checkpoint, save_checkpoint

# The interval rows cover the fused training step's sizes: the acceptance
# config (8 tasks x 64 rows x 32 units, M = 16), a 4-task, 256-row, 64-wide
# layer with M = 64, and a Monte-Carlo chunk.
INTERVAL_SIZES = ((16_384, 16), (65_536, 64), (1_000_000, 64))
SIZES = (10_000, 100_000, 1_000_000)
BASIS = (8, 32, 64)
GRAM_SIZES = ((16, 1), (64, 3))
REPEATS = 5
MODEL_REPEATS = 101
MC_SAMPLES = 1_000_000


def times_s(fn, args, repeats=REPEATS):
    fn(*args)  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return times


def best_s(fn, *args):
    return min(times_s(fn, args))


def best_ns_per_elem(fn, n, *args):
    return best_s(fn, *args) * 1e9 / n


def main():
    rng = np.random.default_rng(0)
    header = f"{'n':>9} {'M':>4} {'searchsorted':>13} {'intervals':>10}"
    print("interval lookup, ns/element")
    print(header)
    print("-" * len(header))
    for n, m in INTERVAL_SIZES:
        x = rng.standard_normal(n) * 1.5
        bps = np.linspace(-2.0, 2.0, m)
        lookup = _backend.even_lookup(bps)
        binary = best_ns_per_elem(_backend.intervals, n, x, bps)
        even = best_ns_per_elem(_backend.intervals, n, x, bps, lookup)
        print(f"{n:>9} {m:>4} {binary:>13.1f} {even:>10.1f}")
    print()
    header = f"{'n':>9} {'M':>4} {'forward':>10} {'backward':>10}"
    print("value and gradient passes, ns/element")
    print(header)
    print("-" * len(header))
    for n in SIZES:
        x = rng.standard_normal(n)
        gout = rng.standard_normal(n)
        for m in BASIS:
            bps = np.linspace(-2.0, 2.0, m)
            tables = _backend.suffix_tables(rng.uniform(-1.0, 1.0, m), bps)
            k = _backend.intervals(x, bps, _backend.even_lookup(bps))
            fwd = best_ns_per_elem(_backend.apl_forward, n, x, k, tables, bps)
            bwd = best_ns_per_elem(_backend.apl_backward, n, x, k, tables, bps, gout)
            print(f"{n:>9} {m:>4} {fwd:>10.1f} {bwd:>10.1f}")
    print()
    header = f"{'M':>4} {'K':>3} {'build_gram ms':>14}"
    print("Gram cache build")
    print(header)
    print("-" * len(header))
    for m, k in GRAM_SIZES:
        mixture = GaussianMixture(
            rng.dirichlet(np.ones(k)),
            rng.uniform(-1.0, 1.0, k),
            rng.uniform(0.5, 2.0, k),
        )
        ms = best_s(build_gram, BasisGrid.even(m), mixture) * 1e3
        print(f"{m:>4} {k:>3} {ms:>14.3f}")
    print()
    arch = ArchitectureSpec(8, (64, 64, 64), 1, task_count=16, basis_count=64)
    model = build_model(arch, 0)
    mixture = GaussianMixture(
        rng.dirichlet(np.ones(3)), rng.uniform(-1.0, 1.0, 3), rng.uniform(0.5, 2.0, 3)
    )
    header = f"{'call':>16} {'ms':>8}"
    print("checkpoint and model build at the geometry shape")
    print(header)
    print("-" * len(header))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.npz"
        save_ms = best_s(save_checkpoint, model, path, mixture, 0) * 1e3
        load_ms = best_s(load_checkpoint, path) * 1e3
    print(f"{'save_checkpoint':>16} {save_ms:>8.3f}")
    print(f"{'load_checkpoint':>16} {load_ms:>8.3f}")
    build_ms = statistics.median(times_s(build_model, (arch, 0), MODEL_REPEATS)) * 1e3
    print(f"{'build_model':>16} {build_ms:>8.3f}  (median)")
    print()
    header = f"{'call':>22} {'samples/s':>11}"
    print(f"Monte Carlo, {MC_SAMPLES} samples")
    print(header)
    print("-" * len(header))
    grid = BasisGrid.even(4)
    mixture = GaussianMixture(
        np.array([0.4, 0.6]), np.array([-0.5, 0.8]), np.array([0.7, 1.3])
    )
    c1, c2 = rng.uniform(-1.0, 1.0, (2, len(grid)))
    mc_s = best_s(mc_inner_and_distance, c1, c2, grid, mixture, MC_SAMPLES, rng)
    print(f"{'mc_inner_and_distance':>22} {MC_SAMPLES / mc_s:>11.3g}")
    model = build_model(ArchitectureSpec(8, (16,), 1, task_count=2, basis_count=16), 0)
    model.layers[0].coords[:] = rng.uniform(0.0, 0.5, model.layers[0].coords.shape)
    units = layer1_unit_gaussians(model)
    bounds_s = best_s(check_l1_bounds, model, units, 1.0, (0, 1), MC_SAMPLES)
    print(f"{'check_l1_bounds':>22} {MC_SAMPLES / bounds_s:>11.3g}")


if __name__ == "__main__":
    main()
