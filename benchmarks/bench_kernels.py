"""Throughput of the activation kernels.

Run as ``python3 benchmarks/bench_kernels.py`` from a checkout; the
package is imported from the checkout's ``src/``.  Times the three kernel
passes over a grid of (elements, basis size) on an evenly spaced grid, and
reports the best of ``REPEATS`` runs in nanoseconds per element, each next
to the minor page faults per call (``resource.getrusage``), that is, pages
the allocator returned to the system and a call touched again:

* ``intervals``: the even-grid interval lookup, next to the binary search
  (``searchsorted``) it replaces on even grids;
* ``apl_forward``: the value pass over the suffix tables;
* ``apl_backward``: dF/dx and the coordinate gradient;

called as a training step calls them: the lookup and the value pass write
into arrays allocated once per size (``out`` and ``scratch``), the backward
pass allocates its results (so does the binary search, which the step does
not call on even grids);

the Gram cache build (``metrics.build_gram``) in milliseconds, at the
acceptance shape (M = 16, standard normal) and the geometry shape (M = 64,
a 3-component mixture), and ``save_checkpoint`` / ``load_checkpoint`` in
milliseconds at the geometry shape (16 tasks, three 64-wide layers,
M = 64, a 3-component mixture), next to the median of ``MODEL_REPEATS``
``build_model`` calls at that shape; and the Monte-Carlo throughput, in
samples per second over ``MC_SAMPLES`` samples, of
``metrics.mc_inner_and_distance`` (a 2-component mixture, M = 4) and of
``analysis.check_l1_bounds`` (8 inputs, 16 units, M = 16), each next to the
peak memory ``tracemalloc`` traces during one more call.
"""

import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from taan import _backend
from taan.analysis import check_l1_bounds, layer1_unit_gaussians
from taan.apl import BasisGrid
from taan.metrics import MC_CHUNK, GaussianMixture, build_gram, mc_inner_and_distance
from taan.network import ArchitectureSpec, build_model, load_checkpoint, save_checkpoint

# The interval rows cover the fused training step's sizes: the acceptance
# config (8 tasks x 64 rows x 32 units, M = 16), a 4-task, 256-row, 64-wide
# layer with M = 64, and one Monte-Carlo chunk of the bound check (M = 16).
INTERVAL_SIZES = ((16_384, 16), (65_536, 64), (MC_CHUNK, 16))
SIZES = (10_000, 100_000, 1_000_000)
BASIS = (8, 32, 64)
GRAM_SIZES = ((16, 1), (64, 3))
REPEATS = 5
MODEL_REPEATS = 101
MC_SAMPLES = 1_000_000


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def times_s(fn, args, repeats=REPEATS):
    """Times of ``repeats`` calls after a warm-up call, and the minor page
    faults per call over them."""
    fn(*args)  # warm-up
    before = minor_faults()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return times, (minor_faults() - before) / repeats


def best_s(fn, *args):
    return min(times_s(fn, args)[0])


def ns_and_faults(fn, n, *args):
    """Best ns per element of ``REPEATS`` calls, and minor faults per call."""
    times, faults = times_s(fn, args)
    return min(times) * 1e9 / n, faults


def buffers(n):
    """The step's per-pass arrays for n elements: interval indices, values,
    and the float and bool scratch."""
    return np.empty(n, np.intp), np.empty(n), np.empty(n), np.empty(n, bool)


def peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main():
    rng = np.random.default_rng(0)
    header = (
        f"{'n':>9} {'M':>4} {'searchsorted':>13} {'faults':>7}"
        f" {'intervals':>10} {'faults':>7}"
    )
    print("interval lookup, ns/element and minor page faults per call")
    print(header)
    print("-" * len(header))
    for n, m in INTERVAL_SIZES:
        x = rng.standard_normal(n) * 1.5
        bps = np.linspace(-2.0, 2.0, m)
        lookup = _backend.even_lookup(bps)
        k, _, fl, bl = buffers(n)
        binary = ns_and_faults(_backend.intervals, n, x, bps)
        even = ns_and_faults(_backend.intervals, n, x, bps, lookup, k, (fl, bl))
        print(
            f"{n:>9} {m:>4} {binary[0]:>13.1f} {binary[1]:>7.1f}"
            f" {even[0]:>10.1f} {even[1]:>7.1f}"
        )
    print()
    header = (
        f"{'n':>9} {'M':>4} {'forward':>10} {'faults':>7}"
        f" {'backward':>10} {'faults':>7}"
    )
    print("value and gradient passes, ns/element and minor page faults per call")
    print(header)
    print("-" * len(header))
    for n in SIZES:
        x = rng.standard_normal(n)
        gout = rng.standard_normal(n)
        k, value, fl, bl = buffers(n)
        for m in BASIS:
            bps = np.linspace(-2.0, 2.0, m)
            tables = _backend.suffix_tables(rng.uniform(-1.0, 1.0, m), bps)
            _backend.intervals(x, bps, _backend.even_lookup(bps), k, (fl, bl))
            fwd_args = (x, k, tables, bps, value, fl)
            fwd = ns_and_faults(_backend.apl_forward, n, *fwd_args)
            bwd = ns_and_faults(_backend.apl_backward, n, x, k, tables, bps, gout)
            print(
                f"{n:>9} {m:>4} {fwd[0]:>10.1f} {fwd[1]:>7.1f}"
                f" {bwd[0]:>10.1f} {bwd[1]:>7.1f}"
            )
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
    build_times = times_s(build_model, (arch, 0), MODEL_REPEATS)[0]
    build_ms = statistics.median(build_times) * 1e3
    print(f"{'build_model':>16} {build_ms:>8.3f}  (median)")
    print()
    header = f"{'call':>22} {'samples/s':>11} {'peak MB':>8}"
    print(f"Monte Carlo, {MC_SAMPLES} samples")
    print(header)
    print("-" * len(header))
    grid = BasisGrid.even(4)
    mixture = GaussianMixture(
        np.array([0.4, 0.6]), np.array([-0.5, 0.8]), np.array([0.7, 1.3])
    )
    c1, c2 = rng.uniform(-1.0, 1.0, (2, len(grid)))
    mc_args = (c1, c2, grid, mixture, MC_SAMPLES, rng)
    mc_s = best_s(mc_inner_and_distance, *mc_args)
    mc_mb = peak_mb(mc_inner_and_distance, *mc_args)
    print(f"{'mc_inner_and_distance':>22} {MC_SAMPLES / mc_s:>11.3g} {mc_mb:>8.1f}")
    model = build_model(ArchitectureSpec(8, (16,), 1, task_count=2, basis_count=16), 0)
    model.layers[0].coords[:] = rng.uniform(0.0, 0.5, model.layers[0].coords.shape)
    units = layer1_unit_gaussians(model)
    bounds_args = (model, units, 1.0, (0, 1), MC_SAMPLES)
    bounds_s = best_s(check_l1_bounds, *bounds_args)
    bounds_mb = peak_mb(check_l1_bounds, *bounds_args)
    print(f"{'check_l1_bounds':>22} {MC_SAMPLES / bounds_s:>11.3g} {bounds_mb:>8.1f}")


if __name__ == "__main__":
    main()
