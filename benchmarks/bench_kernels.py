"""Throughput of the activation kernels.

Run as ``python3 benchmarks/bench_kernels.py``.  Times the three kernel
passes over a grid of (elements, basis size) on an evenly spaced grid, and
reports the best of ``REPEATS`` runs in nanoseconds per element:

* ``intervals``: the even-grid interval lookup, next to the binary search
  (``searchsorted``) it replaces on even grids;
* ``apl_forward``: the value pass over the suffix tables;
* ``apl_backward``: dF/dx and the coordinate gradient.
"""

import time

import numpy as np

from taan import _backend

# The interval rows cover the fused training step's sizes: the acceptance
# config (8 tasks x 64 rows x 32 units, M = 16), a 4-task, 256-row, 64-wide
# layer with M = 64, and a Monte-Carlo chunk.
INTERVAL_SIZES = ((16_384, 16), (65_536, 64), (1_000_000, 64))
SIZES = (10_000, 100_000, 1_000_000)
BASIS = (8, 32, 64)
REPEATS = 5


def best_ns_per_elem(fn, n, *args):
    fn(*args)  # warm-up
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best * 1e9 / n


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


if __name__ == "__main__":
    main()
