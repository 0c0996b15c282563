"""Throughput of the activation kernels.

Run as ``python3 benchmarks/bench_kernels.py``.  Times the forward and
backward kernels over a grid of (elements, basis size) and reports the best
of ``REPEATS`` runs, in seconds and in nanoseconds per element.
"""

import time

import numpy as np

from taan import _backend

SIZES = (10_000, 100_000, 1_000_000)
BASIS = (8, 32, 64)
REPEATS = 5


def best_time(fn, *args):
    fn(*args)  # warm-up
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    rng = np.random.default_rng(0)
    header = (
        f"{'n':>9} {'M':>4} {'fwd s':>10} {'fwd ns/el':>10}"
        f" {'bwd s':>10} {'bwd ns/el':>10}"
    )
    print(header)
    print("-" * len(header))
    for n in SIZES:
        x = rng.standard_normal(n)
        gout = rng.standard_normal(n)
        for m in BASIS:
            coords = rng.uniform(-1.0, 1.0, m)
            bps = np.linspace(-2.0, 2.0, m)
            fwd = best_time(_backend.apl_forward, x, coords, bps)
            bwd = best_time(_backend.apl_backward, x, coords, bps, gout)
            print(
                f"{n:>9} {m:>4} {fwd:>10.2e} {fwd * 1e9 / n:>10.1f}"
                f" {bwd:>10.2e} {bwd * 1e9 / n:>10.1f}"
            )


if __name__ == "__main__":
    main()
