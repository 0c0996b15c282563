"""Activation kernels over a sorted breakpoint grid.

F(x) = max(0, x) + sum_i coords[i] * max(0, bps[i] - x) is linear on each of
the M + 1 intervals that the M sorted breakpoints cut the line into.  The
kernels find each element's interval by binary search,
k = #{i : bps[i] <= x}, and read F off two per-interval tables, so a call
costs O(n log M) time and O(n + M) memory.  On interval k the active hinges
are i >= k, so with the suffix sums

    A[k] = sum_{i >= k} coords[i] * bps[i],    B[k] = sum_{i >= k} coords[i],

F(x) = max(0, x) + A[k] - B[k] * x, where A[M] = B[M] = 0.

Because k counts the breakpoints equal to x, a hinge is inactive at
x = bps[i] for both value and gradient; the relu slope is the right
derivative at 0, also at x = -0.0.  Inputs are 1-D float64 arrays; coords
and bps have length M >= 1 and bps is strictly increasing.
"""

import numpy as np

BACKEND = "numpy"


def _suffix_sums(coords, bps):
    """The (A, B) interval tables, each of length M + 1."""
    m = bps.shape[0]
    tables = np.zeros((2, m + 1))
    tables[0, :m] = coords * bps
    tables[1, :m] = coords
    return np.cumsum(tables[:, ::-1], axis=1)[:, ::-1]


def apl_forward(x, coords, bps):
    """max(0, x) + sum_i coords[i] * max(0, bps[i] - x), elementwise over x."""
    k = np.searchsorted(bps, x, side="right")
    a, b = _suffix_sums(coords, bps)
    # Clipping x at the last breakpoint changes no finite value (B[M] = 0
    # past it) and keeps x = +inf from turning 0 * inf into NaN.
    return np.maximum(x, 0.0) + (a[k] - b[k] * np.minimum(x, bps[-1]))


def apl_backward(x, coords, bps, gout):
    """Backward pass of the forward kernel.

    Returns (gx, gcoords) where gx[j] = gout[j] * dF/dx at x[j] and
    gcoords[i] = sum_j gout[j] * max(0, bps[i] - x[j]).  Every interval
    k <= i lies below bps[i], so gcoords[i] is bps[i] times the running sum
    of gout over intervals 0..i, minus the running sum of gout * x.
    """
    m = bps.shape[0]
    k = np.searchsorted(bps, x, side="right")
    _, b = _suffix_sums(coords, bps)
    gx = gout * ((x >= 0.0) - b[k])
    g_sum = np.bincount(k, gout, m + 1)
    gx_sum = np.bincount(k, gout * np.minimum(x, bps[-1]), m + 1)
    gcoords = bps * np.cumsum(g_sum[:m]) - np.cumsum(gx_sum[:m])
    # Interval M (x >= bps[-1], and NaN, which searchsorted sorts last)
    # contributes gout * 0 to every coordinate; adding 0 * its sum keeps a
    # NaN there visible, as it is in the direct sum.
    return gx, gcoords + 0.0 * gx_sum[m]
