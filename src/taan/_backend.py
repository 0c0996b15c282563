"""Activation kernels over a sorted breakpoint grid.

F(x) = max(0, x) + sum_i coords[i] * max(0, bps[i] - x) is linear on each of
the M + 1 intervals that the M sorted breakpoints cut the line into.  With
k = #{i : bps[i] <= x} the active hinges are i >= k, so with the suffix sums

    A[k] = sum_{i >= k} coords[i] * bps[i],    B[k] = sum_{i >= k} coords[i],

F(x) = max(0, x) + A[k] - B[k] * x, where A[M] = B[M] = 0.

The work is split in three passes so that one interval search serves every
task, and the backward pass reuses the forward pass's search:

* ``intervals`` finds k for each element;
* ``apl_forward`` reads F off the (A, B) tables of every task's coordinate
  row, stacked by ``suffix_tables`` with row t at offset t * (M + 1), at the
  flat index t * (M + 1) + k;
* ``apl_backward`` gives dF/dx and, from bincounts over the same index,
  every task's coordinate gradient at once.

Because k counts the breakpoints equal to x, a hinge is inactive at
x = bps[i] for both value and gradient; the relu slope is the right
derivative at 0, also at x = -0.0.  Inputs are 1-D float64 arrays; bps has
length M >= 1 and is strictly increasing.  The forward passes write into
optional ``out`` and ``scratch`` arrays shaped like x (``intervals`` takes
a float and a bool scratch) and allocate what is not given.
"""

import numpy as np

BACKEND = "numpy"


def _even_guess(x, shift, scale, m, out=None, scratch=None):
    # (x - bps[0]) * (M - 1) / (bps[-1] - bps[0]) + 1/2 as x * scale + shift,
    # clipped to [0, M] and truncated (= floored, being >= 0).  Every step is
    # monotone in x, which even_lookup's exactness check relies on; fmin
    # runs before fmax so that NaN lands on M, where searchsorted sorts it.
    t = np.multiply(x, scale, out=scratch)
    t += shift
    np.fmin(t, m, out=t)
    np.fmax(t, 0.0, out=t)
    if out is None:
        return t.astype(np.intp)
    np.copyto(out, t, casting="unsafe")  # the same truncating cast
    return out


def even_lookup(bps):
    """Tables for the even-grid interval lookup, or None where it is not
    exact.

    The guess sits half an interval low, so that it is k or k - 1 for the
    true index k and one upward correction makes it exact.  It is monotone
    in x, so that holds for every x if it holds at the ends of every
    interval: at each breakpoint bps[i] (true index i + 1) the guess must be
    i or i + 1, and at the float just below it (true index i) i - 1 or i.
    That holds for evenly spaced grids; M = 1 and irregular grids get None.
    """
    m = bps.shape[0]
    if m < 2:
        return None
    scale = (m - 1) / (bps[-1] - bps[0])
    shift = 0.5 - bps[0] * scale
    if not (np.isfinite(scale) and np.isfinite(shift)):
        return None
    i = np.arange(m)
    at = _even_guess(bps, shift, scale, m) - i
    below = _even_guess(np.nextafter(bps, -np.inf), shift, scale, m) - i
    if not (np.all((at == 0) | (at == 1)) and np.all((below == -1) | (below == 0))):
        return None
    # The NaN end pad compares false, so x = +inf (and NaN) stays at k = M.
    return shift, scale, np.append(bps, np.nan)


def intervals(x, bps, lookup=None, out=None, scratch=(None, None)):
    """k = #{i : bps[i] <= x} for each element, exactly
    ``searchsorted(bps, x, side="right")``; ``lookup`` is ``even_lookup(bps)``."""
    if lookup is None:
        if out is None:
            return np.searchsorted(bps, x, side="right")
        out[:] = np.searchsorted(bps, x, side="right")
        return out
    shift, scale, upper = lookup
    fl, bl = scratch
    with np.errstate(over="ignore"):  # |x| near the float maximum
        k = _even_guess(x, shift, scale, bps.shape[0], out, fl)
    k += np.greater_equal(x, np.take(upper, k, out=fl, mode="clip"), out=bl)
    return k


def suffix_tables(coords, bps):
    """The (A, B) interval tables of each coordinate row, as one (2, T*(M+1))
    array: row t's tables sit at columns t*(M+1) ... t*(M+1) + M."""
    m = bps.shape[0]
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, m)
    tables = np.zeros((2, coords.shape[0], m + 1))
    tables[0, :, :m] = coords * bps
    tables[1, :, :m] = coords
    return np.cumsum(tables[:, :, ::-1], axis=2)[:, :, ::-1].reshape(2, -1)


def hinge_sum(x, idx, tables, bps, out=None, scratch=None):
    """sum_i coords[i] * max(0, bps[i] - x) read off the tables at idx."""
    # Clipping x at the last breakpoint changes no finite value (B[M] = 0
    # past it) and keeps x = +inf from turning 0 * inf into NaN.  The
    # passes reuse their buffers: at network sizes, allocating temporaries
    # costs more than the arithmetic.  The indices are in range by
    # construction; take's default mode="raise" would copy into ``out``.
    out = np.take(tables[1], idx, out=out, mode="clip")
    out *= np.minimum(x, bps[-1], out=scratch)
    hinge = np.take(tables[0], idx, out=scratch, mode="clip")
    return np.subtract(hinge, out, out=out)


def apl_forward(x, idx, tables, bps, out=None, scratch=None):
    """F(x[j]) with the coordinate row whose tables hold entry idx[j]."""
    out = hinge_sum(x, idx, tables, bps, out, scratch)
    out += np.maximum(x, 0.0, out=scratch)
    return out


def apl_backward(x, idx, tables, bps, gout):
    """Backward pass of the forward kernel.

    Returns (gx, gcoords) where gx[j] = gout[j] * dF/dx at x[j], and
    gcoords[t, i] = sum of gout[j] * max(0, bps[i] - x[j]) over the elements
    j of row t.  Every interval k <= i lies below bps[i], so gcoords[t, i] is
    bps[i] times the running sum of row t's gout over intervals 0..i, minus
    the running sum of gout * x.
    """
    m = bps.shape[0]
    size = tables.shape[1]
    gx = np.take(tables[1], idx)
    np.subtract(x >= 0.0, gx, out=gx)
    gx *= gout
    g_sum = np.bincount(idx, gout, size).reshape(-1, m + 1)
    gout_x = np.minimum(x, bps[-1])
    gout_x *= gout
    gx_sum = np.bincount(idx, gout_x, size).reshape(-1, m + 1)
    gcoords = bps * np.cumsum(g_sum[:, :m], axis=1) - np.cumsum(gx_sum[:, :m], axis=1)
    # Interval M (x >= bps[-1], and NaN, which sorts last) contributes
    # gout * 0 to every coordinate; adding 0 * its sum keeps a NaN there
    # visible, as it is in the direct sum.
    return gx, gcoords + 0.0 * gx_sum[:, m:]
