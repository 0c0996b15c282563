"""Adaptive piecewise-linear activation functions over a fixed hinge grid.

An activation is F(x) = max(0, x) + sum_i coords[i] * max(0, -x + b_i) for a
grid of breakpoints {b_i}.  The breakpoints are fixed (not trained), so every
Gram structure built on them stays constant; only the coordinates are
task-specific and learned.
"""

from dataclasses import dataclass, field

import numpy as np

from taan import _backend
from taan.data import _whole

# The default (lo, hi) span of an even hinge grid.
BASIS_RANGE = (-2.0, 2.0)


@dataclass(frozen=True)
class BasisGrid:
    """Strictly increasing, finite hinge locations shared by activations.

    ``lookup`` is derived from the breakpoints: the even-grid interval
    lookup where it is exact for them, else None (binary search).
    """

    breakpoints: np.ndarray
    lookup: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bps = np.asarray(self.breakpoints, dtype=np.float64)
        if bps.ndim != 1 or bps.size < 1:
            raise ValueError("breakpoints must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(bps)):
            raise ValueError("breakpoints must all be finite")
        if bps.size > 1 and not np.all(np.diff(bps) > 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        bps = np.ascontiguousarray(bps)
        bps.flags.writeable = False
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "lookup", _backend.even_lookup(bps))

    @classmethod
    def even(cls, basis_count, lo=BASIS_RANGE[0], hi=BASIS_RANGE[1]):
        """Evenly spaced grid of ``basis_count`` breakpoints on [lo, hi]."""
        basis_count = _whole("basis_count", basis_count, 1)
        if basis_count == 1:
            return cls(np.array([0.5 * (lo + hi)]))
        return cls(np.linspace(lo, hi, basis_count))

    def __len__(self):
        return self.breakpoints.size

    def intervals(self, x, out=None, scratch=(None, None)):
        """Interval index #{i : b_i <= x} of each element of a 1-D array;
        ``out`` and ``scratch`` as in ``_backend.intervals``."""
        return _backend.intervals(x, self.breakpoints, self.lookup, out, scratch)


def _coords(values, width, ndim=1):
    """Coordinates as a contiguous float64 row of shape (width,) or, with
    ``ndim`` 2, a (tasks, width) matrix; a width of None accepts any.  Any
    other shape raises ValueError naming the coordinates and both shapes.
    Finiteness is left to the caller."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != ndim or width not in (None, values.shape[-1]):
        name, shape = ("row", "({},)") if ndim == 1 else ("matrix", "(tasks, {})")
        expected = shape.format("M" if width is None else width)
        raise ValueError(
            f"coordinate {name} has shape {values.shape}, expected {expected}"
        )
    return values


def apl_eval(x, coords, grid):
    """F(x) = max(0, x) + sum_i coords[i] * max(0, -x + b_i), scalar x."""
    coords = _coords(coords, len(grid))
    acc = x if x > 0.0 else 0.0
    for ci, bi in zip(coords, grid.breakpoints):
        d = bi - x
        if d > 0.0:
            acc += ci * d
    return float(acc)


def apl_eval_pair(x, coords1, coords2, grid):
    """(F1, F2, F1 - F2) over a 1-D array, with one interval lookup for both
    functions.  The difference is read off the difference of their tables,
    so it carries no cancelled relu term."""
    bps = grid.breakpoints
    pair = [_coords(c, bps.size) for c in (coords1, coords2)]
    tables = _backend.suffix_tables(np.stack(pair), bps)
    tables1, tables2 = tables[:, : bps.size + 1], tables[:, bps.size + 1 :]
    k = grid.intervals(x)
    return (
        _backend.apl_forward(x, k, tables1, bps),
        _backend.apl_forward(x, k, tables2, bps),
        _backend.hinge_sum(x, k, tables1 - tables2, bps),
    )


def apl_grad_x(x, coords, grid):
    """dF/dx at scalar x.

    Uses the right-derivative at x = 0 (slope 1) and treats a hinge as
    inactive at x = b_i, so the subgradient choice is deterministic.
    """
    coords = _coords(coords, len(grid))
    slope = 1.0 if x >= 0.0 else 0.0
    for ci, bi in zip(coords, grid.breakpoints):
        if x < bi:
            slope -= ci
    return float(slope)


def apl_grad_coords(x, grid):
    """dF/dcoords at scalar x: entry i is max(0, -x + b_i).

    F is linear in the coordinates, so this is exact and independent of the
    current coordinate values.
    """
    if not np.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    return np.maximum(grid.breakpoints - x, 0.0)
