"""Activation kernels: agreement with a per-element loop oracle and a dense
hinge-matrix reference, boundary conventions and non-finite inputs."""

import numpy as np

from taan import _backend


def kernel_forward(x, coords, bps):
    """One coordinate row through the interval, table and value passes."""
    k = _backend.intervals(x, bps, _backend.even_lookup(bps))
    return _backend.apl_forward(x, k, _backend.suffix_tables(coords, bps), bps)


def kernel_backward(x, coords, bps, gout):
    k = _backend.intervals(x, bps, _backend.even_lookup(bps))
    tables = _backend.suffix_tables(coords, bps)
    gx, gcoords = _backend.apl_backward(x, k, tables, bps, gout)
    return gx, gcoords[0]


def loop_forward(x, coords, bps):
    """Literal per-element reference, independent of the kernels."""
    out = np.empty_like(x)
    for k, xv in enumerate(x):
        acc = max(xv, 0.0)
        for c, b in zip(coords, bps):
            acc += c * max(b - xv, 0.0)
        out[k] = acc
    return out


def loop_backward(x, coords, bps, gout):
    gx = np.empty_like(x)
    gcoords = np.zeros_like(coords)
    for k, xv in enumerate(x):
        slope = 1.0 if xv >= 0.0 else 0.0
        for i, b in enumerate(bps):
            if xv < b:
                slope -= coords[i]
                gcoords[i] += gout[k] * (b - xv)
        gx[k] = gout[k] * slope
    return gx, gcoords


def random_case(seed, n=257, m=7):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 2.0
    # Exercise the boundary conventions explicitly.
    x[:3] = (0.0, -1.0, 1.0)
    bps = np.sort(rng.uniform(-2.0, 2.0, m))
    x[3 : 3 + m] = bps
    coords = rng.uniform(-1.0, 1.0, m)
    gout = rng.standard_normal(n)
    return x, coords, bps, gout


def test_numpy_kernels_match_loop_oracle():
    for seed in range(5):
        x, coords, bps, gout = random_case(seed)
        f = kernel_forward(x, coords, bps)
        assert np.allclose(f, loop_forward(x, coords, bps), atol=1e-12)
        gx, gc = kernel_backward(x, coords, bps, gout)
        ref_gx, ref_gc = loop_backward(x, coords, bps, gout)
        assert np.allclose(gx, ref_gx, atol=1e-12)
        assert np.allclose(gc, ref_gc, atol=1e-12)


def test_boundary_conventions():
    bps = np.array([-1.0, 0.5])
    coords = np.array([0.25, -0.5])
    # At x = 0 the relu slope counts (right derivative); at x = bps[i] the
    # hinge is inactive for both value and gradient.
    x = np.array([0.0, -1.0, 0.5, -0.0])
    gout = np.ones(4)
    gx, _ = kernel_backward(x, coords, bps, gout)
    assert gx[0] == 1.0 - coords[1]  # only the b=0.5 hinge is active at 0
    assert gx[3] == gx[0]  # -0.0 takes the same slope as +0.0
    assert gx[1] == -coords[1]  # x=-1: hinge b=-1 inactive, b=0.5 active
    assert gx[2] == 1.0  # x=0.5: no hinge active
    f = kernel_forward(x, coords, bps)
    assert f[2] == 0.5  # pure relu value at the last breakpoint


def dense_forward(x, coords, bps):
    """Sums every hinge through an n-by-M matrix: O(n M) reference."""
    hinge = np.maximum(bps[None, :] - x[:, None], 0.0)
    return np.maximum(x, 0.0) + hinge @ coords


def dense_backward(x, coords, bps, gout):
    hinge = np.maximum(bps[None, :] - x[:, None], 0.0)
    gx = gout * ((x >= 0.0).astype(np.float64) - (hinge > 0.0) @ coords)
    return gx, gout @ hinge


def test_kernels_match_dense_reference_at_network_shapes():
    # (batch x width, hinge count) of the acceptance config (64 x 32, M=16)
    # and of a 256 x 64 layer with M=64.
    rng = np.random.default_rng(11)
    for n, m in ((2048, 16), (16384, 64)):
        bps = np.linspace(-2.0, 2.0, m)
        x = rng.standard_normal(n) * 1.5
        x[:m] = bps
        x[m : m + 2] = (0.0, -0.0)
        coords = rng.uniform(-1.0, 1.0, m)
        gout = rng.standard_normal(n)
        ref_f = dense_forward(x, coords, bps)
        f = kernel_forward(x, coords, bps)
        assert np.max(np.abs(f - ref_f)) <= 1e-13 * np.max(np.abs(ref_f))
        ref_gx, ref_gc = dense_backward(x, coords, bps, gout)
        gx, gc = kernel_backward(x, coords, bps, gout)
        assert np.max(np.abs(gx - ref_gx)) <= 1e-13 * np.max(np.abs(ref_gx))
        # gout has mixed signs, so the coordinate gradients are measured on
        # the scale of their summands, not on their own (cancelled) size.
        scale = np.abs(gout) @ np.maximum(bps[None, :] - x[:, None], 0.0)
        assert np.all(np.abs(gc - ref_gc) <= 1e-13 * scale)


def test_non_finite_inputs():
    bps = np.array([-1.0, 0.5])
    coords = np.array([0.25, -0.5])
    gout = np.array([2.0, 3.0])
    # Past the last breakpoint every hinge is zero, also at +inf.
    x = np.array([np.inf, 1.0])
    assert np.array_equal(kernel_forward(x, coords, bps), [np.inf, 1.0])
    gx, gc = kernel_backward(x, coords, bps, gout)
    assert np.array_equal(gx, gout)
    assert np.array_equal(gc, [0.0, 0.0])
    # Below the first breakpoint every hinge is active: with positive
    # coordinates F grows without bound as x -> -inf.
    x = np.array([-np.inf, 0.0])
    f = kernel_forward(x, np.abs(coords), bps)
    assert f[0] == np.inf
    # A NaN input yields a NaN value and reaches every coordinate gradient.
    x = np.array([np.nan, 0.0])
    f = kernel_forward(x, coords, bps)
    assert np.isnan(f[0]) and f[1] == dense_forward(x[1:], coords, bps)[0]
    _, gc = kernel_backward(x, coords, bps, gout)
    assert np.all(np.isnan(gc))


def interval_inputs(bps, rng, draws):
    lo, hi = bps[0], bps[-1]
    span = hi - lo if hi > lo else 1.0
    return np.concatenate(
        [
            rng.uniform(lo - 0.25 * span, hi + 0.25 * span, draws),
            bps,
            np.nextafter(bps, np.inf),
            np.nextafter(bps, -np.inf),
            [0.0, -0.0, np.inf, -np.inf, np.nan],
        ]
    )


def test_intervals_match_searchsorted_exactly():
    rng = np.random.default_rng(21)
    # Every evenly spaced grid takes the even-grid lookup, and it is exact.
    for lo, hi in ((-2.0, 2.0), (-1e-3, 5.0), (-300.0, 0.1)):
        for m in range(2, 101):
            bps = np.linspace(lo, hi, m)
            lookup = _backend.even_lookup(bps)
            assert lookup is not None, (lo, hi, m)
            x = interval_inputs(bps, rng, 20_000)
            k = _backend.intervals(x, bps, lookup)
            assert np.array_equal(k, np.searchsorted(bps, x, side="right"))
    # Grids from a rounding step to ten spacings away from even: whenever
    # the exactness check passes, the lookup is exact.
    verdicts = {True: 0, False: 0}
    for _ in range(2000):
        m = int(rng.integers(4, 100))
        noise = 4.0 / m * 10.0 ** rng.uniform(-16.0, 1.0)
        bps = np.sort(np.linspace(-2.0, 2.0, m) + rng.normal(0.0, noise, m))
        if not np.all(np.diff(bps) > 0.0):
            continue
        lookup = _backend.even_lookup(bps)
        verdicts[lookup is not None] += 1
        if lookup is not None:
            x = interval_inputs(bps, rng, 2_000)
            k = _backend.intervals(x, bps, lookup)
            assert np.array_equal(k, np.searchsorted(bps, x, side="right"))
    assert verdicts[True] > 1000 and verdicts[False] > 50, verdicts


def test_intervals_fall_back_to_binary_search():
    rng = np.random.default_rng(22)
    grids = [np.array([0.5]), np.array([0.0, 1e-9, 2e-9, 1.0])]
    grids += [np.sort(rng.uniform(-3.0, 3.0, 40)) for _ in range(5)]
    for bps in grids:
        assert _backend.even_lookup(bps) is None
        x = interval_inputs(bps, rng, 5_000)
        assert np.array_equal(
            _backend.intervals(x, bps), np.searchsorted(bps, x, side="right")
        )


def test_stacked_tables_match_each_row():
    # Elements of several coordinate rows share one interval lookup; each
    # row's value and coordinate gradient equal the dense one-row reference.
    rng = np.random.default_rng(23)
    for m in (1, 5, 16):
        bps = np.linspace(-2.0, 2.0, m) if m > 1 else np.array([0.3])
        coords = rng.uniform(-1.0, 1.0, (4, m))
        row = rng.integers(0, 3, 3000)  # row 3 gets no element
        x = rng.standard_normal(row.size) * 2.0
        x[:m] = bps
        gout = rng.standard_normal(row.size)
        idx = _backend.intervals(x, bps, _backend.even_lookup(bps)) + row * (m + 1)
        tables = _backend.suffix_tables(coords, bps)
        f = _backend.apl_forward(x, idx, tables, bps)
        gx, gc = _backend.apl_backward(x, idx, tables, bps, gout)
        assert gc.shape == (4, m)
        for t in range(4):
            sel = row == t
            ref_f = dense_forward(x[sel], coords[t], bps)
            ref_gx, ref_gc = dense_backward(x[sel], coords[t], bps, gout[sel])
            assert np.allclose(f[sel], ref_f, rtol=0.0, atol=1e-13)
            assert np.allclose(gx[sel], ref_gx, rtol=0.0, atol=1e-13)
            assert np.allclose(gc[t], ref_gc, rtol=0.0, atol=1e-12)
        assert np.array_equal(gc[3], np.zeros(m))


def parity_inputs(bps, rng):
    """Random draws plus every breakpoint, its neighbours, +-0.0, +-inf and
    NaN, shuffled so the special values are not all in one place."""
    return rng.permutation(interval_inputs(bps, rng, 500))


def buffered_passes(x, bps, lookup, tables, out):
    """intervals, hinge_sum and apl_forward writing into the arrays of
    ``out`` (intp k, float value, float scratch, bool scratch)."""
    k, value, fl, bl = out
    k_out = _backend.intervals(x, bps, lookup, k, (fl, bl))
    assert k_out is k
    idx = k + bps.size + 1  # row 1's block of the stacked tables
    h = _backend.hinge_sum(x, idx, tables, bps, value, fl).copy()
    f = _backend.apl_forward(x, idx, tables, bps, value, fl)
    assert f is value
    return k.copy(), h, f.copy()


def allocating_passes(x, bps, lookup, tables):
    k = _backend.intervals(x, bps, lookup)
    idx = k + bps.size + 1
    return k, _backend.hinge_sum(x, idx, tables, bps), _backend.apl_forward(
        x, idx, tables, bps
    )


def test_buffered_kernels_equal_allocating_ones_bitwise():
    # Both lookups (even grid, and searchsorted for M = 1 and an irregular
    # grid), each twice through the same buffers with different inputs, so
    # a value left over from the first call would show in the second.
    rng = np.random.default_rng(24)
    grids = [np.linspace(-2.0, 2.0, 16), np.array([0.5])]
    grids.append(np.sort(rng.uniform(-3.0, 3.0, 9)))
    for bps in grids:
        lookup = _backend.even_lookup(bps)
        assert (lookup is None) == (bps.size != 16)
        tables = _backend.suffix_tables(rng.uniform(-1.0, 1.0, (2, bps.size)), bps)
        n = interval_inputs(bps, rng, 500).size
        out = (np.empty(n, np.intp), np.empty(n), np.empty(n), np.empty(n, bool))
        for _ in range(2):
            x = parity_inputs(bps, rng)
            ref = allocating_passes(x, bps, lookup, tables)
            got = buffered_passes(x, bps, lookup, tables, out)
            assert np.array_equal(ref[0], got[0])
            assert np.array_equal(ref[0], np.searchsorted(bps, x, side="right"))
            for a, b in zip(ref[1:], got[1:]):
                # Bitwise, NaN in the same places and -0.0 kept as -0.0.
                assert a.tobytes() == b.tobytes()
