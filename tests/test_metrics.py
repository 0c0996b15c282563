"""Mixture-weighted functional metrics: Gram soundness, Monte-Carlo parity."""

import math

import numpy as np
import pytest

from taan.apl import BasisGrid
from taan.metrics import (
    MC_CHUNK,
    DegenerateFunctionError,
    GaussianMixture,
    GramCache,
    NumericError,
    build_gram,
    distance_matrix,
    distance_sq,
    inner_product,
    layer_grams,
    _mc_mean_se,
    mc_inner_and_distance,
    norm,
)
from taan.moments import GaussianParams, moment_b0_sq, moment_b0b, moment_bb
from taan.regularizers import RegKind, cosine_reg, reg_grad


def random_instance(rng, max_m=8):
    m = int(rng.integers(1, max_m + 1))
    grid = BasisGrid(np.sort(rng.uniform(-2.5, 2.5, m)))
    k = int(rng.integers(1, 4))
    weights = rng.uniform(0.2, 1.0, k)
    weights /= weights.sum()
    mixture = GaussianMixture(
        weights, rng.uniform(-2.0, 2.0, k), rng.uniform(0.3, 2.0, k)
    )
    return grid, mixture


def full_gram(cache: GramCache):
    """Gram of the full basis (relu, hinge_1..hinge_M)."""
    m = cache.basis_count
    g = np.empty((m + 1, m + 1))
    g[0, 0] = cache.relu_relu
    g[0, 1:] = cache.relu_hinge
    g[1:, 0] = cache.relu_hinge
    g[1:, 1:] = cache.hinge_hinge
    return g


def _cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _pdf(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def reference_gram(breakpoints, mixture):
    """Per-pair scalar loop over the closed forms, sharing no code with
    taan.moments.  Returns (relu_relu, relu_hinge, hinge_hinge)."""
    bps = [float(b) for b in breakpoints]
    m = len(bps)
    s = 0.0
    v = np.zeros(m)
    g = np.zeros((m, m))
    for p, mu, sg in zip(
        mixture.weights.tolist(), mixture.means.tolist(), mixture.sigmas.tolist()
    ):
        a0 = -mu / sg
        s += p * ((mu * mu + sg * sg) * (1.0 - _cdf(a0)) + mu * sg * _pdf(a0))
        for i, bi in enumerate(bps):
            if bi > 0.0:
                a1 = (bi - mu) / sg
                v[i] += p * (
                    (bi * mu - mu * mu - sg * sg) * (_cdf(a1) - _cdf(a0))
                    + sg * mu * _pdf(a1)
                    + sg * (bi - mu) * _pdf(a0)
                )
            for j, bj in enumerate(bps):
                bt = min(bi, bj)
                c = (bt - mu) / sg
                g[i, j] += p * (
                    (mu * mu + sg * sg + bi * bj - (bi + bj) * mu) * _cdf(c)
                    + (bi + bj - mu - bt) * sg * _pdf(c)
                )
    return s, v, g


def broadcast_gram(b, mixture):
    """The per-component broadcast of the public moment functions over the
    grid, summed in build_gram's order."""
    s, v, g = 0.0, np.zeros(b.size), np.zeros((b.size, b.size))
    for pi, comp in mixture.components():
        s += pi * moment_b0_sq(comp)
        v += pi * moment_b0b(b, comp)
        g += pi * moment_bb(b[:, None], b[None, :], comp)
    return s, v, g


def assert_matches_reference(grid, mixture):
    cache = build_gram(grid, mixture)
    s, v, g = reference_gram(grid.breakpoints, mixture)
    scale = max(abs(s), np.abs(v).max(), np.abs(g).max())
    assert abs(cache.relu_relu - s) <= 1e-13 * scale
    assert np.abs(cache.relu_hinge - v).max() <= 1e-13 * scale
    assert np.abs(cache.hinge_hinge - g).max() <= 1e-13 * scale
    assert np.array_equal(cache.hinge_hinge, cache.hinge_hinge.T)
    # Bit for bit the broadcast closed forms, though Phi and phi are
    # evaluated on the M breakpoints only.
    s, v, g = broadcast_gram(grid.breakpoints, mixture)
    assert cache.relu_relu == s
    assert cache.relu_hinge.tobytes() == v.tobytes()
    assert cache.hinge_hinge.tobytes() == g.tobytes()
    return cache


def random_mixture(rng, k):
    return GaussianMixture(
        rng.dirichlet(np.ones(k)), rng.uniform(-2.0, 2.0, k), rng.uniform(0.3, 2.5, k)
    )


@pytest.mark.parametrize("m", (1, 2, 16, 64))
@pytest.mark.parametrize("k", (1, 3))
def test_build_gram_matches_scalar_reference(m, k):
    rng = np.random.default_rng(100 * m + k)
    for _ in range(3):
        grid = BasisGrid(np.sort(rng.uniform(-3.0, 3.0, m)))
        assert_matches_reference(grid, random_mixture(rng, k))


def test_build_gram_nonpositive_breakpoints():
    # Breakpoints <= 0 take the zero branch of E[relu * hinge_b].
    rng = np.random.default_rng(7)
    for bps in (
        np.array([-1.5, -0.25, 0.0]),
        np.array([-2.0, -1.0, 0.0, 0.5, 1.0]),
        np.linspace(-4.0, 0.0, 16),
    ):
        cache = assert_matches_reference(BasisGrid(bps), random_mixture(rng, 3))
        assert np.all(cache.relu_hinge[bps <= 0.0] == 0.0)


def test_array_moments_equal_scalar_calls():
    rng = np.random.default_rng(8)
    b = np.concatenate([[-1.0, 0.0], rng.uniform(-3.0, 3.0, 12)])
    for g in (GaussianParams(0.0, 1.0), GaussianParams(-1.3, 0.4)):
        assert isinstance(moment_b0_sq(g), float)
        cross = moment_b0b(b, g)
        pairs = moment_bb(b[:, None], b[None, :], g)
        assert cross.shape == b.shape and pairs.shape == (b.size, b.size)
        for i, bi in enumerate(b):
            scalar = moment_b0b(float(bi), g)
            assert isinstance(scalar, float) and cross[i] == scalar
            for j, bj in enumerate(b):
                assert pairs[i, j] == moment_bb(float(bi), float(bj), g)


def test_array_moments_reject_non_finite_breakpoints():
    g = GaussianParams(0.0, 1.0)
    bad = np.array([0.5, np.nan, 1.0])
    with pytest.raises(ValueError, match="nan"):
        moment_b0b(bad, g)
    with pytest.raises(ValueError, match="nan"):
        moment_bb(bad[:, None], bad[None, :], g)
    with pytest.raises(ValueError, match="inf"):
        moment_bb(np.array([0.0, np.inf]), 0.0, g)


def test_layer_grams_builds_once_per_grid_object():
    mixture = GaussianMixture.standard_normal()
    a = BasisGrid.even(4)
    b = BasisGrid.even(4)
    caches = layer_grams([a, a, b, a], mixture)
    assert caches[0] is caches[1] is caches[3]
    assert caches[2] is not caches[0]
    assert np.array_equal(caches[2].hinge_hinge, caches[0].hinge_hinge)


def test_standard_normal_single_breakpoint_cache():
    # One breakpoint at 0: E[relu^2] = 1/2, cross term 0, E[hinge^2] = 1/2.
    cache = build_gram(
        BasisGrid(np.array([0.0])), GaussianMixture.standard_normal()
    )
    assert abs(cache.relu_relu - 0.5) < 1e-14
    assert abs(cache.relu_hinge[0]) < 1e-14
    assert abs(cache.hinge_hinge[0, 0] - 0.5) < 1e-14


def test_two_task_distance_matrix_example():
    grid = BasisGrid(np.array([0.0]))
    cache = build_gram(grid, GaussianMixture.standard_normal())
    alpha = np.array([[1.0], [0.0]])
    dist = distance_matrix(alpha, cache)
    assert np.allclose(dist, [[0.0, 0.5], [0.5, 0.0]], atol=1e-14)


def test_gram_psd_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(100):
        grid, mixture = random_instance(rng)
        eig = np.linalg.eigvalsh(full_gram(build_gram(grid, mixture)))
        assert eig.min() >= -1e-10


def test_cauchy_schwarz_and_polarization():
    rng = np.random.default_rng(1)
    for _ in range(100):
        grid, mixture = random_instance(rng)
        cache = build_gram(grid, mixture)
        c1 = rng.uniform(-2.0, 2.0, len(grid))
        c2 = rng.uniform(-2.0, 2.0, len(grid))
        ip = inner_product(c1, c2, cache)
        n1, n2 = norm(c1, cache), norm(c2, cache)
        assert abs(ip) <= n1 * n2 * (1.0 + 1e-10) + 1e-12
        polarized = n1**2 + n2**2 - 2.0 * ip
        assert abs(distance_sq(c1, c2, cache) - polarized) < 1e-10 * max(
            1.0, abs(polarized)
        )


def test_triangle_inequality_on_sqrt_distance():
    rng = np.random.default_rng(2)
    for _ in range(100):
        grid, mixture = random_instance(rng)
        cache = build_gram(grid, mixture)
        c = [rng.uniform(-2.0, 2.0, len(grid)) for _ in range(3)]
        d01 = np.sqrt(distance_sq(c[0], c[1], cache))
        d12 = np.sqrt(distance_sq(c[1], c[2], cache))
        d02 = np.sqrt(distance_sq(c[0], c[2], cache))
        assert d02 <= d01 + d12 + 1e-10


def test_distance_matrix_exact_properties():
    rng = np.random.default_rng(3)
    grid, mixture = random_instance(rng)
    cache = build_gram(grid, mixture)
    alpha = rng.uniform(-1.5, 1.5, (6, len(grid)))
    dist = distance_matrix(alpha, cache)
    assert np.array_equal(dist, dist.T)
    assert np.all(np.diag(dist) == 0.0)
    assert dist.min() >= 0.0
    # Entries agree with the pairwise scalar route.
    for i in range(6):
        for j in range(6):
            expected = distance_sq(alpha[i], alpha[j], cache)
            assert abs(dist[i, j] - expected) < 1e-10


def test_distance_matrix_keeps_precision_for_nearby_rows():
    # Rows a and a ± 1e-6·u: the expanded form q_i + q_j - 2 p_ij cancels
    # about ten digits here, the Gram form of the difference none.
    rng = np.random.default_rng(6)
    cache = build_gram(BasisGrid.even(16), GaussianMixture.standard_normal())
    for _ in range(5):
        a = rng.uniform(-1.0, 1.0, 16)
        u = rng.standard_normal(16)
        alpha = np.stack([a, a + 1e-6 * u, a - 1e-6 * u])
        dist = distance_matrix(alpha, cache)
        for i in range(3):
            for j in range(3):
                if i != j:
                    expected = distance_sq(alpha[i], alpha[j], cache)
                    assert abs(dist[i, j] - expected) <= 1e-13 * expected


def test_identical_coordinates_have_zero_distance_unit_cosine():
    rng = np.random.default_rng(4)
    grid, mixture = random_instance(rng)
    cache = build_gram(grid, mixture)
    c = rng.uniform(-1.0, 1.0, len(grid))
    assert distance_sq(c, c, cache) == 0.0
    assert abs(cosine_reg(np.stack([c, c]), cache) + 1.0) < 1e-12
    assert abs(norm(c, cache) ** 2 - inner_product(c, c, cache)) < 1e-12


def test_monte_carlo_agrees_with_closed_form():
    rng = np.random.default_rng(5)
    for trial in range(3):
        grid, mixture = random_instance(rng, max_m=4)
        cache = build_gram(grid, mixture)
        c1 = rng.uniform(-1.5, 1.5, len(grid))
        c2 = rng.uniform(-1.5, 1.5, len(grid))
        (ip_mc, ip_se), (d_mc, d_se) = mc_inner_and_distance(
            c1, c2, grid, mixture, 200_000, np.random.default_rng(100 + trial)
        )
        assert abs(ip_mc - inner_product(c1, c2, cache)) <= 4.0 * ip_se
        assert abs(d_mc - distance_sq(c1, c2, cache)) <= 4.0 * d_se


def test_mc_standard_error_does_not_cancel_against_the_mean():
    # A spread of 1e-3 around 1e6: the one-pass sum-of-squares formula
    # loses every digit of the variance here.
    n = 1_000_000
    values = 1e6 + 1e-3 * np.random.default_rng(8).standard_normal(n)
    done = 0

    def draw(k):
        nonlocal done
        done += k
        return (values[done - k : done],)

    means, ses = _mc_mean_se(draw, n, 1)
    assert abs(means[0] - values.mean()) <= 1e-15 * 1e6
    expected = values.std(ddof=1) / math.sqrt(n)
    assert abs(ses[0] - expected) <= 1e-9 * expected


@pytest.mark.parametrize("width", [1, 7, 16, 2 * MC_CHUNK])
def test_mc_chunks_hold_at_most_mc_chunk_elements(width):
    asked = []

    def draw(k):
        asked.append(k)
        return (np.arange(k, dtype=float),)

    n = 3 * MC_CHUNK + 5 if width < MC_CHUNK else 3
    _mc_mean_se(draw, n, width)
    assert sum(asked) == n
    assert max(asked) == max(1, MC_CHUNK // width)


def test_degenerate_cosine_raises():
    # A mixture far to the left of both the origin and the breakpoint makes
    # every basis function vanish on essentially all of the mass, so the
    # norm underflows to zero and the cosine regularizer is undefined.
    left = GaussianMixture(np.array([1.0]), np.array([-40.0]), np.array([0.5]))
    lcache = build_gram(BasisGrid(np.array([-41.0])), left)
    zero = np.zeros((2, 1))
    with pytest.raises(DegenerateFunctionError, match="near-zero-norm"):
        cosine_reg(zero, lcache)
    with pytest.raises(DegenerateFunctionError, match="near-zero-norm"):
        reg_grad(RegKind.COSINE, zero, lcache)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (
            lambda: GaussianMixture(np.ones(1), np.zeros(2), np.ones(2)),
            ValueError,
            "weights, means, sigmas must be equal-length 1-D",
        ),
        (
            lambda: GaussianMixture(np.ones(1), np.array([np.nan]), np.ones(1)),
            ValueError,
            "mixture parameters must be finite",
        ),
        (
            lambda: GramCache(0.0, np.zeros(2), np.zeros((2, 3))),
            ValueError,
            r"inconsistent cache shapes \(2,\) and \(2, 3\)",
        ),
        (
            lambda: norm(np.zeros(1), GramCache(-1.0, np.zeros(1), np.zeros((1, 1)))),
            NumericError,
            "self inner product -1.0 is negative",
        ),
    ],
    ids=["mixture_unequal", "mixture_non_finite", "cache_shapes", "negative_norm"],
)
def test_invalid_metric_inputs_raise_naming_the_cause(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_mixture_validation():
    with pytest.raises(ValueError):
        GaussianMixture(np.array([0.5, 0.4]), np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        GaussianMixture(np.array([1.0]), np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError):
        GaussianMixture(np.array([-0.5, 1.5]), np.zeros(2), np.ones(2))
    mix = GaussianMixture.standard_normal()
    assert mix.weights.sum() == 1.0
    comps = mix.components()
    assert len(comps) == 1 and comps[0][0] == 1.0


def test_mixture_cache_is_weighted_combination():
    grid = BasisGrid(np.array([-0.5, 1.0]))
    g1 = GaussianMixture(np.array([1.0]), np.array([-1.0]), np.array([0.8]))
    g2 = GaussianMixture(np.array([1.0]), np.array([1.5]), np.array([1.2]))
    mix = GaussianMixture(
        np.array([0.3, 0.7]), np.array([-1.0, 1.5]), np.array([0.8, 1.2])
    )
    c1, c2, cm = (build_gram(grid, g) for g in (g1, g2, mix))
    assert np.allclose(
        cm.hinge_hinge, 0.3 * c1.hinge_hinge + 0.7 * c2.hinge_hinge, atol=1e-14
    )
    assert abs(cm.relu_relu - (0.3 * c1.relu_relu + 0.7 * c2.relu_relu)) < 1e-14
