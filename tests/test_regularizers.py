"""Coordinate-matrix regularizers: values against independent oracles,
gradients against central differences."""

import numpy as np
import pytest

from taan.apl import BasisGrid
from taan.metrics import GaussianMixture, build_gram
from taan.regularizers import (
    RegConfig,
    RegKind,
    cosine_reg,
    distance_reg,
    reg_grad,
    regularizer_value,
    trace_norm,
    trace_norm_grad,
)


def jacobi_singular_values(a, sweeps=60, tol=1e-14):
    """One-sided Jacobi SVD: rotate column pairs until the column Gram is
    diagonal; singular values are the final column norms.  Shares no code
    with the LAPACK route used by the implementation."""
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
    return np.sort(np.sqrt(np.sum(a * a, axis=0)))[::-1]


def fd_grad(fn, alpha, eps=1e-6):
    g = np.zeros_like(alpha)
    for i in range(alpha.shape[0]):
        for j in range(alpha.shape[1]):
            hi = alpha.copy()
            lo = alpha.copy()
            hi[i, j] += eps
            lo[i, j] -= eps
            g[i, j] = (fn(hi) - fn(lo)) / (2.0 * eps)
    return g


def standard_cache(m=4):
    return build_gram(BasisGrid.even(m), GaussianMixture.standard_normal())


def test_trace_norm_matches_jacobi_svd():
    rng = np.random.default_rng(0)
    for shape in [(2, 3), (4, 4), (3, 7), (6, 2), (5, 9)]:
        a = rng.standard_normal(shape)
        expected = jacobi_singular_values(a).sum()
        assert abs(trace_norm(a) - expected) < 1e-10 * max(1.0, expected)


def test_trace_norm_rank_one():
    rng = np.random.default_rng(1)
    u = rng.standard_normal(5)
    v = rng.standard_normal(8)
    expected = np.linalg.norm(u) * np.linalg.norm(v)
    assert abs(trace_norm(np.outer(u, v)) - expected) < 1e-12 * expected


def test_trace_norm_zero_matrix():
    assert trace_norm(np.zeros((3, 4))) == 0.0
    assert np.array_equal(trace_norm_grad(np.zeros((3, 4))), np.zeros((3, 4)))


def test_distance_reg_two_task_example():
    # Breakpoint at 0 under the standard normal: the pure-relu task and the
    # relu+hinge task sit at squared distance 0.5, so the mean over the four
    # ordered pairs (two of them diagonal zeros) is 0.25.
    cache = build_gram(
        BasisGrid(np.array([0.0])), GaussianMixture.standard_normal()
    )
    alpha = np.array([[1.0], [0.0]])
    assert abs(distance_reg(alpha, cache) - 0.25) < 1e-14


def pairwise_distance_reg(alpha, cache):
    """Reference: the mean over all T x T ordered pairs of the Gram form of
    the row difference."""
    diff = alpha[:, None, :] - alpha[None, :, :]
    return float(np.einsum("ijk,kl,ijl->ij", diff, cache.hinge_hinge, diff).mean())


def test_distance_reg_matches_pairwise_form():
    rng = np.random.default_rng(11)
    for t, m in ((1, 4), (2, 1), (3, 6), (8, 16), (16, 64)):
        cache = build_gram(
            BasisGrid(np.sort(rng.uniform(-2.5, 2.5, m))),
            GaussianMixture(
                np.array([0.4, 0.6]), rng.uniform(-1, 1, 2), rng.uniform(0.5, 2, 2)
            ),
        )
        alpha = rng.uniform(-1.5, 1.5, (t, m))
        expected = pairwise_distance_reg(alpha, cache)
        got = distance_reg(alpha, cache)
        if t == 1:
            assert got == expected == 0.0
        else:
            assert abs(got - expected) <= 1e-13 * expected


def test_cosine_reg_identical_rows():
    cache = standard_cache()
    alpha = np.tile(np.array([0.4, -0.2, 0.1, 0.3]), (4, 1))
    assert abs(cosine_reg(alpha, cache) - (-1.0)) < 1e-12


def test_distance_reg_identical_rows_is_zero():
    cache = standard_cache()
    alpha = np.tile(np.array([0.4, -0.2, 0.1, 0.3]), (3, 1))
    assert distance_reg(alpha, cache) == 0.0


def test_trace_grad_finite_difference():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 5))
    num = fd_grad(trace_norm, a)
    ana = trace_norm_grad(a)
    assert np.max(np.abs(num - ana)) < 1e-6


def test_cosine_grad_finite_difference():
    cache = standard_cache()
    rng = np.random.default_rng(3)
    a = rng.uniform(0.1, 1.0, (3, 4))
    num = fd_grad(lambda m: cosine_reg(m, cache), a)
    ana = reg_grad(RegKind.COSINE, a, cache)
    assert np.max(np.abs(num - ana)) < 1e-6


def test_distance_grad_finite_difference():
    cache = standard_cache()
    rng = np.random.default_rng(4)
    a = rng.uniform(-1.0, 1.0, (4, 4))
    num = fd_grad(lambda m: distance_reg(m, cache), a)
    ana = reg_grad(RegKind.DISTANCE, a, cache)
    assert np.max(np.abs(num - ana)) < 1e-6


def test_none_kind_is_inert():
    a = np.ones((3, 4))
    assert regularizer_value(RegKind.NONE, a) == 0.0
    assert np.array_equal(reg_grad(RegKind.NONE, a), np.zeros((3, 4)))


def test_function_space_kinds_require_cache():
    a = np.ones((2, 4))
    with pytest.raises(ValueError):
        regularizer_value(RegKind.COSINE, a)
    with pytest.raises(ValueError):
        reg_grad(RegKind.DISTANCE, a)


def test_reg_config_coercion_and_validation():
    assert RegConfig("trace", 1.0).kind is RegKind.TRACE_NORM
    assert RegConfig("dis", 0.5).coefficient == 0.5
    assert RegConfig().kind is RegKind.NONE
    with pytest.raises(ValueError):
        RegConfig("bogus", 0.0)
    with pytest.raises(ValueError):
        RegConfig("cos", -1.0)
    with pytest.raises(ValueError):
        RegConfig("cos", float("nan"))
