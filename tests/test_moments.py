"""Closed-form Gaussian moments vs independent numerical integration."""

import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env
from taan.moments import (
    GaussianParams,
    QuadratureError,
    moment_b0_sq,
    moment_b0b,
    moment_bb,
    oracle_moment,
    std_normal_cdf,
)

STD = GaussianParams(0.0, 1.0)


def simpson_moment(f, g, n=40001):
    """Simpson's rule over [mu - 10 sigma, mu + 10 sigma]; independent of
    the quadrature oracle used by the package."""
    lo, hi = g.mu - 10.0 * g.sigma, g.mu + 10.0 * g.sigma
    x = np.linspace(lo, hi, n)
    pdf = np.exp(-0.5 * ((x - g.mu) / g.sigma) ** 2) / (
        g.sigma * math.sqrt(2.0 * math.pi)
    )
    y = f(x) * pdf
    h = (hi - lo) / (n - 1)
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * np.dot(weights, y))


def relu(x):
    return np.maximum(x, 0.0)


def hinge(b):
    return lambda x: np.maximum(b - x, 0.0)


def test_cdf_matches_erf_series():
    # Phi(1) from the Taylor series of erf, an arithmetic-only route.
    z = 1.0 / math.sqrt(2.0)
    series = 0.0
    for k in range(30):
        series += (-1) ** k * z ** (2 * k + 1) / (math.factorial(k) * (2 * k + 1))
    erf = 2.0 / math.sqrt(math.pi) * series
    assert abs(std_normal_cdf(1.0) - 0.5 * (1.0 + erf)) < 1e-15
    assert abs(std_normal_cdf(1.0) - 0.8413447460685429) < 1e-15
    assert std_normal_cdf(0.0) == 0.5
    assert abs(std_normal_cdf(-1.0) + std_normal_cdf(1.0) - 1.0) < 1e-15


def test_relu_square_standard_normal():
    # E[max(0,x)^2] under N(0,1) is exactly 1/2 by symmetry.
    assert abs(moment_b0_sq(STD) - 0.5) < 1e-15
    simpson = simpson_moment(lambda x: relu(x) ** 2, STD)
    assert abs(moment_b0_sq(STD) - simpson) < 1e-10


def test_relu_hinge_standard_normal_b1():
    value = moment_b0b(1.0, STD)
    assert abs(value - 0.05759753433288978) < 1e-12
    simpson = simpson_moment(lambda x: relu(x) * hinge(1.0)(x), STD)
    assert abs(value - simpson) < 1e-10


def test_hinge_hinge_standard_normal_b1():
    value = moment_bb(1.0, 1.0, STD)
    assert abs(value - 1.9246602166562292) < 1e-12
    # Direct identity: E[(1-x)^2 1{x<1}] expands through plain Phi/phi terms.
    phi1 = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
    expected = 2.0 * std_normal_cdf(1.0) + phi1
    assert abs(value - expected) < 1e-15


def test_relu_hinge_zero_for_nonpositive_breakpoints():
    # The supports [0, inf) and (-inf, b] do not overlap when b <= 0.
    for b in (-3.0, -0.5, 0.0):
        for g in (STD, GaussianParams(1.3, 0.7), GaussianParams(-2.0, 2.5)):
            assert moment_b0b(b, g) == 0.0
            assert abs(oracle_moment(("relu_hinge", b), g)) < 1e-10


def test_closed_forms_match_quadrature_grid():
    mus = (-2.0, 0.0, 1.7)
    sigmas = (0.4, 1.0, 2.3)
    hinges = (-1.5, 0.6, 2.2)
    for mu in mus:
        for sigma in sigmas:
            g = GaussianParams(mu, sigma)
            err = abs(moment_b0_sq(g) - oracle_moment(("relu_sq",), g))
            assert err < 1e-9, (mu, sigma)
            for b in hinges:
                err = abs(
                    moment_b0b(b, g) - oracle_moment(("relu_hinge", b), g)
                )
                assert err < 1e-9, (mu, sigma, b)
            for bi in hinges:
                for bj in hinges:
                    err = abs(
                        moment_bb(bi, bj, g)
                        - oracle_moment(("hinge_hinge", bi, bj), g)
                    )
                    assert err < 1e-9, (mu, sigma, bi, bj)


def test_hinge_hinge_symmetry_and_simpson():
    g = GaussianParams(0.5, 1.4)
    assert moment_bb(-0.7, 1.2, g) == moment_bb(1.2, -0.7, g)
    # The integrand kinks between Simpson nodes, which caps the rule's
    # accuracy near 1e-8 regardless of the closed form.
    simpson = simpson_moment(lambda x: hinge(-0.7)(x) * hinge(1.2)(x), g)
    assert abs(moment_bb(-0.7, 1.2, g) - simpson) < 5e-8


def test_moments_scale_with_sigma():
    # F(sigma*x) scaling: E[relu^2] under N(0, sigma) is sigma^2/2.
    for sigma in (0.3, 1.0, 2.5):
        g = GaussianParams(0.0, sigma)
        assert abs(moment_b0_sq(g) - 0.5 * sigma**2) < 1e-14


def test_gaussian_params_validation():
    with pytest.raises(ValueError):
        GaussianParams(0.0, 0.0)
    with pytest.raises(ValueError):
        GaussianParams(0.0, -1.0)
    with pytest.raises(ValueError):
        GaussianParams(math.nan, 1.0)
    with pytest.raises(ValueError):
        GaussianParams(0.0, math.inf)


def test_oracle_rejects_unachievable_tolerance():
    with pytest.raises(QuadratureError):
        oracle_moment(("hinge_hinge", 1.0, 1.0), STD, tol=1e-18)


def test_oracle_rejects_unknown_descriptor():
    with pytest.raises(ValueError):
        oracle_moment(("bogus",), STD)


def test_import_leaves_the_quadrature_module_unloaded():
    # Only oracle_moment integrates numerically; `import taan` stays light.
    code = "import sys, taan; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
