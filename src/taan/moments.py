"""Closed-form second moments of ReLU and hinge basis functions under a Gaussian.

For X ~ N(mu, sigma^2) and the piecewise-linear basis functions

    relu(x)    = max(0, x),
    hinge_b(x) = max(0, -x + b),

the second moments E[relu^2], E[hinge_bi * hinge_bj] and E[relu * hinge_b]
are finite for every Gaussian weight and admit closed forms in terms of the
standard normal CDF Phi and density phi.  With a = -mu/sigma,
bt = min(bi, bj) and c = (bt - mu)/sigma:

    E[relu^2]            = (mu^2 + s^2) (1 - Phi(a)) + mu s phi(a)
    E[hinge_bi hinge_bj] = (mu^2 + s^2 + bi bj - (bi + bj) mu) Phi(c)
                           + (bi + bj - mu - bt) s phi(c)
    E[relu hinge_b]      = 0                                        if b <= 0
                         = (b mu - mu^2 - s^2) (Phi((b-mu)/s) - Phi(a))
                           + s mu phi((b-mu)/s) + s (b - mu) phi(a) if b > 0

(relu and hinge_b have disjoint supports when b <= 0, so the cross moment
vanishes there, and the b > 0 branch is continuous at b = 0.)

The breakpoint arguments broadcast like numpy arrays, so ``build_gram`` in
``taan.metrics`` evaluates each moment over a whole grid in one call; for
the hinge pairs it calls ``moment_bb``'s closed form, ``_moment_bb``, with
Phi and phi taken on the M breakpoints of its sorted grid.

``oracle_moment`` evaluates the same integrals by adaptive Gauss-Kronrod
quadrature with the interval split at the hinge locations, so the integrand
handed to each panel is smooth.  It is the ground truth the closed forms are
verified against; every coefficient above has been checked against it.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from taan.data import _real

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class GaussianParams:
    """Mean and standard deviation of a single Gaussian weight measure."""

    mu: float
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "mu", _real("mu", self.mu))
        object.__setattr__(self, "sigma", _real("sigma", self.sigma, 0))


def std_normal_cdf(x):
    """Standard normal CDF, elementwise.

    Accurate to about 1e-16 absolute over the whole real line, including far
    tails where 1 - erf would cancel.
    """
    return ndtr(x)


def _std_normal_pdf(z):
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z)


def _check_breakpoint(name, b):
    b = np.asarray(b, dtype=np.float64)
    if not np.all(np.isfinite(b)):
        raise ValueError(f"{name} must be finite, got {b[~np.isfinite(b)].flat[0]}")
    return b


def moment_b0_sq(g: GaussianParams):
    """E[max(0, X)^2] for X ~ N(g.mu, g.sigma^2)."""
    a = -g.mu / g.sigma
    return (g.mu * g.mu + g.sigma * g.sigma) * (
        1.0 - std_normal_cdf(a)
    ) + g.mu * g.sigma * _std_normal_pdf(a)


def moment_bb(bi, bj, g: GaussianParams):
    """E[max(0, bi - X) * max(0, bj - X)] for X ~ N(g.mu, g.sigma^2).

    Broadcasts over array breakpoints.  Symmetric in (bi, bj), bit for bit:
    both orders hit the same expression through bt = min(bi, bj).
    """
    bi = _check_breakpoint("bi", bi)
    bj = _check_breakpoint("bj", bj)
    bt = np.minimum(bi, bj)
    c = (bt - g.mu) / g.sigma
    cdf, pdf = std_normal_cdf(c), _std_normal_pdf(c)
    return _moment_bb(bi * bj, bi + bj, bt, cdf, pdf, g)


def _moment_bb(prod, total, bt, cdf, pdf, g: GaussianParams):
    """``moment_bb``'s closed form from prod = bi bj, total = bi + bj,
    bt = min(bi, bj) and Phi and phi at c = (bt - mu)/sigma.  On a sorted
    grid c takes one value per breakpoint, so ``build_gram`` evaluates Phi
    and phi on those and gathers them, and forms prod and total once for
    all mixture components."""
    quadratic = g.mu * g.mu + g.sigma * g.sigma + prod - total * g.mu
    return quadratic * cdf + (total - g.mu - bt) * g.sigma * pdf


def moment_b0b(b, g: GaussianParams):
    """E[max(0, X) * max(0, b - X)] for X ~ N(g.mu, g.sigma^2).

    Broadcasts over array breakpoints.  Exactly zero wherever b <= 0 (the
    factors have disjoint supports).
    """
    b = _check_breakpoint("b", b)
    a0 = -g.mu / g.sigma
    a1 = (b - g.mu) / g.sigma
    delta_cdf = std_normal_cdf(a1) - std_normal_cdf(a0)
    cross = (
        (b * g.mu - g.mu * g.mu - g.sigma * g.sigma) * delta_cdf
        + g.sigma * g.mu * _std_normal_pdf(a1)
        + g.sigma * (b - g.mu) * _std_normal_pdf(a0)
    )
    return np.where(b > 0.0, cross, 0.0)[()]


def oracle_moment(pair, g: GaussianParams, tol=1e-10):
    """Numerical-quadrature evaluation of one of the three basis moments.

    ``pair`` names the integrand:

        ("relu_sq",)             E[relu(X)^2]
        ("relu_hinge", b)        E[relu(X) * hinge_b(X)]
        ("hinge_hinge", bi, bj)  E[hinge_bi(X) * hinge_bj(X)]

    Integrates integrand * N(g.mu, g.sigma^2) over [mu - 12 sigma,
    mu + 12 sigma], splitting the interval at every hinge location so each
    panel sees a smooth function.  Raises QuadratureError if the reported
    absolute error exceeds ``tol``.
    """
    kind = pair[0]
    if kind == "relu_sq":
        if len(pair) != 1:
            raise ValueError(f"('relu_sq',) takes no breakpoints, got {pair}")
        hinges = (0.0,)
        integrand = lambda x: max(0.0, x) ** 2
    elif kind == "relu_hinge":
        if len(pair) != 2:
            raise ValueError(f"('relu_hinge', b) expected, got {pair}")
        b = float(pair[1])
        _check_breakpoint("b", b)
        hinges = (0.0, b)
        integrand = lambda x: max(0.0, x) * max(0.0, b - x)
    elif kind == "hinge_hinge":
        if len(pair) != 3:
            raise ValueError(f"('hinge_hinge', bi, bj) expected, got {pair}")
        bi, bj = float(pair[1]), float(pair[2])
        _check_breakpoint("bi", bi)
        _check_breakpoint("bj", bj)
        hinges = (bi, bj)
        integrand = lambda x: max(0.0, bi - x) * max(0.0, bj - x)
    else:
        raise ValueError(f"unknown moment descriptor {pair!r}")

    mu, sigma = g.mu, g.sigma
    lo, hi = mu - 12.0 * sigma, mu + 12.0 * sigma
    inv_sigma = 1.0 / sigma
    density = lambda x: _INV_SQRT_2PI * inv_sigma * math.exp(
        -0.5 * ((x - mu) * inv_sigma) ** 2
    )
    split = sorted({p for p in hinges if lo < p < hi})
    # Imported here: only this oracle needs it, and it slows `import taan`.
    from scipy.integrate import quad

    value, abserr = quad(
        lambda x: integrand(x) * density(x),
        lo,
        hi,
        points=split or None,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    if abserr > tol:
        raise QuadratureError(
            f"quadrature for {pair!r} under N({mu}, {sigma}^2) reported "
            f"absolute error {abserr:.3e} > tol {tol:.1e} (value {value!r})"
        )
    return value
