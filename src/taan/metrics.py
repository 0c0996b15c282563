"""Function-space geometry of hinge activations under a Gaussian mixture.

The plain L2 inner product of two activations diverges (both grow linearly),
so all metrics here weight the integrals by a Gaussian mixture density G.
With basis moments

    s   = sum_k pi_k E_k[relu^2]
    v_i = sum_k pi_k E_k[relu * hinge_{b_i}]
    G_ij = sum_k pi_k E_k[hinge_{b_i} * hinge_{b_j}]

built by broadcasting the closed forms of ``taan.moments`` over the
breakpoint grid, once per distinct grid per call of ``layer_grams``, the
metrics reduce to quadratic forms in the coordinate vectors:

    <F1, F2>  = s + (c1 + c2)' v + c1' G c2          (= E[F1(X) F2(X)])
    d2(F1,F2) = (c1 - c2)' G (c1 - c2)               (= E[(F1(X) - F2(X))^2])
    ||F||     = sqrt(<F, F>)

The hinge-moment matrix is a Gram matrix of functions in the weighted L2
space, hence symmetric positive semidefinite.
"""

import math
from dataclasses import dataclass

import numpy as np

from taan.apl import BasisGrid, _coords, apl_eval_pair
from taan.data import _whole
from taan.moments import GaussianParams, moment_b0_sq, moment_b0b, std_normal_cdf
from taan.moments import _moment_bb, _std_normal_pdf

DEGENERATE_NORM_EPS = 1e-12
# Float64 elements per Monte-Carlo array (800 KB), whatever one sample spans.
MC_CHUNK = 100_000


class NumericError(ArithmeticError):
    """A metric invariant failed badly enough to indicate a broken cache."""


class DegenerateFunctionError(ValueError):
    """Cosine similarity requested for a function with near-zero norm."""


@dataclass(frozen=True)
class GaussianMixture:
    """Weights, means and deviations of the weighting measure."""

    weights: np.ndarray
    means: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.asarray(self.means, dtype=np.float64)
        s = np.asarray(self.sigmas, dtype=np.float64)
        if not (w.shape == m.shape == s.shape) or w.ndim != 1 or w.size < 1:
            raise ValueError("weights, means, sigmas must be equal-length 1-D")
        if not np.all(np.isfinite([w, m, s])):
            raise ValueError("mixture parameters must be finite")
        if np.any(w < 0.0):
            raise ValueError("mixture weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {w.sum()!r}, not 1")
        if np.any(s <= 0.0):
            raise ValueError("mixture sigmas must be positive")
        for name, arr in (("weights", w), ("means", m), ("sigmas", s)):
            arr = np.ascontiguousarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def standard_normal(cls):
        return cls(np.array([1.0]), np.array([0.0]), np.array([1.0]))

    def components(self):
        return [
            (float(p), GaussianParams(m, s))
            for p, m, s in zip(self.weights, self.means, self.sigmas)
        ]


# The measure taan compares activations under: training builds its Gram
# caches under it, and the checkpoint records it so that ``taan analyze``
# measures what training shaped.
COMPARISON_MIXTURE = GaussianMixture.standard_normal()


@dataclass(frozen=True)
class GramCache:
    """Mixture-weighted second moments of the basis functions.

    relu_relu is E[relu^2], relu_hinge[i] is E[relu * hinge_{b_i}], and
    hinge_hinge[i, j] is E[hinge_{b_i} * hinge_{b_j}], each averaged over the
    mixture components.
    """

    relu_relu: float
    relu_hinge: np.ndarray
    hinge_hinge: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.relu_hinge, dtype=np.float64)
        g = np.ascontiguousarray(self.hinge_hinge, dtype=np.float64)
        if v.ndim != 1 or g.shape != (v.size, v.size):
            raise ValueError(
                f"inconsistent cache shapes {v.shape} and {g.shape}"
            )
        v.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "relu_hinge", v)
        object.__setattr__(self, "hinge_hinge", g)

    @property
    def basis_count(self):
        return self.relu_hinge.size


def build_gram(grid: BasisGrid, mixture: GaussianMixture) -> GramCache:
    """The moment cache for one (grid, mixture) pair: per mixture component,
    one broadcast of the closed forms over the breakpoints and one over the
    (M, M) breakpoint grid.  The breakpoints increase strictly, so entry
    (i, j) of the hinge moments sits at min(b_i, b_j) = b_min(i, j): Phi and
    phi are evaluated on the M breakpoints and gathered, which equals
    ``moment_bb`` over the grid bit for bit."""
    b = grid.breakpoints
    k = np.arange(b.size)
    lo = np.minimum.outer(k, k)
    prod, total, bt = b[:, None] * b, b[:, None] + b, b[lo]
    s = 0.0
    v = np.zeros(b.size)
    g = np.zeros((b.size, b.size))
    for pi, comp in mixture.components():
        s += pi * moment_b0_sq(comp)
        v += pi * moment_b0b(b, comp)
        c = (b - comp.mu) / comp.sigma
        cdf, pdf = std_normal_cdf(c)[lo], _std_normal_pdf(c)[lo]
        g += pi * _moment_bb(prod, total, bt, cdf, pdf, comp)
    return GramCache(s, v, g)


def layer_grams(grids, mixture: GaussianMixture):
    """One GramCache per grid, built once per distinct ``BasisGrid`` object
    (``build_model`` and ``load_checkpoint`` let layers share one grid)."""
    built = {}
    for grid in grids:
        if id(grid) not in built:
            built[id(grid)] = build_gram(grid, mixture)
    return [built[id(grid)] for grid in grids]


def inner_product(c1, c2, cache: GramCache):
    """<F1, F2> under the mixture; symmetric in the two coordinate vectors."""
    c1, c2 = (_coords(c, cache.basis_count) for c in (c1, c2))
    return float(
        cache.relu_relu
        + (c1 + c2) @ cache.relu_hinge
        + c1 @ cache.hinge_hinge @ c2
    )


def distance_sq(c1, c2, cache: GramCache):
    """E[(F1(X) - F2(X))^2]: the Gram quadratic form of the difference."""
    d = _coords(c1, cache.basis_count) - _coords(c2, cache.basis_count)
    return float(d @ cache.hinge_hinge @ d)


def norm(c, cache: GramCache):
    """sqrt(<F, F>); the self inner product is E[F^2] and cannot be negative
    beyond rounding."""
    ip = inner_product(c, c, cache)
    if ip < -1e-10:
        raise NumericError(
            f"self inner product {ip!r} is negative; Gram cache is broken"
        )
    return math.sqrt(max(ip, 0.0))


def distance_matrix(alpha, cache: GramCache):
    """All pairwise squared distances between the rows of a coordinate
    matrix.

    Each pair's entry is the Gram form of the row difference, as in
    ``distance_sq``, so nearby rows keep their relative precision (the
    expanded form q_i + q_j - 2 p_ij cancels).  Exactly symmetric with an
    exactly zero diagonal by construction; tiny negative rounding residue is
    clipped to zero.
    """
    alpha = _coords(alpha, cache.basis_count, 2)
    i, j = np.triu_indices(alpha.shape[0], 1)
    diff = alpha[i] - alpha[j]
    d = np.zeros((alpha.shape[0],) * 2)
    d[i, j] = np.maximum(np.einsum("pm,pm->p", diff @ cache.hinge_hinge, diff), 0.0)
    d[j, i] = d[i, j]
    return d


def mean_pairwise_distance(dist):
    """Mean of a distance matrix over its ordered pairs of distinct tasks;
    0 for fewer than two tasks."""
    t = dist.shape[0]
    if t < 2:
        return 0.0
    return float(dist.sum() / (t * (t - 1)))


def sample_mixture(mixture: GaussianMixture, n, rng):
    """Draw n samples from the mixture density (used by Monte-Carlo checks).

    One multinomial draw gives the per-component counts and one standard
    normal draw is scaled block by block, so the samples come grouped by
    component; every Monte-Carlo estimate here is a sum, which does not
    depend on their order.
    """
    counts = rng.multinomial(n, mixture.weights)
    x = rng.standard_normal(n)
    start = 0
    for count, mean, sigma in zip(counts, mixture.means, mixture.sigmas):
        block = x[start : start + count]
        block *= sigma
        block += mean
        start += count
    return x


def _mc_mean_se(draw, n_samples, width):
    """Monte-Carlo means and standard errors of per-sample statistics.

    ``draw(n)`` returns one length-n array per statistic.  One sample spans
    ``width`` float64 elements in the largest array ``draw`` builds, so it is
    asked for at most ``MC_CHUNK // width`` samples per call (at least one):
    ``MC_CHUNK`` bounds the elements per array, not the samples, which keeps
    memory flat in ``n_samples``.  Per-chunk means and centred sums of
    squares are merged with the Chan-Golub-LeVeque update, which does not
    cancel when the spread is small against the mean; the standard error
    uses the sample variance, over n - 1.  Kept private so that the
    benchmark's tracer, which wraps public functions, charges the sampling
    loop to the caller.
    """
    n_samples = _whole("Monte-Carlo sample count", n_samples, 2)
    chunk = max(1, MC_CHUNK // width)
    means = m2 = 0.0
    done = 0
    while done < n_samples:
        n = min(chunk, n_samples - done)
        values = draw(n)
        chunk_means = np.array([v.mean() for v in values])
        chunk_m2 = np.array([v.var() for v in values]) * n
        delta = chunk_means - means
        total = done + n
        means = means + delta * (n / total)
        m2 = m2 + chunk_m2 + delta * delta * (done * n / total)
        done = total
    return means, np.sqrt(m2 / (n_samples - 1) / n_samples)


def mc_inner_and_distance(c1, c2, grid, mixture, n_samples, rng):
    """Monte-Carlo estimates of <F1, F2> and d2(F1, F2) under the mixture.

    Returns ((ip_mean, ip_stderr), (d2_mean, d2_stderr)).  This is the
    independent sampling route against the closed-form Gram route; it shares
    no moment code with build_gram.
    """

    def draw(n):
        f1, f2, diff = apl_eval_pair(sample_mixture(mixture, n, rng), c1, c2, grid)
        return f1 * f2, diff * diff

    (ip, d2), (ip_se, d2_se) = _mc_mean_se(draw, n_samples, 1)
    return (float(ip), float(ip_se)), (float(d2), float(d2_se))
