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

from taan.apl import BasisGrid, apl_eval_pair
from taan.moments import GaussianParams, moment_b0_sq, moment_b0b, moment_bb

DEGENERATE_NORM_EPS = 1e-12
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
        if not (
            np.all(np.isfinite(w))
            and np.all(np.isfinite(m))
            and np.all(np.isfinite(s))
        ):
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

    @classmethod
    def from_components(cls, components):
        """Build from an iterable of (weight, mean, sigma) triples."""
        comps = [(float(p), float(m), float(s)) for p, m, s in components]
        return cls(
            np.array([c[0] for c in comps]),
            np.array([c[1] for c in comps]),
            np.array([c[2] for c in comps]),
        )

    def components(self):
        return [
            (float(p), GaussianParams(float(m), float(s)))
            for p, m, s in zip(self.weights, self.means, self.sigmas)
        ]


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
    (M, M) breakpoint grid."""
    b = grid.breakpoints
    s = 0.0
    v = np.zeros(b.size)
    g = np.zeros((b.size, b.size))
    for pi, comp in mixture.components():
        s += pi * moment_b0_sq(comp)
        v += pi * moment_b0b(b, comp)
        g += pi * moment_bb(b[:, None], b[None, :], comp)
    return GramCache(s, v, g)


def layer_grams(grids, mixture: GaussianMixture):
    """One GramCache per grid, built once per distinct ``BasisGrid`` object
    (``build_model`` and ``load_checkpoint`` let layers share one grid)."""
    built = {}
    for grid in grids:
        if id(grid) not in built:
            built[id(grid)] = build_gram(grid, mixture)
    return [built[id(grid)] for grid in grids]


def _pair(c1, c2, cache):
    m = cache.basis_count
    c1 = np.ascontiguousarray(c1, dtype=np.float64)
    c2 = np.ascontiguousarray(c2, dtype=np.float64)
    if c1.shape != (m,) or c2.shape != (m,):
        raise ValueError(
            f"coordinate vectors must have shape ({m},), got "
            f"{c1.shape} and {c2.shape}"
        )
    return c1, c2


def inner_product(c1, c2, cache: GramCache):
    """<F1, F2> under the mixture; symmetric in the two coordinate vectors."""
    c1, c2 = _pair(c1, c2, cache)
    return float(
        cache.relu_relu
        + (c1 + c2) @ cache.relu_hinge
        + c1 @ cache.hinge_hinge @ c2
    )


def distance_sq(c1, c2, cache: GramCache):
    """E[(F1(X) - F2(X))^2]: the Gram quadratic form of the difference."""
    c1, c2 = _pair(c1, c2, cache)
    d = c1 - c2
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


def cosine_similarity(c1, c2, cache: GramCache):
    """<F1, F2> / (||F1|| ||F2||), in [-1, 1] up to rounding."""
    n1 = norm(c1, cache)
    n2 = norm(c2, cache)
    if n1 <= DEGENERATE_NORM_EPS or n2 <= DEGENERATE_NORM_EPS:
        raise DegenerateFunctionError(
            f"cosine similarity undefined for near-zero norms ({n1}, {n2})"
        )
    return inner_product(c1, c2, cache) / (n1 * n2)


def distance_matrix(alpha, cache: GramCache):
    """All pairwise squared distances between the rows of a coordinate
    matrix.

    Each pair's entry is the Gram form of the row difference, as in
    ``distance_sq``, so nearby rows keep their relative precision (the
    expanded form q_i + q_j - 2 p_ij cancels).  Exactly symmetric with an
    exactly zero diagonal by construction; tiny negative rounding residue is
    clipped to zero.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim != 2 or alpha.shape[1] != cache.basis_count:
        raise ValueError(
            f"coordinate matrix has shape {alpha.shape}, expected "
            f"(tasks, {cache.basis_count})"
        )
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


def _mc_mean_se(draw, n_samples):
    """Monte-Carlo means and standard errors of per-sample statistics.

    ``draw(n)`` returns one length-n array per statistic; it is called on
    chunks of at most MC_CHUNK samples, which bounds memory.  The standard
    error uses the sample variance, over n - 1.  Kept private so that the
    benchmark's tracer, which wraps public functions, charges the sampling
    loop to the caller.
    """
    if n_samples < 2:
        raise ValueError(f"need at least 2 Monte-Carlo samples, got {n_samples!r}")
    sums = sumsq = 0.0
    done = 0
    while done < n_samples:
        n = min(MC_CHUNK, n_samples - done)
        values = draw(n)
        sums += np.array([v.sum() for v in values])
        sumsq += np.array([np.dot(v, v) for v in values])
        done += n
    means = sums / n_samples
    variances = np.maximum((sumsq - n_samples * means**2) / (n_samples - 1), 0.0)
    return means, np.sqrt(variances / n_samples)


def mc_inner_and_distance(c1, c2, grid, mixture, n_samples, rng):
    """Monte-Carlo estimates of <F1, F2> and d2(F1, F2) under the mixture.

    Returns ((ip_mean, ip_stderr), (d2_mean, d2_stderr)).  This is the
    independent sampling route against the closed-form Gram route; it shares
    no moment code with build_gram.
    """

    def draw(n):
        f1, f2, diff = apl_eval_pair(sample_mixture(mixture, n, rng), c1, c2, grid)
        return f1 * f2, diff * diff

    (ip, d2), (ip_se, d2_se) = _mc_mean_se(draw, n_samples)
    return (float(ip), float(ip_se)), (float(d2), float(d2_se))
