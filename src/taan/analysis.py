"""Post-hoc analysis of trained models.

Covers per-layer task-distance matrices with CSV/PGM heatmap export,
within/between-cluster separation scores, and a Monte-Carlo check of the
layer-1 functional bounds: with standard-normal inputs each unit's
pre-activation is exactly Gaussian with mean b[n] and deviation ‖W[n,:]‖,
so the expected activation inner products and squared distances equal the
metric-side sums and the bound holds with envelope 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from taan.apl import apl_eval_pair
from taan.data import _choice, _read_csv, _real, _write_csv
from taan.metrics import (
    COMPARISON_MIXTURE,
    GaussianMixture,
    build_gram,
    distance_matrix,
    distance_sq,
    inner_product,
    layer_grams,
    _mc_mean_se,
)
from taan.network import TaanModel


def _square(matrix):
    """``matrix`` as a float64 (T, T) array; else ValueError naming its shape."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {matrix.shape}")
    return matrix


def layer_distances(model: TaanModel, mixture=None):
    """One (T, T) squared-distance matrix per activation layer, with each
    layer's Gram matrix built under the given mixture (by default
    ``metrics.COMPARISON_MIXTURE``, the one training uses).  A model without
    activation layers is refused rather than given no matrices."""
    _layer1(model)
    if mixture is None:
        mixture = COMPARISON_MIXTURE
    caches = layer_grams([layer.grid for layer in model.layers], mixture)
    return [
        distance_matrix(layer.coords, cache)
        for layer, cache in zip(model.layers, caches)
    ]


def export_heatmap(matrix, path, fmt="csv"):
    """Write a (T, T) distance matrix as CSV under the header task0 ...
    task{T-1}, or as 8-bit binary PGM.

    PGM scales linearly with 255 at the matrix maximum, so lighter pixels
    mean larger distance; an all-zero matrix renders black.  A negative or
    non-finite entry is refused, as PGM would wrap it to a bright pixel.
    """
    matrix = _square(matrix)
    bad = matrix[~(np.isfinite(matrix) & (matrix >= 0.0))]
    if bad.size:
        raise ValueError(
            f"distances must be finite and >= 0, got {bad[0]} in shape {matrix.shape}"
        )
    t = matrix.shape[0]
    if _choice("heatmap format", fmt, ("csv", "pgm")) == "csv":
        _write_csv(path, [f"task{i}" for i in range(t)], matrix.tolist())
        return
    peak = float(matrix.max())
    if peak > 0:
        pixels = np.rint(matrix * (255.0 / peak)).astype(np.uint8)
    else:
        pixels = np.zeros(matrix.shape, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{t} {t}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def load_heatmap_csv(path):
    """Read a heatmap CSV back as (matrix, labels)."""
    labels, matrix = _read_csv(path)
    if matrix.shape != (len(labels), len(labels)):
        raise ValueError(
            f"{path}: matrix shape {matrix.shape} does not match "
            f"{len(labels)} labels"
        )
    return matrix, tuple(labels)


def cluster_separation(matrix, clusters):
    """Mean distance over same-cluster pairs vs different-cluster pairs."""
    matrix = _square(matrix)
    clusters = np.asarray(tuple(clusters))
    t = matrix.shape[0]
    if len(clusters) != t:
        raise ValueError(f"need {t} cluster ids, got {len(clusters)}")
    i, j = np.triu_indices(t, k=1)
    same = clusters[i] == clusters[j]
    within, between = matrix[i[same], j[same]], matrix[i[~same], j[~same]]
    if not within.size or not between.size:
        raise ValueError("need at least one within- and one between-cluster pair")
    return float(np.mean(within)), float(np.mean(between))


def _layer1(model: TaanModel):
    if not model.layers:
        raise ValueError("model has no activation layers")
    return model.layers[0]


def layer1_unit_gaussians(model: TaanModel) -> GaussianMixture:
    """Exact pre-activation law of layer 1 under N(0, I) inputs: the
    equal-weight mixture of its units' Gaussians N(b[n], ‖W[n,:]‖²)."""
    linear = _layer1(model).linear
    weights = np.full(linear.out_dim, 1.0 / linear.out_dim)
    sigmas = np.array([np.linalg.norm(row) for row in linear.weight])
    return GaussianMixture(weights, linear.bias.copy(), sigmas)


# A side passes when its Monte-Carlo mean is at most 3 standard errors above
# its bound and within BOUND_MAX_Z standard errors of its closed form, the
# bound over c1: with N(0, I) inputs the mean estimates that closed form
# exactly, so a closed form that is wrong in either direction fails.
BOUND_MAX_Z = 5.0


@dataclass(frozen=True)
class BoundCheckReport:
    """Monte-Carlo left sides vs metric-side bounds, c1 times the closed
    forms, for one task pair; each side passes by the rule above."""

    tasks: tuple
    inner_left: float
    inner_se: float
    inner_right: float
    dist_left: float
    dist_se: float
    dist_right: float
    samples: int
    c1: float

    def __post_init__(self):
        values = (
            self.inner_left,
            self.inner_se,
            self.inner_right,
            self.dist_left,
            self.dist_se,
            self.dist_right,
        )
        if not all(math.isfinite(v) for v in values):
            raise ValueError("bound report entries must be finite")
        if self.inner_se < 0 or self.dist_se < 0:
            raise ValueError("standard errors must be >= 0")
        _real("c1", self.c1, 0)

    def _side_pass(self, left, se, right):
        near = abs(left - right / self.c1) <= BOUND_MAX_Z * se
        return near and left <= right + 3.0 * se

    @property
    def inner_pass(self):
        return self._side_pass(self.inner_left, self.inner_se, self.inner_right)

    @property
    def dist_pass(self):
        return self._side_pass(self.dist_left, self.dist_se, self.dist_right)

    @property
    def passed(self):
        return self.inner_pass and self.dist_pass


def check_l1_bounds(
    model: TaanModel,
    units: GaussianMixture,
    c1,
    tasks,
    mc_samples=1_000_000,
    seed=0,
) -> BoundCheckReport:
    """Estimate E[h1ᵀh2] and E[‖h1−h2‖²] at layer 1 by Monte Carlo and
    compare against c1 times the per-unit metric sums: N times the forms
    under one cache for ``units``, which must equal
    ``layer1_unit_gaussians(model)`` (else ValueError).

    With D inputs, one sample spans max(D, N) float64 elements, so the
    sampler draws ``metrics.MC_CHUNK // max(D, N)`` samples per call (6,250
    at 8 → 16), and memory does not grow with ``mc_samples``."""
    c1 = _real("c1", c1, 0)
    layer = _layer1(model)
    t1, t2 = (model._task(t) for t in tasks)
    # The bound is N times the form only under the law the sampler draws.
    law = layer1_unit_gaussians(model)
    if not all(
        np.array_equal(getattr(units, name), getattr(law, name))
        for name in ("weights", "means", "sigmas")
    ):
        raise ValueError(
            "units must be layer1_unit_gaussians(model), the law the sampler draws"
        )
    n_units = law.weights.size
    coords1 = layer.coords[t1]
    coords2 = layer.coords[t2]
    cache = build_gram(layer.grid, units)
    inner_right = c1 * n_units * inner_product(coords1, coords2, cache)
    dist_right = c1 * n_units * distance_sq(coords1, coords2, cache)
    rng = np.random.default_rng(seed)
    weight_t = layer.linear.weight.T
    bias = layer.linear.bias

    def draw(n):
        x = rng.standard_normal((n, layer.linear.in_dim))
        a = (x @ weight_t + bias).ravel()
        h1, h2, diff = (
            v.reshape(n, -1) for v in apl_eval_pair(a, coords1, coords2, layer.grid)
        )
        return np.einsum("ij,ij->i", h1, h2), np.einsum("ij,ij->i", diff, diff)

    width = max(layer.linear.in_dim, layer.linear.out_dim)
    means, ses = _mc_mean_se(draw, mc_samples, width)
    return BoundCheckReport(
        (t1, t2),
        float(means[0]),
        float(ses[0]),
        float(inner_right),
        float(means[1]),
        float(ses[1]),
        float(dist_right),
        int(mc_samples),
        c1,
    )


def _bound_rows(report: BoundCheckReport):
    """(side, mc_mean, stderr, bound, passed) for the inner and dist sides."""
    return (
        ("inner", report.inner_left, report.inner_se, report.inner_right,
         report.inner_pass),
        ("dist", report.dist_left, report.dist_se, report.dist_right,
         report.dist_pass),
    )


def bound_report_text(report: BoundCheckReport):
    """Human-readable two-row table for one task pair."""
    header = (
        f"layer-1 bound check, tasks {report.tasks[0]} vs {report.tasks[1]}, "
        f"{report.samples} samples"
    )
    lines = [header, f"{'side':<8}{'mc_mean':>16}{'stderr':>14}{'bound':>16}{'ok':>5}"]
    for name, left, se, right, ok in _bound_rows(report):
        lines.append(
            f"{name:<8}{left:>16.8f}{se:>14.2e}{right:>16.8f}"
            f"{'yes' if ok else 'NO':>5}"
        )
    return "\n".join(lines)


def bound_report_csv(reports, path):
    """Machine-readable form, one row per (pair, side)."""
    columns = ("task1", "task2", "side", "mc_mean", "stderr", "bound", "passed")
    rows = (
        (*report.tasks, side, float(left), float(se), float(right), int(ok))
        for report in reports
        for side, left, se, right, ok in _bound_rows(report)
    )
    _write_csv(path, columns, rows)
