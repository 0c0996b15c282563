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
from taan.data import _read_csv, _real, _write_csv
from taan.metrics import (
    GaussianMixture,
    build_gram,
    distance_matrix,
    distance_sq,
    inner_product,
    layer_grams,
    _mc_mean_se,
)
from taan.moments import GaussianParams
from taan.network import TaanModel


@dataclass(frozen=True)
class LayerDistanceReport:
    """Squared pairwise activation distances for one layer."""

    layer_id: int
    matrix: np.ndarray
    labels: tuple

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.float64)
        t = matrix.shape[0]
        if matrix.shape != (t, t):
            raise ValueError(f"distance matrix must be square, got {matrix.shape}")
        if not np.array_equal(matrix, matrix.T):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diag(matrix) != 0.0):
            raise ValueError("distance matrix diagonal must be zero")
        if matrix.min() < 0:
            raise ValueError("distances must be nonnegative")
        labels = tuple(str(l) for l in self.labels)
        if len(labels) != t:
            raise ValueError(f"need {t} labels, got {len(labels)}")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "labels", labels)


def layer_distances(model: TaanModel, mixture=None):
    """One LayerDistanceReport per activation layer, with each layer's Gram
    matrix built under the given mixture (standard normal by default)."""
    if mixture is None:
        mixture = GaussianMixture.standard_normal()
    caches = layer_grams([layer.grid for layer in model.layers], mixture)
    labels = tuple(f"task{t}" for t in range(model.task_count))
    return [
        LayerDistanceReport(l, distance_matrix(layer.coords, caches[l]), labels)
        for l, layer in enumerate(model.layers)
    ]


def export_heatmap(report: LayerDistanceReport, path, fmt="csv"):
    """Write the matrix as labeled CSV or 8-bit binary PGM.

    PGM scales linearly with 255 at the matrix maximum, so lighter pixels
    mean larger distance; an all-zero matrix renders black.
    """
    if fmt == "csv":
        _write_csv(path, report.labels, report.matrix.tolist())
        return
    if fmt == "pgm":
        peak = float(report.matrix.max())
        if peak > 0:
            pixels = np.rint(report.matrix * (255.0 / peak)).astype(np.uint8)
        else:
            pixels = np.zeros(report.matrix.shape, dtype=np.uint8)
        t = report.matrix.shape[0]
        with open(path, "wb") as fh:
            fh.write(f"P5\n{t} {t}\n255\n".encode("ascii"))
            fh.write(pixels.tobytes())
        return
    raise ValueError(f"unknown heatmap format {fmt!r}")


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
    matrix = np.asarray(matrix, dtype=np.float64)
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


def layer1_unit_gaussians(model: TaanModel):
    """Exact per-unit pre-activation law of layer 1 under N(0, I) inputs."""
    if not model.layers:
        raise ValueError("model has no activation layers")
    linear = model.layers[0].linear
    return [
        GaussianParams(linear.bias[n], np.linalg.norm(linear.weight[n]))
        for n in range(linear.out_dim)
    ]


@dataclass(frozen=True)
class BoundCheckReport:
    """Monte-Carlo left sides vs metric-side bounds for one task pair."""

    tasks: tuple
    inner_left: float
    inner_se: float
    inner_right: float
    dist_left: float
    dist_se: float
    dist_right: float
    samples: int

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

    @property
    def inner_pass(self):
        return self.inner_left <= self.inner_right + 3.0 * self.inner_se

    @property
    def dist_pass(self):
        return self.dist_left <= self.dist_right + 3.0 * self.dist_se

    @property
    def passed(self):
        return self.inner_pass and self.dist_pass


def check_l1_bounds(
    model: TaanModel,
    unit_gaussians,
    c1,
    tasks,
    mc_samples=1_000_000,
    seed=0,
) -> BoundCheckReport:
    """Estimate E[h1ᵀh2] and E[‖h1−h2‖²] at layer 1 by Monte Carlo and
    compare against c1 times the per-unit metric sums: N times the forms
    under one cache for the equal-weight mixture of the N unit Gaussians.

    With D inputs, one sample spans max(D, N) float64 elements, so the
    sampler draws ``metrics.MC_CHUNK // max(D, N)`` samples per call (6,250
    at 8 → 16), and memory does not grow with ``mc_samples``."""
    c1 = _real("c1", c1, 0)
    t1, t2 = (model._task(t) for t in tasks)
    layer = model.layers[0]
    n_units = len(unit_gaussians)
    if n_units != layer.linear.out_dim:
        raise ValueError(
            f"need {layer.linear.out_dim} unit Gaussians, got {n_units}"
        )
    coords1 = layer.coords[t1]
    coords2 = layer.coords[t2]
    cache = build_gram(
        layer.grid,
        GaussianMixture.from_components(
            (1.0 / n_units, g.mu, g.sigma) for g in unit_gaussians
        ),
    )
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
