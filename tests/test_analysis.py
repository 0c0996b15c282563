"""Distance reports, heatmap export, cluster separation and layer-1 bounds."""

import tracemalloc

import numpy as np
import pytest

import taan.analysis
import taan.metrics
from taan.analysis import (
    BoundCheckReport,
    LayerDistanceReport,
    bound_report_csv,
    bound_report_text,
    check_l1_bounds,
    cluster_separation,
    export_heatmap,
    layer1_unit_gaussians,
    layer_distances,
    load_heatmap_csv,
)
from taan.metrics import GaussianMixture, build_gram, distance_sq, inner_product
from taan.network import ArchitectureSpec, build_model, to_hard_sharing


def spread_model(seed=0, task_count=3):
    arch = ArchitectureSpec(6, (8, 5), 1, task_count=task_count, basis_count=6)
    model = build_model(arch, seed)
    rng = np.random.default_rng(seed + 1)
    for layer in model.layers:
        layer.coords[:] = rng.uniform(-0.5, 0.5, layer.coords.shape)
    return model


def test_fresh_init_distances_are_tiny():
    # Coordinates start in [-0.01, 0.01]; with 8 hinges the squared distance
    # d' G d is bounded by (0.02)^2 * sum |G| ~ 5e-3, far below trained scale.
    model = build_model(ArchitectureSpec(6, (8, 5), 1, task_count=4), 3)
    for report in layer_distances(model):
        off = report.matrix[~np.eye(4, dtype=bool)]
        assert off.max() < 5e-3
        assert report.labels == ("task0", "task1", "task2", "task3")
    assert [r.layer_id for r in layer_distances(model)] == [0, 1]


def test_hard_sharing_distances_are_exactly_zero():
    model = to_hard_sharing(spread_model())
    for report in layer_distances(model):
        assert np.array_equal(report.matrix, np.zeros_like(report.matrix))


def test_layer_distances_respects_mixture():
    model = spread_model()
    standard = layer_distances(model)
    shifted = layer_distances(
        model,
        mixture=GaussianMixture(
            np.array([1.0]), np.array([1.5]), np.array([0.7])
        ),
    )
    assert not np.allclose(standard[0].matrix, shifted[0].matrix)


def test_heatmap_csv_round_trip(tmp_path):
    model = spread_model()
    report = layer_distances(model)[0]
    path = tmp_path / "layer0.csv"
    export_heatmap(report, path, fmt="csv")
    matrix, labels = load_heatmap_csv(path)
    assert labels == report.labels
    assert np.max(np.abs(matrix - report.matrix)) <= 1e-9
    with pytest.raises(ValueError):
        export_heatmap(report, tmp_path / "x.bin", fmt="png")


def test_heatmap_csv_errors_name_the_line(tmp_path):
    path = tmp_path / "layer0.csv"
    for text, match in (
        ("a,b\n0.0,1.0\n1.0\n", "line 3: expected 2 columns, got 1"),
        ("a,b\n0.0,x\n1.0,0.0\n", "line 2: could not convert"),
        ("a,b\n0.0,inf\ninf,0.0\n", "line 2: non-finite"),
        ("a,b\n0.0,1.0\n", r"shape \(1, 2\) does not match 2 labels"),
        ("", "empty file"),
    ):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=match) as info:
            load_heatmap_csv(path)
        assert str(info.value).startswith(f"{path}: ")


def test_heatmap_pgm_bytes(tmp_path):
    report = LayerDistanceReport(
        0, np.array([[0.0, 0.5], [0.5, 0.0]]), ("a", "b")
    )
    path = tmp_path / "layer0.pgm"
    export_heatmap(report, path, fmt="pgm")
    data = path.read_bytes()
    assert data == b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0])
    # An all-zero matrix renders black rather than dividing by zero.
    zero = LayerDistanceReport(0, np.zeros((2, 2)), ("a", "b"))
    export_heatmap(zero, path, fmt="pgm")
    assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes(4)


def test_heatmap_pgm_scaling_is_monotone(tmp_path):
    matrix = np.array(
        [
            [0.0, 0.2, 0.8],
            [0.2, 0.0, 0.4],
            [0.8, 0.4, 0.0],
        ]
    )
    report = LayerDistanceReport(1, matrix, ("a", "b", "c"))
    path = tmp_path / "layer1.pgm"
    export_heatmap(report, path, fmt="pgm")
    pixels = np.frombuffer(
        path.read_bytes()[len(b"P5\n3 3\n255\n"):], dtype=np.uint8
    ).reshape(3, 3)
    assert pixels[0, 2] == 255
    assert pixels[0, 1] < pixels[1, 2] < pixels[0, 2]
    assert np.array_equal(pixels, pixels.T)


def test_distance_report_validation():
    with pytest.raises(ValueError):
        LayerDistanceReport(0, np.zeros((2, 3)), ("a", "b"))
    with pytest.raises(ValueError):
        LayerDistanceReport(0, np.array([[0.0, 1.0], [2.0, 0.0]]), ("a", "b"))
    with pytest.raises(ValueError):
        LayerDistanceReport(0, np.array([[1.0, 0.5], [0.5, 0.0]]), ("a", "b"))
    with pytest.raises(ValueError):
        LayerDistanceReport(0, np.array([[0.0, -0.5], [-0.5, 0.0]]), ("a", "b"))
    with pytest.raises(ValueError):
        LayerDistanceReport(0, np.zeros((2, 2)), ("a", "b", "c"))
    report = LayerDistanceReport(0, np.zeros((2, 2)), (0, 1))
    assert report.labels == ("0", "1")


def test_cluster_separation_hand_matrix():
    matrix = np.array(
        [
            [0.0, 1.0, 4.0, 6.0],
            [1.0, 0.0, 5.0, 7.0],
            [4.0, 5.0, 0.0, 2.0],
            [6.0, 7.0, 2.0, 0.0],
        ]
    )
    within, between = cluster_separation(matrix, (0, 0, 1, 1))
    assert within == 1.5
    assert between == 5.5
    with pytest.raises(ValueError):
        cluster_separation(matrix, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        cluster_separation(matrix, (0, 1))


def test_layer1_unit_gaussians_are_exact():
    model = spread_model()
    gaussians = layer1_unit_gaussians(model)
    linear = model.layers[0].linear
    assert len(gaussians) == linear.out_dim
    for n, g in enumerate(gaussians):
        assert g.mu == linear.bias[n]
        assert abs(g.sigma - np.sqrt(np.sum(linear.weight[n] ** 2))) < 1e-15


def test_l1_bound_holds_with_unit_envelope():
    model = spread_model(seed=5, task_count=2)
    gaussians = layer1_unit_gaussians(model)
    for tasks in ((0, 1), (0, 0)):
        report = check_l1_bounds(
            model, gaussians, 1.0, tasks, mc_samples=200_000, seed=7
        )
        assert report.passed
        # With envelope 1 the bound is an equality, so the Monte-Carlo mean
        # should straddle it rather than sit far below.
        assert report.inner_left >= report.inner_right - 4.0 * report.inner_se
    text = bound_report_text(report)
    assert "tasks 0 vs 0" in text and "yes" in text


def test_l1_bound_validation_and_csv(tmp_path):
    model = spread_model(seed=6, task_count=2)
    gaussians = layer1_unit_gaussians(model)
    with pytest.raises(ValueError):
        check_l1_bounds(model, gaussians, 0.0, (0, 1))
    with pytest.raises(ValueError):
        check_l1_bounds(model, gaussians[:-1], 1.0, (0, 1))
    for tasks, bad in (((-1, 0), "-1"), ((0, 2), "2")):
        with pytest.raises(ValueError, match=f"task id {bad} "):
            check_l1_bounds(model, gaussians, 1.0, tasks, mc_samples=100)
    for samples in (0, 1):
        with pytest.raises(ValueError, match=f"got {samples}"):
            check_l1_bounds(model, gaussians, 1.0, (0, 1), mc_samples=samples)
    report = check_l1_bounds(
        model, gaussians, 1.0, (0, 1), mc_samples=50_000, seed=3
    )
    path = tmp_path / "bounds.csv"
    bound_report_csv([report], path)
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "task1,task2,side,mc_mean,stderr,bound,passed"
    assert len(lines) == 3
    assert lines[1].startswith("0,1,inner,")
    assert lines[2].startswith("0,1,dist,")


def test_l1_bound_right_sides_equal_per_unit_sums():
    arch = ArchitectureSpec(6, (16,), 1, task_count=3, basis_count=8)
    model = build_model(arch, 4)
    layer = model.layers[0]
    layer.coords[:] = np.random.default_rng(5).uniform(-1.0, 1.0, layer.coords.shape)
    gaussians = layer1_unit_gaussians(model)
    for tasks in ((0, 2), (1, 1)):
        inner = dist = 0.0
        c1, c2 = layer.coords[tasks[0]], layer.coords[tasks[1]]
        for g in gaussians:
            cache = build_gram(
                layer.grid, GaussianMixture.from_components([(1.0, g.mu, g.sigma)])
            )
            inner += inner_product(c1, c2, cache)
            dist += distance_sq(c1, c2, cache)
        report = check_l1_bounds(model, gaussians, 1.5, tasks, mc_samples=100)
        assert abs(report.inner_right - 1.5 * inner) <= 1e-13 * abs(1.5 * inner)
        assert abs(report.dist_right - 1.5 * dist) <= 1e-13 * max(1.5 * dist, 1e-300)


def bound_shape_model():
    """Layer 1 at 8 inputs -> 16 units, M = 16, with spread coordinates."""
    model = build_model(ArchitectureSpec(8, (16,), 1, task_count=2, basis_count=16), 2)
    layer = model.layers[0]
    layer.coords[:] = np.random.default_rng(3).uniform(0.0, 0.5, layer.coords.shape)
    return model, layer1_unit_gaussians(model)


def report_values(report):
    return np.array([
        report.inner_left, report.inner_se, report.dist_left, report.dist_se
    ])


def test_l1_bound_report_does_not_depend_on_the_chunk(monkeypatch):
    model, gaussians = bound_shape_model()
    reports = []
    for chunk in (1_000, 100_000):
        monkeypatch.setattr(taan.metrics, "MC_CHUNK", chunk)
        reports.append(report_values(
            check_l1_bounds(model, gaussians, 1.0, (0, 1), mc_samples=200_000, seed=4)
        ))
    assert np.all(np.abs(reports[0] - reports[1]) <= 1e-13 * np.abs(reports[1]))


def test_l1_bound_chunks_hold_at_most_mc_chunk_elements(monkeypatch):
    model, gaussians = bound_shape_model()
    sizes = []
    apl_eval_pair = taan.analysis.apl_eval_pair

    def recording(a, *args):
        sizes.append(a.size)
        return apl_eval_pair(a, *args)

    monkeypatch.setattr(taan.analysis, "apl_eval_pair", recording)
    check_l1_bounds(model, gaussians, 1.0, (0, 1), mc_samples=300_000, seed=4)
    assert sum(sizes) == 300_000 * 16
    assert max(sizes) <= taan.metrics.MC_CHUNK


def test_l1_bound_memory_is_flat_in_samples():
    model, gaussians = bound_shape_model()
    peaks = []
    for samples in (10_000, 100_000, 1_000_000):
        tracemalloc.start()
        try:
            check_l1_bounds(model, gaussians, 1.0, (0, 1), mc_samples=samples, seed=4)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 1.5 * min(peaks), peaks


def test_bound_report_validation():
    with pytest.raises(ValueError):
        BoundCheckReport((0, 1), np.nan, 0.1, 1.0, 0.5, 0.1, 1.0, 10)
    with pytest.raises(ValueError):
        BoundCheckReport((0, 1), 0.5, -0.1, 1.0, 0.5, 0.1, 1.0, 10)
    failing = BoundCheckReport((0, 1), 2.0, 0.01, 1.0, 0.5, 0.1, 1.0, 10)
    assert not failing.inner_pass and failing.dist_pass and not failing.passed
    assert "NO" in bound_report_text(failing)
