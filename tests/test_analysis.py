"""Distance matrices, heatmap export, cluster separation and layer-1 bounds."""

import tracemalloc

import numpy as np
import pytest

import taan.analysis
import taan.metrics
from taan.analysis import (
    BoundCheckReport,
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
from taan.network import ArchitectureSpec, TaanModel, build_model, to_hard_sharing


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
    for matrix in layer_distances(model):
        off = matrix[~np.eye(4, dtype=bool)]
        assert off.max() < 5e-3
    assert len(layer_distances(model)) == 2


def test_hard_sharing_distances_are_exactly_zero():
    model = to_hard_sharing(spread_model())
    for matrix in layer_distances(model):
        assert np.array_equal(matrix, np.zeros_like(matrix))


def test_layer_distances_respects_mixture():
    model = spread_model()
    standard = layer_distances(model)
    shifted = layer_distances(
        model,
        mixture=GaussianMixture(
            np.array([1.0]), np.array([1.5]), np.array([0.7])
        ),
    )
    assert not np.allclose(standard[0], shifted[0])


def test_heatmap_csv_round_trip(tmp_path):
    model = spread_model()
    written = layer_distances(model)[0]
    path = tmp_path / "layer0.csv"
    export_heatmap(written, path, fmt="csv")
    matrix, labels = load_heatmap_csv(path)
    assert labels == ("task0", "task1", "task2")
    assert np.max(np.abs(matrix - written)) <= 1e-9
    with pytest.raises(ValueError):
        export_heatmap(written, tmp_path / "x.bin", fmt="png")


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
    path = tmp_path / "layer0.pgm"
    export_heatmap(np.array([[0.0, 0.5], [0.5, 0.0]]), path, fmt="pgm")
    data = path.read_bytes()
    assert data == b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0])
    # An all-zero matrix renders black rather than dividing by zero.
    export_heatmap(np.zeros((2, 2)), path, fmt="pgm")
    assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes(4)


def test_heatmap_pgm_scaling_is_monotone(tmp_path):
    matrix = np.array(
        [
            [0.0, 0.2, 0.8],
            [0.2, 0.0, 0.4],
            [0.8, 0.4, 0.0],
        ]
    )
    path = tmp_path / "layer1.pgm"
    export_heatmap(matrix, path, fmt="pgm")
    pixels = np.frombuffer(
        path.read_bytes()[len(b"P5\n3 3\n255\n"):], dtype=np.uint8
    ).reshape(3, 3)
    assert pixels[0, 2] == 255
    assert pixels[0, 1] < pixels[1, 2] < pixels[0, 2]
    assert np.array_equal(pixels, pixels.T)


def test_distance_report_validation(tmp_path):
    """export_heatmap refuses what is not a distance matrix, naming its
    shape, and writes nothing: a PGM would wrap a negative entry to a bright
    pixel."""
    path = tmp_path / "layer0.pgm"
    for matrix, match in (
        (np.zeros((2, 3)), r"must be square, got shape \(2, 3\)"),
        (np.zeros(3), r"must be square, got shape \(3,\)"),
        (np.array([[0.0, -0.5], [-0.5, 0.0]]), r"got -0.5 in shape \(2, 2\)"),
        (np.array([[0.0, np.nan], [np.nan, 0.0]]), r"got nan in shape \(2, 2\)"),
        (np.array([[0.0, np.inf], [np.inf, 0.0]]), r"got inf in shape \(2, 2\)"),
    ):
        for fmt in ("csv", "pgm"):
            with pytest.raises(ValueError, match=match):
                export_heatmap(matrix, path, fmt)
            assert not path.exists()


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
    # A matrix that is not square is refused by shape, not scored.
    with pytest.raises(ValueError, match=r"must be square, got shape \(3, 4\)"):
        cluster_separation(np.arange(12.0).reshape(3, 4), (0, 0, 1))


def test_layer1_unit_gaussians_are_exact():
    model = spread_model()
    gaussians = layer1_unit_gaussians(model)
    linear = model.layers[0].linear
    assert isinstance(gaussians, GaussianMixture)
    assert gaussians.weights.size == linear.out_dim
    assert np.all(gaussians.weights == 1.0 / linear.out_dim)
    for n in range(linear.out_dim):
        assert gaussians.means[n] == linear.bias[n]
        sigma = np.sqrt(np.sum(linear.weight[n] ** 2))
        assert abs(gaussians.sigmas[n] - sigma) < 1e-15
    # The mixture holds a copy: the model's bias stays writable.
    assert linear.bias.flags.writeable


def test_layer1_unit_gaussians_need_an_activation_layer():
    heads_only = build_model(ArchitectureSpec(3, (), 1, task_count=2), 0)
    with pytest.raises(ValueError, match="model has no activation layers"):
        layer1_unit_gaussians(heads_only)


def test_l1_bounds_need_an_activation_layer():
    # Used to fail with IndexError reading the first layer.
    heads_only = TaanModel(4, [], [], [1, 1])
    with pytest.raises(ValueError, match="model has no activation layers"):
        check_l1_bounds(heads_only, [], 1.0, (0, 1), mc_samples=100)


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
    short = GaussianMixture(
        np.full(7, 1.0 / 7), gaussians.means[:-1], gaussians.sigmas[:-1]
    )
    with pytest.raises(ValueError):
        check_l1_bounds(model, short, 1.0, (0, 1))
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


def test_l1_bounds_need_equal_unit_weights():
    # A mixture of the right size but other weights or other unit laws would
    # turn N times its form into something other than the per-unit sum.
    model = spread_model(seed=6, task_count=2)
    units = layer1_unit_gaussians(model)
    weights = np.full(8, 0.1)
    weights[0] = 0.3
    skewed = GaussianMixture(weights, units.means, units.sigmas)
    shifted = GaussianMixture(units.weights, units.means + 1.0, units.sigmas)
    wider = GaussianMixture(units.weights, units.means, 2.0 * units.sigmas)
    for wrong in (skewed, shifted, wider):
        with pytest.raises(ValueError, match=r"must be layer1_unit_gaussians\(model\)"):
            check_l1_bounds(model, wrong, 1.0, (0, 1), mc_samples=100)


def test_l1_bound_right_sides_equal_per_unit_sums():
    arch = ArchitectureSpec(6, (16,), 1, task_count=3, basis_count=8)
    model = build_model(arch, 4)
    layer = model.layers[0]
    layer.coords[:] = np.random.default_rng(5).uniform(-1.0, 1.0, layer.coords.shape)
    gaussians = layer1_unit_gaussians(model)
    for tasks in ((0, 2), (1, 1)):
        inner = dist = 0.0
        c1, c2 = layer.coords[tasks[0]], layer.coords[tasks[1]]
        for mu, sigma in zip(gaussians.means, gaussians.sigmas):
            unit = GaussianMixture(np.ones(1), np.array([mu]), np.array([sigma]))
            cache = build_gram(layer.grid, unit)
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
        BoundCheckReport((0, 1), np.nan, 0.1, 1.0, 0.5, 0.1, 1.0, 10, 1.0)
    with pytest.raises(ValueError):
        BoundCheckReport((0, 1), 0.5, -0.1, 1.0, 0.5, 0.1, 1.0, 10, 1.0)
    for c1 in (0.0, -1.0, np.nan, True):
        with pytest.raises(ValueError, match="c1"):
            BoundCheckReport((0, 1), 0.5, 0.1, 1.0, 0.5, 0.1, 1.0, 10, c1)
    failing = BoundCheckReport((0, 1), 2.0, 0.01, 1.0, 0.5, 0.1, 1.0, 10, 1.0)
    assert not failing.inner_pass and failing.dist_pass and not failing.passed
    assert "NO" in bound_report_text(failing)
    # 5% below its closed form, bound / c1 = 1, with a tiny SE: far under the
    # bound, so the one-sided test passes, but the side is 500 SE from the
    # value it estimates.
    low = BoundCheckReport((0, 1), 0.95, 1e-4, 1.02, 1.0, 1e-4, 1.02, 10, 1.02)
    assert not low.inner_pass and low.dist_pass and not low.passed
    assert "NO" in bound_report_text(low)
