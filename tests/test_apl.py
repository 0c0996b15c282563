"""Piecewise-linear activation: values, gradients, grid validation."""

import numpy as np
import pytest

from taan.apl import (
    BasisGrid,
    apl_eval,
    apl_eval_batch,
    apl_grad_coords,
    apl_grad_x,
    validate_coordinates,
)


def reference_eval(x, coords, bps):
    return max(x, 0.0) + sum(
        c * max(b - x, 0.0) for c, b in zip(coords, bps)
    )


def test_zero_coordinates_reduce_to_relu():
    grid = BasisGrid.even(8)
    coords = np.zeros(8)
    for x in (-3.0, -0.01, 0.0, 0.7, 2.5):
        assert apl_eval(x, coords, grid) == max(x, 0.0)


def test_eval_matches_reference_pointwise():
    rng = np.random.default_rng(7)
    grid = BasisGrid(np.sort(rng.uniform(-2.0, 3.0, 6)))
    for _ in range(100):
        coords = rng.uniform(-1.0, 1.0, 6)
        x = float(rng.uniform(-4.0, 4.0))
        expected = reference_eval(x, coords, grid.breakpoints)
        assert abs(apl_eval(x, coords, grid) - expected) < 1e-12


def test_single_breakpoint_hand_values():
    # F(x) = relu(x) + 0.5*max(0, 1-x): F(-1)=1, F(0)=0.5, F(1)=1, F(2)=2.
    grid = BasisGrid(np.array([1.0]))
    coords = np.array([0.5])
    for x, expected in ((-1.0, 1.0), (0.0, 0.5), (1.0, 1.0), (2.0, 2.0)):
        assert apl_eval(x, coords, grid) == expected


def test_batch_eval_preserves_shape_and_values():
    rng = np.random.default_rng(11)
    grid = BasisGrid.even(5)
    coords = rng.uniform(-1.0, 1.0, 5)
    x = rng.standard_normal((4, 6)) * 2.0
    out = apl_eval_batch(x, coords, grid)
    assert out.shape == x.shape
    for idx in np.ndindex(x.shape):
        assert abs(out[idx] - apl_eval(float(x[idx]), coords, grid)) < 1e-12


def test_grad_x_matches_finite_differences():
    rng = np.random.default_rng(3)
    grid = BasisGrid.even(6)
    eps = 1e-6
    checked = 0
    while checked < 50:
        coords = rng.uniform(-1.0, 1.0, 6)
        x = float(rng.uniform(-3.0, 3.0))
        gaps = np.abs(np.append(grid.breakpoints, 0.0) - x)
        if gaps.min() < 1e-3:
            continue
        fd = (
            apl_eval(x + eps, coords, grid) - apl_eval(x - eps, coords, grid)
        ) / (2.0 * eps)
        assert abs(apl_grad_x(x, coords, grid) - fd) < 1e-6
        checked += 1


def test_grad_x_boundary_conventions():
    grid = BasisGrid(np.array([-1.0, 0.5]))
    coords = np.array([0.3, -0.2])
    # Right derivative at zero; hinge i inactive exactly at its breakpoint.
    assert apl_grad_x(0.0, coords, grid) == 1.0 - (-0.2)
    assert apl_grad_x(-1.0, coords, grid) == -(-0.2)
    assert apl_grad_x(0.5, coords, grid) == 1.0


def test_grad_coords_matches_finite_differences():
    rng = np.random.default_rng(5)
    grid = BasisGrid.even(4)
    eps = 1e-6
    for _ in range(50):
        coords = rng.uniform(-1.0, 1.0, 4)
        x = float(rng.uniform(-3.0, 3.0))
        grad = apl_grad_coords(x, grid)
        for i in range(4):
            up = coords.copy()
            up[i] += eps
            down = coords.copy()
            down[i] -= eps
            fd = (apl_eval(x, up, grid) - apl_eval(x, down, grid)) / (2 * eps)
            assert abs(grad[i] - fd) < 1e-9


def test_grad_coords_is_hinge_value():
    grid = BasisGrid(np.array([-1.0, 1.0]))
    assert np.array_equal(apl_grad_coords(0.0, grid), np.array([0.0, 1.0]))
    assert np.array_equal(apl_grad_coords(-2.0, grid), np.array([1.0, 3.0]))


def test_even_grid_layout():
    grid = BasisGrid.even(5, -2.0, 2.0)
    assert len(grid) == 5
    assert grid.breakpoints[0] == -2.0
    assert grid.breakpoints[-1] == 2.0
    diffs = np.diff(grid.breakpoints)
    assert np.allclose(diffs, diffs[0])
    assert not grid.breakpoints.flags.writeable


def test_grid_validation():
    with pytest.raises(ValueError):
        BasisGrid(np.array([1.0, 1.0]))  # not strictly increasing
    with pytest.raises(ValueError):
        BasisGrid(np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        BasisGrid(np.array([[1.0, 2.0]]))  # not 1-D
    with pytest.raises(ValueError):
        BasisGrid(np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        BasisGrid(np.array([], dtype=np.float64))
    with pytest.raises(ValueError):
        BasisGrid.even(0)


def test_validate_coordinates():
    grid = BasisGrid.even(3)
    good = np.zeros((4, 3))
    out = validate_coordinates(good, grid)
    assert out.shape == (4, 3)
    with pytest.raises(ValueError):
        validate_coordinates(np.zeros((4, 2)), grid)
    with pytest.raises(ValueError):
        validate_coordinates(np.full((4, 3), np.nan), grid)
