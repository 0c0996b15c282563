"""Piecewise-linear activation: values, gradients, grid validation, and the
one coordinate-shape rule every reader of coordinates goes through."""

import re

import numpy as np
import pytest

from taan.apl import (
    BasisGrid,
    apl_eval,
    apl_eval_pair,
    apl_grad_coords,
    apl_grad_x,
)
from taan.metrics import (
    GaussianMixture,
    build_gram,
    distance_matrix,
    distance_sq,
    inner_product,
    mc_inner_and_distance,
)
from taan.regularizers import (
    RegKind,
    cosine_reg,
    distance_reg,
    reg_grad,
    regularizer_value,
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
    with pytest.raises(ValueError, match="x must be finite"):
        apl_grad_coords(np.inf, grid)


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


GRID4 = BasisGrid.even(4)
CACHE4 = build_gram(GRID4, GaussianMixture.standard_normal())
ROW, WIDE_ROW, WIDE = np.full(4, 0.1), np.full(5, 0.1), np.full((3, 5), 0.1)
ROW_MESSAGE = "coordinate row has shape (5,), expected (4,)"
MATRIX_MESSAGE = "coordinate matrix has shape (3, 5), expected (tasks, 4)"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: apl_eval(0.5, WIDE_ROW, GRID4), ROW_MESSAGE),
        (lambda: apl_eval_pair(np.zeros(3), ROW, WIDE_ROW, GRID4), ROW_MESSAGE),
        (lambda: inner_product(ROW, WIDE_ROW, CACHE4), ROW_MESSAGE),
        (lambda: distance_sq(WIDE_ROW, ROW, CACHE4), ROW_MESSAGE),
        (lambda: distance_matrix(WIDE, CACHE4), MATRIX_MESSAGE),
        (lambda: cosine_reg(WIDE, CACHE4), MATRIX_MESSAGE),
        (lambda: distance_reg(WIDE, CACHE4), MATRIX_MESSAGE),
        (lambda: regularizer_value(RegKind.COSINE, WIDE, CACHE4), MATRIX_MESSAGE),
        (lambda: regularizer_value(RegKind.DISTANCE, WIDE, CACHE4), MATRIX_MESSAGE),
        (lambda: reg_grad(RegKind.COSINE, WIDE, CACHE4), MATRIX_MESSAGE),
        (lambda: reg_grad(RegKind.DISTANCE, WIDE, CACHE4), MATRIX_MESSAGE),
        (
            lambda: mc_inner_and_distance(
                np.zeros(8), np.zeros(8), GRID4, GaussianMixture.standard_normal(),
                100, np.random.default_rng(0),
            ),
            "coordinate row has shape (8,), expected (4,)",
        ),
    ],
    ids=[
        "apl_eval", "apl_eval_pair", "inner_product", "distance_sq",
        "distance_matrix", "cosine_reg", "distance_reg", "regularizer_value_cos",
        "regularizer_value_dis", "reg_grad_cos", "reg_grad_dis",
        "mc_inner_and_distance",
    ],
)
def test_coordinates_of_the_wrong_width_are_named(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
