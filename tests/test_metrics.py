"""Tests for the divergence metric, threshold curves, and area under the curve."""

from __future__ import annotations

import csv
import math
import warnings

import numpy as np
import pytest

from scenesum.metrics import (
    DivergenceCurve,
    auc,
    divergence,
    divergence_curve,
    similar_pair_count,
    write_curve_csv,
)


def _brute_count(positions, r):
    p = np.asarray(positions, dtype=np.float64)
    count = 0
    for i in range(p.shape[0]):
        for j in range(p.shape[0]):
            if i != j and np.sqrt(((p[i] - p[j]) ** 2).sum()) < r:
                count += 1
    return count


def test_coincident_positions_divergence():
    pos = [(1.0, 1.0)] * 4
    assert divergence(pos, 0.5) == 0.75
    assert divergence(pos, 1e-12) == 0.75
    assert divergence(pos, 0.0) == 0.0  # strict inequality


def test_far_apart_positions_divergence_zero():
    pos = [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (100.0, 100.0)]
    assert divergence(pos, 3.0) == 0.0
    curve = divergence_curve(pos, 3.0, 100)
    assert auc(curve) == 0.0


def test_pair_count_matches_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(50):
        k = int(rng.integers(1, 31))
        pos = rng.uniform(0, 10, size=(k, 2))
        r = float(rng.uniform(0, 12))
        assert similar_pair_count(pos, r) == _brute_count(pos, r)


def test_curve_values_equal_divergence_at_each_threshold():
    # The curve and the single-threshold divergence count pairs with one
    # helper, so the values agree exactly, not just within a tolerance.
    rng = np.random.default_rng(17)
    for k in range(1, 31):
        pos = rng.uniform(0, 10, size=(k, int(rng.integers(2, 4))))
        curve = divergence_curve(pos, 12.0, 60)
        assert all(curve.values[i] == divergence(pos, t) for i, t in enumerate(curve.thresholds))


def test_z_coordinate_separates_positions():
    poses = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    assert similar_pair_count(poses, 1.0) == 0  # z separates them
    assert similar_pair_count(poses, 2.5) == 2


def test_divergence_curve_shape():
    pos = np.random.default_rng(3).uniform(0, 5, size=(6, 2))
    curve = divergence_curve(pos, 4.0, 50)
    assert curve.thresholds.shape == (51,)
    assert curve.thresholds[0] == 0.0
    assert curve.thresholds[-1] == 4.0
    assert curve.values[0] == 0.0
    assert (np.diff(curve.values) >= 0).all()  # monotone in r
    assert (curve.values <= 5 / 6).all()


def test_auc_hand_value_for_coincident_points():
    # Curve is 0 at r=0 and 0.75 at every positive threshold; the trapezoid
    # rule gives 0.75 * 2.97 + 0.375 * 0.03 = 2.23875 at r_max=3, 100 steps.
    curve = divergence_curve([(2.0, 2.0)] * 4, 3.0, 100)
    assert abs(auc(curve) - 2.23875) < 1e-12


def test_auc_linear_in_values():
    t = np.linspace(0, 3, 20)
    v = np.linspace(0, 0.5, 20)
    base = auc(DivergenceCurve(t, v))
    assert abs(auc(DivergenceCurve(t, 3.0 * v)) - 3.0 * base) < 1e-12


def test_curve_invariant_under_rigid_motion():
    rng = np.random.default_rng(4)
    pos = rng.uniform(0, 8, size=(7, 2))
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = pos @ rot.T + np.array([100.0, -40.0])
    a = divergence_curve(pos, 5.0, 60)
    b = divergence_curve(moved, 5.0, 60)
    assert np.allclose(a.values, b.values)


def test_curve_scales_with_coordinates():
    rng = np.random.default_rng(5)
    pos = rng.uniform(0, 8, size=(7, 2))
    a = divergence_curve(pos, 5.0, 60)
    b = divergence_curve(2.0 * pos, 10.0, 60)
    assert np.allclose(a.values, b.values)


def test_validation_errors():
    with pytest.raises(ValueError):
        similar_pair_count([(0.0, 0.0)], -1.0)
    with pytest.raises(ValueError):
        divergence_curve([(0.0, 0.0)], 0.0, 100)
    with pytest.raises(ValueError):
        divergence_curve([(0.0, 0.0)], 3.0, 1)
    with pytest.raises(ValueError):
        similar_pair_count([], 1.0)
    with pytest.raises(ValueError):
        similar_pair_count([(np.nan, 0.0)], 1.0)
    with pytest.raises(ValueError):
        similar_pair_count(np.zeros((2, 4)), 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn", [similar_pair_count, divergence, divergence_curve],
                         ids=["similar_pair_count", "divergence", "divergence_curve"])
def test_non_finite_threshold_is_rejected(fn, bad):
    positions = [(0.0, 0.0), (1.0, 0.0), (5.0, 5.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused up front, before any arithmetic warns
        with pytest.raises(ValueError, match="finite"):
            fn(positions, bad)


def test_curve_validation():
    with pytest.raises(ValueError):
        DivergenceCurve(np.array([0.0, 1.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        DivergenceCurve(np.array([0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError, match="NaN or Inf"):
        DivergenceCurve(np.array([0.0, np.nan, 2.0]), np.zeros(3))
    with pytest.raises(ValueError):
        auc(DivergenceCurve(np.array([1.0]), np.array([0.5])))


def test_curve_csv_round_trip(tmp_path):
    curve = divergence_curve(np.random.default_rng(6).uniform(0, 5, size=(5, 2)), 3.0, 10)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "D"]
    assert len(rows) == 12
    back_t = np.array([float(r[0]) for r in rows[1:]])
    back_v = np.array([float(r[1]) for r in rows[1:]])
    assert np.array_equal(back_t, curve.thresholds)
    assert np.array_equal(back_v, curve.values)
