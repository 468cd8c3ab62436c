"""Tests for the divergence metric, threshold curves, and area under the curve."""

from __future__ import annotations

import csv
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from scenesum.metrics import (
    DivergenceCurve,
    _close_pair_counts,
    auc,
    curve_csv,
    divergence,
    divergence_curve,
    similar_pair_count,
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


def test_close_pair_counts_match_one_comparison_per_threshold():
    # Grid positions put many distances exactly on the thresholds, where "closer
    # than r" must not count a pair at distance r.
    rng = np.random.default_rng(19)
    for _ in range(200):
        k = int(rng.integers(1, 40))
        pos = np.round(rng.uniform(0, 4, size=(k, int(rng.integers(2, 4)))))
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=-1))
        np.fill_diagonal(dist, np.inf)
        thresholds = np.concatenate([np.arange(11) * 0.5, np.unique(dist[np.isfinite(dist)])])
        want = [(dist < r).sum() for r in thresholds]
        assert _close_pair_counts(pos, thresholds).tolist() == want


def _one_shot_close_pair_counts(p, thresholds):
    # The kernel as one (k, k) distance matrix and one sort of all k^2 distances.
    diff = p[:, None, :] - p[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(dist, np.inf)
    return np.searchsorted(np.sort(dist, axis=None), thresholds, side="left")


@pytest.mark.parametrize("k", [1, 2, 181, 182, 183, 1000])
@pytest.mark.parametrize("dims", [2, 3])
@pytest.mark.parametrize("grid", [False, True], ids=["random", "grid"])
def test_row_blocks_count_as_one_distance_matrix(k, dims, grid):
    # 32768 // 181 = 181 rows: k = 181 is one block, 182 a block of 180 rows
    # and a ragged one of 2, 183 blocks of 179 and 4; k = 1000 has 32 rows a
    # block and a last one of 8.  Grid positions put distances on thresholds.
    rng = np.random.default_rng(k * 10 + dims)
    pos = (np.round(rng.uniform(0, 12, size=(k, dims))) if grid
           else rng.uniform(0, 10, size=(k, dims)))
    thresholds = rng.permutation(np.concatenate([np.arange(25) * 0.5, rng.uniform(0, 14, 25)]))
    assert (_close_pair_counts(pos, thresholds).tolist()
            == _one_shot_close_pair_counts(pos, thresholds).tolist())
    r_max = 9.0
    steps = 36
    want = _one_shot_close_pair_counts(pos, np.arange(steps + 1) * (r_max / steps)) / (k * k)
    assert divergence_curve(pos, r_max, steps).values.tobytes() == want.tobytes()
    for r in (0.0, 1.0, 2.5, 4.0):
        count = int(_one_shot_close_pair_counts(pos, [r])[0])
        assert similar_pair_count(pos, r) == count
        assert divergence(pos, r) == count / (k * k)


@pytest.mark.parametrize("k,bound", [(2000, 2 * 2**20), (10, 16 * 2**10)])
def test_divergence_curve_memory_is_bounded(k, bound):
    # One (k, k) distance matrix at k = 2000 would be 32 MB; two row blocks
    # of at most 32768 values (256 KB each) are all the kernel holds, and a
    # small k holds no full-size block either.
    pos = np.random.default_rng(8).uniform(0, 10, size=(k, 3))
    tracemalloc.start()
    try:
        divergence_curve(pos, 5.0, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


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


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "3"])
def test_curve_steps_must_be_an_integer(bad):
    with pytest.raises(ValueError, match="integer"):
        divergence_curve([(0.0, 0.0), (1.0, 0.0)], 3.0, bad)


def test_curve_steps_may_be_a_numpy_integer():
    curve = divergence_curve([(0.0, 0.0), (1.0, 0.0)], 3.0, np.int64(4))
    assert curve.thresholds.tolist() == [0.0, 0.75, 1.5, 2.25, 3.0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "3", None, True,
                                 pytest.param(10**400, id="huge-int")])
@pytest.mark.parametrize("fn", [similar_pair_count, divergence, divergence_curve],
                         ids=["similar_pair_count", "divergence", "divergence_curve"])
def test_non_finite_threshold_is_rejected(fn, bad):
    positions = [(0.0, 0.0), (1.0, 0.0), (5.0, 5.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused up front, before any arithmetic warns
        with pytest.raises(ValueError, match="finite"):
            fn(positions, bad)


def test_positions_beyond_the_pose_bound_are_refused():
    # squared distances of coordinates beyond 1e100 m could overflow
    positions = [(0.0, 0.0, 0.0), (1e200, 0.0, 0.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (lambda p: divergence_curve(p, 3.0), lambda p: divergence(p, 1.0),
                   lambda p: similar_pair_count(p, 1.0)):
            with pytest.raises(ValueError, match=r"position 1 has a coordinate beyond 1e\+100 m"):
                fn(positions)


def test_curve_validation():
    with pytest.raises(ValueError):
        DivergenceCurve(np.array([0.0, 1.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        DivergenceCurve(np.array([0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError, match="NaN or Inf"):
        DivergenceCurve(np.array([0.0, np.nan, 2.0]), np.zeros(3))
    with pytest.raises(ValueError):
        auc(DivergenceCurve(np.array([1.0]), np.array([0.5])))


def test_curve_csv_round_trip():
    curve = divergence_curve(np.random.default_rng(6).uniform(0, 5, size=(5, 2)), 3.0, 10)
    rows = list(csv.reader(io.StringIO(curve_csv(curve), newline="")))
    assert rows[0] == ["r", "D"]
    assert len(rows) == 12
    back_t = np.array([float(r[0]) for r in rows[1:]])
    back_v = np.array([float(r[1]) for r in rows[1:]])
    assert np.array_equal(back_t, curve.thresholds)
    assert np.array_equal(back_v, curve.values)
