"""Tests for the baseline summarizers."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from scenesum.baselines import (
    _change_scores,
    change_detect_summary,
    random_summary,
    uniform_summary,
    vsumm_centroid,
)
from scenesum.clustering import (_BLOCK_BYTES, ClusterPartition, _member_sq_dists, kmeans_pp_rows,
                                 lloyd_layout)
from scenesum.dataset import SceneDataset
from scenesum.selector import AutoencoderParams, select_keyframes


def test_uniform_evenly_spaced():
    assert uniform_summary(7, 3) == [0, 3, 6]
    assert uniform_summary(10, 1) == [0]
    assert uniform_summary(5, 5) == [0, 1, 2, 3, 4]


def test_uniform_spans_full_range():
    for n, k in ((100, 7), (31, 4), (9, 2)):
        frames = uniform_summary(n, k)
        assert frames[0] == 0 and frames[-1] == n - 1
        assert frames == sorted(frames)
        assert len(set(frames)) == k


def test_random_summary_is_seeded():
    a = random_summary(50, 6, seed=3)
    b = random_summary(50, 6, seed=3)
    c = random_summary(50, 6, seed=4)
    assert a == b
    assert a != c
    assert a == sorted(a)
    assert len(set(a)) == 6
    assert all(0 <= f < 50 for f in a)


def test_vsumm_picks_one_frame_per_blob():
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
    feats = np.vstack([c + 0.05 * rng.standard_normal((5, 2)) for c in centers])
    result = vsumm_centroid(feats, 3, seed=1)
    blobs = sorted(f // 5 for f in result)
    assert blobs == [0, 1, 2]


def test_vsumm_identical_frames_falls_back_to_lowest_indices():
    result = vsumm_centroid(np.ones((6, 3)), 3, seed=0)
    assert result == [0, 1, 2]


def test_vsumm_agrees_with_identity_encoder_selection():
    # Equal-size tight blobs: the balanced partition equals the k-means one and
    # each cluster's feature mean is its centroid, so both selectors coincide.
    rng = np.random.default_rng(2)
    centers = np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 30.0]])
    feats = np.vstack([c + 0.1 * rng.standard_normal((4, 2)) for c in centers]).astype(np.float32)
    vs = vsumm_centroid(feats, 3, seed=0)

    ds = SceneDataset("blobs", feats)
    labels = np.repeat(np.arange(3), 4)
    eye, zero = np.eye(2).ravel(), np.zeros(2)
    identity = AutoencoderParams(2, (), 2, np.concatenate([eye, zero, eye, zero]))
    # align cluster ids with the k-means labels used by vsumm
    from scenesum.clustering import kmeans

    _, km_labels = kmeans(feats, 3, seed=0)
    part = ClusterPartition(3, km_labels)
    ours = select_keyframes(identity, ds, part)
    assert sorted(ours) == sorted(vs)


def test_change_detect_constant_features():
    result = change_detect_summary(np.ones((8, 3)), 3)
    assert result == [0, 1, 2]


def test_change_detect_finds_the_jump():
    feats = np.zeros((10, 4))
    feats[5:] = 10.0  # one step change between frames 4 and 5
    result = change_detect_summary(feats, 1)
    assert result == [5]
    top3 = change_detect_summary(feats, 3)
    assert top3 == [0, 1, 5]  # zero-score ties resolve to lowest


def test_change_detect_single_frame():
    assert change_detect_summary(np.ones((1, 2)), 1) == [0]


def _one_shot_member_sq_dists(x, centroids, labels):
    diff = centroids[labels]
    np.subtract(x, diff, out=diff)
    return np.square(diff, out=diff).sum(axis=1)


def _one_shot_change_scores(x):
    scores = np.zeros(x.shape[0])
    scores[1:] = np.abs(np.diff(x, axis=0)).sum(axis=1)
    return scores


@pytest.mark.parametrize("d", [1, 3, 128])
@pytest.mark.parametrize("extra", [0, -1, 1, "2 blocks + 1"])
@pytest.mark.parametrize("grid", [False, True], ids=["random", "grid"])
def test_row_blocks_equal_the_one_shot_formulas(d, extra, grid):
    # a block holds 256 KB of float64, _BLOCK_BYTES // (8 * d) rows; n sits on
    # and around its edges
    rows = _BLOCK_BYTES // (8 * d)
    n = 2 * rows + 1 if extra == "2 blocks + 1" else rows + extra
    rng = np.random.default_rng(n + d)
    x = np.round(rng.uniform(0, 4, (n, d))) if grid else rng.standard_normal((n, d))
    centroids = rng.standard_normal((7, d))
    labels = rng.integers(0, 7, n)
    assert (_member_sq_dists(x, centroids, labels).tobytes()
            == _one_shot_member_sq_dists(x, centroids, labels).tobytes())
    assert _change_scores(x).tobytes() == _one_shot_change_scores(x).tobytes()
    ranked = np.lexsort((np.arange(n), -_one_shot_change_scores(x)))
    assert change_detect_summary(x, 5) == sorted(ranked[:5].tolist())


def test_feature_baseline_memory_is_bounded():
    # At 5000 x 128 one (n, d) float64 temporary is 5 MB; the row-blocked passes
    # hold one 256 KB block, and change detection also the isfinite mask (640 KB).
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5000, 128))
    centroids = rng.standard_normal((100, 128))
    labels = rng.integers(0, 100, 5000)
    peaks = []
    tracemalloc.start()
    try:
        for run in (lambda: _member_sq_dists(x, centroids, labels),
                    lambda: change_detect_summary(x, 100)):
            tracemalloc.reset_peak()
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[0] < 2**20
    assert peaks[1] < 2**20


def test_vsumm_on_a_shared_layout_allocates_no_matrix():
    # The sweep's pool workers run vsumm cells on a layout built on the main
    # thread.  At 5000 x 128 and k = 100 one (n, d) or (n, k) float64 array is
    # 4-5 MB; a cell must allocate none of them (its O(n) label, distance and
    # bin arrays and 256 KB row blocks peak below 2 MB), and give the frames
    # of a plain call.
    x = np.random.default_rng(4).standard_normal((5000, 128))
    layout = lloyd_layout(x)
    rows = kmeans_pp_rows(layout, 100, 2)
    tracemalloc.start()
    try:
        frames = vsumm_centroid(layout, 100, 2, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**21
    assert frames == vsumm_centroid(x, 100, 2)


def test_baselines_validate_k():
    with pytest.raises(ValueError):
        uniform_summary(5, 6)
    with pytest.raises(ValueError):
        uniform_summary(5, 0)
    with pytest.raises(ValueError):
        random_summary(5, 6)
    with pytest.raises(ValueError):
        vsumm_centroid(np.ones((5, 2)), 6)
    with pytest.raises(ValueError):
        change_detect_summary(np.ones((5, 2)), 0)


@pytest.mark.parametrize("features", [
    np.array([[0.0, 1.0], [np.nan, 1.0], [2.0, 0.0]]),
    np.array([[0.0, 1.0], [np.inf, 1.0], [2.0, 0.0]]),
    np.arange(3.0),
    np.ones((3, 0)),
], ids=["nan", "inf", "1-d", "zero-columns"])
@pytest.mark.parametrize("fn", [vsumm_centroid, change_detect_summary], ids=["vsumm", "change"])
def test_feature_baselines_reject_malformed_features(fn, features):
    with pytest.raises(ValueError):
        fn(features, 2)


_COUNT_CALLS = {
    "uniform": lambda k: uniform_summary(6, k),
    "uniform-n": lambda n: uniform_summary(n, 2),
    "random": lambda k: random_summary(6, k),
    "random-n": lambda n: random_summary(n, 2),
    "vsumm": lambda k: vsumm_centroid(np.arange(12.0).reshape(6, 2), k),
    "change": lambda k: change_detect_summary(np.arange(12.0).reshape(6, 2), k),
    "random-seed": lambda s: random_summary(6, 2, s),
    "vsumm-seed": lambda s: vsumm_centroid(np.arange(12.0).reshape(6, 2), 2, s),
}


@pytest.mark.parametrize("call", _COUNT_CALLS)
@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2", -1])
def test_baseline_counts_must_be_integers(call, bad):
    with pytest.raises(ValueError, match="integer"):
        _COUNT_CALLS[call](bad)


@pytest.mark.parametrize("call", _COUNT_CALLS)
def test_baseline_numpy_integer_counts_are_accepted(call):
    frames = _COUNT_CALLS[call](np.int64(2))
    assert type(frames) is list and len(frames) == 2 and all(type(f) is int for f in frames)
