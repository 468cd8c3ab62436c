"""Classic summarizers used for comparison: evenly spaced frames, seeded random
frames, nearest-to-centroid cluster representatives, and content-change peaks.
Every baseline returns k distinct frame indices as a list of ints."""

from __future__ import annotations

import math

import numpy as np

from .clustering import (ClusterPartition, _check_k, _checked_points, _member_sq_dists, _row_blocks,
                         kmeans, lloyd_layout)
from .dataset import check_count


def _change_scores(x: np.ndarray) -> np.ndarray:
    """Per frame, the L1 change |x[i] - x[i-1]| summed over the row; frame 0
    scores 0.  One row block of differences at a time."""
    scores = np.zeros(x.shape[0])
    for start, stop, diff in _row_blocks(x.shape[0] - 1, x.shape[1]):
        np.subtract(x[start + 1:stop + 1], x[start:stop], out=diff)
        np.abs(diff, out=diff).sum(axis=1, out=scores[start + 1:stop + 1])
    return scores


def uniform_summary(n: int, k: int) -> list[int]:
    """Evenly spaced indices round(i * (n-1) / (k-1)); frame 0 alone when k=1."""
    check_count("n", n)
    _check_k(k, n)
    if k == 1:
        return [0]
    return [int(math.floor(i * (n - 1) / (k - 1) + 0.5)) for i in range(k)]


def random_summary(n: int, k: int, seed: int = 0) -> list[int]:
    """k distinct frames drawn uniformly, sorted ascending; deterministic per seed."""
    check_count("n", n)
    _check_k(k, n)
    check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    return sorted(rng.choice(n, size=k, replace=False).tolist())


def vsumm_centroid(features, k: int, seed: int = 0, init_rows=None) -> list[int]:
    """k-means on features; each cluster is represented by the frame nearest its
    centroid (ties to the lowest index).  Empty clusters, which only occur for
    degenerate inputs such as all-identical frames, fall back to the lowest
    frames not yet selected so the summary stays k distinct indices.
    features may be a clustering.LloydLayout; init_rows, from
    clustering.kmeans_pp_rows for this seed, goes to kmeans."""
    layout = lloyd_layout(features, k)
    centroids, labels = kmeans(layout, k, seed=seed, init_rows=init_rows)
    picks = ClusterPartition(k, labels).nearest_members(
        _member_sq_dists(layout.x, centroids, labels))
    used = set(picks.tolist())
    spare = (i for i in range(labels.size) if i not in used)
    return [int(f) if f >= 0 else next(spare) for f in picks]


def change_detect_summary(features, k: int) -> list[int]:
    """Top-k frames by L1 change against the previous frame, sorted ascending.

    Frame 0 scores 0; score ties resolve to the lowest frame index.
    """
    x = _checked_points(features, k)
    n = x.shape[0]
    ranked = np.lexsort((np.arange(n), -_change_scores(x)))
    return sorted(ranked[:k].tolist())
