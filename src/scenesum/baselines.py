"""Classic summarizers used for comparison: evenly spaced frames, seeded random
frames, nearest-to-centroid cluster representatives, and content-change peaks.
Every baseline returns k distinct frame indices."""

from __future__ import annotations

import math

import numpy as np

from .clustering import ClusterPartition, _checked_points, kmeans
from .dataset import check_count
from .selector import SummaryResult


def _check_k(n: int, k: int) -> None:
    check_count("n", n)
    check_count("k", k)
    if k > n:
        raise ValueError(f"k ({k}) exceeds number of frames ({n})")


def uniform_summary(n: int, k: int) -> SummaryResult:
    """Evenly spaced indices round(i * (n-1) / (k-1)); frame 0 alone when k=1."""
    _check_k(n, k)
    if k == 1:
        frames = [0]
    else:
        frames = [int(math.floor(i * (n - 1) / (k - 1) + 0.5)) for i in range(k)]
    return SummaryResult(method="uniform", frame_indices=frames)


def random_summary(n: int, k: int, seed: int = 0) -> SummaryResult:
    """k distinct frames drawn uniformly, sorted ascending; deterministic per seed."""
    _check_k(n, k)
    check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    frames = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
    return SummaryResult(method="random", frame_indices=frames)


def vsumm_centroid(features, k: int, seed: int = 0, init_rows=None) -> SummaryResult:
    """k-means on features; each cluster is represented by the frame nearest its
    centroid (ties to the lowest index).  Empty clusters, which only occur for
    degenerate inputs such as all-identical frames, fall back to the lowest
    frames not yet selected so the summary stays k distinct indices.
    init_rows, from clustering.kmeans_pp_rows for this seed, goes to kmeans."""
    x = np.asarray(features, dtype=np.float64)
    centroids, labels = kmeans(x, k, seed=seed, init_rows=init_rows)
    # squared distance of each frame to its centroid, computed in one n x d
    # buffer: at 5000 x 128 two more fresh buffers made this 3x slower
    diff = centroids[labels]
    np.subtract(x, diff, out=diff)
    picks = ClusterPartition(k, labels).nearest_members(np.square(diff, out=diff).sum(axis=1))
    used = set(picks.tolist())
    spare = (i for i in range(x.shape[0]) if i not in used)
    frames = [int(f) if f >= 0 else next(spare) for f in picks]
    return SummaryResult(method="vsumm", frame_indices=frames)


def change_detect_summary(features, k: int) -> SummaryResult:
    """Top-k frames by L1 change against the previous frame, sorted ascending.

    Frame 0 scores 0; score ties resolve to the lowest frame index.
    """
    x = _checked_points(features, k)
    n = x.shape[0]
    scores = np.zeros(n)
    scores[1:] = np.abs(np.diff(x, axis=0)).sum(axis=1)
    ranked = np.lexsort((np.arange(n), -scores))
    frames = sorted(int(i) for i in ranked[:k])
    return SummaryResult(method="change", frame_indices=frames)
