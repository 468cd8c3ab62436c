"""Stage one: partition a frame sequence into k clusters.

Self-supervised scenes cluster on frame features with a capacity-balanced
k-means; supervised scenes cluster on ground-truth poses and also record the
frame nearest each pose centroid.  All tie-breaks go to the lowest index so
results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Pose, pose_matrix

_MAX_ITER = 100  # Lloyd iterations per k-means run
_TOL = 1e-6  # stop once no centroid moves farther than this


@dataclass
class ClusterPartition:
    """Assignment of every frame to exactly one of k clusters."""

    k: int
    labels: np.ndarray  # (n,) int64, values in [0, k)
    members: list[np.ndarray]  # per cluster, ascending frame indices
    centroids: np.ndarray  # (k, d) in whatever space the clustering ran
    gt_keyframes: np.ndarray | None = None  # (k,) frame nearest each pose centroid

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValueError("labels must be 1-d")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.k):
            raise ValueError("labels out of range [0, k)")
        self.labels = labels
        if len(self.members) != self.k:
            raise ValueError(f"expected {self.k} member lists, got {len(self.members)}")
        self.members = [np.asarray(m, dtype=np.int64) for m in self.members]
        seen = np.concatenate([m for m in self.members]) if self.members else np.array([], dtype=np.int64)
        if seen.size != labels.size or not np.array_equal(np.sort(seen), np.arange(labels.size)):
            raise ValueError("members must partition frames 0..n-1")
        for j, m in enumerate(self.members):
            if m.size and not np.array_equal(labels[m], np.full(m.size, j)):
                raise ValueError(f"member list of cluster {j} disagrees with labels")
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        if self.gt_keyframes is not None:
            gt = np.asarray(self.gt_keyframes, dtype=np.int64)
            if gt.shape != (self.k,):
                raise ValueError(f"gt_keyframes must have shape ({self.k},)")
            for j, f in enumerate(gt):
                if self.labels[f] != j:
                    raise ValueError(f"gt keyframe {f} is not a member of cluster {j}")
            self.gt_keyframes = gt

    @property
    def n_frames(self) -> int:
        return self.labels.size


@dataclass
class ClusterSample:
    """Indices drawn from one cluster for a training step."""

    cluster_id: int
    frame_indices: np.ndarray

    def __post_init__(self):
        self.frame_indices = np.asarray(self.frame_indices, dtype=np.int64)


def partition_from_labels(labels, k: int, centroids, gt_keyframes=None) -> ClusterPartition:
    """Build a validated ClusterPartition from a label vector."""
    labels = np.asarray(labels, dtype=np.int64)
    members = [np.flatnonzero(labels == j) for j in range(k)]
    return ClusterPartition(k=k, labels=labels, members=members, centroids=centroids,
                            gt_keyframes=gt_keyframes)


def _pairwise_sq_dists(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    d2 = (x * x).sum(axis=1)[:, None] + (c * c).sum(axis=1)[None, :] - 2.0 * (x @ c.T)
    return np.maximum(d2, 0.0)


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    chosen = [int(rng.integers(n))]
    taken = set(chosen)
    d2 = ((x - x[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # every remaining point coincides with a chosen centroid
            idx = next(i for i in range(n) if i not in taken)
        else:
            idx = int(rng.choice(n, p=d2 / total))
        chosen.append(idx)
        taken.add(idx)
        d2 = np.minimum(d2, ((x - x[idx]) ** 2).sum(axis=1))
    return x[chosen].copy()


def kmeans(features, k: int, seed: int = 0, return_history: bool = False):
    """Lloyd's algorithm with k-means++ seeding.

    Ties in the assignment step go to the lowest centroid id.  A cluster that
    empties is reseeded at the point farthest from its assigned centroid.
    Returns (centroids, labels), plus the per-assignment inertia history when
    return_history is set.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-d, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("NaN or Inf detected in features")
    n = x.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n:
        raise ValueError(f"k ({k}) exceeds number of frames ({n})")

    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(x, k, rng)
    history = []

    def assign(cents):
        d2 = _pairwise_sq_dists(x, cents)
        lab = np.argmin(d2, axis=1)  # argmin keeps the lowest id on ties
        return lab, d2[np.arange(n), lab]

    for _ in range(_MAX_ITER):
        labels, dmin = assign(centroids)
        history.append(float(dmin.sum()))
        counts = np.bincount(labels, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, labels, x)
        new_centroids = centroids.copy()
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        empty = np.flatnonzero(~nonempty)
        if empty.size:
            farthest = np.argsort(-dmin, kind="stable")
            for j, idx in zip(empty, farthest):
                new_centroids[j] = x[idx]
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift < _TOL:
            break

    labels, dmin = assign(centroids)
    history.append(float(dmin.sum()))
    if return_history:
        return centroids, labels, history
    return centroids, labels


def balance_assignment(features, centroids) -> np.ndarray:
    """Reassign frames so every cluster ends with floor(n/k) or ceil(n/k) members.

    Frames are processed in descending margin order (distance to second-nearest
    centroid minus distance to nearest); each goes to its nearest centroid that
    still has room.  Room means the cluster is below ceil(n/k) and, once the
    n mod k above-floor slots are spoken for, below floor(n/k).
    """
    x = np.asarray(features, dtype=np.float64)
    c = np.asarray(centroids, dtype=np.float64)
    n, k = x.shape[0], c.shape[0]
    floor, extra = divmod(n, k)
    cap = floor + (1 if extra else 0)

    labels = np.zeros(n, dtype=np.int64)
    if k == 1:
        return labels

    dist = np.sqrt(_pairwise_sq_dists(x, c))
    nearest_two = np.sort(dist, axis=1)[:, :2]
    margin = nearest_two[:, 1] - nearest_two[:, 0]
    order = np.lexsort((np.arange(n), -margin))
    preference = np.argsort(dist, axis=1, kind="stable")  # ties to lowest id

    sizes = np.zeros(k, dtype=np.int64)
    above_floor = 0
    for i in order:
        for j in preference[i]:
            if sizes[j] >= cap:
                continue
            if above_floor >= extra and sizes[j] >= floor:
                continue
            labels[i] = j
            sizes[j] += 1
            if sizes[j] > floor:
                above_floor += 1
            break
        else:
            raise RuntimeError("capacity bookkeeping failed")  # unreachable when cap*k >= n
    return labels


def cluster_features(features, k: int, seed: int = 0) -> ClusterPartition:
    """Feature-space clustering stage: k-means, then capacity balancing."""
    centroids, labels = kmeans(features, k, seed=seed)
    labels = balance_assignment(features, centroids)
    return partition_from_labels(labels, k, centroids)


def gt_pose_clustering(poses: list[Pose] | None, k: int, seed: int = 0) -> ClusterPartition:
    """Cluster on ground-truth poses; record the frame nearest each centroid."""
    if poses is None or len(poses) == 0:
        raise ValueError("ground-truth pose clustering requires poses")
    p = pose_matrix(poses)
    centroids, labels = kmeans(p, k, seed=seed)
    part = partition_from_labels(labels, k, centroids)
    gt = np.empty(k, dtype=np.int64)
    for j in range(k):
        m = part.members[j]
        if m.size == 0:
            raise ValueError(f"pose cluster {j} is empty; cannot pick a ground-truth keyframe")
        d = np.sqrt(((p[m] - centroids[j]) ** 2).sum(axis=1))
        gt[j] = m[int(np.argmin(d))]
    return ClusterPartition(k=k, labels=labels, members=part.members, centroids=centroids,
                            gt_keyframes=gt)


def sample_cluster(partition: ClusterPartition, cluster_id: int, n_sample: int,
                   rng: np.random.Generator | int) -> ClusterSample:
    """Draw n_sample member frames, without replacement while the cluster is big enough."""
    if not 0 <= cluster_id < partition.k:
        raise ValueError(f"cluster_id {cluster_id} out of range [0, {partition.k})")
    if n_sample < 1:
        raise ValueError(f"n_sample must be >= 1, got {n_sample}")
    members = partition.members[cluster_id]
    if members.size == 0:
        raise ValueError(f"cluster {cluster_id} is empty")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    replace = n_sample > members.size
    picks = rng.choice(members, size=n_sample, replace=replace)
    return ClusterSample(cluster_id=cluster_id, frame_indices=picks)
