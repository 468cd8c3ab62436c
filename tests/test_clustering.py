"""Tests for k-means, capacity balancing, pose clustering, and cluster sampling."""

from __future__ import annotations

import numpy as np
import pytest

from scenesum.clustering import (
    ClusterPartition,
    balance_assignment,
    cluster_features,
    gt_pose_clustering,
    kmeans,
    partition_from_labels,
    sample_cluster,
)
from scenesum.dataset import Pose, SyntheticConfig, generate_synthetic


def _blobs(centers, per_blob=20, sigma=0.1, seed=0):
    rng = np.random.default_rng(seed)
    parts = [c + sigma * rng.standard_normal((per_blob, len(c))) for c in centers]
    return np.vstack(parts)


def test_kmeans_recovers_separated_blobs():
    x = _blobs([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)])
    _, labels = kmeans(x, 3, seed=1)
    for b in range(3):
        blob = labels[b * 20:(b + 1) * 20]
        assert (blob == blob[0]).all()
    assert len(set(labels.tolist())) == 3


def test_kmeans_k_equals_n_reaches_zero_inertia():
    x = np.arange(10, dtype=np.float64).reshape(5, 2)
    _, labels, history = kmeans(x, 5, seed=0, return_history=True)
    assert history[-1] == 0.0
    assert sorted(labels.tolist()) == [0, 1, 2, 3, 4]


def test_kmeans_inertia_never_increases():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(200, 5))
    _, _, history = kmeans(x, 7, seed=2, return_history=True)
    assert (np.diff(history) <= 1e-9).all()


def test_kmeans_identical_frames_terminates():
    x = np.ones((6, 3))
    centroids, labels = kmeans(x, 3, seed=0)
    assert labels.shape == (6,)
    assert (labels == 0).all()  # all distances tie, lowest id wins
    assert centroids.shape == (3, 3)


def test_kmeans_is_deterministic():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(50, 4))
    c1, l1 = kmeans(x, 4, seed=3)
    c2, l2 = kmeans(x, 4, seed=3)
    assert np.array_equal(c1, c2)
    assert np.array_equal(l1, l2)


def test_kmeans_input_validation():
    with pytest.raises(ValueError):
        kmeans(np.ones((3, 2)), 4)
    with pytest.raises(ValueError):
        kmeans(np.ones((3, 2)), 0)
    with pytest.raises(ValueError):
        kmeans(np.ones(3), 1)
    bad = np.ones((3, 2))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        kmeans(bad, 2)


def test_balance_keeps_already_balanced_assignment():
    x = np.array([[0.0], [0.1], [10.0], [10.1]])
    c = np.array([[0.05], [10.05]])
    labels = balance_assignment(x, c)
    assert labels.tolist() == [0, 0, 1, 1]


def test_balance_displaces_weakest_margin_point():
    # Nearest-centroid assignment would be 3 vs 1; the point whose preference
    # is cheapest to override (smallest margin) moves to the small cluster.
    x = np.array([[0.0], [0.1], [0.2], [10.0]])
    c = np.array([[0.0], [10.0]])
    labels = balance_assignment(x, c)
    assert labels.tolist() == [0, 0, 1, 1]


def test_balance_sizes_differ_by_at_most_one():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(10, 3))
    c = rng.normal(size=(3, 3))
    labels = balance_assignment(x, c)
    sizes = np.bincount(labels, minlength=3)
    assert sorted(sizes.tolist()) == [3, 3, 4]


def test_balance_single_cluster():
    labels = balance_assignment(np.ones((5, 2)), np.ones((1, 2)))
    assert labels.tolist() == [0] * 5


def test_cluster_features_identical_frames_still_balances():
    x = np.ones((6, 3))
    part = cluster_features(x, 3, seed=0)
    sizes = [m.size for m in part.members]
    assert sorted(sizes) == [2, 2, 2]
    assert part.labels.tolist() == [0, 0, 1, 1, 2, 2]


def test_feature_clusters_are_spatially_coherent():
    ds = generate_synthetic(SyntheticConfig(n_frames=500, seed=2))
    part = cluster_features(ds.features, 10, seed=0)
    pos = ds.pose_positions()
    pdist = np.sqrt(((pos[:, None] - pos[None, :]) ** 2).sum(-1))
    same = part.labels[:, None] == part.labels[None, :]
    iu = np.triu_indices(500, k=1)
    within = pdist[iu][same[iu]]
    between = pdist[iu][~same[iu]]
    assert within.mean() < between.mean()


def test_gt_clustering_two_pose_blobs():
    poses = [Pose(0.0, 0.0), Pose(0.5, 0.0), Pose(0.0, 0.5),
             Pose(10.0, 10.0), Pose(10.5, 10.0), Pose(10.0, 10.5)]
    part = gt_pose_clustering(poses, 2, seed=0)
    assert part.gt_keyframes is not None
    assert sorted(part.gt_keyframes.tolist()) == [0, 3]
    assert part.labels[0] != part.labels[3]
    assert (part.labels[:3] == part.labels[0]).all()
    assert (part.labels[3:] == part.labels[3]).all()


def test_gt_clustering_tie_goes_to_lowest_frame():
    poses = [Pose(0.0, 0.0), Pose(1.0, 0.0), Pose(10.0, 0.0), Pose(11.0, 0.0)]
    part = gt_pose_clustering(poses, 2, seed=0)
    assert sorted(part.gt_keyframes.tolist()) == [0, 2]


def test_gt_clustering_k_equals_n():
    poses = [Pose(float(i), 0.0) for i in range(5)]
    part = gt_pose_clustering(poses, 5, seed=0)
    assert sorted(part.gt_keyframes.tolist()) == [0, 1, 2, 3, 4]
    for j, f in enumerate(part.gt_keyframes):
        assert part.labels[f] == j


def test_gt_clustering_requires_poses():
    with pytest.raises(ValueError):
        gt_pose_clustering(None, 2)
    with pytest.raises(ValueError):
        gt_pose_clustering([], 2)


def test_sample_cluster_without_replacement_when_possible():
    part = partition_from_labels([0, 0, 0, 0, 1, 1], 2, np.zeros((2, 1)))
    s = sample_cluster(part, 0, 3, rng=0)
    assert s.cluster_id == 0
    assert len(set(s.frame_indices.tolist())) == 3
    assert set(s.frame_indices.tolist()) <= {0, 1, 2, 3}


def test_sample_cluster_small_cluster_uses_replacement():
    part = partition_from_labels([0, 0, 1, 1, 1, 1], 2, np.zeros((2, 1)))
    s = sample_cluster(part, 0, 5, rng=1)
    assert len(s.frame_indices) == 5
    assert set(s.frame_indices.tolist()) <= {0, 1}


def test_sample_cluster_is_deterministic_per_seed():
    part = partition_from_labels([0] * 8, 1, np.zeros((1, 1)))
    a = sample_cluster(part, 0, 4, rng=9)
    b = sample_cluster(part, 0, 4, rng=9)
    assert np.array_equal(a.frame_indices, b.frame_indices)


def test_sample_cluster_draws_are_roughly_uniform():
    part = partition_from_labels([0, 0, 0, 0], 1, np.zeros((1, 1)))
    rng = np.random.default_rng(0)
    counts = np.zeros(4)
    for _ in range(10_000):
        counts[sample_cluster(part, 0, 1, rng).frame_indices[0]] += 1
    sigma = np.sqrt(10_000 * 0.25 * 0.75)
    assert (np.abs(counts - 2500) <= 3 * sigma).all()


def test_sample_cluster_validation():
    part = partition_from_labels([0, 0, 0], 2, np.zeros((2, 1)))  # cluster 1 empty
    with pytest.raises(ValueError):
        sample_cluster(part, 2, 1, rng=0)
    with pytest.raises(ValueError):
        sample_cluster(part, 0, 0, rng=0)
    with pytest.raises(ValueError, match="empty"):
        sample_cluster(part, 1, 1, rng=0)


def test_partition_validation_errors():
    with pytest.raises(ValueError):
        ClusterPartition(k=2, labels=np.array([0, 2]), members=[np.array([0]), np.array([1])],
                         centroids=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        ClusterPartition(k=2, labels=np.array([0, 1]), members=[np.array([0, 1]), np.array([])],
                         centroids=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        partition_from_labels([0, 0, 1], 2, np.zeros((2, 1)), gt_keyframes=[2, 1])
