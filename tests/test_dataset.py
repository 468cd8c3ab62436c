"""Tests for scene datasets: synthetic generation, disk round trips, validation."""

from __future__ import annotations

import json

import numpy as np
import pytest
from scipy import stats

from scenesum.dataset import (
    Pose,
    SceneDataset,
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    pose_matrix,
    save_dataset,
)


def _small_cfg(**kwargs):
    base = dict(n_frames=40, dim=8, seed=3)
    base.update(kwargs)
    return SyntheticConfig(**base)


def test_pose_rejects_non_finite():
    with pytest.raises(ValueError):
        Pose(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Pose(0.0, float("inf"))


def test_pose_matrix_stacks_coordinates():
    mat = pose_matrix([Pose(1.0, 2.0, 3.0), Pose(4.0, 5.0)])
    assert mat.shape == (2, 3)
    assert mat[0].tolist() == [1.0, 2.0, 3.0]
    assert mat[1].tolist() == [4.0, 5.0, 0.0]


def test_dataset_casts_features_to_float32():
    ds = SceneDataset("s", np.ones((3, 2), dtype=np.float64))
    assert ds.features.dtype == np.float32
    assert ds.n_frames == 3
    assert ds.dim == 2


def test_dataset_rejects_nan_features():
    feats = np.ones((3, 2), dtype=np.float32)
    feats[1, 0] = np.nan
    with pytest.raises(ValueError, match="NaN or Inf"):
        SceneDataset("s", feats)


def test_dataset_rejects_pose_count_mismatch():
    with pytest.raises(ValueError, match="pose count"):
        SceneDataset("s", np.ones((3, 2)), poses=[Pose(0, 0)])


def test_pose_positions_subset():
    ds = generate_synthetic(_small_cfg())
    sub = ds.pose_positions([5, 1])
    full = ds.pose_positions()
    assert np.array_equal(sub, full[[5, 1]])


def test_pose_positions_requires_poses():
    ds = SceneDataset("s", np.ones((3, 2)))
    with pytest.raises(ValueError, match="no poses"):
        ds.pose_positions()


def test_synthetic_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(n_frames=0)
    with pytest.raises(ValueError):
        SyntheticConfig(dim=1)
    with pytest.raises(ValueError):
        SyntheticConfig(box_side=0.0)
    with pytest.raises(ValueError):
        SyntheticConfig(step_sigma=0.0)
    with pytest.raises(ValueError):
        SyntheticConfig(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        SyntheticConfig(feature_mode="image")


def test_generate_is_deterministic():
    a = generate_synthetic(_small_cfg())
    b = generate_synthetic(_small_cfg())
    assert np.array_equal(a.features, b.features)
    assert a.poses == b.poses
    assert a.scene_id == b.scene_id


def test_generate_seed_changes_output():
    a = generate_synthetic(_small_cfg(seed=1))
    b = generate_synthetic(_small_cfg(seed=2))
    assert not np.array_equal(a.features, b.features)


def test_walk_starts_at_center_and_stays_in_box():
    cfg = SyntheticConfig(n_frames=2000, dim=4, seed=11, box_side=20.0, step_sigma=2.5)
    ds = generate_synthetic(cfg)
    pos = ds.pose_positions()
    assert pos[0, 0] == 10.0 and pos[0, 1] == 10.0
    assert (pos[:, 0] >= 0).all() and (pos[:, 0] <= 20.0).all()
    assert (pos[:, 1] >= 0).all() and (pos[:, 1] <= 20.0).all()
    assert (pos[:, 2] == 0).all()


def test_pose_correlated_near_pairs_are_closer_in_feature_space():
    # Brute force over all frame pairs of a 500-frame walk: pairs within
    # box_side/10 in space must have smaller mean feature distance than pairs
    # farther apart than box_side/2.
    cfg = SyntheticConfig(n_frames=500, seed=9)
    ds = generate_synthetic(cfg)
    pos = ds.pose_positions()
    feats = ds.features.astype(np.float64)
    pdist = np.sqrt(((pos[:, None] - pos[None, :]) ** 2).sum(-1))
    fdist = np.sqrt(((feats[:, None] - feats[None, :]) ** 2).sum(-1))
    iu = np.triu_indices(cfg.n_frames, k=1)
    near = pdist[iu] < cfg.box_side / 10
    far = pdist[iu] > cfg.box_side / 2
    assert near.any() and far.any()
    assert fdist[iu][near].mean() < fdist[iu][far].mean()


def test_pose_correlated_rank_correlation_positive():
    ds = generate_synthetic(SyntheticConfig(n_frames=500, seed=21))
    pos = ds.pose_positions()
    feats = ds.features.astype(np.float64)
    rng = np.random.default_rng(0)
    i = rng.integers(0, 500, size=10_000)
    j = rng.integers(0, 500, size=10_000)
    keep = i != j
    i, j = i[keep], j[keep]
    pd = np.sqrt(((pos[i] - pos[j]) ** 2).sum(1))
    fd = np.sqrt(((feats[i] - feats[j]) ** 2).sum(1))
    rho = stats.spearmanr(pd, fd).statistic
    assert rho > 0


def test_appearance_only_features_ignore_pose():
    ds = generate_synthetic(_small_cfg(feature_mode="appearance_only", n_frames=500))
    assert ds.poses is not None and len(ds.poses) == 500
    pos = ds.pose_positions()
    feats = ds.features.astype(np.float64)
    rng = np.random.default_rng(0)
    i = rng.integers(0, 500, size=10_000)
    j = rng.integers(0, 500, size=10_000)
    keep = i != j
    pd = np.sqrt(((pos[i[keep]] - pos[j[keep]]) ** 2).sum(1))
    fd = np.sqrt(((feats[i[keep]] - feats[j[keep]]) ** 2).sum(1))
    rho = stats.spearmanr(pd, fd).statistic
    assert abs(rho) < 0.1


def test_save_load_round_trip_is_bit_exact(tmp_path):
    ds = generate_synthetic(_small_cfg())
    manifest = save_dataset(ds, tmp_path / "manifest.json")
    back = load_dataset(manifest)
    assert back.scene_id == ds.scene_id
    assert back.features.dtype == np.float32
    assert np.array_equal(back.features, ds.features)
    assert back.poses == ds.poses


def test_save_without_poses_omits_pose_entry(tmp_path):
    ds = SceneDataset("bare", np.arange(6, dtype=np.float32).reshape(3, 2))
    manifest = save_dataset(ds, tmp_path / "manifest.json")
    payload = json.loads(manifest.read_text())
    assert "poses" not in payload
    back = load_dataset(manifest)
    assert back.poses is None
    assert np.array_equal(back.features, ds.features)


def test_save_rejects_empty_dataset(tmp_path):
    ds = SceneDataset("empty", np.zeros((0, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="empty"):
        save_dataset(ds, tmp_path / "manifest.json")


def test_load_rejects_feature_size_mismatch(tmp_path):
    ds = generate_synthetic(_small_cfg())
    manifest = save_dataset(ds, tmp_path / "manifest.json")
    payload = json.loads(manifest.read_text())
    payload["n_frames"] = ds.n_frames + 1
    manifest.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="bytes"):
        load_dataset(manifest)


def test_load_rejects_unknown_dtype(tmp_path):
    ds = generate_synthetic(_small_cfg())
    manifest = save_dataset(ds, tmp_path / "manifest.json")
    payload = json.loads(manifest.read_text())
    payload["dtype"] = "f64le"
    manifest.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="dtype"):
        load_dataset(manifest)


def test_load_rejects_missing_manifest_key(tmp_path):
    ds = generate_synthetic(_small_cfg())
    manifest = save_dataset(ds, tmp_path / "manifest.json")
    payload = json.loads(manifest.read_text())
    del payload["dim"]
    manifest.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="dim"):
        load_dataset(manifest)


@pytest.mark.parametrize("change", [
    lambda payload: 5,
    lambda payload: {**payload, "features": 5},
    lambda payload: {**payload, "poses": 7},
    lambda payload: {**payload, "n_frames": payload["n_frames"] + 0.7},
], ids=["number", "features-number", "poses-number", "float-n-frames"])
def test_load_rejects_malformed_manifest(tmp_path, change):
    ds = generate_synthetic(_small_cfg())
    manifest = save_dataset(ds, tmp_path / "manifest.json")
    manifest.write_text(json.dumps(change(json.loads(manifest.read_text()))))
    with pytest.raises(ValueError, match="manifest"):
        load_dataset(manifest)


def test_load_rejects_malformed_pose_row(tmp_path):
    ds = generate_synthetic(_small_cfg())
    manifest = save_dataset(ds, tmp_path / "manifest.json")
    pose_path = tmp_path / "poses.csv"
    lines = pose_path.read_text().splitlines()
    lines[3] = "2,1.0,not-a-number,0.0"
    pose_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="malformed pose row"):
        load_dataset(manifest)


def test_load_rejects_bad_pose_header(tmp_path):
    ds = generate_synthetic(_small_cfg())
    manifest = save_dataset(ds, tmp_path / "manifest.json")
    pose_path = tmp_path / "poses.csv"
    lines = pose_path.read_text().splitlines()
    lines[0] = "frame,x,y"
    pose_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="header"):
        load_dataset(manifest)


def test_load_rejects_out_of_order_pose_rows(tmp_path):
    ds = generate_synthetic(_small_cfg())
    manifest = save_dataset(ds, tmp_path / "manifest.json")
    pose_path = tmp_path / "poses.csv"
    lines = pose_path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    pose_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="ordered"):
        load_dataset(manifest)


def test_saved_files_are_deterministic(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        save_dataset(generate_synthetic(_small_cfg()), d / "manifest.json")
    for name in ("manifest.json", "features.bin", "poses.csv"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
