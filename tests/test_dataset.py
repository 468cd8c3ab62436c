"""Tests for scene datasets: synthetic generation, disk round trips, validation."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from scenesum.cli import main
from scenesum.clustering import gt_pose_clustering
from scenesum.dataset import (MAX_COORD, SceneDataset, SyntheticConfig, generate_synthetic,
                              index_array, load_dataset, save_dataset)
from scenesum.metrics import divergence_curve


def _small_cfg(**kwargs):
    base = dict(n_frames=40, dim=8, seed=3)
    base.update(kwargs)
    return SyntheticConfig(**base)


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


def test_dataset_rejects_features_that_are_no_matrix():
    with pytest.raises(ValueError, match="features must be a 2-d matrix"):
        SceneDataset("x", np.zeros(5))


def test_dataset_rejects_pose_count_mismatch():
    with pytest.raises(ValueError, match="pose count"):
        SceneDataset("s", np.ones((3, 2)), poses=np.zeros((1, 3)))


def test_pose_rejects_non_finite():
    for value in (np.nan, np.inf, -np.inf):
        poses = np.zeros((2, 3))
        poses[1, 2] = value
        with pytest.raises(ValueError, match="NaN or Inf"):
            SceneDataset("s", np.ones((2, 2)), poses=poses)


def test_pose_beyond_the_bound_is_refused_naming_its_frame():
    # a coordinate at 1e100 m is a pose, one a float step beyond it is not
    poses = np.zeros((3, 3))
    poses[0] = MAX_COORD
    poses[1] = -MAX_COORD
    SceneDataset("s", np.ones((3, 2)), poses=poses)
    beyond = np.nextafter(MAX_COORD, np.inf)
    for value in (beyond, -beyond):
        poses[2, 1] = value
        with pytest.raises(ValueError, match=r"the pose of frame 2 has a coordinate beyond 1e\+100 m"):
            SceneDataset("s", np.ones((3, 2)), poses=poses)


def test_poses_at_the_bound_cluster_and_score_without_overflow():
    # squared distances reach 12 * MAX_COORD**2 and their sums over the frames
    # stay finite, so neither pose clustering nor the metrics warn
    poses = MAX_COORD * np.random.default_rng(0).uniform(-1.0, 1.0, size=(40, 3))
    poses[0], poses[1] = MAX_COORD, -MAX_COORD
    ds = SceneDataset("bound", np.ones((40, 2)), poses=poses)
    part = gt_pose_clustering(ds.poses, 5)
    assert part.sizes.sum() == 40 and len(part.gt_keyframes) == 5
    curve = divergence_curve(ds.poses, 4.0 * MAX_COORD, 10)
    unit = divergence_curve(ds.poses / MAX_COORD, 4.0, 10)
    assert curve.values.tolist() == unit.values.tolist()


def test_pose_matrix_stacks_coordinates():
    ds = SceneDataset("s", np.ones((2, 2)), poses=[(1, 2, 3), (4.0, 5.0, 0.0)])
    assert ds.poses.dtype == np.float64 and ds.poses.shape == (2, 3)
    assert ds.poses.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 0.0]]
    for bad in (np.zeros((2, 2)), np.zeros(6), np.zeros((2, 3, 1))):
        with pytest.raises(ValueError, match=r"\(n_frames, 3\)"):
            SceneDataset("s", np.ones((2, 2)), poses=bad)


def test_pose_positions_subset():
    ds = generate_synthetic(_small_cfg())
    sub = ds.pose_positions([5, 1])
    full = ds.poses
    assert np.array_equal(sub, full[[5, 1]])
    for idx in ([], [3, 3, 0], np.array([7, 2], dtype=np.uint8)):
        got = ds.pose_positions(idx)
        want = full[np.asarray(idx, dtype=np.int64)]
        assert got.shape == want.shape == (len(idx), 3) and got.tobytes() == want.tobytes()
    for idx in ([-1], [0, 0, -1], [ds.n_frames]):  # never a wrapped row or an IndexError
        with pytest.raises(ValueError, match=r"out of range \[0, 40\)"):
            ds.pose_positions(idx)
    for idx in (np.array([[2, 3], [4, 1]]), np.int64(7)):  # frames come as a 1-d list
        with pytest.raises(ValueError, match="1-d"):
            ds.pose_positions(idx)
    for idx in ([1.7], np.array([2.9]), ["2"], [True, False]):  # never coerced to a row
        with pytest.raises(ValueError, match="integers"):
            ds.pose_positions(idx)


@pytest.mark.parametrize("values", [[4, 2, 7], [1, 1], [], np.array([3, 1], dtype=np.int32),
                                    (0, np.int64(7))])
def test_frame_index_check_takes_1d_integers_in_range(values):
    got = index_array("frames", values, 8)
    assert got.dtype == np.int64 and got.tolist() == [int(v) for v in values]


@pytest.mark.parametrize("values,match", [
    ([-1], "out of range"),
    ([8], "out of range"),
    ([1.7, 2.2], "integers"),
    ([True, 3], "integers"),
    ([np.True_, 3], "integers"),
    (np.array([True, False]), "integers"),
    (["4"], "integers"),
    ([10**30], "integers"),
    (None, "1-d"),
    (5, "1-d"),
    (np.int64(5), "1-d"),
    ([[1, 2]], "1-d"),
])
def test_frame_index_check_refuses_anything_else(values, match):
    with pytest.raises(ValueError, match=match):
        index_array("frames", values, 8)


def test_pose_positions_requires_poses():
    ds = SceneDataset("s", np.ones((3, 2)))
    with pytest.raises(ValueError, match="no poses"):
        ds.pose_positions([0])


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
    for bad in (-1, 1.5, True, "0"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            SyntheticConfig(seed=bad)
    # a real knob is a finite number: a str, None or a bool is refused, not coerced
    for key in ("box_side", "step_sigma", "noise_sigma"):
        for bad in (float("nan"), float("inf"), 10**400, "1", None, True):
            with pytest.raises(ValueError, match=key):
                SyntheticConfig(**{key: bad})
    SyntheticConfig(box_side=np.float32(5.0), step_sigma=np.int64(2), noise_sigma=0)


@pytest.mark.parametrize("knob", [{"step_sigma": 1e308}, {"noise_sigma": 1e308},
                                  {"box_side": 1e-320}, {"box_side": 1e200}],
                         ids=["step_sigma", "noise_sigma", "box_side", "box_side-beyond-bound"])
def test_generate_refuses_knobs_that_overflow(knob):
    # each is a valid finite number, but the walk or the features overflow:
    # one ValueError names all three knobs, and no RuntimeWarning comes first
    with pytest.raises(ValueError, match="box_side .* step_sigma .* noise_sigma .* overflow"):
        generate_synthetic(SyntheticConfig(n_frames=50, **knob))


def test_generate_is_deterministic():
    a = generate_synthetic(_small_cfg())
    b = generate_synthetic(_small_cfg())
    assert np.array_equal(a.features, b.features)
    assert a.poses.tobytes() == b.poses.tobytes()
    assert a.scene_id == b.scene_id


def test_generate_seed_changes_output():
    a = generate_synthetic(_small_cfg(seed=1))
    b = generate_synthetic(_small_cfg(seed=2))
    assert not np.array_equal(a.features, b.features)


def test_walk_starts_at_center_and_stays_in_box():
    cfg = SyntheticConfig(n_frames=2000, dim=4, seed=11, box_side=20.0, step_sigma=2.5)
    ds = generate_synthetic(cfg)
    pos = ds.poses
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
    pos = ds.poses
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
    pos = ds.poses
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
    pos = ds.poses
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
    assert back.poses.tobytes() == ds.poses.tobytes()


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


@pytest.mark.parametrize("line,where", [(0, "the header"), (1, "row 0"), (400, "row 399")])
def test_load_names_the_row_of_a_byte_that_is_not_utf8(tmp_path, line, where):
    # row 399 sits past the first 8 KB the text reader decodes at once
    ds = generate_synthetic(_small_cfg(n_frames=500))
    manifest = save_dataset(ds, tmp_path / "manifest.json")
    pose_path = tmp_path / "poses.csv"
    lines = pose_path.read_bytes().split(b"\n")
    lines[line] = lines[line][:3] + b"\x80" + lines[line][3:]
    pose_path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError) as info:
        load_dataset(manifest)
    assert str(info.value) == f"pose file {pose_path} is not UTF-8 text: byte 0x80 in {where}"


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


_POSE_FIELDS = st.one_of(
    st.integers(-2, 6).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e400", "-1e400", "", " 1.5", "1_0", "0x1p3"]),
    st.text(max_size=6),
)


@st.composite
def _pose_csv(draw):
    """(n_frames, poses.csv text): mostly near-valid files, sometimes any text."""
    n = draw(st.integers(1, 4))
    if draw(st.integers(0, 9)) == 0:
        return n, draw(st.text())
    header = draw(st.just("frame,x,y,z")
                  | st.sampled_from(["frame,x,y", "x,y,z,frame", "", "frame,x,y,z,w"])
                  | st.text(max_size=12))
    if draw(st.booleans()):  # n rows of four fields, as a valid file has
        rows = draw(st.lists(st.lists(_POSE_FIELDS, min_size=4, max_size=4),
                             min_size=n, max_size=n))
    else:
        rows = draw(st.lists(st.lists(_POSE_FIELDS, min_size=3, max_size=5), max_size=6))
    if draw(st.booleans()):  # number the rows in order, as a valid file does
        rows = [[str(i)] + row[1:] for i, row in enumerate(rows)]
    return n, "\n".join([header] + [",".join(row) for row in rows]) + "\n"


@settings(max_examples=300, deadline=None)
@given(_pose_csv())
@example((1, "frame,x,y,z\n0,1.5,-2.0,0.0\n"))
@example((2, "frame,x,y,z\n0,1,2,3\n1,nan,0,0\n"))
@example((1, "frame,x,y,z\n0,1e400,0,0\n"))
@example((1, "frame,x,y,z\n0," + "1" * 200_000 + ",0,0\n"))  # over csv.field_size_limit()
def test_pose_file_parses_to_finite_array_or_value_error(case):
    n, text = case
    with tempfile.TemporaryDirectory() as tmp:
        manifest = save_dataset(SceneDataset("p", np.zeros((n, 2))), Path(tmp) / "manifest.json")
        payload = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**payload, "poses": "poses.csv"}))
        (Path(tmp) / "poses.csv").write_text(text, encoding="utf-8", newline="")
        try:
            ds = load_dataset(manifest)
        except ValueError:
            return
    assert isinstance(ds.poses, np.ndarray)
    assert ds.poses.dtype == np.float64 and ds.poses.shape == (n, 3)
    assert np.isfinite(ds.poses).all()


# JSON values of every type; text never holds a path separator, so a generated
# file name stays inside the scene directory
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(blacklist_characters="/\\"), max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)
_MANIFEST = {"scene_id": "s", "n_frames": 3, "dim": 2, "features": "features.bin",
             "dtype": "f32le", "poses": "poses.csv"}
_MANIFEST_FAULTS = {
    "scene_id": st.sampled_from(["", "t"]),
    "n_frames": st.sampled_from([6, 1, 2, 0, -3, 3.0, True, "3", 10**30]),
    "dim": st.sampled_from([1, 4, 0, 2.0, False, "2", 10**30]),
    "features": st.sampled_from(["poses.csv", "manifest.json", "missing.bin", "", ".", "..",
                                 "a\x00b"]),
    "dtype": st.sampled_from(["f64le", "F32LE", ""]),
    "poses": st.sampled_from(["features.bin", "manifest.json", "missing.csv", "", "."]),
}


@st.composite
def _manifest(draw):
    """Manifest text for a 3x2 scene: a valid manifest with up to three keys
    dropped or changed to a near-valid value or any JSON, or sometimes any text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text())
    payload = dict(_MANIFEST)
    for key in draw(st.lists(st.sampled_from(sorted(_MANIFEST)), unique=True, max_size=3)):
        choice = draw(st.integers(0, 3))
        if choice == 0:
            del payload[key]
        else:
            payload[key] = draw(_MANIFEST_FAULTS[key] if choice < 3 else _JSON)
    return json.dumps(payload)


def _load_or_value_error(manifest: Path):
    """load_dataset's result, or None where it raised ValueError or OSError.  The
    CLI must agree: summarize exits 0 on a scene that loads and 1 on one that does not."""
    try:
        ds = load_dataset(manifest)
    except (ValueError, OSError):
        ds = None
    out = manifest.parent / "out" / "summary.json"
    rc = main(["summarize", str(manifest), "--method", "uniform", "--k", "1", "--out", str(out)])
    assert rc == (1 if ds is None else 0)
    assert out.exists() == (ds is not None)
    return ds


@settings(max_examples=300, deadline=None)
@given(_manifest())
@example(json.dumps(_MANIFEST))
@example(json.dumps({**_MANIFEST, "scene_id": 7}))
@example(json.dumps({**_MANIFEST, "n_frames": 6, "dim": 1, "poses": "features.bin"}))
def test_manifest_parses_to_its_scene_or_value_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        feats = np.arange(6.0).reshape(3, 2)
        manifest = save_dataset(SceneDataset("s", feats, np.ones((3, 3))),
                                Path(tmp) / "manifest.json")
        raw = (Path(tmp) / "features.bin").read_bytes()
        manifest.write_text(text, encoding="utf-8")
        ds = _load_or_value_error(manifest)
    if ds is None:
        return
    # a scene that loads is the one the manifest names, nothing coerced
    payload = json.loads(text)
    assert ds.scene_id == payload["scene_id"]
    assert ds.features.shape == (payload["n_frames"], payload["dim"])
    assert ds.features.tobytes() == raw
    assert (ds.poses is None) == ("poses" not in payload)


@st.composite
def _feature_file(draw):
    """(n, d, features.bin bytes): exact-length float32 data, exact-length or
    other-length raw bytes."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    size = n * d * 4
    raw = draw(st.lists(st.floats(width=32), min_size=n * d, max_size=n * d)
               .map(lambda v: np.array(v, dtype="<f4").tobytes())
               | st.binary(min_size=size, max_size=size)
               | st.binary(max_size=2 * size + 4))
    return n, d, raw


@settings(max_examples=300, deadline=None)
@given(_feature_file())
@example((2, 2, np.array([0, 1, 2, float("nan")], dtype="<f4").tobytes()))
@example((2, 2, bytes(15)))
@example((1, 1, b""))
def test_feature_file_parses_to_its_bytes_or_value_error(case):
    n, d, raw = case
    with tempfile.TemporaryDirectory() as tmp:
        manifest = save_dataset(SceneDataset("f", np.zeros((n, d))), Path(tmp) / "manifest.json")
        (Path(tmp) / "features.bin").write_bytes(raw)
        ds = _load_or_value_error(manifest)
    if ds is None:
        assert len(raw) != n * d * 4 or not np.isfinite(np.frombuffer(raw, dtype="<f4")).all()
        return
    assert ds.features.shape == (n, d) and ds.features.dtype == np.float32
    assert ds.features.tobytes() == raw
