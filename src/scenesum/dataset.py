"""Frame sequences with optional poses: in-memory model, disk format, synthetic walkthroughs.

A scene is an (n_frames, dim) float32 feature matrix plus an optional
(n_frames, 3) float64 array of odometry positions, one row per frame.  On disk
a scene is a small JSON manifest next to a raw little-endian float32 feature
file and an optional pose CSV.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FEATURE_DTYPE = np.dtype("<f4")
POSE_HEADER = ("frame", "x", "y", "z")

_FEATURE_MODES = ("pose_correlated", "appearance_only")


def check_count(name: str, value, low: int = 1) -> None:
    """ValueError unless value is an int or numpy integer >= low.

    bool is an int subclass but no count, and a float would be truncated or
    fail later with another exception type, so both are refused.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def index_array(name: str, values, high: int) -> np.ndarray:
    """The one frame-index check: values as a 1-d int64 array of integers in [0, high),
    else ValueError.  No bool, also not in a list numpy would make integers of."""
    arr = np.asarray(values)
    if (arr.ndim != 1 or (arr.size and not np.issubdtype(arr.dtype, np.integer))
            or (not isinstance(values, np.ndarray)
                and any(isinstance(v, (bool, np.bool_)) for v in values))):
        raise ValueError(f"{name} must be a 1-d array of integers, not bools, "
                         f"got {arr.dtype} {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= high):
        raise ValueError(f"{name} out of range [0, {high})")
    return arr.astype(np.int64)


def is_finite(value) -> bool:
    """Whether a number is finite as a float; an int too large for one is not."""
    return abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value)


def check_real(name: str, value, zero_ok: bool = False) -> None:
    """ValueError unless value is a finite int, float or numpy number > 0, or
    >= 0 when zero_ok.  A bool or a str is no number here."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (real and is_finite(value)) or value < 0 or (value == 0 and not zero_ok):
        raise ValueError(f"{name} must be finite and {'>=' if zero_ok else '>'} 0, got {value!r}")


@dataclass
class SceneDataset:
    """Frame sequence with features and, when available, ground-truth poses.

    poses holds camera positions in meters, one (x, y, z) row per frame; z
    stays 0.0 for planar scenes.
    """

    scene_id: str
    features: np.ndarray
    poses: np.ndarray | None = None

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float32)
        if feats.ndim != 2:
            raise ValueError(f"features must be a 2-d matrix, got shape {feats.shape}")
        if not np.isfinite(feats).all():
            raise ValueError("NaN or Inf detected in feature matrix")
        self.features = feats
        if self.poses is not None:
            poses = np.ascontiguousarray(self.poses, dtype=np.float64)
            if poses.ndim != 2 or poses.shape[1] != 3:
                raise ValueError(f"poses must be an (n_frames, 3) array, got shape {poses.shape}")
            if poses.shape[0] != feats.shape[0]:
                raise ValueError(
                    f"pose count {poses.shape[0]} does not match frame count {feats.shape[0]}"
                )
            if not np.isfinite(poses).all():
                raise ValueError("NaN or Inf detected in poses")
            self.poses = poses

    @property
    def n_frames(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def pose_positions(self, frame_indices) -> np.ndarray:
        """The (len(frame_indices), 3) position rows of the given frames, which
        must pass index_array against n_frames: never a coerced or wrapped row."""
        if self.poses is None:
            raise ValueError("dataset has no poses")
        return self.poses[index_array("frame indices", frame_indices, self.n_frames)]


@dataclass
class SyntheticConfig:
    """Knobs for the synthetic random-walk scene generator."""

    n_frames: int = 500
    dim: int = 64
    feature_mode: str = "pose_correlated"
    seed: int = 0
    box_side: float = 20.0
    step_sigma: float = 1.0
    noise_sigma: float = 0.8

    def __post_init__(self):
        check_count("n_frames", self.n_frames)
        check_count("dim", self.dim, 2)
        check_count("seed", self.seed, 0)
        if self.feature_mode not in _FEATURE_MODES:
            raise ValueError(f"feature_mode must be one of {_FEATURE_MODES}, got {self.feature_mode!r}")
        check_real("box_side", self.box_side)
        check_real("step_sigma", self.step_sigma)
        check_real("noise_sigma", self.noise_sigma, zero_ok=True)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below, not warned of
def generate_synthetic(cfg: SyntheticConfig) -> SceneDataset:
    """Simulate a reflected 2-d random walk and per-frame feature vectors.

    pose_correlated mode emits random Fourier features of the walk position
    (cosines of random frequencies), so feature distance shrinks with pose
    distance.  appearance_only mode draws features independent of the walk.
    Output is a pure function of cfg.  ValueError when an extreme box_side,
    step_sigma or noise_sigma makes the walk or the float32 features overflow.
    """
    rng = np.random.default_rng(cfg.seed)
    steps = rng.normal(0.0, cfg.step_sigma, size=(cfg.n_frames - 1, 2))
    center = cfg.box_side / 2.0
    raw = center + np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
    # Fold each coordinate back into [0, box_side] as if bouncing off the
    # walls; folding the cumulative sum is equivalent to reflecting each step.
    period = 2.0 * cfg.box_side
    m = np.mod(raw, period)
    xy = np.where(m > cfg.box_side, period - m, m)

    if cfg.feature_mode == "pose_correlated":
        # Frequency scale 2*pi/box_side gives wavelengths on the order of the
        # box, so similarity decays smoothly across it instead of saturating.
        freqs = rng.normal(0.0, 2.0 * np.pi / cfg.box_side, size=(cfg.dim, 2))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=cfg.dim)
        feats = np.cos(xy @ freqs.T + phases)
        feats = feats + cfg.noise_sigma * rng.standard_normal(feats.shape)
    else:
        feats = rng.standard_normal((cfg.n_frames, cfg.dim))
    feats = feats.astype(np.float32)
    if not (np.isfinite(xy).all() and np.isfinite(feats).all()):
        raise ValueError(f"box_side {cfg.box_side!r}, step_sigma {cfg.step_sigma!r} and noise_sigma "
                         f"{cfg.noise_sigma!r} overflow the synthetic walk or its features")

    return SceneDataset(
        scene_id=f"synthetic-{cfg.feature_mode}-{cfg.seed}",
        features=feats,
        poses=np.column_stack([xy, np.zeros(cfg.n_frames)]),
    )


def save_dataset(ds: SceneDataset, manifest_path) -> Path:
    """Write manifest.json-style metadata plus features.bin and poses.csv siblings."""
    if ds.n_frames == 0:
        raise ValueError("refusing to save an empty dataset")
    manifest_path = Path(manifest_path)
    out_dir = manifest_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)

    feature_name = "features.bin"
    (out_dir / feature_name).write_bytes(np.ascontiguousarray(ds.features, dtype=FEATURE_DTYPE).tobytes())

    manifest = {
        "scene_id": ds.scene_id,
        "n_frames": ds.n_frames,
        "dim": ds.dim,
        "features": feature_name,
        "dtype": "f32le",
    }
    if ds.poses is not None:
        pose_name = "poses.csv"
        with open(out_dir / pose_name, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(POSE_HEADER)
            for i, (x, y, z) in enumerate(ds.poses.tolist()):
                # repr round-trips doubles exactly, keeping reload bit-identical
                writer.writerow([i, repr(x), repr(y), repr(z)])
        manifest["poses"] = pose_name

    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest_path


def _load_poses(path: Path, n_frames: int) -> list[tuple[float, float, float]]:
    """Rows (x, y, z) of a pose CSV; SceneDataset checks their finiteness."""
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start)
        where = "the header" if line == 0 else f"row {line - 1}"
        raise ValueError(f"pose file {path} is not UTF-8 text: "
                         f"byte {raw[exc.start]:#04x} in {where}") from exc
    poses = []
    try:
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader, None)
        if header is None or tuple(header) != POSE_HEADER:
            raise ValueError(f"pose file {path} must start with header {','.join(POSE_HEADER)}")
        for row in reader:
            if len(row) != 4:
                raise ValueError(f"malformed pose row {len(poses)}: {row!r}")
            try:
                frame = int(row[0])
                xyz = tuple(float(v) for v in row[1:])
            except ValueError as exc:
                raise ValueError(f"malformed pose row {len(poses)}: {row!r}") from exc
            if frame != len(poses):
                raise ValueError(
                    f"pose rows must be ordered 0..n-1, got frame {frame} at row {len(poses)}")
            poses.append(xyz)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ValueError(f"malformed pose file {path}: {exc}") from exc
    if len(poses) != n_frames:
        raise ValueError(f"pose count {len(poses)} does not match manifest n_frames {n_frames}")
    return poses


def read_json_object(path, what: str) -> dict:
    """The JSON object in a file.  ValueError if the text is not JSON, nests too
    deeply to parse, or is not an object; OSError if the file cannot be read."""
    with open(path, encoding="utf-8") as fh:
        try:
            loaded = json.load(fh)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise ValueError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ValueError(f"{what} {path} must hold a JSON object")
    return loaded


def load_dataset(manifest_path) -> SceneDataset:
    """Load a scene from its manifest; validates sizes, dtype tag, and finiteness."""
    manifest_path = Path(manifest_path)
    manifest = read_json_object(manifest_path, "manifest")
    for key in ("scene_id", "n_frames", "dim", "features", "dtype"):
        if key not in manifest:
            raise ValueError(f"manifest {manifest_path} missing required key {key!r}")
    if manifest["dtype"] != "f32le":
        raise ValueError(f"unsupported feature dtype {manifest['dtype']!r}, expected 'f32le'")
    n, d = manifest["n_frames"], manifest["dim"]
    check_count("manifest n_frames", n)
    check_count("manifest dim", d)
    for key in ("scene_id", "features", "poses"):  # names and file names
        if not isinstance(manifest.get(key, ""), str):
            raise ValueError(f"manifest {key!r} must be a string, got {manifest[key]!r}")

    raw = (manifest_path.parent / manifest["features"]).read_bytes()
    expected = n * d * FEATURE_DTYPE.itemsize
    if len(raw) != expected:
        raise ValueError(
            f"feature file holds {len(raw)} bytes, expected {expected} for {n}x{d} float32"
        )
    feats = np.frombuffer(raw, dtype=FEATURE_DTYPE).reshape(n, d).copy()

    poses = None
    if "poses" in manifest:
        poses = _load_poses(manifest_path.parent / manifest["poses"], n)

    return SceneDataset(scene_id=manifest["scene_id"], features=feats, poses=poses)
