"""Pose-tagged frame sequences: in-memory model, disk format, synthetic walkthroughs.

A scene is an (n_frames, dim) float32 feature matrix plus an optional list of
odometry poses, one per frame.  On disk a scene is a small JSON manifest next
to a raw little-endian float32 feature file and an optional pose CSV.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FEATURE_DTYPE = np.dtype("<f4")
POSE_HEADER = ("frame", "x", "y", "z")

_FEATURE_MODES = ("pose_correlated", "appearance_only")


@dataclass(frozen=True)
class Pose:
    """Camera position of one frame, in meters.  z stays 0.0 for planar scenes."""

    x: float
    y: float
    z: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError(f"pose coordinates must be finite, got ({self.x}, {self.y}, {self.z})")


def pose_matrix(poses) -> np.ndarray:
    """Stack an iterable of Pose into an (n, 3) float64 array."""
    return np.array([(p.x, p.y, p.z) for p in poses], dtype=np.float64).reshape(-1, 3)


@dataclass
class SceneDataset:
    """Frame sequence with features and, when available, ground-truth poses."""

    scene_id: str
    features: np.ndarray
    poses: list[Pose] | None = None

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float32)
        if feats.ndim != 2:
            raise ValueError(f"features must be a 2-d matrix, got shape {feats.shape}")
        if not np.isfinite(feats).all():
            raise ValueError("NaN or Inf detected in feature matrix")
        self.features = feats
        if self.poses is not None:
            self.poses = list(self.poses)
            if len(self.poses) != feats.shape[0]:
                raise ValueError(
                    f"pose count {len(self.poses)} does not match frame count {feats.shape[0]}"
                )

    @property
    def n_frames(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def pose_positions(self, frame_indices=None) -> np.ndarray:
        """Pose coordinates as an (n, 3) array, optionally restricted to some frames."""
        if self.poses is None:
            raise ValueError("dataset has no poses")
        mat = pose_matrix(self.poses)
        if frame_indices is None:
            return mat
        return mat[np.asarray(frame_indices, dtype=np.int64)]


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
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.feature_mode not in _FEATURE_MODES:
            raise ValueError(f"feature_mode must be one of {_FEATURE_MODES}, got {self.feature_mode!r}")
        if self.box_side <= 0:
            raise ValueError(f"box_side must be > 0, got {self.box_side}")
        if self.step_sigma <= 0:
            raise ValueError(f"step_sigma must be > 0, got {self.step_sigma}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


def _reflect(values: np.ndarray, side: float) -> np.ndarray:
    # Fold an unconstrained coordinate back into [0, side] as if bouncing off
    # the walls; folding the cumulative sum is equivalent to reflecting each step.
    period = 2.0 * side
    m = np.mod(values, period)
    return np.where(m > side, period - m, m)


def generate_synthetic(cfg: SyntheticConfig) -> SceneDataset:
    """Simulate a reflected 2-d random walk and per-frame feature vectors.

    pose_correlated mode emits random Fourier features of the walk position
    (cosines of random frequencies), so feature distance shrinks with pose
    distance.  appearance_only mode draws features independent of the walk.
    Output is a pure function of cfg.
    """
    rng = np.random.default_rng(cfg.seed)
    steps = rng.normal(0.0, cfg.step_sigma, size=(cfg.n_frames - 1, 2))
    center = cfg.box_side / 2.0
    raw = center + np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
    xy = _reflect(raw, cfg.box_side)
    poses = [Pose(float(x), float(y), 0.0) for x, y in xy]

    if cfg.feature_mode == "pose_correlated":
        # Frequency scale 2*pi/box_side gives wavelengths on the order of the
        # box, so similarity decays smoothly across it instead of saturating.
        freqs = rng.normal(0.0, 2.0 * np.pi / cfg.box_side, size=(cfg.dim, 2))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=cfg.dim)
        feats = np.cos(xy @ freqs.T + phases)
        feats = feats + cfg.noise_sigma * rng.standard_normal(feats.shape)
    else:
        feats = rng.standard_normal((cfg.n_frames, cfg.dim))

    return SceneDataset(
        scene_id=f"synthetic-{cfg.feature_mode}-{cfg.seed}",
        features=feats.astype(np.float32),
        poses=poses,
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
        with open(out_dir / pose_name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(POSE_HEADER)
            for i, p in enumerate(ds.poses):
                # repr round-trips doubles exactly, keeping reload bit-identical
                writer.writerow([i, repr(p.x), repr(p.y), repr(p.z)])
        manifest["poses"] = pose_name

    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest_path


def _load_poses(path: Path, n_frames: int) -> list[Pose]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != POSE_HEADER:
            raise ValueError(f"pose file {path} must start with header {','.join(POSE_HEADER)}")
        poses = []
        for row in reader:
            if len(row) != 4:
                raise ValueError(f"malformed pose row {len(poses)}: {row!r}")
            try:
                frame = int(row[0])
                x, y, z = (float(v) for v in row[1:])
            except ValueError as exc:
                raise ValueError(f"malformed pose row {len(poses)}: {row!r}") from exc
            if frame != len(poses):
                raise ValueError(f"pose rows must be ordered 0..n-1, got frame {frame} at row {len(poses)}")
            poses.append(Pose(x, y, z))
    if len(poses) != n_frames:
        raise ValueError(f"pose count {len(poses)} does not match manifest n_frames {n_frames}")
    return poses


def load_dataset(manifest_path) -> SceneDataset:
    """Load a scene from its manifest; validates sizes, dtype tag, and finiteness."""
    manifest_path = Path(manifest_path)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest {manifest_path} must hold a JSON object")
    for key in ("scene_id", "n_frames", "dim", "features", "dtype"):
        if key not in manifest:
            raise ValueError(f"manifest {manifest_path} missing required key {key!r}")
    if manifest["dtype"] != "f32le":
        raise ValueError(f"unsupported feature dtype {manifest['dtype']!r}, expected 'f32le'")
    n, d = manifest["n_frames"], manifest["dim"]
    # bool is an int subclass, and int() would truncate a float: ask for int exactly.
    if any(type(v) is not int or v < 1 for v in (n, d)):
        raise ValueError(f"manifest n_frames and dim must be integers >= 1, got {n!r} and {d!r}")
    for key in ("features", "poses"):
        if not isinstance(manifest.get(key, ""), str):
            raise ValueError(f"manifest {key!r} must be a file name, got {manifest[key]!r}")

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

    return SceneDataset(scene_id=str(manifest["scene_id"]), features=feats, poses=poses)
