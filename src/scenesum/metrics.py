"""Spatial diversity of a keyframe set: close-pair divergence, curves over a
threshold sweep, and area under the curve.  Lower is better; a well spread
summary has few keyframe pairs closer than the threshold."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


def _positions(positions) -> np.ndarray:
    p = np.asarray(positions, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] not in (2, 3):
        raise ValueError(f"positions must be (k, 2) or (k, 3), got shape {p.shape}")
    if p.shape[0] < 1:
        raise ValueError("empty keyframe set")
    if not np.isfinite(p).all():
        raise ValueError("NaN or Inf detected in positions")
    return p


def _close_pair_counts(p: np.ndarray, thresholds) -> np.ndarray:
    """Per threshold r, the ordered pairs (i, j), i != j, closer than r."""
    diff = p[:, None, :] - p[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(dist, np.inf)  # self-pairs never count
    return np.array([(dist < r).sum() for r in thresholds], dtype=np.int64)


def similar_pair_count(positions, r: float) -> int:
    """Number of ordered pairs (i, j), i != j, with distance strictly below r."""
    p = _positions(positions)
    if not (math.isfinite(r) and r >= 0):
        raise ValueError(f"threshold r must be finite and >= 0, got {r}")
    return int(_close_pair_counts(p, [r])[0])


def divergence(positions, r: float) -> float:
    """Fraction of ordered keyframe pairs closer than r, over k^2.

    Self-pairs are excluded, so the value lies in [0, (k-1)/k].
    """
    p = _positions(positions)
    k = p.shape[0]
    return similar_pair_count(p, r) / (k * k)


@dataclass
class DivergenceCurve:
    """Divergence evaluated on an ascending grid of distance thresholds."""

    thresholds: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if t.ndim != 1 or t.shape != v.shape:
            raise ValueError(f"thresholds and values must be matching 1-d arrays, "
                             f"got {t.shape} and {v.shape}")
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise ValueError("NaN or Inf detected in curve")
        if t.size >= 2 and not (np.diff(t) > 0).all():
            raise ValueError("thresholds must be strictly ascending")
        self.thresholds = t
        self.values = v


def divergence_curve(positions, r_max: float, steps: int = 100) -> DivergenceCurve:
    """Divergence at thresholds i * r_max / steps for i in 0..steps."""
    p = _positions(positions)
    if not (math.isfinite(r_max) and r_max > 0):
        raise ValueError(f"r_max must be finite and > 0, got {r_max}")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    k = p.shape[0]
    thresholds = np.arange(steps + 1) * (r_max / steps)
    values = _close_pair_counts(p, thresholds) / (k * k)
    return DivergenceCurve(thresholds=thresholds, values=values)


def auc(curve: DivergenceCurve) -> float:
    """Unnormalized area under the curve, by the trapezoid rule."""
    t, v = curve.thresholds, curve.values
    if t.size < 2:
        raise ValueError("auc needs at least 2 curve points")
    return float((np.diff(t) * (v[1:] + v[:-1]) / 2.0).sum())


def write_curve_csv(curve: DivergenceCurve, path) -> None:
    """Export the curve as CSV with header r,D."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "D"])
        for r, d in zip(curve.thresholds, curve.values):
            writer.writerow([repr(float(r)), repr(float(d))])
