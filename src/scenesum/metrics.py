"""Spatial diversity of a keyframe set: close-pair divergence, curves over a
threshold sweep, and area under the curve.  Lower is better; a well spread
summary has few keyframe pairs closer than the threshold."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .clustering import _row_blocks
from .dataset import check_coordinates, check_count, check_real


def _positions(positions) -> np.ndarray:
    p = np.asarray(positions, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] not in (2, 3):
        raise ValueError(f"positions must be (k, 2) or (k, 3), got shape {p.shape}")
    if p.shape[0] < 1:
        raise ValueError("empty keyframe set")
    check_coordinates(p, "positions", "position")
    return p


def _close_pair_counts(p: np.ndarray, thresholds) -> np.ndarray:
    """Per threshold r, the ordered pairs (i, j), i != j, closer than r.

    Distances are taken one row block of the (k, k) matrix at a time, so
    memory stays bounded at any k.  Each block adds its squared differences to
    zeros axis by axis, the left-to-right order of a sum over the last axis, so
    every distance has the bytes of the one (k, k) matrix.  One sort per block
    serves every threshold: the block's pairs closer than r are those left of
    r's leftmost insertion point among its sorted distances.
    """
    k, dims = p.shape
    thresholds = np.asarray(thresholds)
    counts = np.zeros(thresholds.shape, dtype=np.intp)
    for start, stop, block, term in _row_blocks(k, k, 2):
        block.fill(0.0)
        for axis in range(dims):
            np.subtract(p[start:stop, axis, None], p[None, :, axis], out=term)
            block += np.square(term, out=term)
        np.sqrt(block, out=block)
        flat = block.reshape(-1)
        flat[start::k + 1] = np.inf  # row i's self-pair sits at i * k + start + i
        flat.sort()
        counts += np.searchsorted(flat, thresholds, side="left")
    return counts


def similar_pair_count(positions, r: float) -> int:
    """Number of ordered pairs (i, j), i != j, with distance strictly below r."""
    p = _positions(positions)
    check_real("threshold r", r, zero_ok=True)
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
    check_real("r_max", r_max)
    check_count("steps", steps, 2)
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


def curve_csv(curve: DivergenceCurve) -> str:
    """The curve as CSV text with header r,D, in the csv module's \\r\\n lines."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["r", "D"])
    for r, d in zip(curve.thresholds, curve.values):
        writer.writerow([repr(float(r)), repr(float(d))])
    return buf.getvalue()
