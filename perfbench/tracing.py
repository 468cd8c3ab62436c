"""Span recorder for the traced benchmark run.

The recorder wraps public attributes of the scenesum modules at the places
where the CLI looks them up, records one span (name, start, end, parent) per
call, and restores the originals afterwards.  Nothing inside the program is
changed.  A layer's self time is its span duration minus the time covered by
its child spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (module name or class path, attribute) pairs, wrapped where the CLI calls them.
# A missing attribute aborts the traced run, so a rename cannot silently turn a
# layer's time into zero.
WRAPPED = (
    ("cli", "main"),
    ("cli", "load_dataset"),
    ("cli", "cluster_features"),
    ("cli", "gt_pose_clustering"),
    ("cli", "train"),
    ("cli", "select_keyframes"),
    ("clustering", "kmeans"),
    ("baselines", "kmeans"),
    ("clustering", "balance_assignment"),
    ("selector", "sample_cluster"),
    ("selector", "adam_step"),
    ("dataset.SceneDataset", "pose_positions"),
    ("metrics", "divergence_curve"),
    ("metrics", "auc"),
    ("baselines", "uniform_summary"),
    ("baselines", "random_summary"),
    ("baselines", "vsumm_centroid"),
    ("baselines", "change_detect_summary"),
)

BASELINE_SPANS = ("baselines.uniform_summary", "baselines.random_summary",
                  "baselines.vsumm_centroid", "baselines.change_detect_summary")
KMEANS_SPANS = ("clustering.kmeans", "baselines.kmeans")

# Per-layer metric name -> unit.  BENCHMARK.json lists the same names.
PER_LAYER_UNITS = {
    "selector.train.self_s": "s",
    "selector.train.calls": "count",
    "selector.adam_step.s": "s",
    "selector.adam_step.calls": "count",
    "clustering.sample_cluster.s": "s",
    "clustering.sample_cluster.calls": "count",
    "clustering.sample_cluster.rows": "count",
    "selector.select_keyframes.s": "s",
    "clustering.kmeans.s": "s",
    "clustering.kmeans.calls": "count",
    "clustering.kmeans.lloyd_iters": "count",
    "clustering.balance_assignment.s": "s",
    "clustering.gt_pose_clustering.self_s": "s",
    "dataset.load_dataset.s": "s",
    "dataset.pose_positions.s": "s",
    "dataset.pose_positions.calls": "count",
    "baselines.self_s": "s",
    "metrics.s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class CoverageError(RuntimeError):
    """A wrapped attribute is missing or an expected span recorded no calls."""


class Tracer:
    """In-memory span recorder.  Spans are kept in parallel lists until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.check_failures: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, *args, **kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts[idx] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, name: str, fn):
        if name in KMEANS_SPANS:
            def wrapper(*args, return_history=False, **kwargs):
                centroids, labels, history = self._span(name, fn, *args,
                                                        return_history=True, **kwargs)
                self.counters["lloyd_iters"] += len(history) - 1  # last entry is the final assignment
                return (centroids, labels, history) if return_history else (centroids, labels)
        elif name == "selector.sample_cluster":
            def wrapper(*args, **kwargs):
                sample = self._span(name, fn, *args, **kwargs)
                self.counters["sample_rows"] += len(sample.frame_indices)
                return sample
        elif name == "cli.cluster_features":
            def wrapper(*args, **kwargs):
                partition = self._span(name, fn, *args, **kwargs)
                self._check_balanced(partition)
                return partition
        else:
            def wrapper(*args, **kwargs):
                return self._span(name, fn, *args, **kwargs)
        return functools.wraps(fn)(wrapper)

    def _check_balanced(self, partition) -> None:
        floor, extra = divmod(partition.n_frames, partition.k)
        allowed = {floor, floor + 1} if extra else {floor}
        sizes = sorted({int(m.size) for m in partition.members})
        if not set(sizes) <= allowed:
            self.check_failures.append(f"cluster_features returned cluster sizes {sizes}, "
                                       f"expected {sorted(allowed)}")

    def install(self, modules: dict) -> None:
        """Wrap every attribute in WRAPPED; `modules` maps module names to module objects."""
        for owner_path, attr in WRAPPED:
            head, *rest = owner_path.split(".")
            owner = modules[head]
            for part in rest:
                owner = getattr(owner, part, None)
                if owner is None:
                    self.uninstall()
                    raise CoverageError(f"wrapped owner {owner_path} is missing")
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.uninstall()
                raise CoverageError(f"wrapped attribute {owner_path}.{attr} is missing")
            name = f"{rest[-1] if rest else head}.{attr}"
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(name, fn))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - child_time[i]
        return out


def check_coverage(spans: dict, expected: tuple[str, ...]) -> None:
    """Raise CoverageError when a span the workload must reach recorded no calls."""
    silent = [name for name in expected if spans.get(name, {}).get("calls", 0) == 0]
    if silent:
        raise CoverageError(f"expected spans recorded no calls: {', '.join(silent)}")


def per_layer_metrics(spans: dict, counters: dict, overhead_frac: float) -> dict:
    """Fold span aggregates into the per-layer metrics named in PER_LAYER_UNITS."""
    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def total(names, key):
        return sum(get(n, key) for n in names)

    values = {
        "selector.train.self_s": get("cli.train", "self_s"),
        "selector.train.calls": get("cli.train", "calls"),
        "selector.adam_step.s": get("selector.adam_step", "s"),
        "selector.adam_step.calls": get("selector.adam_step", "calls"),
        "clustering.sample_cluster.s": get("selector.sample_cluster", "s"),
        "clustering.sample_cluster.calls": get("selector.sample_cluster", "calls"),
        "clustering.sample_cluster.rows": counters.get("sample_rows", 0),
        "selector.select_keyframes.s": get("cli.select_keyframes", "s"),
        "clustering.kmeans.s": total(KMEANS_SPANS, "s"),
        "clustering.kmeans.calls": total(KMEANS_SPANS, "calls"),
        "clustering.kmeans.lloyd_iters": counters.get("lloyd_iters", 0),
        "clustering.balance_assignment.s": get("clustering.balance_assignment", "s"),
        "clustering.gt_pose_clustering.self_s": get("cli.gt_pose_clustering", "self_s"),
        "dataset.load_dataset.s": get("cli.load_dataset", "s"),
        "dataset.pose_positions.s": get("SceneDataset.pose_positions", "s"),
        "dataset.pose_positions.calls": get("SceneDataset.pose_positions", "calls"),
        "baselines.self_s": total(BASELINE_SPANS, "self_s"),
        "metrics.s": total(("metrics.divergence_curve", "metrics.auc"), "s"),
        "cli.self_s": get("cli.main", "self_s"),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
