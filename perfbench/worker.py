"""One pass of a benchmark workload, in a fresh process.

Set-up imports scenesum from the checkout's `src/`, generates the workload's
scene with `scenesum generate` and writes its manifest.  The pass then runs
the workload's timed operations through `scenesum.cli.main`, in process, for
one round or, with --window, round after round for that many seconds; it
checks every output and writes a result JSON file for `run.py`.

    python3 perfbench/worker.py --workload desk-k20 --seed 23 --workdir DIR --result FILE
        [--window SECONDS] [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Evaluations score up to r_max = the scene's box side.  At the CLI default of
# 3 m most supervised k=10 desk summaries score exactly 0, which no change of
# keyframes can move.  Each AUC is also divided by the AUC of the scene's own
# trajectory (at most REFERENCE_FRAMES evenly strided frames): raw AUC follows how
# much of the box the random walk covers and varies by about 25% between scenes,
# the ratio by about 5%.
STEPS = "100"
REFERENCE_FRAMES = 1000
TRAIN_SEEDS = (0, 1, 2)

DESK_SCENE: tuple[str, ...] = ()  # SyntheticConfig defaults: 500 frames, d=64, box_side 20
DESK_R_MAX = "20"
# 5000 frames keep the 2 frames per square metre of a 20000-frame, 100 m scene.
# At 20000 frames one k-means call takes 3-4 s and its Lloyd iteration count
# varies by about 30% between calls, so a 30 s run holds too few calls for the
# pass time to settle; here the sweep makes 48 calls of about 0.5 s.
MID_SCENE = ("--frames", "5000", "--dim", "128", "--box-side", "50")
MID_R_MAX = "50"
SWEEP_METHODS = ("vsumm", "uniform", "random", "change")
SWEEP_KS = (50, 100)
SWEEP_SEEDS = tuple(range(24))

# Spans every traced pass of a workload must record at least once.
COMMON_SPANS = ("cli.main", "cli.load_dataset", "cli.train", "cli.select_keyframes",
                "clustering.kmeans", "SceneDataset.pose_positions", "metrics.divergence_curve",
                "metrics.auc")
TRAINING_SPANS = ("selector.sample_cluster", "selector.adam_step")


def _summarize_then_evaluate(work: Path, manifest: str, r_max: str, method: str, k: int,
                             seed: int, extra: tuple[str, ...] = ()) -> list[dict]:
    summary = work / f"{method}-k{k}-s{seed}.json"
    report = work / f"eval-{method}-k{k}-s{seed}"
    return [
        {"label": f"summarize {method} k={k} seed={seed}", "kind": "summary",
         "argv": ["summarize", manifest, "--method", method, "--k", str(k), "--seed", str(seed),
                  *extra, "--out", str(summary)],
         "summary": summary, "k": k},
        {"label": f"evaluate {method} k={k} seed={seed}", "kind": "eval",
         "argv": ["evaluate", str(summary), manifest, "--r-max", r_max, "--steps", STEPS,
                  "--out", str(report)],
         "summary": summary, "report": report.with_suffix(".json")},
    ]


def _desk_ops(method: str, k: int):
    def ops(work: Path, manifest: str) -> list[dict]:
        return [op for seed in TRAIN_SEEDS
                for op in _summarize_then_evaluate(work, manifest, DESK_R_MAX, method, k, seed)]
    return ops


def _mid_ops(work: Path, manifest: str) -> list[dict]:
    sweep = work / "sweep.csv"
    return [
        {"label": "sweep", "kind": "sweep",
         "argv": ["sweep", manifest, "--methods", ",".join(SWEEP_METHODS),
                  "--ks", ",".join(map(str, SWEEP_KS)), "--seeds", ",".join(map(str, SWEEP_SEEDS)),
                  "--r-max", MID_R_MAX, "--steps", STEPS, "--out", str(sweep)],
         "csv": sweep},
        *_summarize_then_evaluate(work, manifest, MID_R_MAX, "scenesum", 100, 0,
                                  ("--epochs", "0")),
    ]


WORKLOADS = {
    "desk-k20": {
        "scene": DESK_SCENE, "r_max": DESK_R_MAX, "ops": _desk_ops("scenesum", 20),
        "spans": COMMON_SPANS + TRAINING_SPANS + ("cli.cluster_features",
                                                   "clustering.balance_assignment"),
    },
    "desk-k10-sup": {
        "scene": DESK_SCENE, "r_max": DESK_R_MAX, "ops": _desk_ops("scenesum-supervised", 10),
        "spans": COMMON_SPANS + TRAINING_SPANS + ("cli.gt_pose_clustering",),
    },
    "mid-baselines": {
        "scene": MID_SCENE, "r_max": MID_R_MAX, "ops": _mid_ops,
        "spans": COMMON_SPANS + ("cli.cluster_features", "clustering.balance_assignment",
                                 "baselines.kmeans", "baselines.uniform_summary",
                                 "baselines.random_summary", "baselines.vsumm_centroid",
                                 "baselines.change_detect_summary"),
    },
}


class CheckFailed(Exception):
    pass


def _snapshot(op: dict):
    """What an operation wrote, read back right after it ran (later runs overwrite it)."""
    if op["kind"] == "summary":
        return json.loads(op["summary"].read_text())["frames"]
    if op["kind"] == "eval":
        return {"frames": json.loads(op["summary"].read_text())["frames"],
                "auc": json.loads(op["report"].read_text())["auc"]}
    with open(op["csv"], newline="") as fh:
        return list(csv.reader(fh))


def _check_summary(op: dict, frames, n_frames: int) -> list[int]:
    k = op["k"]
    if not all(type(f) is int for f in frames):
        raise CheckFailed("frames are not all integers")
    if len(frames) != k or len(set(frames)) != k:
        raise CheckFailed(f"expected {k} distinct frames, got {frames}")
    if not all(0 <= f < n_frames for f in frames):
        raise CheckFailed(f"frame index outside [0, {n_frames})")
    return frames


def _check_eval(snap: dict, recompute) -> float:
    reported, recomputed = snap["auc"], recompute(tuple(snap["frames"]))
    if reported != recomputed:
        raise CheckFailed(f"eval.json AUC {reported!r} != recomputed {recomputed!r}")
    return reported


def _check_sweep(rows: list[list[str]], r_max: float) -> list[tuple[str, int, int, float]]:
    if rows[:1] != [["method", "k", "seed", "auc", "sd"]]:
        raise CheckFailed(f"sweep.csv header is {rows[:1]}")
    by_cell = {(m, int(k), s): float(a) for m, k, s, a, _ in rows[1:]}
    cells = []
    for method in SWEEP_METHODS:
        for k in SWEEP_KS:
            aucs = []
            for seed in SWEEP_SEEDS:
                area = by_cell.get((method, k, str(seed)))
                if area is None or not 0.0 <= area <= r_max:
                    raise CheckFailed(f"sweep {method} k={k} seed={seed}: AUC {area!r}")
                aucs.append(area)
                cells.append((method, k, seed, area))
            agg = by_cell.get((method, k, "agg"))
            if agg is None or not math.isclose(agg, sum(aucs) / len(aucs), rel_tol=1e-12):
                raise CheckFailed(f"sweep {method} k={k}: agg {agg!r} is not the mean of {aucs}")
    expected_rows = len(cells) + len(SWEEP_METHODS) * len(SWEEP_KS)
    if len(rows) - 1 != expected_rows:
        raise CheckFailed(f"sweep.csv has {len(rows) - 1} rows, expected {expected_rows}")
    return cells


# Host-speed calibration.  On a shared host the CPU speed a process gets drifts
# by 10-60% over seconds to minutes, which no repetition count within one run
# averages out, and a second process on another vCPU does not see it.  So while
# an operation runs, a SIGALRM handler times a fixed kernel that calls nothing
# from scenesum every CALIBRATION_PERIOD_S, and once more when it ends.  The
# operation's time less the handler's time, divided by the mean kernel time,
# times CALIBRATION_REF_S (the kernel's median time on the reference host: 2-vCPU
# Xeon VM, Python 3.11, numpy 2.4, one BLAS thread) is its reference-host time.
# A change to the program moves the operation times and not the kernel.
CALIBRATION_PERIOD_S = 0.25
SETUP_CALIBRATION_PERIOD_S = 0.05  # set-up takes about 0.3 s
CALIBRATION_REF_S = 0.0095


def _calibration_kernel():
    """A timed kernel in three about equal parts: the interpreter loop, small numpy
    calls as in the training loop, and larger arrays as in k-means."""
    import numpy as np

    rng = np.random.default_rng(0)
    small_x, small_w = rng.standard_normal((24, 64)), rng.standard_normal((64, 64))
    big_x, big_c = rng.standard_normal((500, 128)), rng.standard_normal((50, 128))

    def run() -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(40_000):
            acc += i * 0.5
        for _ in range(200):
            acc += float(np.tanh(small_x @ small_w).sum())
        for _ in range(4):
            d2 = (big_x * big_x).sum(1)[:, None] - 2.0 * big_x @ big_c.T + (big_c * big_c).sum(1)
            acc += float(np.bincount(d2.argmin(1), minlength=len(big_c)).sum())
        return time.perf_counter() - t0
    return run


class _SpeedProbe:
    """Kernel times taken while a timed call runs and right after it."""

    def __init__(self):
        self.kernel = _calibration_kernel()
        self.samples: list[float] = []
        self.kernel_s = 0.0  # all kernel time in this process, warm-up included
        for _ in range(3):  # warm-up
            self._sample()
        self.samples.clear()

    def _sample(self, *_signal_args) -> None:
        self.samples.append(self.kernel())
        self.kernel_s += self.samples[-1]

    def time_call(self, fn, period_s: float) -> tuple[float, float]:
        """Run fn(); returns its time less the handler's, and the mean kernel time."""
        first, kernel_s = len(self.samples), self.kernel_s
        previous = signal.signal(signal.SIGALRM, self._sample)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, period_s, period_s)
        try:
            fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = time.perf_counter() - t0 - (self.kernel_s - kernel_s)
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        return elapsed, statistics.fmean(self.samples[first:])


def _import_scenesum():
    sys.path.insert(0, str(SRC))
    import scenesum
    if not Path(scenesum.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"scenesum was imported from {scenesum.__file__}, not from {SRC}")
    from scenesum import baselines, cli, clustering, dataset, metrics, selector
    return {"baselines": baselines, "cli": cli, "clustering": clustering, "dataset": dataset,
            "metrics": metrics, "selector": selector}


def _run_ops(cli, ops: list[dict], window_s: float, tracer, probe) -> list[dict]:
    """Run the operations in order, round after round, until the next one would end
    after `window_s` (at least one round).  Returns one record per execution.
    A single round (window 0, as in --trace 1) takes no kernel samples during the
    operations, so span times hold no kernel time."""
    period_s = CALIBRATION_PERIOD_S if window_s > 0 else 0.0
    last_s = [0.0] * len(ops)
    runs = []
    t_end = time.monotonic() + window_s
    while len(runs) < len(ops) or time.monotonic() + last_s[len(runs) % len(ops)] <= t_end:
        idx = len(runs) % len(ops)
        op = ops[idx]
        problems = []
        seen = len(tracer.check_failures) if tracer else 0

        def call():
            try:
                rc = cli.main(op["argv"])  # looked up per call so the traced wrapper is used
                if rc != 0:
                    problems.append(f"exit code {rc}")
            except SystemExit as exc:  # argparse rejects a command line this way
                problems.append(f"exit code {exc.code}")
            except Exception:
                problems.append("raised\n" + traceback.format_exc())

        elapsed, cal_s = probe.time_call(call, period_s)
        if tracer:
            problems.extend(tracer.check_failures[seen:])
        snap = None
        if not problems:
            try:
                snap = _snapshot(op)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
        runs.append({"op": idx, "s": elapsed, "cal_s": cal_s, "problems": problems, "snap": snap})
        last_s[idx] = elapsed
    return runs


def _check_runs(ops: list[dict], runs: list[dict], positions, n_frames: int, r_max: float,
                metrics) -> tuple[list[float], dict]:
    """Check every execution's output; marks failed runs.  Returns the AUCs and the
    frames of each operation's first execution."""
    recomputed = {}

    def recompute(frames: tuple[int, ...]) -> float:
        if frames not in recomputed:
            curve = metrics.divergence_curve(positions[list(frames)], r_max, int(STEPS))
            recomputed[frames] = metrics.auc(curve)
        return recomputed[frames]

    first: dict[int, object] = {}
    aucs, chosen = [], {"summaries": [], "sweep": []}
    for run in runs:
        op = ops[run["op"]]
        if run["problems"]:
            continue
        snap = run["snap"]
        try:
            if op["kind"] == "summary":
                _check_summary(op, snap, n_frames)
            elif op["kind"] == "eval":
                _check_eval(snap, recompute)
            else:
                _check_sweep(snap, r_max)
            if run["op"] in first and snap != first[run["op"]]:
                raise CheckFailed("output differs from the operation's first execution")
        except (CheckFailed, ValueError, KeyError, IndexError, TypeError) as exc:
            run["problems"].append(f"{type(exc).__name__}: {exc}")
            continue
        if run["op"] in first:
            continue
        first[run["op"]] = snap
        if op["kind"] == "summary":
            chosen["summaries"].append((op["label"], snap))
        elif op["kind"] == "eval":
            aucs.append(snap["auc"])
        else:
            chosen["sweep"] = _check_sweep(snap, r_max)
            aucs.extend(cell[3] for cell in chosen["sweep"])
    return aucs, chosen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--window", type=float, default=0.0,
                        help="repeat the operations for this many seconds (default: one round)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    work = Path(args.workdir)

    probe = _SpeedProbe()
    modules, scene = {}, work / "scene"

    def set_up():
        modules.update(_import_scenesum())
        return modules["cli"].main(["generate", "--out", str(scene), "--seed", str(args.seed),
                                    *spec["scene"]])

    rc = []
    _, setup_cal_s = probe.time_call(lambda: rc.append(set_up()), SETUP_CALIBRATION_PERIOD_S)
    if rc != [0]:
        print(f"scene generation exited with {rc}", file=sys.stderr)
        return 1
    # Set-up runs from process spawn to here; run.py subtracts the spawn time.
    result = {"t_first_op": time.monotonic() - probe.kernel_s,
              "setup_speed": CALIBRATION_REF_S / setup_cal_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0
    cli = modules["cli"]

    import numpy as np

    manifest = str(scene / "manifest.json")
    ops = spec["ops"](work, manifest)
    tracer = None
    if args.trace:
        from tracing import CoverageError, Tracer, check_coverage
        tracer = Tracer()
        try:
            tracer.install(modules)
        except CoverageError as exc:
            result["coverage_error"] = str(exc)
            Path(args.result).write_text(json.dumps(result))
            return 0
    try:
        runs = _run_ops(cli, ops, args.window, tracer, probe)
    finally:
        if tracer:
            tracer.uninstall()

    # Output checks run after the timed operations, with the original functions.
    n_frames = json.loads(Path(manifest).read_text())["n_frames"]
    positions = np.loadtxt(scene / "poses.csv", delimiter=",", skiprows=1, usecols=(1, 2, 3),
                           ndmin=2)
    metrics = modules["metrics"]
    r_max = float(spec["r_max"])
    stride = -(-len(positions) // REFERENCE_FRAMES)
    reference_auc = metrics.auc(metrics.divergence_curve(positions[::stride], r_max, int(STEPS)))
    aucs, chosen = _check_runs(ops, runs, positions, n_frames, r_max, metrics)

    # Per operation, the mean over its executions; a round is the sum over operations.
    by_op = [[run for run in runs if run["op"] == idx] for idx in range(len(ops))]
    result.update({
        "wall_raw_s": sum(statistics.fmean(r["s"] for r in rs) for rs in by_op),
        "wall_s": CALIBRATION_REF_S * sum(statistics.fmean(r["s"] / r["cal_s"] for r in rs)
                                          for rs in by_op),
        "rounds": len(runs) / len(ops),
        "calibration_s": statistics.median(r["cal_s"] for r in runs),
        "executions": [{"op": ops[r["op"]]["label"], "s": r["s"], "cal_s": r["cal_s"]}
                       for r in runs],
        "attempted": len(runs),
        "failed": sum(bool(run["problems"]) for run in runs),
        "failures": [f"{ops[run['op']]['label']}: {problem}"
                     for run in runs for problem in run["problems"]],
        "aucs": aucs,
        "reference_auc": reference_auc,
        "digest": hashlib.sha256(json.dumps(chosen, sort_keys=True).encode()).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer:
        spans = tracer.summary()
        result["spans"] = spans
        result["counters"] = dict(tracer.counters)
        try:
            check_coverage(spans, spec["spans"])
        except CoverageError as exc:
            result["coverage_error"] = str(exc)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
