"""The quality ladder: divergence AUC of four summarizers and one untrained
pick on a fixed set of synthetic scenes, so that a change to stage one or
stage two is judged on more than the acceptance scene.

    OPENBLAS_NUM_THREADS=1 python tools/ladder.py

It imports scenesum from this checkout's src/, takes no options and writes no
file.  The cells:
- scenes 11-20, SyntheticConfig(n_frames=500, dim=64, seed=s), training seeds
  0-2, so 30 cells per k; and scene 23, the acceptance scene, with seeds 0-4,
  reported on a row of its own and never tuned on;
- k = 10 and k = 20;
- each summary is cli._run_method with cli._DEFAULTS, exactly what
  `summarize --method M --k K --seed S` writes, scored by AUC at r_max 3 over
  100 steps, lower is better;
- the pose-centroid row is no summarize method but the untrained pick that
  scenesum-supervised trains towards: gt_pose_clustering(poses, K, seed=S)
  .gt_keyframes, the frame nearest each pose centroid.

It prints, per method, the mean AUC per k on scenes 11-20 and on scene 23;
then "d +- se (m/30)" against scenesum on scenes 11-20: the mean paired
difference, its standard error and the number of cells where the method's AUC
is lower; then how many scenesum-supervised picks equal the ground-truth
keyframes of gt_pose_clustering at the same k and seed.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from scenesum import metrics  # noqa: E402
from scenesum.cli import _DEFAULTS, _run_method  # noqa: E402
from scenesum.clustering import gt_pose_clustering  # noqa: E402
from scenesum.dataset import SyntheticConfig, generate_synthetic  # noqa: E402

METHODS = ("scenesum", "scenesum-supervised", "pose-centroid", "vsumm", "uniform")
REFERENCE = "scenesum"
KS = (10, 20)
GROUPS = {"scenes 11-20": (range(11, 21), range(3)), "scene 23": ((23,), range(5))}
R_MAX, STEPS = 3.0, 100


def run_group(scenes, seeds) -> tuple[dict, dict]:
    """({(method, k): AUC per cell}, {k: (supervised picks equal to gt_keyframes,
    picks)}), the cells in scene, then seed order."""
    aucs = {(method, k): [] for method in METHODS for k in KS}
    gt_hits = {k: [0, 0] for k in KS}
    for scene in scenes:
        ds = generate_synthetic(SyntheticConfig(n_frames=500, dim=64, seed=scene))
        for k in KS:
            for seed in seeds:
                gt = gt_pose_clustering(ds.poses, k, seed=seed).gt_keyframes.tolist()
                for method in METHODS:
                    frames = (gt if method == "pose-centroid"
                              else _run_method(ds, method, k, seed, _DEFAULTS))
                    curve = metrics.divergence_curve(ds.pose_positions(frames), R_MAX, STEPS)
                    aucs[method, k].append(metrics.auc(curve))
                    if method == "scenesum-supervised":
                        gt_hits[k][0] += sum(f == g for f, g in zip(frames, gt))
                        gt_hits[k][1] += k
    return aucs, gt_hits


def paired(row: list[float], ref: list[float]) -> str:
    """'d +- se (m/n)' of row against ref, cell by cell."""
    diffs = [a - b for a, b in zip(row, ref)]
    n = len(diffs)
    mean = sum(diffs) / n
    se = math.sqrt(sum((d - mean) ** 2 for d in diffs) / (n - 1) / n)
    lower = sum(d < 0 for d in diffs)
    return f"{mean:+.4f} ± {se:.4f} ({lower}/{n})"


def main() -> None:
    results = {name: run_group(*cells) for name, cells in GROUPS.items()}
    cols = [f"{name}, k={k}" for name in GROUPS for k in KS]
    width = max(map(len, METHODS))
    print(f"mean AUC at r_max {R_MAX:g} over {STEPS} steps, lower is better")
    print(" | ".join([f"{'method':{width}}", *cols]))
    for method in METHODS:
        means = [sum(aucs[method, k]) / len(aucs[method, k])
                 for aucs, _ in results.values() for k in KS]
        print(" | ".join([f"{method:{width}}",
                          *(f"{m:{len(c)}.4f}" for m, c in zip(means, cols))]))

    first = next(iter(GROUPS))
    aucs = results[first][0]
    print(f"\nagainst {REFERENCE} on {first}, d ± se (m/n), m the cells where the method is lower")
    for method in METHODS:
        if method != REFERENCE:
            print(f"{method:{width}} | " + " | ".join(
                f"k={k} {paired(aucs[method, k], aucs[REFERENCE, k])}" for k in KS))

    print("\nscenesum-supervised picks equal to gt_pose_clustering's gt_keyframes")
    for name, (_, gt_hits) in results.items():
        print(f"{name}: " + ", ".join(f"k={k} {hit}/{total}"
                                       for k, (hit, total) in gt_hits.items()))


if __name__ == "__main__":
    main()
