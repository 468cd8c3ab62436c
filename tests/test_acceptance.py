"""Acceptance suite for the whole package.

Every test here exercises one end-to-end guarantee at its stated tolerance and
prints a single PASS or FAIL line (run with `pytest tests/test_acceptance.py -v -s`
to see them as they complete). The ordering checks train the real pipeline on a
synthetic scene, so this file takes a couple of minutes; everything else is fast.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from scenesum import metrics
from scenesum.baselines import random_summary, vsumm_centroid
from scenesum.cli import main
from scenesum.clustering import cluster_features, gt_pose_clustering
from scenesum.dataset import SyntheticConfig, generate_synthetic
from scenesum.selector import (
    TrainConfig,
    grad,
    infonce_pair,
    init_params,
    recon_loss,
    select_keyframes,
    total_loss,
    train,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def _param_arrays(params):
    for stack in (params.encoder, params.decoder):
        for w, b in stack:
            yield w
            yield b


def _fd_grad(loss_fn, params, h: float):
    """Central finite differences of loss_fn over every entry of params."""
    out = []
    for arr in _param_arrays(params):
        g = np.zeros_like(arr)
        flat, gflat = arr.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_fn()
            flat[i] = orig - h
            lo = loss_fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * h)
        out.append(g)
    return out


def test_gradients_match_finite_differences():
    """20 random small networks, both training modes, rel err < 1e-4, < 30 s."""
    rng = np.random.default_rng(20260817)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        input_dim = int(rng.integers(2, 9))
        latent_dim = int(rng.integers(2, 9))
        hidden = tuple(int(rng.integers(2, 9)) for _ in range(int(rng.integers(0, 3))))
        k = int(rng.integers(2, 4))
        supervised = trial % 2 == 1
        n_frames = 2 * k + int(rng.integers(0, 3))
        feats = rng.normal(size=(n_frames, input_dim))
        params = init_params(input_dim, hidden, latent_dim, rng=rng)
        order = rng.permutation(n_frames)
        sample = np.stack([np.sort(order[2 * c:2 * c + 2]) for c in range(k)])
        gt = [int(rng.integers(0, n_frames)) for _ in range(k)] if supervised else None
        analytic = grad(params, feats, sample, gt)
        fd = _fd_grad(lambda: total_loss(params, feats, sample, gt)[0], params, 1e-4)
        for a, f in zip(_param_arrays(analytic), fd):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-4)
            worst = max(worst, float((np.abs(a - f) / denom).max()))
    elapsed = time.perf_counter() - t0
    _report("analytic gradients match finite differences",
            worst < 1e-4 and elapsed < 30.0,
            f"max rel err {worst:.3e}, {elapsed:.1f}s")


def test_pair_counts_agree_with_brute_force():
    """1000 random keyframe sets: exact integer agreement with an O(k^2) loop."""
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(1000):
        k = int(rng.integers(1, 31))
        pos = rng.uniform(0.0, 10.0, size=(k, 2))
        r = float(rng.uniform(0.0, 5.0))
        fast = metrics.similar_pair_count(pos, r)
        brute = sum(1 for i in range(k) for j in range(k)
                    if i != j and math.hypot(pos[i, 0] - pos[j, 0], pos[i, 1] - pos[j, 1]) < r)
        mismatches += fast != brute
    _report("pair counts agree with brute force", mismatches == 0,
            f"{mismatches} mismatches in 1000 sets")


def test_closed_form_loss_values():
    """Identical/orthogonal/antipodal pools hit their closed forms; recon is exact."""
    pairs = [
        (np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]), math.log(2.0)),
        (np.array([1.0, 0.0, 0.0]), np.array([0.0, 3.0, 0.0]), math.log1p(math.exp(-1.0))),
        (np.array([1.0, 0.0, 0.0]), np.array([-4.0, 0.0, 0.0]), math.log1p(math.exp(-2.0))),
    ]
    worst = max(abs(infonce_pair(a, b) - want) for a, b, want in pairs)
    recon = recon_loss(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]))
    _report("closed-form loss values", worst < 1e-9 and recon == 5.0,
            f"infonce err {worst:.2e}, recon {recon}")


def test_divergence_hand_values():
    """Coincident poses pin the curve at 0.75; far-apart poses pin it at zero."""
    stacked = np.full((4, 2), 2.5)
    d_small = metrics.divergence(stacked, 0.01)
    d_big = metrics.divergence(stacked, 2.0)
    curve = metrics.divergence_curve(stacked, 3.0, 100)
    area = metrics.auc(curve)

    far = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])
    far_curve = metrics.divergence_curve(far, 3.0, 100)
    ok = (d_small == 0.75 and d_big == 0.75 and abs(area - 2.23875) < 1e-9
          and metrics.divergence(far, 2.9) == 0.0 and metrics.auc(far_curve) == 0.0)
    _report("divergence hand values", ok, f"D {d_small}, auc {area!r}")


def _area(ds, frame_indices) -> float:
    curve = metrics.divergence_curve(ds.pose_positions(frame_indices), 3.0, 100)
    return metrics.auc(curve)


@pytest.fixture(scope="module")
def desk_grid():
    """AUC for every (method, k, seed) cell on one synthetic scene.

    Shared by the two ordering tests so the 20 trainings only run once.
    """
    ds = generate_synthetic(SyntheticConfig(n_frames=500, dim=64, box_side=20.0, seed=23))
    aucs = {}
    t0 = time.perf_counter()
    for k in (10, 20):
        for seed in range(5):
            part = cluster_features(ds.features, k, seed=seed)
            params, _ = train(ds, part, TrainConfig(seed=seed))
            scene = select_keyframes(params, ds, part)

            gt_part = gt_pose_clustering(ds.poses, k, seed=seed)
            sup_params, _ = train(ds, gt_part, TrainConfig(seed=seed))
            sup = select_keyframes(sup_params, ds, gt_part)

            rand = random_summary(ds.n_frames, k, seed=seed)
            vs = vsumm_centroid(ds.features, k, seed=seed)
            for method, frames in (("scenesum", scene), ("scenesum-supervised", sup),
                                   ("random", rand), ("vsumm", vs)):
                aucs[(method, k, seed)] = _area(ds, frames)
    return {"aucs": aucs, "elapsed": time.perf_counter() - t0}


def test_summaries_order_below_baselines(desk_grid):
    """Trained summaries beat random on mean AUC and vsumm in most cells, < 5 min."""
    aucs = desk_grid["aucs"]
    beats_random = True
    means = []
    for k in (10, 20):
        scene_mean = float(np.mean([aucs[("scenesum", k, s)] for s in range(5)]))
        rand_mean = float(np.mean([aucs[("random", k, s)] for s in range(5)]))
        beats_random &= scene_mean < rand_mean
        means.append(f"k={k}: {scene_mean:.4f} vs random {rand_mean:.4f}")
    wins = sum(aucs[("scenesum", k, s)] < aucs[("vsumm", k, s)]
               for k in (10, 20) for s in range(5))
    elapsed = desk_grid["elapsed"]
    _report("summaries order below baselines",
            beats_random and wins >= 7 and elapsed < 300.0,
            f"{'; '.join(means)}; {wins}/10 cells beat vsumm; {elapsed:.0f}s")


def test_supervised_variant_stays_competitive(desk_grid):
    """Pose-supervised training is no worse than 1.1x the self-supervised mean AUC."""
    aucs = desk_grid["aucs"]
    cells = [(k, s) for k in (10, 20) for s in range(5)]
    self_mean = float(np.mean([aucs[("scenesum", k, s)] for k, s in cells]))
    sup_mean = float(np.mean([aucs[("scenesum-supervised", k, s)] for k, s in cells]))
    _report("supervised variant stays competitive", sup_mean <= 1.1 * self_mean,
            f"supervised {sup_mean:.4f} vs self {self_mean:.4f}")


def test_balanced_partition_sizes():
    """Every balanced cluster lands on floor(n/k) or ceil(n/k) frames."""
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(500, 32)).astype(np.float32)
    ok = True
    details = []
    for k in (10, 20, 30, 40):
        part = cluster_features(feats, k, seed=0)
        sizes = np.bincount(part.labels, minlength=k)
        lo, hi = 500 // k, -(-500 // k)
        ok &= int(sizes.sum()) == 500 and all(int(s) in (lo, hi) for s in sizes)
        details.append(f"k={k}: [{sizes.min()},{sizes.max()}]")
    _report("balanced partition sizes", ok, "; ".join(details))


def _run_pipeline(root):
    scene = root / "scene"
    assert main(["generate", "--out", str(scene), "--frames", "80", "--dim", "8",
                 "--seed", "7"]) == 0
    summary = root / "summary.json"
    assert main(["summarize", str(scene / "manifest.json"), "--method", "scenesum",
                 "--k", "4", "--epochs", "25", "--latent", "8", "--out", str(summary)]) == 0
    assert main(["evaluate", str(summary), str(scene / "manifest.json"), "--svg",
                 "--out", str(root / "eval")]) == 0
    assert main(["sweep", str(scene / "manifest.json"), "--methods", "uniform,random,vsumm",
                 "--ks", "3,4", "--seeds", "0,1", "--out", str(root / "sweep.csv")]) == 0
    names = ("scene/manifest.json", "scene/features.bin", "scene/poses.csv",
             "summary.json", "eval.csv", "eval.json", "eval.svg", "sweep.csv")
    return {name: (root / name).read_bytes() for name in names}


def test_pipeline_outputs_are_reproducible(tmp_path, capsys):
    """Two identical CLI runs leave byte-identical CSV, JSON, and SVG artifacts."""
    first = _run_pipeline(tmp_path / "a")
    second = _run_pipeline(tmp_path / "b")
    capsys.readouterr()  # drop the wrote-file chatter
    differing = [name for name in first if first[name] != second[name]]
    _report("pipeline outputs are reproducible", not differing,
            "all files identical" if not differing else f"differ: {differing}")


def test_full_scale_training_config_is_accepted():
    """The large published-style configuration passes validation untouched."""
    cfg = TrainConfig(batch_size=64, learning_rate=0.001, latent_dim=2048, epochs=100)
    ok = (cfg.batch_size == 64 and cfg.learning_rate == 0.001
          and cfg.latent_dim == 2048 and cfg.epochs == 100)
    _report("full-scale training config is accepted", ok,
            f"latent_dim {cfg.latent_dim}")
