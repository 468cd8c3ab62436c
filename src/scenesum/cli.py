"""Command line front end.

Commands: generate (synthetic scenes), summarize (pick keyframes), evaluate
(divergence curve and AUC for a summary), sweep (methods x k x seeds grid).
Exit codes: 0 success, 1 I/O or data failure, 2 usage error, 3 missing
capability (e.g. a pose-dependent method on a pose-free dataset).

Option precedence is flags > --config JSON file > built-in defaults, and the
resolved configuration is embedded in every output file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import baselines, metrics
from .clustering import cluster_features, gt_pose_clustering
from .dataset import (SceneDataset, SyntheticConfig, generate_synthetic, load_dataset,
                      read_json_object, save_dataset)
from .selector import SummaryResult, TrainConfig, select_keyframes, train
from .svgchart import render_line_chart

METHODS = ("scenesum", "scenesum-supervised", "uniform", "random", "vsumm", "change")
GENERATE_MODES = {"pose-correlated": "pose_correlated", "appearance-only": "appearance_only"}

_SYNTH = SyntheticConfig()
_TRAIN = TrainConfig()
_DEFAULTS = {
    "frames": _SYNTH.n_frames,
    "dim": _SYNTH.dim,
    "mode": "pose-correlated",
    "seed": _SYNTH.seed,
    "box_side": _SYNTH.box_side,
    "step_sigma": _SYNTH.step_sigma,
    "noise_sigma": _SYNTH.noise_sigma,
    "method": "scenesum",
    "k": 10,
    "n_sample": _TRAIN.sample_size,
    "epochs": _TRAIN.epochs,
    "lr": _TRAIN.learning_rate,
    "latent": _TRAIN.latent_dim,
    "batch_size": _TRAIN.batch_size,
    "r_max": 3.0,
    "steps": 100,
    "methods": "scenesum,uniform,random,vsumm,change",
    "ks": "10,20",
    "seeds": "0,1,2",
}


class UsageError(Exception):
    pass


class CapabilityError(Exception):
    pass


def _resolve(args, keys) -> dict:
    """Merge flags over --config file values over defaults, for the given keys."""
    from_file = {}
    if getattr(args, "config", None):
        try:
            loaded = read_json_object(args.config, "config file")
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        unknown = sorted(set(loaded) - set(_DEFAULTS))
        if unknown:
            raise UsageError(f"config file {args.config} has unknown keys {unknown}")
        from_file = loaded
    resolved = {}
    for key in keys:
        value = getattr(args, key, None)
        if value is None:
            value = from_file.get(key, _DEFAULTS[key])
        # flags arrive typed by argparse; a file value must already have its
        # default's type, tested with `type() is` because bool subclasses int
        kind = type(_DEFAULTS[key])
        if kind is float:
            ok = type(value) in (int, float) and math.isfinite(value)
        else:
            ok = type(value) is kind
        if not ok:
            raise UsageError(f"bad value for {key}: {value!r}")
        if key == "seed" and value < 0:
            raise UsageError(f"seed must be >= 0, got {value}")
        resolved[key] = kind(value)
    return resolved


def _write_json(payload: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _run_method(ds: SceneDataset, method: str, k: int, seed: int, opts: dict) -> SummaryResult:
    """Produce a summary with any supported method; opts carries training knobs."""
    n = ds.n_frames
    if not 1 <= k <= n:
        raise UsageError(f"k must be in [1, {n}], got {k}")
    if method == "uniform":
        return baselines.uniform_summary(n, k)
    if method == "random":
        return baselines.random_summary(n, k, seed)
    if method == "vsumm":
        return baselines.vsumm_centroid(ds.features, k, seed)
    if method == "change":
        return baselines.change_detect_summary(ds.features, k)
    if method not in ("scenesum", "scenesum-supervised"):
        raise UsageError(f"unknown method {method!r}")

    if k < 2:
        raise UsageError(f"method {method} needs k >= 2, got k={k}")
    supervised = method == "scenesum-supervised"
    if supervised and ds.poses is None:
        raise CapabilityError("method scenesum-supervised requires a dataset with poses")
    try:
        cfg = TrainConfig(batch_size=opts["batch_size"], learning_rate=opts["lr"],
                          epochs=opts["epochs"], latent_dim=opts["latent"],
                          sample_size=opts["n_sample"],
                          mode="supervised" if supervised else "self_supervised", seed=seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if supervised:
        partition = gt_pose_clustering(ds.poses, k, seed=seed)
    else:
        partition = cluster_features(ds.features, k, seed=seed)
    params, _ = train(ds, partition, cfg)
    return select_keyframes(params, ds, partition, method=method)


def cmd_generate(args) -> int:
    resolved = _resolve(args, ("frames", "dim", "mode", "seed", "box_side", "step_sigma",
                               "noise_sigma"))
    if resolved["mode"] not in GENERATE_MODES:
        raise UsageError(f"mode must be one of {sorted(GENERATE_MODES)}, got {resolved['mode']!r}")
    try:
        cfg = SyntheticConfig(n_frames=resolved["frames"], dim=resolved["dim"],
                              feature_mode=GENERATE_MODES[resolved["mode"]],
                              seed=resolved["seed"], box_side=resolved["box_side"],
                              step_sigma=resolved["step_sigma"],
                              noise_sigma=resolved["noise_sigma"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    ds = generate_synthetic(cfg)
    manifest = save_dataset(ds, Path(args.out) / "manifest.json")
    print(f"wrote {manifest}")
    return 0


def cmd_summarize(args) -> int:
    resolved = _resolve(args, ("method", "k", "seed", "n_sample", "epochs", "lr", "latent",
                               "batch_size"))
    if resolved["method"] not in METHODS:
        raise UsageError(f"method must be one of {METHODS}, got {resolved['method']!r}")
    ds = load_dataset(args.manifest)
    summary = _run_method(ds, resolved["method"], resolved["k"], resolved["seed"], resolved)
    summary.config.update(resolved)
    out = Path(args.out)
    _write_json(summary.as_dict(), out)
    print(f"wrote {out}")
    return 0


def _check_grid(resolved: dict) -> None:
    """UsageError unless r_max > 0 and steps >= 2, the grid evaluate and sweep score on."""
    if resolved["r_max"] <= 0:
        raise UsageError(f"r_max must be > 0, got {resolved['r_max']}")
    if resolved["steps"] < 2:
        raise UsageError(f"steps must be >= 2, got {resolved['steps']}")


def cmd_evaluate(args) -> int:
    resolved = _resolve(args, ("r_max", "steps"))
    _check_grid(resolved)
    summary = read_json_object(args.summary, "summary file")
    for key in ("method", "k", "frames"):
        if key not in summary:
            raise ValueError(f"summary file {args.summary} missing key {key!r}")
    ds = load_dataset(args.manifest)
    if ds.poses is None:
        raise CapabilityError("evaluate requires a dataset with poses")
    if not isinstance(summary["frames"], list):
        raise ValueError("summary frames must be a list of integer frame indices")
    frames = SummaryResult(str(summary["method"]), summary["frames"]).frame_indices
    if any(f >= ds.n_frames for f in frames):
        raise ValueError("summary frame indices fall outside the dataset")
    k = summary["k"]
    if type(k) is not int or k != len(frames):
        raise ValueError(f"summary k {k!r} does not match its {len(frames)} frames")

    curve = metrics.divergence_curve(ds.pose_positions(frames), resolved["r_max"],
                                     resolved["steps"])
    area = metrics.auc(curve)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    csv_path = out.with_suffix(".csv")
    json_path = out.with_suffix(".json")
    metrics.write_curve_csv(curve, csv_path)
    report = {"method": summary["method"], "k": summary["k"], "r_max": resolved["r_max"],
              "steps": resolved["steps"], "auc": area, "config": resolved}
    _write_json(report, json_path)
    written = [csv_path, json_path]
    if args.svg:
        svg_path = out.with_suffix(".svg")
        svg = render_line_chart(curve.thresholds, curve.values,
                                title=f"{summary['method']} divergence curve (k={summary['k']})",
                                x_label="distance threshold r (m)", y_label="divergence D")
        svg_path.write_text(svg)
        written.append(svg_path)
    for path in written:
        print(f"wrote {path}")
    return 0


def _parse_list(text: str, cast, what: str) -> list:
    try:
        items = [cast(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad {what} list {text!r}") from exc
    if not items:
        raise UsageError(f"empty {what} list")
    return items


def cmd_sweep(args) -> int:
    resolved = _resolve(args, ("methods", "ks", "seeds", "r_max", "steps", "n_sample",
                               "epochs", "lr", "latent", "batch_size"))
    methods = _parse_list(resolved["methods"], str, "method")
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"method must be one of {METHODS}, got {m!r}")
    ks = _parse_list(resolved["ks"], int, "k")
    seeds = _parse_list(resolved["seeds"], int, "seed")
    if min(seeds) < 0:
        raise UsageError(f"seeds must be >= 0, got {resolved['seeds']!r}")
    _check_grid(resolved)

    ds = load_dataset(args.manifest)
    if ds.poses is None:
        raise CapabilityError("sweep requires a dataset with poses for evaluation")

    rows = []
    for method in methods:
        for k in ks:
            aucs = []
            for seed in seeds:
                summary = _run_method(ds, method, k, seed, resolved)
                curve = metrics.divergence_curve(ds.pose_positions(summary.frame_indices),
                                                 resolved["r_max"], resolved["steps"])
                area = metrics.auc(curve)
                aucs.append(area)
                rows.append([method, str(k), str(seed), repr(area), ""])
            mean = sum(aucs) / len(aucs)
            sd = (sum((a - mean) ** 2 for a in aucs) / len(aucs)) ** 0.5
            rows.append([method, str(k), "agg", repr(mean), repr(sd)])

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        fh.write("method,k,seed,auc,sd\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scenesum",
                                     description="Scene summarization pipeline and baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic scene dataset")
    gen.add_argument("--out", required=True, help="output directory for the manifest")
    gen.add_argument("--frames", type=int)
    gen.add_argument("--dim", type=int)
    gen.add_argument("--mode", choices=sorted(GENERATE_MODES))
    gen.add_argument("--seed", type=int)
    gen.add_argument("--box-side", dest="box_side", type=float)
    gen.add_argument("--step-sigma", dest="step_sigma", type=float)
    gen.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    gen.add_argument("--config", help="JSON file with option defaults")
    gen.set_defaults(func=cmd_generate)

    summ = sub.add_parser("summarize", help="select keyframes from a dataset")
    summ.add_argument("manifest", help="path to the dataset manifest")
    summ.add_argument("--method", choices=METHODS)
    summ.add_argument("--k", type=int)
    summ.add_argument("--seed", type=int)
    summ.add_argument("--n-sample", dest="n_sample", type=int)
    summ.add_argument("--epochs", type=int)
    summ.add_argument("--lr", type=float)
    summ.add_argument("--latent", type=int)
    summ.add_argument("--batch-size", dest="batch_size", type=int)
    summ.add_argument("--out", default="summary.json")
    summ.add_argument("--config", help="JSON file with option defaults")
    summ.set_defaults(func=cmd_summarize)

    ev = sub.add_parser("evaluate", help="divergence curve and AUC for a summary")
    ev.add_argument("summary", help="summary JSON written by summarize")
    ev.add_argument("manifest", help="path to the dataset manifest")
    ev.add_argument("--r-max", dest="r_max", type=float)
    ev.add_argument("--steps", type=int)
    ev.add_argument("--svg", action="store_true", help="also write a curve chart")
    ev.add_argument("--out", default="eval", help="output path prefix")
    ev.add_argument("--config", help="JSON file with option defaults")
    ev.set_defaults(func=cmd_evaluate)

    sw = sub.add_parser("sweep", help="methods x k x seeds AUC grid")
    sw.add_argument("manifest", help="path to the dataset manifest")
    sw.add_argument("--methods")
    sw.add_argument("--ks")
    sw.add_argument("--seeds")
    sw.add_argument("--r-max", dest="r_max", type=float)
    sw.add_argument("--steps", type=int)
    sw.add_argument("--n-sample", dest="n_sample", type=int)
    sw.add_argument("--epochs", type=int)
    sw.add_argument("--lr", type=float)
    sw.add_argument("--latent", type=int)
    sw.add_argument("--batch-size", dest="batch_size", type=int)
    sw.add_argument("--out", default="sweep.csv")
    sw.add_argument("--config", help="JSON file with option defaults")
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else int(exc.code)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
