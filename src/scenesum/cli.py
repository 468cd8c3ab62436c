"""Command line front end.

Commands: generate (synthetic scenes), summarize (pick keyframes), evaluate
(divergence curve and AUC for a summary), sweep (methods x k x seeds grid).
Exit codes: 0 success, 1 I/O or data failure, 2 usage error, 3 missing
capability (e.g. a pose-dependent method on a pose-free dataset).

Option precedence is flags > --config JSON file > built-in defaults.  The
resolved configuration is embedded, as "config", in the two JSON outputs: the
summary (for every method) and the evaluate report.  The manifest, sweep.csv,
the curve CSV and the SVG chart do not carry it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import baselines, metrics
from .clustering import cluster_features, gt_pose_clustering, kmeans_pp_rows
from .dataset import (SceneDataset, SyntheticConfig, generate_synthetic, is_finite,
                      load_dataset, read_json_object, save_dataset)
from .selector import SummaryResult, TrainConfig, select_keyframes, train
from .svgchart import render_line_chart

METHODS = ("scenesum", "scenesum-supervised", "uniform", "random", "vsumm", "change")
SEED_FREE_METHODS = ("uniform", "change")  # their summary does not depend on the seed
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
# Rules _resolve applies to flag and config file values alike.
_CHOICES = {"method": METHODS, "mode": sorted(GENERATE_MODES)}
_LOWER = {"seed": (">=", 0), "r_max": (">", 0), "steps": (">=", 2)}  # key -> (op, bound)


class UsageError(Exception):
    exit_code = 2


class CapabilityError(Exception):
    exit_code = 3


def _resolve(args) -> dict:
    """Merge flags over --config file values over defaults, for the command's keys."""
    from_file = {}
    if args.config:
        try:
            from_file = read_json_object(args.config, "config file")
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        unknown = sorted(set(from_file) - set(_DEFAULTS))
        if unknown:
            raise UsageError(f"config file {args.config} has unknown keys {unknown}")
    resolved = {}
    for key in _COMMANDS[args.command].keys:
        value = getattr(args, key)
        if value is None:
            value = from_file.get(key, _DEFAULTS[key])
        # flags arrive typed by argparse; a file value must already have its
        # default's type, tested with `type() is` because bool subclasses int
        kind = type(_DEFAULTS[key])
        if kind is float:
            ok = type(value) in (int, float) and is_finite(value)
        else:
            ok = type(value) is kind
        if not ok:
            raise UsageError(f"bad value for {key}: {value!r}")
        resolved[key] = kind(value)
        _check(key, resolved[key])
    return resolved


def _check(key: str, value) -> None:
    """UsageError unless value is one of key's choices and within its lower bound."""
    if key in _CHOICES and value not in _CHOICES[key]:
        raise UsageError(f"{key} must be one of {_CHOICES[key]}, got {value!r}")
    if key in _LOWER:
        op, bound = _LOWER[key]
        if value < bound or (op == ">" and value == bound):
            raise UsageError(f"{key} must be {op} {bound}, got {value}")


def _write(files: dict[Path, str]) -> int:
    """Write each {path: text} file as UTF-8 with no newline translation and
    report it; every text is rendered before the first file is written."""
    for path, text in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="")
        print(f"wrote {path}")
    return 0


def _run_method(ds: SceneDataset, method: str, k: int, seed: int, opts: dict,
                init_rows=None) -> SummaryResult:
    """Produce a summary with a method from METHODS; opts carries training knobs.
    init_rows, kmeans_pp_rows for this seed at some k2 >= k, seeds vsumm's k-means."""
    n = ds.n_frames
    if not 1 <= k <= n:
        raise UsageError(f"k must be in [1, {n}], got {k}")
    if method == "uniform":
        return baselines.uniform_summary(n, k)
    if method == "random":
        return baselines.random_summary(n, k, seed)
    if method == "vsumm":
        return baselines.vsumm_centroid(ds.features, k, seed, init_rows)
    if method == "change":
        return baselines.change_detect_summary(ds.features, k)

    if k < 2:
        raise UsageError(f"method {method} needs k >= 2, got k={k}")
    supervised = method == "scenesum-supervised"
    if supervised and ds.poses is None:
        raise CapabilityError("method scenesum-supervised requires a dataset with poses")
    try:
        cfg = TrainConfig(batch_size=opts["batch_size"], learning_rate=opts["lr"],
                          epochs=opts["epochs"], latent_dim=opts["latent"], seed=seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    partition = (gt_pose_clustering(ds.poses, k, seed=seed) if supervised
                 else cluster_features(ds.features, k, seed=seed))
    params, _ = train(ds, partition, cfg)
    return select_keyframes(params, ds, partition)


def cmd_generate(args) -> int:
    resolved = _resolve(args)
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
    resolved = _resolve(args)
    ds = load_dataset(args.manifest)
    summary = _run_method(ds, resolved["method"], resolved["k"], resolved["seed"], resolved)
    frames = summary.frame_indices
    record = {"method": summary.method, "k": len(frames), "frames": frames, "config": resolved}
    return _write({Path(args.out): json.dumps(record, indent=2) + "\n"})


def cmd_evaluate(args) -> int:
    resolved = _resolve(args)
    summary = read_json_object(args.summary, "summary file")
    for key in ("method", "k", "frames"):
        if key not in summary:
            raise ValueError(f"summary file {args.summary} missing key {key!r}")
    ds = load_dataset(args.manifest)
    if ds.poses is None:
        raise CapabilityError("evaluate requires a dataset with poses")
    if not (isinstance(summary["method"], str) and isinstance(summary["frames"], list)):
        raise ValueError("summary method must be a string and frames a list of frame indices")
    summary["method"].encode()  # a lone surrogate fails here, not halfway through the writes
    frames = SummaryResult(summary["method"], summary["frames"]).frame_indices
    if any(f >= ds.n_frames for f in frames):
        raise ValueError("summary frame indices fall outside the dataset")
    k = summary["k"]
    if type(k) is not int or k != len(frames):
        raise ValueError(f"summary k {k!r} does not match its {len(frames)} frames")

    curve = metrics.divergence_curve(ds.pose_positions(frames), resolved["r_max"],
                                     resolved["steps"])
    area = metrics.auc(curve)
    out = Path(args.out)
    report = {"method": summary["method"], "k": summary["k"], "r_max": resolved["r_max"],
              "steps": resolved["steps"], "auc": area, "config": resolved}
    files = {out.with_suffix(".csv"): metrics.curve_csv(curve),
             out.with_suffix(".json"): json.dumps(report, indent=2) + "\n"}
    if args.svg:
        files[out.with_suffix(".svg")] = render_line_chart(
            curve.thresholds, curve.values,
            title=f"{summary['method']} divergence curve (k={summary['k']})",
            x_label="distance threshold r (m)", y_label="divergence D")
    return _write(files)


def _parse_list(text: str, cast, key: str) -> list:
    try:
        items = [cast(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad {key} list {text!r}") from exc
    if not items:
        raise UsageError(f"empty {key} list")
    for item in items:
        _check(key, item)
    return items


def cmd_sweep(args) -> int:
    resolved = _resolve(args)
    methods = _parse_list(resolved["methods"], str, "method")
    ks = _parse_list(resolved["ks"], int, "k")
    seeds = _parse_list(resolved["seeds"], int, "seed")

    ds = load_dataset(args.manifest)
    if ds.poses is None:
        raise CapabilityError("sweep requires a dataset with poses for evaluation")

    # k-means++ picks the same first centres at every k, so vsumm seeds once
    # per seed, at the largest valid k, and each cell starts from a prefix
    pp_k = max((k for k in ks if 1 <= k <= ds.n_frames), default=0)
    pp_rows = {}  # seed -> kmeans_pp_rows at pp_k

    def score(method: str, k: int, seed: int) -> float:
        init_rows = None
        if method == "vsumm" and 1 <= k <= pp_k:
            if seed not in pp_rows:
                pp_rows[seed] = kmeans_pp_rows(ds.features, pp_k, seed)
            init_rows = pp_rows[seed]
        summary = _run_method(ds, method, k, seed, resolved, init_rows)
        curve = metrics.divergence_curve(ds.pose_positions(summary.frame_indices),
                                         resolved["r_max"], resolved["steps"])
        return metrics.auc(curve)

    rows = []
    for method in methods:
        for k in ks:
            aucs = []
            for seed in seeds:
                # a seed-free method is scored once per k and repeated per seed
                area = aucs[0] if aucs and method in SEED_FREE_METHODS else score(method, k, seed)
                aucs.append(area)
                rows.append([method, str(k), str(seed), repr(area), ""])
            mean = sum(aucs) / len(aucs)
            sd = (sum((a - mean) ** 2 for a in aucs) / len(aucs)) ** 0.5
            rows.append([method, str(k), "agg", repr(mean), repr(sd)])

    text = "method,k,seed,auc,sd\n" + "".join(",".join(row) + "\n" for row in rows)
    return _write({Path(args.out): text})


class _Command(NamedTuple):
    handler: Callable
    help: str
    positionals: tuple  # (name, help) pairs
    keys: tuple  # option keys, in the order their resolved values are written out
    out: dict  # add_argument keywords for --out


_TRAIN_KEYS = ("epochs", "lr", "latent", "batch_size")
_MANIFEST = ("manifest", "path to the dataset manifest")
_COMMANDS = {
    "generate": _Command(
        cmd_generate, "write a synthetic scene dataset", (),
        ("frames", "dim", "mode", "seed", "box_side", "step_sigma", "noise_sigma"),
        {"required": True, "help": "output directory for the manifest"}),
    "summarize": _Command(
        cmd_summarize, "select keyframes from a dataset", (_MANIFEST,),
        ("method", "k", "seed", *_TRAIN_KEYS), {"default": "summary.json"}),
    "evaluate": _Command(
        cmd_evaluate, "divergence curve and AUC for a summary",
        (("summary", "summary JSON written by summarize"), _MANIFEST), ("r_max", "steps"),
        {"default": "eval", "help": "output path prefix"}),
    "sweep": _Command(
        cmd_sweep, "methods x k x seeds AUC grid", (_MANIFEST,),
        ("methods", "ks", "seeds", "r_max", "steps", *_TRAIN_KEYS), {"default": "sweep.csv"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scenesum",
                                     description="Scene summarization pipeline and baselines.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        for positional, text in command.positionals:
            cmd.add_argument(positional, help=text)
        for key in command.keys:
            cmd.add_argument("--" + key.replace("_", "-"), dest=key,
                             type=type(_DEFAULTS[key]), choices=_CHOICES.get(key))
        if name == "evaluate":
            cmd.add_argument("--svg", action="store_true", help="also write a curve chart")
        cmd.add_argument("--out", **command.out)
        cmd.add_argument("--config", help="JSON file with option defaults")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else int(exc.code)
    try:
        return _COMMANDS[args.command].handler(args)
    except (UsageError, CapabilityError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)  # I/O and data errors are 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
