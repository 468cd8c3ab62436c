"""End-to-end tests for the command line interface and the SVG chart emitter."""

from __future__ import annotations

import argparse
import ast
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scenesum
from scenesum import baselines, metrics
from scenesum.baselines import vsumm_centroid
from scenesum.cli import _COMMANDS, _DEFAULTS, _run_method, build_parser, main
from scenesum.clustering import kmeans_pp_rows
from scenesum.dataset import SceneDataset, load_dataset, save_dataset
from scenesum.svgchart import render_line_chart


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    """Small posed scene shared by the read-only CLI tests."""
    out = tmp_path_factory.mktemp("scene")
    rc = main(["generate", "--out", str(out), "--frames", "60", "--dim", "8", "--seed", "5"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def poseless_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("poseless")
    feats = np.random.default_rng(1).normal(size=(30, 6)).astype(np.float32)
    save_dataset(SceneDataset("no-poses", feats), out / "manifest.json")
    return out


def test_generate_writes_manifest_and_binaries(scene_dir):
    manifest = json.loads((scene_dir / "manifest.json").read_text())
    assert manifest["n_frames"] == 60
    assert manifest["dim"] == 8
    assert (scene_dir / "features.bin").stat().st_size == 60 * 8 * 4
    assert (scene_dir / "poses.csv").exists()


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["generate", "--out", str(out), "--frames", "25", "--dim", "4",
                     "--seed", "3"]) == 0
    for name in ("manifest.json", "features.bin", "poses.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_rejects_zero_frames(tmp_path, capsys):
    rc = main(["generate", "--out", str(tmp_path), "--frames", "0"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_generate_rejects_unknown_mode(tmp_path):
    rc = main(["generate", "--out", str(tmp_path), "--mode", "photos"])
    assert rc == 2


@pytest.mark.parametrize("flag,value", [("--step-sigma", "1e308"), ("--noise-sigma", "1e308"),
                                        ("--box-side", "1e-320")])
def test_generate_reports_an_overflowing_option_as_a_usage_error(tmp_path, capsys, flag, value):
    rc = main(["generate", "--out", str(tmp_path / "scene"), "--frames", "50", flag, value])
    assert rc == 2
    assert "overflow the synthetic walk" in capsys.readouterr().err
    assert not (tmp_path / "scene").exists()


def test_no_command_is_a_usage_error():
    assert main([]) == 2


def _resolved_summarize_options(**flags) -> list:
    """summarize's (key, value) options as resolved from flags over the defaults,
    in the order a summary's config lists them."""
    return [(key, flags.get(key, _DEFAULTS[key])) for key in _COMMANDS["summarize"].keys]


@pytest.mark.parametrize("method", ["uniform", "random", "vsumm", "change"])
def test_summarize_baseline_methods(scene_dir, tmp_path, method):
    out = tmp_path / f"{method}.json"
    rc = main(["summarize", str(scene_dir / "manifest.json"), "--method", method,
               "--k", "4", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == method
    assert payload["k"] == 4
    assert len(set(payload["frames"])) == 4
    assert all(0 <= f < 60 for f in payload["frames"])
    # a baseline's record of how it was made is the resolved options, nothing else
    assert list(payload["config"].items()) == _resolved_summarize_options(method=method, k=4)


def test_summarize_scenesum(scene_dir, tmp_path):
    out = tmp_path / "scenesum.json"
    rc = main(["summarize", str(scene_dir / "manifest.json"), "--method", "scenesum",
               "--k", "3", "--epochs", "20", "--latent", "6", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "scenesum"
    assert payload["k"] == 3
    assert len(set(payload["frames"])) == 3
    assert list(payload["config"].items()) == _resolved_summarize_options(
        method="scenesum", k=3, epochs=20, latent=6)


def test_summarize_supervised_needs_poses(poseless_dir, tmp_path, capsys):
    rc = main(["summarize", str(poseless_dir / "manifest.json"), "--method",
               "scenesum-supervised", "--k", "3", "--epochs", "5",
               "--out", str(tmp_path / "s.json")])
    assert rc == 3
    assert "poses" in capsys.readouterr().err


def test_summarize_supervised_on_posed_scene(scene_dir, tmp_path):
    out = tmp_path / "sup.json"
    rc = main(["summarize", str(scene_dir / "manifest.json"), "--method",
               "scenesum-supervised", "--k", "3", "--epochs", "10", "--latent", "6",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "scenesum-supervised"  # the CLI names the summary it ran
    assert len(payload["frames"]) == 3


def test_summarize_rejects_oversized_k(scene_dir, tmp_path):
    rc = main(["summarize", str(scene_dir / "manifest.json"), "--method", "uniform",
               "--k", "61", "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_summarize_missing_manifest_is_io_error(tmp_path):
    rc = main(["summarize", str(tmp_path / "nope.json"), "--method", "uniform",
               "--k", "2", "--out", str(tmp_path / "x.json")])
    assert rc == 1


def test_summarize_malformed_manifest_is_data_error(scene_dir, tmp_path):
    payload = json.loads((scene_dir / "manifest.json").read_text())
    payload["n_frames"] = 60.7
    payload["features"] = str(scene_dir / payload["features"])
    manifest = tmp_path / "manifest.json"
    # a float frame count, then JSON nested past the parser's depth
    for text in (json.dumps(payload), "[" * 200_000):
        manifest.write_text(text)
        rc = main(["summarize", str(manifest), "--method", "uniform", "--k", "2",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 1
    assert not (tmp_path / "x.json").exists()


def test_config_file_precedence(scene_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 5, "method": "uniform"}))
    out = tmp_path / "from_file.json"
    rc = main(["summarize", str(scene_dir / "manifest.json"), "--config", str(cfg),
               "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["k"] == 5

    out2 = tmp_path / "flag_wins.json"
    rc = main(["summarize", str(scene_dir / "manifest.json"), "--config", str(cfg),
               "--k", "4", "--out", str(out2)])
    assert rc == 0
    assert json.loads(out2.read_text())["k"] == 4


def test_config_file_must_hold_an_object(scene_dir, tmp_path):
    cfg = tmp_path / "bad.json"
    # a list, text that is not JSON at all, and JSON nested past the parser's depth
    for text in ("[1, 2]", '{"k": 4', "[" * 200_000):
        cfg.write_text(text)
        rc = main(["summarize", str(scene_dir / "manifest.json"), "--config", str(cfg),
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--out", "{tmp}/g", "--box-side", "nan"],
    ["generate", "--out", "{tmp}/g", "--box-side", "inf"],
    ["generate", "--out", "{tmp}/g", "--step-sigma", "inf"],
    ["generate", "--out", "{tmp}/g", "--noise-sigma", "inf"],
    ["generate", "--out", "{tmp}/g", "--config", "{tmp}/nan.json"],
    ["evaluate", "{tmp}/s.json", "{scene}", "--r-max", "nan", "--out", "{tmp}/e"],
    ["evaluate", "{tmp}/s.json", "{scene}", "--r-max", "inf", "--out", "{tmp}/e"],
    ["evaluate", "{tmp}/s.json", "{scene}", "--config", "{tmp}/inf.json", "--out", "{tmp}/e"],
    ["generate", "--out", "{tmp}/g", "--config", "{tmp}/huge_box.json"],
    ["evaluate", "{tmp}/s.json", "{scene}", "--config", "{tmp}/huge_r.json", "--out", "{tmp}/e"],
    ["sweep", "{scene}", "--methods", "uniform", "--ks", "2", "--r-max", "nan",
     "--out", "{tmp}/x.csv"],
    ["summarize", "{scene}", "--method", "uniform", "--lr", "nan", "--out", "{tmp}/x.json"],
], ids=["box-nan", "box-inf", "step-inf", "noise-inf", "generate-config-nan", "eval-nan",
        "eval-inf", "eval-config-inf", "generate-config-huge-int", "eval-config-huge-int",
        "sweep-nan", "lr-nan"])
def test_non_finite_real_option_is_a_usage_error(scene_dir, tmp_path, capsys, argv):
    # JSON config files may spell NaN and Infinity, which Python's parser accepts
    (tmp_path / "nan.json").write_text('{"noise_sigma": NaN}')
    (tmp_path / "inf.json").write_text('{"r_max": Infinity}')
    # an integer too large for a float is no finite real either
    (tmp_path / "huge_box.json").write_text(json.dumps({"box_side": 10**400}))
    (tmp_path / "huge_r.json").write_text(json.dumps({"r_max": 10**400}))
    (tmp_path / "s.json").write_text(json.dumps({"method": "x", "k": 2, "frames": [0, 5]}))
    before = sorted(p.name for p in tmp_path.iterdir())
    argv = [a.format(tmp=tmp_path, scene=scene_dir / "manifest.json") for a in argv]
    assert main(argv) == 2
    assert "bad value for" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_missing_config_file_is_io_error(scene_dir, tmp_path):
    rc = main(["summarize", str(scene_dir / "manifest.json"), "--method", "uniform",
               "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.json")])
    assert rc == 1


@pytest.mark.parametrize("argv", [
    ["generate", "--out", "{tmp}/g", "--seed", "-1"],
    ["generate", "--out", "{tmp}/g", "--config", "{tmp}/seed.json"],
    ["summarize", "{scene}", "--method", "uniform", "--seed", "-1", "--out", "{tmp}/x.json"],
    ["summarize", "{scene}", "--method", "vsumm", "--seed", "-1", "--out", "{tmp}/x.json"],
    ["summarize", "{scene}", "--method", "random", "--config", "{tmp}/seed.json",
     "--out", "{tmp}/x.json"],
    ["sweep", "{scene}", "--methods", "uniform", "--ks", "2", "--seeds=0,-3",
     "--out", "{tmp}/x.csv"],
], ids=["generate-flag", "generate-config", "summarize-uniform", "summarize-vsumm",
        "summarize-config", "sweep-seeds"])
def test_negative_seed_is_a_usage_error(scene_dir, tmp_path, capsys, argv):
    (tmp_path / "seed.json").write_text(json.dumps({"seed": -1}))
    argv = [a.format(tmp=tmp_path, scene=scene_dir / "manifest.json") for a in argv]
    assert main(argv) == 2
    assert "seed" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["seed.json"]


def test_config_file_rejects_unknown_keys(scene_dir, tmp_path):
    # a typo, and n_sample, a key that batch_size replaced
    for payload in ({"epoch": 1}, {"n_sample": 8}):
        cfg = tmp_path / "unknown.json"
        cfg.write_text(json.dumps(payload))
        rc = main(["summarize", str(scene_dir / "manifest.json"), "--method", "uniform",
                   "--config", str(cfg), "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("payload", [{"k": 5.7}, {"k": True}, {"k": "5"}, {"lr": True},
                                     {"lr": "0.01"}, {"method": 3}],
                         ids=["k-float", "k-bool", "k-string", "lr-bool", "lr-string", "method-int"])
def test_config_file_values_are_not_coerced(scene_dir, tmp_path, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "uniform", **payload}))
    rc = main(["summarize", str(scene_dir / "manifest.json"), "--config", str(cfg),
               "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert not (tmp_path / "x.json").exists()


def test_config_file_int_accepted_for_float_key(scene_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r_max": 2, "steps": 10}))
    summary = tmp_path / "s.json"
    assert main(["summarize", str(scene_dir / "manifest.json"), "--method", "uniform",
                 "--k", "3", "--out", str(summary)]) == 0
    out = tmp_path / "eval"
    assert main(["evaluate", str(summary), str(scene_dir / "manifest.json"),
                 "--config", str(cfg), "--out", str(out)]) == 0
    config = json.loads(out.with_suffix(".json").read_text())["config"]
    assert config == {"r_max": 2.0, "steps": 10}
    assert type(config["r_max"]) is float


def _coincident_scene(tmp_path):
    feats = np.random.default_rng(2).normal(size=(4, 3)).astype(np.float32)
    poses = np.tile([2.0, 2.0, 0.0], (4, 1))
    return save_dataset(SceneDataset("stacked", feats, poses=poses), tmp_path / "manifest.json")


def test_evaluate_hand_auc(tmp_path, capsys):
    manifest = _coincident_scene(tmp_path)
    summary = tmp_path / "sum.json"
    assert main(["summarize", str(manifest), "--method", "uniform", "--k", "4",
                 "--out", str(summary)]) == 0
    out = tmp_path / "eval"
    rc = main(["evaluate", str(summary), str(manifest), "--steps", "100",
               "--r-max", "3.0", "--svg", "--out", str(out)])
    assert rc == 0
    report = json.loads((tmp_path / "eval.json").read_text())
    assert abs(report["auc"] - 2.23875) < 1e-9
    assert report["k"] == 4
    assert report["config"]["r_max"] == 3.0

    csv_lines = (tmp_path / "eval.csv").read_text().splitlines()
    assert csv_lines[0] == "r,D"
    assert len(csv_lines) == 102

    svg = (tmp_path / "eval.svg").read_text()
    assert svg.count("<polyline") == 1
    assert "divergence" in svg

    captured = capsys.readouterr()
    assert "wrote" in captured.out


def test_evaluate_requires_poses(poseless_dir, tmp_path):
    summary = tmp_path / "sum.json"
    assert main(["summarize", str(poseless_dir / "manifest.json"), "--method", "uniform",
                 "--k", "3", "--out", str(summary)]) == 0
    rc = main(["evaluate", str(summary), str(poseless_dir / "manifest.json"),
               "--out", str(tmp_path / "e")])
    assert rc == 3


def test_evaluate_rejects_bad_summary(scene_dir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"method": "x", "k": 2}))  # no frames
    rc = main(["evaluate", str(bad), str(scene_dir / "manifest.json"),
               "--out", str(tmp_path / "e")])
    assert rc == 1

    oob = tmp_path / "oob.json"
    oob.write_text(json.dumps({"method": "x", "k": 2, "frames": [0, 400]}))
    rc = main(["evaluate", str(oob), str(scene_dir / "manifest.json"),
               "--out", str(tmp_path / "e")])
    assert rc == 1

    for k in (99, 2.0, True):
        wrong_k = tmp_path / "wrong_k.json"
        wrong_k.write_text(json.dumps({"method": "x", "k": k, "frames": [1, 20]}))
        rc = main(["evaluate", str(wrong_k), str(scene_dir / "manifest.json"),
                   "--out", str(tmp_path / "e")])
        assert rc == 1
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("frames", [[3, 3, 3], [1.7, 5], [True, 4], [1, 1], [-1], [1.7, 2.2],
                                    [True, 3], ["4"], None, 5, [[1, 2]]])
def test_evaluate_rejects_malformed_frames(scene_dir, tmp_path, frames):
    bad = tmp_path / "bad.json"
    k = len(frames) if isinstance(frames, list) else 1
    bad.write_text(json.dumps({"method": "x", "k": k, "frames": frames}))
    rc = main(["evaluate", str(bad), str(scene_dir / "manifest.json"),
               "--out", str(tmp_path / "e")])
    assert rc == 1
    assert not (tmp_path / "e.json").exists()


def test_evaluate_rejects_non_object_summary(scene_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in ("5", "[" * 200_000):  # a number, then JSON nested past the parser's depth
        bad.write_text(text)
        rc = main(["evaluate", str(bad), str(scene_dir / "manifest.json"),
                   "--out", str(tmp_path / "e")])
        assert rc == 1
        assert "summary file" in capsys.readouterr().err
    assert not (tmp_path / "e.json").exists()


def test_evaluate_names_a_pose_file_that_is_not_utf8(scene_dir, tmp_path, capsys):
    for name in ("manifest.json", "features.bin", "poses.csv"):
        (tmp_path / name).write_bytes((scene_dir / name).read_bytes())
    pose_path = tmp_path / "poses.csv"
    pose_path.write_bytes(pose_path.read_bytes().replace(b"\n3,", b"\n3,\x80", 1))
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps({"method": "uniform", "k": 2, "frames": [0, 5]}))
    rc = main(["evaluate", str(summary), str(tmp_path / "manifest.json"),
               "--out", str(tmp_path / "eval")])
    assert rc == 1
    assert f"pose file {pose_path} is not UTF-8 text: byte 0x80 in row 3" in capsys.readouterr().err


@pytest.mark.parametrize("prefix", ["e_0.001", "run.v2/eval.final"])
def test_evaluate_appends_each_suffix_to_the_whole_prefix(scene_dir, tmp_path, prefix):
    summary = tmp_path / "sum.json"
    assert main(["summarize", str(scene_dir / "manifest.json"), "--method", "uniform",
                 "--k", "3", "--out", str(summary)]) == 0
    out = tmp_path / prefix
    assert main(["evaluate", str(summary), str(scene_dir / "manifest.json"), "--svg",
                 "--out", str(out)]) == 0
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    assert written == sorted(["sum.json", *(prefix + s for s in (".csv", ".json", ".svg"))])


def test_summarize_refuses_a_diverged_training(tmp_path, capsys):
    # one epoch at learning rate 1e300 ends on a finite loss with latents
    # whose squared norms overflow: no summary is written
    scene = tmp_path / "scene"
    assert main(["generate", "--out", str(scene), "--frames", "60", "--seed", "0"]) == 0
    out = tmp_path / "summary.json"
    rc = main(["summarize", str(scene / "manifest.json"), "--k", "5", "--epochs", "1",
               "--lr", "1e300", "--out", str(out)])
    assert rc == 1
    assert "training diverged" in capsys.readouterr().err
    assert not out.exists()


def test_poses_beyond_the_bound_exit_1_without_a_warning(tmp_path, capsys):
    # a 40-frame scene whose pose file is scaled by 1e200 after it was written:
    # its squared pose distances would overflow in pose clustering and scoring
    scene = tmp_path / "scene"
    assert main(["generate", "--out", str(scene), "--frames", "40", "--seed", "0"]) == 0
    summary = tmp_path / "summary.json"
    assert main(["summarize", str(scene / "manifest.json"), "--method", "uniform", "--k", "5",
                 "--out", str(summary)]) == 0
    poses = load_dataset(scene / "manifest.json").poses * 1e200
    lines = ["frame,x,y,z"] + [f"{i},{x!r},{y!r},{z!r}" for i, (x, y, z) in enumerate(poses.tolist())]
    (scene / "poses.csv").write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["summarize", str(scene / "manifest.json"), "--method", "scenesum-supervised",
                     "--k", "5", "--out", str(tmp_path / "sup.json")]) == 1
        assert main(["evaluate", str(summary), str(scene / "manifest.json"),
                     "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert err.count("the pose of frame 0 has a coordinate beyond 1e+100 m") == 2
    assert not (tmp_path / "sup.json").exists() and not (tmp_path / "eval.csv").exists()


def test_evaluate_rejects_bad_grid(scene_dir, tmp_path):
    summary = tmp_path / "sum.json"
    assert main(["summarize", str(scene_dir / "manifest.json"), "--method", "uniform",
                 "--k", "3", "--out", str(summary)]) == 0
    assert main(["evaluate", str(summary), str(scene_dir / "manifest.json"),
                 "--r-max", "0", "--out", str(tmp_path / "e")]) == 2
    assert main(["evaluate", str(summary), str(scene_dir / "manifest.json"),
                 "--steps", "1", "--out", str(tmp_path / "e")]) == 2
    assert main(["sweep", str(scene_dir / "manifest.json"), "--methods", "uniform",
                 "--r-max", "0", "--out", str(tmp_path / "s.csv")]) == 2
    assert main(["sweep", str(scene_dir / "manifest.json"), "--methods", "uniform",
                 "--steps", "1", "--out", str(tmp_path / "s.csv")]) == 2


def test_evaluate_refuses_a_threshold_step_that_rounds_to_zero(scene_dir, tmp_path, capsys):
    # 1e-322 / 100 is 0.0 in floating point, so every threshold would be 0
    summary = tmp_path / "sum.json"
    assert main(["summarize", str(scene_dir / "manifest.json"), "--method", "uniform",
                 "--k", "3", "--out", str(summary)]) == 0
    capsys.readouterr()
    assert main(["evaluate", str(summary), str(scene_dir / "manifest.json"),
                 "--r-max", "1e-322", "--out", str(tmp_path / "e")]) == 1
    assert capsys.readouterr().err == "error: r_max / steps rounds to 0 (r_max 1e-322, steps 100)\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sum.json"]
    # the last threshold, 3 * (r_max / 3), rounds above the largest float
    assert main(["evaluate", str(summary), str(scene_dir / "manifest.json"),
                 "--r-max", "1.7976931348623157e308", "--steps", "3",
                 "--out", str(tmp_path / "e")]) == 1
    assert capsys.readouterr().err == ("error: the last threshold steps * (r_max / steps) overflows "
                                       "(r_max 1.7976931348623157e+308, steps 3)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sum.json"]


def test_summarize_refuses_a_batch_size_of_0(scene_dir, tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["summarize", str(scene_dir / "manifest.json"), "--batch-size", "0",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: batch_size must be an integer >= 1, got 0\n"
    assert not out.exists()


def test_summarize_supervised_refuses_an_empty_pose_cluster(tmp_path, capsys):
    # every pose is the same point, so k-means leaves pose clusters 1 and 2 empty
    feats = np.random.default_rng(3).normal(size=(30, 6))
    save_dataset(SceneDataset("still", feats, poses=np.zeros((30, 3))),
                 tmp_path / "scene" / "manifest.json")
    out = tmp_path / "sup.json"
    assert main(["summarize", str(tmp_path / "scene" / "manifest.json"),
                 "--method", "scenesum-supervised", "--k", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: pose cluster 1 is empty; "
                                       "cannot pick a ground-truth keyframe\n")
    assert not out.exists()


@st.composite
def _summary(draw):
    """Summary text for the 60-frame scene: a valid summary with up to two keys
    dropped or changed to a near-valid value or any JSON, or sometimes any text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text())
    frames = draw(st.lists(st.integers(0, 59), min_size=1, max_size=5, unique=True)
                  | st.lists(st.integers(-2, 62) | st.sampled_from([2**63, True, 1.0, 1.5, None]),
                             max_size=5))
    payload = {"method": "uniform", "k": len(frames), "frames": frames, "config": {}}
    faults = {"method": st.sampled_from(["", "x<&", "a\ud800"]),
              "k": st.sampled_from([len(frames) + 1, float(len(frames)), True]),
              "frames": st.sampled_from([[], [0, 0], [0, 60], [-1], [0.5]]), "config": st.none()}
    json_value = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                     max_size=3),
        max_leaves=6)
    for key in draw(st.lists(st.sampled_from(sorted(payload)), unique=True, max_size=2)):
        choice = draw(st.integers(0, 3))
        if choice == 0:
            del payload[key]
        else:
            payload[key] = draw(faults[key] if choice < 3 else json_value)
    return json.dumps(payload)


@settings(max_examples=300, deadline=None)
@given(_summary())
@example(json.dumps({"method": "x", "k": 2, "frames": [0, 5]}))
@example(json.dumps({"method": ["x"], "k": 2, "frames": [0, 5]}))
@example(json.dumps({"method": "x", "k": 0, "frames": []}))
@example(json.dumps({"method": "a\ud800", "k": 2, "frames": [0, 5]}))  # no UTF-8 encoding
@example(json.dumps({"method": "café 東京", "k": 2, "frames": [0, 5]}))
def test_evaluate_reads_a_summary_or_exits_1(scene_dir, text):
    with tempfile.TemporaryDirectory() as tmp:
        summary, out = Path(tmp) / "summary.json", Path(tmp) / "eval"
        summary.write_text(text, encoding="utf-8")
        rc = main(["evaluate", str(summary), str(scene_dir / "manifest.json"), "--svg",
                   "--out", str(out)])
        written = sorted(p.name for p in Path(tmp).iterdir())
    assert rc in (0, 1)
    if rc == 1:
        assert written == ["summary.json"]
        return
    # only a well-formed summary is scored: a method name, k distinct frames of the scene
    payload = json.loads(text)
    frames = payload["frames"]
    assert type(payload["method"]) is str
    assert all(type(f) is int and 0 <= f < 60 for f in frames)
    assert len(set(frames)) == len(frames) == payload["k"] >= 1
    assert type(payload["k"]) is int
    assert written == ["eval.csv", "eval.json", "eval.svg", "summary.json"]


def test_sweep_grid_layout(scene_dir, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", str(scene_dir / "manifest.json"), "--methods", "uniform,random,change",
               "--ks", "3,4", "--seeds", "0,1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,k,seed,auc,sd"
    assert len(lines) == 1 + 3 * 2 * 3  # header + methods x ks x (seeds + agg)

    rows = [ln.split(",") for ln in lines[1:]]
    uniform_k3 = [r for r in rows if r[0] == "uniform" and r[1] == "3"]
    seed_rows = [r for r in uniform_k3 if r[2] != "agg"]
    agg = [r for r in uniform_k3 if r[2] == "agg"][0]
    assert all(r[4] == "" for r in seed_rows)
    aucs = [float(r[3]) for r in seed_rows]
    assert abs(float(agg[3]) - np.mean(aucs)) < 1e-15
    assert float(agg[4]) == 0.0  # uniform ignores the seed


def test_sweep_agg_mean_and_sd_recompute(scene_dir, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", str(scene_dir / "manifest.json"), "--methods", "random",
               "--ks", "4", "--seeds", "0,1,2", "--out", str(out)])
    assert rc == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    aucs = [float(r[3]) for r in rows if r[2] != "agg"]
    agg = [r for r in rows if r[2] == "agg"][0]
    mean = sum(aucs) / len(aucs)
    sd = (sum((a - mean) ** 2 for a in aucs) / len(aucs)) ** 0.5
    assert float(agg[3]) == mean
    assert float(agg[4]) == sd


def test_sweep_runs_are_byte_identical(scene_dir, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", str(scene_dir / "manifest.json"), "--methods", "uniform,vsumm",
            "--ks", "3", "--seeds", "0,1"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_does_not_depend_on_thread_switching(scene_dir, tmp_path):
    # the sweep's two workers trade the interpreter lock every microsecond
    # instead of every 5 ms; the CSV must keep its bytes
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", str(scene_dir / "manifest.json"), "--methods", "vsumm,change,scenesum",
            "--ks", "2,5", "--seeds", "0,1,2,3,4,5", "--epochs", "2"]
    assert main(args + ["--out", str(a)]) == 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert main(args + ["--out", str(b)]) == 0
    finally:
        sys.setswitchinterval(interval)
    assert a.read_bytes() == b.read_bytes()


def test_sweep_equals_one_run_per_cell(tmp_path):
    # the sweep seeds vsumm once per seed at its largest k, scores uniform and
    # change once per k, and clusters scenesum on its shared Lloyd layout; each
    # cell must still be what a run of its own gives
    assert main(["generate", "--out", str(tmp_path / "scene"), "--frames", "300",
                 "--seed", "23"]) == 0
    manifest = tmp_path / "scene" / "manifest.json"
    methods, ks, seeds = ["vsumm", "uniform", "random", "change", "scenesum"], [3, 7, 12], [0, 1, 2]
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(manifest), "--methods", ",".join(methods),
                 "--ks", ",".join(map(str, ks)), "--seeds", ",".join(map(str, seeds)),
                 "--epochs", "2", "--out", str(out)]) == 0
    opts = {**_DEFAULTS, "epochs": 2}

    ds = load_dataset(manifest)
    lines = ["method,k,seed,auc,sd"]
    for method in methods:
        for k in ks:
            aucs = []
            for seed in seeds:
                frames = _run_method(ds, method, k, seed, opts)
                curve = metrics.divergence_curve(ds.pose_positions(frames), opts["r_max"],
                                                 opts["steps"])
                aucs.append(metrics.auc(curve))
                lines.append(f"{method},{k},{seed},{aucs[-1]!r},")
            mean = sum(aucs) / len(aucs)
            sd = (sum((a - mean) ** 2 for a in aucs) / len(aucs)) ** 0.5
            lines.append(f"{method},{k},agg,{mean!r},{sd!r}")
    assert out.read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("methods,ks,bad", [("vsumm", "3,61", 61), ("uniform,vsumm", "3,61", 61),
                                            ("vsumm", "0,3", 0), ("change", "61", 61)])
def test_sweep_rejects_k_outside_the_scene(scene_dir, tmp_path, capsys, methods, ks, bad):
    rc = main(["sweep", str(scene_dir / "manifest.json"), "--methods", methods, "--ks", ks,
               "--seeds", "0,1", "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: k must be in [1, 60], got {bad}\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("methods,ks,err", [
    ("scenesum,uniform", "20,61", "k must be in [1, 60], got 61"),
    ("uniform,scenesum-supervised", "3,1", "method scenesum-supervised needs k >= 2, got k=1"),
    ("uniform,scenesum", "3,x", "bad k list '3,x'"),
    ("uniform,scenesum", ",", "empty k list"),
])
def test_sweep_checks_every_cell_before_it_runs_any(scene_dir, tmp_path, capsys, monkeypatch,
                                                     methods, ks, err):
    def no_training(*args, **kwargs):
        raise AssertionError("a cell ran before every cell was checked")
    monkeypatch.setattr("scenesum.cli.train", no_training)
    rc = main(["sweep", str(scene_dir / "manifest.json"), "--methods", methods, "--ks", ks,
               "--seeds", "0,1", "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not (tmp_path / "s.csv").exists()


def test_sweep_stops_its_seeder_when_a_seeding_fails(scene_dir, tmp_path, capsys, monkeypatch):
    def fail_at_seed_2(x, k, seed):
        if seed == 2:
            raise ValueError("no seeding for seed 2")
        return kmeans_pp_rows(x, k, seed)
    monkeypatch.setattr("scenesum.cli.kmeans_pp_rows", fail_at_seed_2)
    threads = threading.active_count()
    rc = main(["sweep", str(scene_dir / "manifest.json"), "--methods", "uniform,vsumm",
               "--ks", "3,5", "--seeds", "0,1,2,3", "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: no seeding for seed 2\n"
    assert not (tmp_path / "s.csv").exists()
    assert threading.active_count() == threads


@pytest.mark.parametrize("failing,first,held", [
    (range(20), 0, None),  # every cell fails
    ((19,), 19, None),  # only the last cell fails
    ((7, 19), 7, None),  # two cells fail, in whichever order the workers reach them
    ((3, 12), 3, 3),  # cell 3 fails only once cell 12 has failed
], ids=["every-cell", "helper-only", "one-cell-each", "later-fails-first"])
def test_sweep_stops_its_seeder_when_a_cell_fails(scene_dir, tmp_path, capsys, monkeypatch,
                                                  failing, first, held):
    # whichever worker takes whichever cell, the earliest failing cell's error
    # is reported and no worker outlives the sweep
    failed = []
    last_failed = threading.Event()

    def pick(features, k, seed, *args):
        if seed not in failing:
            return vsumm_centroid(features, k, seed, *args)
        if seed == held:
            assert last_failed.wait(timeout=60)
        failed.append(seed)
        if seed == max(failing):
            last_failed.set()
        raise ValueError(f"no pick for seed {seed}")
    monkeypatch.setattr("scenesum.baselines.vsumm_centroid", pick)
    threads = threading.active_count()
    rc = main(["sweep", str(scene_dir / "manifest.json"), "--methods", "vsumm",
               "--ks", "3", "--seeds", ",".join(map(str, range(20))),
               "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: no pick for seed {first}\n"
    if held is not None:
        assert failed == [max(failing), held]
    assert not (tmp_path / "s.csv").exists()
    assert threading.active_count() == threads


def test_sweep_cannot_deadlock_on_its_seedings(scene_dir, tmp_path, monkeypatch):
    # Each vsumm cell waits for its seed's k-means++ rows.  Were the cells
    # submitted before the seedings, both workers would wait on cells whose
    # seedings no worker takes: the sweep then fails here instead of hanging,
    # and cancelling the tasks still queued lets the workers exit.
    from concurrent.futures import ThreadPoolExecutor
    pools = []

    class RecordedPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordedPool)
    rc = []
    sweep = threading.Thread(target=lambda: rc.append(main([
        "sweep", str(scene_dir / "manifest.json"), "--methods", "vsumm,uniform", "--ks", "3,5",
        "--seeds", "0,1,2", "--out", str(tmp_path / "s.csv")])))
    sweep.start()
    sweep.join(timeout=60)
    if sweep.is_alive():
        for pool in pools:
            pool.shutdown(wait=False, cancel_futures=True)
        sweep.join()
    assert len(pools) == 1 and rc == [0]


def test_sweep_runs_a_repeated_cell_once(scene_dir, tmp_path, monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append((fn.__name__, *args[1:3]))
            return fn(*args)
        return wrapper
    for name in ("vsumm_centroid", "random_summary", "change_detect_summary"):
        monkeypatch.setattr(f"scenesum.baselines.{name}", counted(getattr(baselines, name)))
    manifest = str(scene_dir / "manifest.json")
    once, repeated = tmp_path / "once.csv", tmp_path / "repeated.csv"
    assert main(["sweep", manifest, "--methods", "vsumm,random,change", "--ks", "3",
                 "--seeds", "0,1", "--out", str(once)]) == 0
    calls.clear()
    assert main(["sweep", manifest, "--methods", "vsumm,random,change,random", "--ks", "3,3",
                 "--seeds", "0,1,0", "--out", str(repeated)]) == 0
    assert sorted(calls) == [("change_detect_summary", 3), ("random_summary", 3, 0),
                             ("random_summary", 3, 1), ("vsumm_centroid", 3, 0),
                             ("vsumm_centroid", 3, 1)]
    rows = {tuple(line.split(",")[:3]): line for line in repeated.read_text().splitlines()}
    for line in once.read_text().splitlines()[1:]:
        if ",agg," not in line:
            assert rows[tuple(line.split(",")[:3])] == line


def test_sweep_without_vsumm_seeds_nothing(scene_dir, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr("scenesum.cli.kmeans_pp_rows", lambda *args: calls.append(args))
    threads = threading.active_count()
    assert main(["sweep", str(scene_dir / "manifest.json"), "--methods", "uniform,random,change",
                 "--ks", "3", "--seeds", "0,1", "--out", str(tmp_path / "s.csv")]) == 0
    assert calls == []
    assert threading.active_count() == threads


def _outputs_per_blas_thread_count(tmp_path, frames, command_args):
    # Each process fixes its BLAS thread count when numpy loads, so every run
    # gets its own interpreter.  command_args is a command and its options; the
    # manifest and --out are added.
    assert main(["generate", "--out", str(tmp_path / "scene"), "--frames", str(frames),
                 "--seed", "7"]) == 0
    src = str(Path(scenesum.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    command, *options = command_args
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"{command}-{threads}.out"
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "scenesum.cli", command,
                        str(tmp_path / "scene" / "manifest.json"), *options, "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outputs.append(out.read_bytes())
    return outputs


def test_summary_does_not_depend_on_the_blas_thread_count(tmp_path):
    summaries = _outputs_per_blas_thread_count(
        tmp_path, 120, ["summarize", "--method", "scenesum", "--k", "5", "--epochs", "5",
                        "--seed", "1"])
    assert summaries[0] == summaries[1]


def test_vsumm_does_not_depend_on_the_blas_thread_count(tmp_path):
    # 600 frames of dim 64 span several blocks of the k-means++ distance pass
    summaries = _outputs_per_blas_thread_count(
        tmp_path, 600, ["summarize", "--method", "vsumm", "--k", "20", "--seed", "2"])
    assert summaries[0] == summaries[1]


def test_sweep_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the sweep's two workers both call BLAS, each with one or two BLAS threads
    sweeps = _outputs_per_blas_thread_count(
        tmp_path, 600, ["sweep", "--methods", "vsumm,change,scenesum", "--ks", "5,20",
                        "--seeds", "0,1,2", "--epochs", "2", "--r-max", "10"])
    assert sweeps[0] == sweeps[1]


def test_sweep_rejects_unknown_method(scene_dir, tmp_path):
    rc = main(["sweep", str(scene_dir / "manifest.json"), "--methods", "uniform,bogus",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 2


def test_sweep_requires_poses(poseless_dir, tmp_path):
    rc = main(["sweep", str(poseless_dir / "manifest.json"), "--methods", "uniform",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 3


_FLAGS = {
    "generate": "--frames --dim --mode --seed --box-side --step-sigma --noise-sigma --out --config",
    "summarize": "--method --k --seed --epochs --lr --latent --batch-size --out --config",
    "evaluate": "--r-max --steps --svg --out --config",
    "sweep": "--methods --ks --seeds --r-max --steps --epochs --lr --latent --batch-size "
             "--out --config",
}


def _subparsers():
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_parser_options_are_the_command_table_keys(command):
    options = [a for a in _subparsers()[command]._actions if a.dest != "help" and a.option_strings]
    extra = {"out", "config"} | ({"svg"} if command == "evaluate" else set())
    assert {a.dest for a in options} == set(_COMMANDS[command].keys) | extra
    # one --key-with-dashes flag per key, and the same flags as ever
    assert all(a.option_strings == ["--" + a.dest.replace("_", "-")] for a in options)
    assert sorted(f for a in options for f in a.option_strings) == sorted(_FLAGS[command].split())


def test_every_default_belongs_to_a_command():
    assert sorted(_subparsers()) == sorted(_FLAGS)
    assert {key for c in _COMMANDS.values() for key in c.keys} == set(_DEFAULTS)


@pytest.mark.parametrize("argv, payload", [
    (["summarize", "{scene}", "--out", "{tmp}/x.json"], {"method": "nope"}),
    (["generate", "--out", "{tmp}/g"], {"mode": "nope"}),
    (["evaluate", "{tmp}/s.json", "{scene}", "--out", "{tmp}/e"], {"steps": 1}),
    (["evaluate", "{tmp}/s.json", "{scene}", "--out", "{tmp}/e"], {"r_max": 0}),
    (["sweep", "{scene}", "--methods", "uniform", "--out", "{tmp}/x.csv"], {"r_max": -1.5}),
    (["sweep", "{scene}", "--out", "{tmp}/x.csv"], {"methods": "uniform,nope"}),
], ids=["summarize-method", "generate-mode", "evaluate-steps", "evaluate-r-max", "sweep-r-max",
        "sweep-methods"])
def test_config_file_values_obey_the_option_rules(scene_dir, tmp_path, capsys, argv, payload):
    # choices and lower bounds hold for config file values as they do for flags
    (tmp_path / "cfg.json").write_text(json.dumps(payload))
    (tmp_path / "s.json").write_text(json.dumps({"method": "x", "k": 2, "frames": [0, 5]}))
    argv = [a.format(tmp=tmp_path, scene=scene_dir / "manifest.json") for a in argv]
    assert main(argv + ["--config", str(tmp_path / "cfg.json")]) == 2
    assert "must be" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "s.json"]


def test_outputs_are_utf8_whatever_the_locale(tmp_path):
    # Under an ASCII locale with UTF-8 mode off, a write that leaves the encoding
    # to the locale fails on a non-ASCII method name, and EncodingWarning (made
    # an error here) flags any open that names no encoding at all.
    src = str(Path(scenesum.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONCOERCECLOCALE": "0"}
    manifest, summary = str(tmp_path / "scene" / "manifest.json"), tmp_path / "summary.json"

    def cli(*argv):
        done = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                               "-W", "error::EncodingWarning", "-m", "scenesum.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    cli("generate", "--out", str(tmp_path / "scene"), "--frames", "60", "--dim", "8")
    cli("summarize", manifest, "--method", "uniform", "--k", "4", "--out", str(summary))
    payload = json.loads(summary.read_text(encoding="utf-8"))
    summary.write_text(json.dumps({**payload, "method": "café 東京"}), encoding="utf-8")
    cli("evaluate", str(summary), manifest, "--svg", "--out", str(tmp_path / "eval"))
    cli("sweep", manifest, "--methods", "uniform,change", "--out", str(tmp_path / "sweep.csv"))
    assert "café 東京" in (tmp_path / "eval.svg").read_bytes().decode("utf-8")


def test_cli_import_reaches_every_module():
    # A module the CLI never imports is reached by no command: give it a path or delete it.
    # The package itself must import nothing, or it would hide such a module.
    src = str(Path(scenesum.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import json, sys, scenesum; package = sorted(sys.modules); import scenesum.cli; "
            "print(json.dumps([package, sorted(sys.modules)]))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    package, loaded = (set(names) for names in json.loads(out))
    modules = {f"scenesum.{m.name}" for m in pkgutil.iter_modules(scenesum.__path__)}
    assert "scenesum.cli" in modules
    assert sorted(modules & package) == []
    assert sorted(modules - loaded) == []


def test_cli_import_loads_no_network_modules():
    # xml.sax.saxutils would pull in urllib.request, http.client and ssl on
    # every CLI call; the thread pool is imported by the sweep alone.
    src = str(Path(scenesum.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import json, sys, scenesum.cli; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out))
    assert sorted(loaded & {"ssl", "urllib.request", "http.client", "concurrent.futures"}) == []


def _scenesum_imports(tree):
    """{bound name: (module, name)} for a file's top-level imports from scenesum,
    relative or absolute; name is None when the bound name is itself a module."""
    imported = {}
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            source = node.module  # None for `from . import x`
        elif node.module == "scenesum" or (node.module or "").startswith("scenesum."):
            source = node.module.partition(".")[2] or None
        else:
            continue
        for a in node.names:
            imported[a.asname or a.name] = (source, a.name) if source else (a.name, None)
    return imported


def _refs(mod, node, imported):
    """(module, name) of every name a node refers to, as a name or as module.attr."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield imported.get(n.id, (mod, n.id))
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            target = imported.get(n.value.id)
            if target and target[1] is None:
                yield target[0], n.attr


def test_every_public_name_is_reached_from_the_cli_or_the_gates():
    # Walk the source, not the imports: a public function that only tests call is
    # loaded with its module, yet no command runs it.  The roots are every
    # top-level name of the CLI and every name the acceptance gates use.
    pkg = Path(scenesum.__file__).parent
    defs, imports = {}, {}  # (module, name) -> defining node; module -> its imports
    for path in sorted(pkg.glob("*.py")):
        mod, tree = path.stem, ast.parse(path.read_text())
        imports[mod] = _scenesum_imports(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for n in (n for t in targets for n in ast.walk(t)):
                    if isinstance(n, ast.Name):
                        defs[mod, n.id] = node

    gates = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    gate_imports = _scenesum_imports(gates)
    todo = [key for key in defs if key[0] == "cli"]
    todo += [*gate_imports.values(), *_refs("test_acceptance", gates, gate_imports)]
    reached = set()
    while todo:
        mod, name = key = todo.pop()
        if name is None or key in reached:
            continue
        reached.add(key)
        if name in imports.get(mod, {}):
            todo.append(imports[mod][name])
        elif key in defs:
            todo.extend(_refs(mod, defs[key], imports[mod]))
    unreached = sorted(f"{m}.{n}" for m, n in defs if not n.startswith("_")
                       and (m, n) not in reached)
    assert unreached == [], f"public names no command or gate reaches: {unreached}"


# ------------------------------------------------------------------ SVG chart


def test_svg_chart_has_one_polyline_and_escapes_text():
    svg = render_line_chart([0, 1, 2], [0.0, 0.5, 0.25], title="a < b", x_label="x",
                            y_label="y")
    assert svg.count("<polyline") == 1
    assert "a &lt; b" in svg
    svg = render_line_chart([0, 1], [0.0, 1.0], title="t", x_label="a < b & c > d",
                            y_label="y")
    assert ">a &lt; b &amp; c &gt; d</text>" in svg  # escaped once, not twice
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")


def test_svg_chart_needs_two_points():
    with pytest.raises(ValueError):
        render_line_chart([0], [1.0], title="t", x_label="x", y_label="y")
    with pytest.raises(ValueError):
        render_line_chart([0, 1], [1.0], title="t", x_label="x", y_label="y")
