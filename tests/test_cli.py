"""End-to-end tests for the command line interface and the SVG chart emitter."""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scenesum
from scenesum.cli import main
from scenesum.dataset import Pose, SceneDataset, save_dataset
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


def test_no_command_is_a_usage_error():
    assert main([]) == 2


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
    assert payload["config"]["k"] == 4


def test_summarize_scenesum(scene_dir, tmp_path):
    out = tmp_path / "scenesum.json"
    rc = main(["summarize", str(scene_dir / "manifest.json"), "--method", "scenesum",
               "--k", "3", "--epochs", "20", "--latent", "6", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "scenesum"
    assert len(set(payload["frames"])) == 3
    assert payload["config"]["epochs"] == 20


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
    assert len(json.loads(out.read_text())["frames"]) == 3


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
    manifest.write_text(json.dumps(payload))
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
    cfg.write_text("[1, 2]")
    rc = main(["summarize", str(scene_dir / "manifest.json"), "--config", str(cfg),
               "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_config_file_rejects_unknown_keys(scene_dir, tmp_path):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"epoch": 1}))
    rc = main(["summarize", str(scene_dir / "manifest.json"), "--method", "uniform",
               "--config", str(cfg), "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert not (tmp_path / "x.json").exists()


def _coincident_scene(tmp_path):
    feats = np.random.default_rng(2).normal(size=(4, 3)).astype(np.float32)
    poses = [Pose(2.0, 2.0, 0.0)] * 4
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


@pytest.mark.parametrize("frames", [[3, 3, 3], [1.7, 5], [True, 4]])
def test_evaluate_rejects_malformed_frames(scene_dir, tmp_path, frames):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"method": "x", "k": len(frames), "frames": frames}))
    rc = main(["evaluate", str(bad), str(scene_dir / "manifest.json"),
               "--out", str(tmp_path / "e")])
    assert rc == 1
    assert not (tmp_path / "e.json").exists()


def test_evaluate_rejects_non_object_summary(scene_dir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("5")
    rc = main(["evaluate", str(bad), str(scene_dir / "manifest.json"),
               "--out", str(tmp_path / "e")])
    assert rc == 1


def test_evaluate_rejects_bad_grid(scene_dir, tmp_path):
    summary = tmp_path / "sum.json"
    assert main(["summarize", str(scene_dir / "manifest.json"), "--method", "uniform",
                 "--k", "3", "--out", str(summary)]) == 0
    assert main(["evaluate", str(summary), str(scene_dir / "manifest.json"),
                 "--r-max", "0", "--out", str(tmp_path / "e")]) == 2
    assert main(["evaluate", str(summary), str(scene_dir / "manifest.json"),
                 "--steps", "1", "--out", str(tmp_path / "e")]) == 2


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


def test_sweep_rejects_unknown_method(scene_dir, tmp_path):
    rc = main(["sweep", str(scene_dir / "manifest.json"), "--methods", "uniform,bogus",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 2


def test_sweep_requires_poses(poseless_dir, tmp_path):
    rc = main(["sweep", str(poseless_dir / "manifest.json"), "--methods", "uniform",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 3


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


# ------------------------------------------------------------------ SVG chart


def test_svg_chart_has_one_polyline_and_escapes_text():
    svg = render_line_chart([0, 1, 2], [0.0, 0.5, 0.25], title="a < b", x_label="x",
                            y_label="y")
    assert svg.count("<polyline") == 1
    assert "a &lt; b" in svg
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")


def test_svg_chart_needs_two_points():
    with pytest.raises(ValueError):
        render_line_chart([0], [1.0], title="t", x_label="x", y_label="y")
    with pytest.raises(ValueError):
        render_line_chart([0, 1], [1.0], title="t", x_label="x", y_label="y")
