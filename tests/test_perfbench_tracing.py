"""The benchmark tracer's contract with the package.

perfbench/tracing.py wraps scenesum functions by name and reads fields of
what they return; a rename or a changed return type in the package would only
show when the benchmark runs.  This test loads the tracer file as it is,
installs it over the scenesum modules the way perfbench/worker.py does, and
runs one small traced summary.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from scenesum import baselines, cli, clustering, dataset, metrics, selector

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_sampled_row_of_a_traced_summary(tmp_path):
    tracing = _load_tracing()
    scene = tmp_path / "scene"
    assert cli.main(["generate", "--out", str(scene), "--frames", "60", "--dim", "8",
                     "--seed", "5"]) == 0
    k, n_sample = 3, 4
    tracer = tracing.Tracer()
    tracer.install({"baselines": baselines, "cli": cli, "clustering": clustering,
                    "dataset": dataset, "metrics": metrics, "selector": selector})
    try:
        rc = cli.main(["summarize", str(scene / "manifest.json"), "--method", "scenesum",
                       "--k", str(k), "--n-sample", str(n_sample), "--epochs", "2",
                       "--latent", "4", "--out", str(tmp_path / "summary.json")])
    finally:
        tracer.uninstall()
    assert rc == 0
    spans = tracer.summary()
    tracing.check_coverage(spans, ("cli.main", "cli.load_dataset", "cli.cluster_features",
                                   "clustering.kmeans", "clustering.balance_assignment",
                                   "cli.train", "selector.sample_cluster", "selector.adam_step",
                                   "cli.select_keyframes"))
    assert tracer.check_failures == []
    draws = spans["selector.sample_cluster"]["calls"]
    assert draws == 2 * 5  # two epochs of ceil(60 / (3 * 4)) steps
    layers = tracing.per_layer_metrics(spans, tracer.counters, 0.0)
    assert layers["clustering.sample_cluster.rows"]["value"] == draws * k * n_sample
    assert cli.cluster_features is clustering.cluster_features  # uninstalled
