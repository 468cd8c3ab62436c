"""scenesum benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload desk-k20 [--seed 23] [--seconds 30] [--trace 0|1]

Every pass runs in a fresh process (`worker.py`) that imports scenesum from the
checkout's `src/`, generates the workload's scene from the seed, and drives the
program through `scenesum.cli.main`.  Files go to a temporary directory under
`.bench_work/` in the checkout, removed at exit.

--trace 0 runs set-up probes, then one pass process that repeats the workload's
operations for --seconds (at least one round), and reports the end-to-end
metrics.  --trace 1 runs one untraced and one traced round, each in its own
process, and reports the per-layer metrics.  Pass processes get one BLAS/OpenMP
thread.
The last line of standard output is the result JSON; a human-readable table
goes to standard error.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import PER_LAYER_UNITS, per_layer_metrics
from worker import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
# One BLAS/OpenMP thread per pass: on a host of two shared vCPUs a second BLAS
# thread measures the neighbours, and the training loop's small matrices gain nothing.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0  # the whole run must end within 180 s
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "auc_rel_mean": "ratio",
                    "ops_ok_frac": "ratio"}


class PassError(RuntimeError):
    pass


def _check_definition() -> None:
    """BENCHMARK.json must name exactly the workloads and metrics this harness emits."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = (sorted(w["name"] for w in spec["workloads"]),
                sorted(m["name"] for m in spec["end_to_end"]),
                sorted(m["name"] for m in spec["per_layer"]))
    emitted = (sorted(WORKLOADS), sorted(END_TO_END_UNITS), sorted(PER_LAYER_UNITS))
    if declared != emitted:
        raise SystemExit(f"BENCHMARK.json declares {declared}, the harness emits {emitted}")


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _provenance(args) -> dict:
    import numpy as np

    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model, "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "threads_env": {v: os.environ.get(v) for v in THREAD_ENV},
        "pass_threads_env": THREAD_ENV,
        "git_commit": _git_commit(), "src_sha256": src.hexdigest(),
    }


def _run_pass(args, tmp: Path, tag: str, deadline: float, *flags: str) -> tuple[dict, float]:
    """Run worker.py once in a fresh process; returns its result and the set-up time."""
    work = tmp / tag
    work.mkdir()
    result_path = work / "result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(work), "--result", str(result_path), *flags]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, cwd=ROOT,
                              env=os.environ | THREAD_ENV, timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{tag}: still running at the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0 or not result_path.is_file():
        raise PassError(f"{tag}: worker exited with {proc.returncode} and no result")
    result = json.loads(result_path.read_text())
    shutil.rmtree(work)
    if "coverage_error" in result:
        raise PassError(f"{tag}: span coverage: {result['coverage_error']}")
    # Set-up time at the reference host speed, like the operations (see worker.py).
    return result, (result["t_first_op"] - t_spawn) * result["setup_speed"]


def _end_to_end(args, tmp: Path, deadline: float) -> tuple[list[dict], dict]:
    setups = [_run_pass(args, tmp, f"setup{i}", deadline, "--setup-only")[1]
              for i in range(SETUP_PROBES)]
    result, setup = _run_pass(args, tmp, "pass", deadline, "--window", str(args.seconds))
    setups.append(setup)
    aucs = result["aucs"]
    auc_mean = statistics.fmean(aucs) if aucs else None  # None only when every check failed
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": result["wall_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "auc_rel_mean": auc_mean and auc_mean / result["reference_auc"],
        "ops_ok_frac": 1.0 - result["failed"] / result["attempted"],
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    detail = {"ops_failed_frac": result["failed"] / result["attempted"], "auc_mean": auc_mean,
              "reference_auc": result["reference_auc"], "setups_s": setups,
              "wall_raw_s": result["wall_raw_s"], "calibration_s": result["calibration_s"],
              "rounds": result["rounds"], "executions": result["executions"]}
    return [result], {"metrics": metrics, "detail": detail}


def _traced(args, tmp: Path, deadline: float) -> tuple[list[dict], dict]:
    plain, _ = _run_pass(args, tmp, "untraced", deadline)
    traced, _ = _run_pass(args, tmp, "traced", deadline, "--trace")
    overhead = traced["wall_raw_s"] / plain["wall_raw_s"] - 1.0
    metrics = per_layer_metrics(traced["spans"], traced["counters"], overhead)
    detail = {"spans": traced["spans"], "untraced_wall_raw_s": plain["wall_raw_s"],
              "traced_wall_raw_s": traced["wall_raw_s"]}
    return [plain, traced], {"metrics": metrics, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=23, help="scene seed; 23 is the acceptance scene")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring window for --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "scenesum" / "cli.py").is_file():
        print(f"error: no scenesum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _check_definition()
    provenance = _provenance(args)

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        measure = _traced if args.trace else _end_to_end
        passes, report = measure(args, tmp, deadline)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems = [msg for p in passes for msg in p["failures"]]
    digests = sorted({p["digest"] for p in passes})
    if len(digests) > 1:
        problems.append(f"passes chose different keyframes: digests {digests}")
    if any(p["aucs"] != passes[0]["aucs"] for p in passes):
        problems.append("passes report different AUCs")
    provenance["summary_digest"] = digests[0]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted - failed}/{attempted} operations passed their checks", file=sys.stderr)
    for name, metric in report["metrics"].items():
        print(f"  {name:40s} {metric['value']!s:>20} {metric['unit']}", file=sys.stderr)
    for name, value in report["detail"].items():
        if not isinstance(value, dict):
            print(f"  {name:40s} {value}", file=sys.stderr)

    print(json.dumps({"provenance": provenance, "detail": report["detail"]}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
