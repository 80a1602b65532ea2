"""quditmaps benchmark: one command, three closed-loop single-client workloads.

    python3 perfbench/run.py --workload grid|bisect|session --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Every workload runs in fresh processes with the BLAS thread count pinned
to ``BLAS_THREADS``.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced pass next to an untraced
run of the same pass.  The last line of stdout is the result object; the
line before it holds the provenance of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracer import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid", "bisect", "session")
BLAS_THREADS = 1
SETUP_SAMPLES = 5        # fresh processes whose set-up time is timed; median reported
DEADLINE_S = 170.0       # whole run, all child processes included
OPS_NAME = {"grid": "points", "bisect": "solves", "session": "calls"}

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args, deadline):
    """Run worker.py with ``args``; returns its JSON and the spawn time."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise TimeoutError("benchmark deadline passed before a child could start")
    spawned = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                           "--root", ROOT] + args, env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().split("\n")[-1]), spawned


def provenance(args, worker):
    import numpy
    import scipy

    src = os.path.join(ROOT, "src", "quditmaps")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import quditmaps

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "quditmaps": quditmaps.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "closed_loop_clients": 1,
        "passes": worker["passes"],
        "input_mix": worker["mix"],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "quditmaps", "__init__.py")):
        print(f"error: no quditmaps package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                probe, spawned = run_child(common + ["--seconds", "0", "--setup-only"],
                                           deadline)
                setups.append((probe["ready_at"] - spawned) / probe["setup_slowdown"])
        worker, spawned = run_child(common + ["--seconds", str(args.seconds),
                                              "--trace", str(args.trace)], deadline)
        setups.append((worker["ready_at"] - spawned) / worker["setup_slowdown"])
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops_name = OPS_NAME[args.workload]
    if args.trace:
        metrics = {name: {"value": worker["layers"][name], "unit": unit}
                   for name, unit, _better in PER_LAYER}
        summary = {"outputs_identical_to_untraced": worker["identical"],
                   "spans_file": worker["spans_file"]}
        correct = worker["failed"] == 0 and worker["identical"]
    else:
        ops_per_s = worker["ops_per_s"]
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ops_per_s,
            "latency_p50_ms": worker["lat_p50_ms"],
            "latency_p90_ms": worker["lat_p90_ms"],
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        summary = {f"{args.workload}.{ops_name}_per_s": ops_per_s,
                   "setup_samples_s": setups, "calls": worker["calls"],
                   "measured_s": worker["wall_s"], "slowdown": worker["slowdown"],
                   f"raw.{args.workload}.{ops_name}_per_s": worker["raw_ops_per_s"]}
        correct = worker["failed"] == 0
    summary.update({"ops": worker["ops"], "ops_failed": worker["failed"],
                    "ops_are": ops_name, "failures": worker["failures"]})
    print(json.dumps({"provenance": provenance(args, worker), "summary": summary}))
    print(json.dumps({"correct": bool(correct), "attempted": worker["ops"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
