"""One fresh process: set up a workload, run it closed loop, print one JSON line.

Started by ``run.py`` with the BLAS thread count already pinned in the
environment.  ``--setup-only`` stops at the moment the first timed call
would start, which is how ``run.py`` samples set-up time several times.

Untraced (``--trace 0``): passes run back to back until the next pass would
end after ``--seconds``; each pass gets fresh seeded inputs with the same
mix, and every call is preceded by a timed reference kernel that measures
the machine's current speed.  Traced (``--trace 1``): the same pass runs
untraced, then traced, in pairs, so the outputs can be compared and the
wall-time difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

# The machine is shared: other tenants move its speed by up to +-50% for
# minutes at a time.  A fixed reference kernel (a pure-Python loop plus a
# batch of small LAPACK eigensolves, covering both kinds of work the
# workloads do) is timed before every call; times are reported at the
# speed where the kernel takes REF_NOMINAL_S.  The constant only sets the
# unit, so it must never change between the commits being compared.
REF_NOMINAL_S = 3.0e-3
REF_SAMPLES_PER_PASS = 40
REF_SAMPLES_AT_SETUP = 30
MAX_FAILURES_SHOWN = 5
_REF_RNG = np.random.default_rng(0)
_REF_G = _REF_RNG.standard_normal((256, 8, 8)) + 1j * _REF_RNG.standard_normal((256, 8, 8))
REF_HERMITIAN = _REF_G + np.conj(np.swapaxes(_REF_G, -1, -2))


def reference_kernel() -> float:
    """Seconds one run of the fixed reference kernel takes right now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i
    np.linalg.eigvalsh(REF_HERMITIAN)
    return time.perf_counter() - t0


def load_package(root):
    """Import ``quditmaps`` from ``root/src`` and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import quditmaps
    import quditmaps.cli
    import quditmaps.verify  # noqa: F401  (cli reaches it as quditmaps.verify)

    if os.path.dirname(os.path.dirname(os.path.abspath(quditmaps.__file__))) != src:
        raise ImportError(f"quditmaps imported from {quditmaps.__file__}, not {src}")
    return quditmaps


def run_pass(wl, specs, tracer=None, ref_reps=0):
    """Run one pass closed loop; time each call, then check every output.

    ``ref_reps`` reference-kernel samples are taken before each call, outside
    its timing.
    """
    outs, lat, ref = [], [], []
    start = time.perf_counter()
    for i, spec in enumerate(specs):
        ref.extend(reference_kernel() for _ in range(ref_reps))
        c0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.execute(spec, None)
            else:
                with tracer.call(i, spec["kind"], spec["d"]):
                    out = wl.execute(spec, tracer)
            err = None
        except Exception as exc:  # a call that raises is a failed operation
            out, err = None, f"{type(exc).__name__}: {exc}"
        lat.append(time.perf_counter() - c0)
        outs.append((out, err))
    wall = time.perf_counter() - start
    ops = failed = 0
    failures = []
    for spec, (out, err) in zip(specs, outs):
        ops += spec["ops"]
        bad = spec["ops"] if err is not None else min(spec["ops"], wl.check(spec, out))
        failed += bad
        if bad and len(failures) < MAX_FAILURES_SHOWN:
            failures.append({"call": _describe(spec), "failed_ops": bad,
                             "error": err, "output": None if err else repr(out)[:500]})
    prints = [err if err is not None else wl.fingerprint(out) for out, err in outs]
    return {"wall": wall, "lat": lat, "ref": ref, "ops": ops, "failed": failed,
            "failures": failures, "prints": prints}


def _describe(spec):
    """A call spec without its bulky array inputs, for failure reports."""
    return {k: v for k, v in spec.items() if not isinstance(v, np.ndarray)}


def hd_quantile(xs, q):
    """Harrell-Davis quantile: a Beta-weighted mean of all order statistics.

    With few slots (grid 4, bisect 13) a plain quantile jumps whenever two
    slots near it swap order; this one moves smoothly.
    """
    from scipy.stats import beta

    xs = np.sort(np.asarray(xs, dtype=float))
    n = xs.size
    w = np.diff(beta.cdf(np.arange(n + 1) / n, (n + 1) * q, (n + 1) * (1 - q)))
    return float(w @ xs)


def measure(wl, rng, first, seconds):
    """Untraced passes; each slot of the pass mix is timed by its median pass.

    Every pass holds the same mix of (call kind, d) slots, so a slot's
    median over the run's passes is robust to bursts of load.  Throughput
    and latency quantiles are taken over those per-slot medians, then
    divided by the run's slowdown: mean reference-kernel time over
    ``REF_NOMINAL_S``.
    """
    ref_reps = -(-REF_SAMPLES_PER_PASS // len(first))
    passes = []
    specs = first
    t0 = time.perf_counter()
    while True:
        passes.append((specs, run_pass(wl, specs, ref_reps=ref_reps)))
        elapsed = time.perf_counter() - t0
        if elapsed + passes[-1][1]["wall"] > seconds:
            break
        specs = wl.make_pass(rng)
    by_slot = defaultdict(list)
    for specs, res in passes:
        for spec, lat in zip(specs, res["lat"]):
            by_slot[spec["slot"]].append(lat)
    typical = [statistics.median(v) for v in by_slot.values()]
    slowdown = statistics.fmean(r for _, res in passes for r in res["ref"]) / REF_NOMINAL_S
    ops_per_pass = passes[0][1]["ops"]
    return {
        "passes": len(passes),
        "ops": sum(res["ops"] for _, res in passes),
        "failed": sum(res["failed"] for _, res in passes),
        "failures": [f for _, res in passes for f in res["failures"]][:MAX_FAILURES_SHOWN],
        "calls": sum(len(res["lat"]) for _, res in passes),
        "wall_s": sum(res["wall"] for _, res in passes),
        "slowdown": slowdown,
        "raw_ops_per_s": ops_per_pass / sum(typical),
        "ops_per_s": ops_per_pass / sum(typical) * slowdown,
        "lat_p50_ms": hd_quantile(typical, 0.5) * 1e3 / slowdown,
        "lat_p90_ms": hd_quantile(typical, 0.9) * 1e3 / slowdown,
    }


def measure_traced(wl, specs, seconds, spans_path):
    """Pairs of an untraced and a traced pass on the same inputs."""
    from tracer import Tracer

    pairs, layers, overhead, share = 0, [], [], []
    ops = failed = 0
    failures = []
    identical = True
    saved = None
    t0 = time.perf_counter()
    while True:
        plain = run_pass(wl, specs)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(wl, specs, tracer)
        finally:
            tracer.restore()
        pairs += 1
        identical = identical and plain["prints"] == traced["prints"]
        ops += plain["ops"] + traced["ops"]
        failed += plain["failed"] + traced["failed"]
        failures += plain["failures"] + traced["failures"]
        layers.append(tracer.layer_metrics(wl.solves(specs)))
        overhead.append(traced["wall"] - plain["wall"])
        share.append(overhead[-1] / plain["wall"])
        if saved is None:
            saved = tracer
        elapsed = time.perf_counter() - t0
        if elapsed + plain["wall"] + traced["wall"] > seconds:
            break
    saved.write_spans(spans_path)
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(overhead)
    metrics["trace.overhead_share"] = statistics.median(share)
    return {"passes": 2 * pairs, "ops": ops, "failed": failed,
            "failures": failures[:MAX_FAILURES_SHOWN], "identical": identical,
            "layers": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    qm = load_package(args.root)
    scratch = os.path.join(args.root, ".perfbench_run")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        wl = WORKLOADS[args.workload](qm, workdir)
        rng = np.random.default_rng(args.seed)
        first = wl.make_pass(rng)
        ready_at = time.perf_counter()
        result = {"ready_at": ready_at,
                  "setup_slowdown": statistics.fmean(
                      reference_kernel() for _ in range(REF_SAMPLES_AT_SETUP)) / REF_NOMINAL_S}
        if not args.setup_only:
            if args.trace:
                spans = os.path.join(args.root, ".perfbench_out",
                                     f"spans-{args.workload}-seed{args.seed}.jsonl")
                os.makedirs(os.path.dirname(spans), exist_ok=True)
                result.update(measure_traced(wl, first, args.seconds, spans))
                result["spans_file"] = os.path.relpath(spans, args.root)
            else:
                result.update(measure(wl, rng, first, args.seconds))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["mix"] = wl.mix()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
