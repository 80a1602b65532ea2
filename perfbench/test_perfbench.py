"""Tests of the benchmark itself, on small seeded inputs.

    python -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads
from tracer import PER_LAYER, Tracer
from worker import load_package, run_pass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QM = load_package(ROOT)

COUNT_UNITS = ("count", "bytes_computed")
COUNT_METRICS = [n for n, u, _ in PER_LAYER if u in COUNT_UNITS] + ["linalg.sample.unique_ratio"]


class SmallGrid(workloads.Grid):
    MIX = ((3, 9), (16, 2))


class SmallBisect(workloads.Bisect):
    SOLVES = (("pair", 3), ("schwarz", 3), ("ccp", 3))
    BUDGET = 200


class SmallSession(workloads.Session):
    KINDS = ([(k, (2, 3)) for k, _ in workloads.SESSION_KINDS
              if not k.startswith(("verify.", "trajectory.weyl"))]
             + [("trajectory.weyl", (2,)), ("verify.linalg", (None,))])


SMALL = {"grid": SmallGrid, "bisect": SmallBisect, "session": SmallSession}


@pytest.fixture(params=sorted(SMALL))
def small(request, tmp_path):
    wl = SMALL[request.param](QM, str(tmp_path))
    return wl, wl.make_pass(np.random.default_rng(7))


def traced_pass(wl, specs):
    tracer = Tracer()
    tracer.install()
    try:
        out = run_pass(wl, specs, tracer)
    finally:
        tracer.restore()
    return out, tracer


def test_traced_outputs_identical_to_untraced(small):
    wl, specs = small
    plain = run_pass(wl, specs)
    traced, tracer = traced_pass(wl, specs)
    assert plain["failed"] == 0 and traced["failed"] == 0
    assert plain["prints"] == traced["prints"]
    assert tracer.spans


def test_every_wrapper_restored(small):
    wl, specs = small
    tracer = Tracer()
    originals = []
    tracer.install()
    try:
        for owner, attr, orig in tracer.patched:
            current = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
            assert current is not orig
            originals.append((owner, attr, orig))
        run_pass(wl, specs, tracer)
    finally:
        tracer.restore()
    assert originals
    for owner, attr, orig in originals:
        current = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        assert current is orig, attr


def test_count_metrics_repeat_exactly(small):
    wl, specs = small
    first = traced_pass(wl, specs)[1].layer_metrics(wl.solves(specs))
    second = traced_pass(wl, specs)[1].layer_metrics(wl.solves(specs))
    assert {k: first[k] for k in COUNT_METRICS} == {k: second[k] for k in COUNT_METRICS}


def test_layer_metrics_cover_per_layer_list(small):
    wl, specs = small
    got = traced_pass(wl, specs)[1].layer_metrics(wl.solves(specs))
    trace_only = {"trace.overhead_s", "trace.overhead_share"}
    assert set(got) == {n for n, _, _ in PER_LAYER} - trace_only


def test_checks_catch_wrong_outputs(tmp_path):
    grid = SmallGrid(QM, str(tmp_path))
    spec = grid.make_pass(np.random.default_rng(1))[0]
    res = dict(grid.execute(spec, None))
    assert grid.check(spec, res) == 0
    res["numeric_cp"] = ~res["numeric_cp"]
    assert grid.check(spec, res) > 0

    bis = SmallBisect(QM, str(tmp_path))
    spec = bis.make_pass(np.random.default_rng(1))[0]
    assert bis.check(spec, bis.threshold(spec["kind"], spec["d"]) + 5e-4) == 0
    assert bis.check(spec, bis.threshold(spec["kind"], spec["d"]) + 2e-3) == 1
    assert bis.check(spec, spec["lo"]) == 1

    ses = SmallSession(QM, str(tmp_path))
    specs = {s["kind"]: s for s in ses.make_pass(np.random.default_rng(1))}
    traj = specs["trajectory.enm"]
    rc, text = ses.execute(traj, None)
    assert ses.check(traj, (rc, text)) == 0
    assert ses.check(traj, (rc, "\n".join(text.split("\n")[:-2]))) == 1
    assert ses.check(traj, (2, text)) == 1
    assert ses.check(specs["classify"], (0, "not json")) == 1


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [tuple(m) for m in PER_LAYER]


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
