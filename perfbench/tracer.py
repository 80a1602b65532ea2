"""In-memory span tracer that wraps the package's public functions from outside.

Nothing inside ``quditmaps`` is changed.  ``Tracer.install`` replaces each
traced function on the name its caller looks it up by (a module attribute,
or an entry of ``cli.COMMANDS``) with a wrapper that records a span; the
numpy eigensolver and QR kernels are wrapped on ``numpy.linalg``.
``Tracer.restore`` puts every original back.  Wrappers record only inside a
workload call opened with ``Tracer.call``, so the benchmark's own checks
never show up as spans.

A span is ``[name, layer, start, end, parent, call_id, book, attrs,
nested]``.  ``book`` is bookkeeping time spent after the span closed
(hashing sample draws); it is charged to no layer.  ``nested`` is true when
a span of the same name was already open, so a layer's ``.s`` counts each
interval once.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

CLI_COMMANDS = ("classify", "spectrum", "crossings", "area", "region",
                "trajectory", "apply", "verify")

# (metric, unit, better); the per_layer list of BENCHMARK.json mirrors this.
PER_LAYER = (
    [("linalg.sample.calls", "count", "lower"),
     ("linalg.sample.draws", "count", "lower"),
     ("linalg.sample.s", "s", "lower"),
     ("linalg.sample.unique_ratio", "ratio", "higher")]
    + [(f"linalg.eig.{c}.{k}", u, "lower")
       for c in ("state", "choi", "other")
       for k, u in (("matrices", "count"), ("s", "s"))]
    + [("linalg.eig.bytes_in", "bytes_computed", "lower")]
    + [(f"linalg.{f}.{k}", u, "lower")
       for f in ("expm", "null_space", "qr")
       for k, u in (("calls", "count"), ("s", "s"))]
    + [(f"channels.{f}.{k}", u, "lower")
       for f in ("build_phi_family", "choi", "family_fit")
       for k, u in (("calls", "count"), ("s", "s"))]
    + [("generators.build_generator.calls", "count", "lower"),
       ("generators.build_generator.s", "s", "lower")]
    + [(f"generators.{f}.{k}", u, "lower")
       for f in ("pair_oracle", "dissipativity_oracle", "ccp_oracle",
                 "spectrum_rates")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("generators.oracle_calls_per_solve", "count", "lower"),
       ("regions.classify_grid.calls", "count", "lower"),
       ("regions.classify_grid.points", "count", "higher"),
       ("regions.classify_grid.self_s", "s", "lower"),
       ("regions.classify_numeric.calls", "count", "lower"),
       ("regions.classify_numeric.self_s", "s", "lower"),
       ("regions.positivity_candidates.calls", "count", "lower"),
       ("regions.positivity_candidates.s", "s", "lower"),
       ("regions.schwarz_falsify.calls", "count", "lower"),
       ("regions.schwarz_falsify.s", "s", "lower"),
       ("dynamics.trajectory_point.calls", "count", "lower"),
       ("dynamics.trajectory_point.self_s", "s", "lower")]
    + [(f"dynamics.{f}.{k}", u, "lower")
       for f in ("alpha_beta_at", "map_at", "weyl_mixture_map",
                 "extract_time_local_generator", "crossing_times")
       for k, u in (("calls", "count"), ("s", "s"))]
    + [("verify.run_suite.calls", "count", "lower"),
       ("verify.run_suite.s", "s", "lower")]
    + [(f"cli.{c}.{k}", u, "lower")
       for c in CLI_COMMANDS
       for k, u in (("calls", "count"), ("s", "s"))]
    + [("cli.self_s", "s", "lower"),
       ("trace.spans", "count", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.overhead_share", "ratio", "lower")]
)

# metric -> (span name, statistic) for the metrics read straight off spans
_SPAN_METRICS = {
    m: tuple(m.rsplit(".", 1)) for m, _, _ in PER_LAYER
    if m.rsplit(".", 1)[1] in ("calls", "matrices", "s", "self_s") and m != "cli.self_s"
}
_EIG_KERNELS = ("eigvalsh", "eigh", "eigvals", "eig")


class Tracer:
    """Records spans of one workload pass; ``install`` / ``restore`` patch."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._open_names = Counter()
        self._call_id = None
        self._d = None
        self._seen = set()
        self._draws = 0
        self._patches = []

    # ----------------------------------------------------------- recording

    @contextmanager
    def call(self, call_id: int, kind: str, d):
        """Root span of one closed-loop workload call; ``d`` types eigensolves."""
        self._call_id, self._d = call_id, d
        idx = self._open("call", "bench", {"kind": kind})
        try:
            yield
        finally:
            self._close(idx)
            self._call_id = self._d = None

    @contextmanager
    def span(self, name: str, layer: str):
        """A span recorded from the benchmark's own code (e.g. ``cli.main``)."""
        idx = self._open(name, layer, None)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name, layer, attrs):
        parent = self._stack[-1] if self._stack else -1
        nested = self._open_names[name] > 0
        self.spans.append([name, layer, time.perf_counter(), None, parent,
                           self._call_id, 0.0, attrs, nested])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._open_names[name] += 1
        return idx

    def _close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()
        self._open_names[self.spans[idx][0]] -= 1

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr, name, layer, name_fn=None, after=None):
        is_dict = isinstance(owner, dict)
        orig = owner[attr] if is_dict else getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return orig(*args, **kwargs)
            idx = tracer._open(name_fn(args) if name_fn else name, layer, None)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                t0 = time.perf_counter()
                after(idx, args, kwargs, out)
                tracer.spans[idx][6] = time.perf_counter() - t0
            return out

        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def install(self):
        """Wrap every traced function on the name its caller uses."""
        from quditmaps import (channels, cli, dynamics, generators, linalg,
                               regions, verify)

        def sample_after(idx, args, kwargs, out):
            span = self.spans[idx]
            if span[8]:
                return  # ginibre inside random_traceless: counted once, outside
            batched = kwargs.get("n", args[2] if len(args) > 2 else None) is not None
            parts = out if isinstance(out, tuple) else (out,)
            rows = [np.ascontiguousarray(p).reshape(p.shape[0] if batched else 1, -1)
                    for p in parts]
            flat = np.ascontiguousarray(np.concatenate(rows, axis=1))
            keys = flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize)))
            self._seen.update(map(hash, keys.ravel().tolist()))
            self._draws += flat.shape[0]
            span[7] = {"draws": flat.shape[0]}

        # the names callers use: verify and linalg itself reach linalg.ginibre
        for owner, fns in ((linalg, ("ginibre",)), (regions, ("ginibre",)),
                           (generators, ("random_traceless", "haar_orthonormal_pair"))):
            for fn in fns:
                self._patch(owner, fn, "linalg.sample", "linalg", after=sample_after)

        def eig_name(args):
            n = np.shape(args[0])[-1]
            d = self._d
            if d is None:
                return "linalg.eig.other"
            if n <= d:
                return "linalg.eig.state"
            if n >= d * d - 1:
                return "linalg.eig.choi"
            return "linalg.eig.other"

        def eig_after(idx, args, kwargs, out):
            a = np.asarray(args[0])
            self.spans[idx][7] = {"matrices": int(np.prod(a.shape[:-2], dtype=int)),
                                  "bytes": int(a.nbytes)}

        for fn in _EIG_KERNELS:
            self._patch(np.linalg, fn, None, "linalg", name_fn=eig_name, after=eig_after)
        self._patch(np.linalg, "qr", "linalg.qr", "linalg")
        self._patch(dynamics, "expm", "linalg.expm", "linalg")
        self._patch(generators, "null_space", "linalg.null_space", "linalg")

        for owner in (channels, regions, dynamics, verify):
            self._patch(owner, "build_phi_family", "channels.build_phi_family", "channels")
        self._patch(channels, "choi_from_transfer", "channels.choi", "channels")
        self._patch(dynamics, "family_fit", "channels.family_fit", "channels")

        self._patch(generators, "build_generator", "generators.build_generator",
                    "generators")
        for owner in (generators, cli):
            for fn, name in (("is_conditionally_positive", "generators.pair_oracle"),
                             ("is_dissipative", "generators.dissipativity_oracle"),
                             ("is_ccp", "generators.ccp_oracle"),
                             ("spectrum_rates", "generators.spectrum_rates")):
                self._patch(owner, fn, name, "generators")

        def grid_after(idx, args, kwargs, out):
            self.spans[idx][7] = {"points": int(out["alphas"].size * out["betas"].size)}

        self._patch(regions, "classify_grid", "regions.classify_grid", "regions",
                    after=grid_after)
        for fn in ("classify_numeric", "positivity_candidates", "schwarz_falsify"):
            self._patch(regions, fn, f"regions.{fn}", "regions")

        for fn in ("trajectory_point", "alpha_beta_at", "map_at", "weyl_mixture_map",
                   "extract_time_local_generator", "crossing_times"):
            self._patch(dynamics, fn, f"dynamics.{fn}", "dynamics")

        self._patch(verify, "run_suite", "verify.run_suite", "verify")
        for cmd in CLI_COMMANDS:
            self._patch(cli.COMMANDS, cmd, f"cli.{cmd}", "cli")

    def restore(self):
        """Put every original function back, in reverse order of patching."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    @property
    def patched(self):
        """(owner, attribute, original) for every installed wrapper."""
        return list(self._patches)

    # ------------------------------------------------------------- metrics

    def layer_metrics(self, solves: int) -> dict:
        """Per-layer metrics of the recorded spans (one workload pass)."""
        children = defaultdict(float)
        for s in self.spans:
            if s[4] >= 0:
                children[s[4]] += (s[3] - s[2]) + s[6]
        calls = Counter()
        matrices = Counter()
        outer = defaultdict(float)
        self_time = defaultdict(float)
        layer_self = defaultdict(float)
        bytes_in = 0
        points = 0
        for i, (name, layer, t0, t1, _p, _c, _b, attrs, nested) in enumerate(self.spans):
            dur = t1 - t0
            own = dur - children[i]
            self_time[name] += own
            layer_self[layer] += own
            if name == "linalg.sample" and nested:
                continue
            calls[name] += 1
            if not nested:
                outer[name] += dur
            if attrs:
                matrices[name] += attrs.get("matrices", 0)
                bytes_in += attrs.get("bytes", 0)
                points += attrs.get("points", 0)
        out = {}
        for metric, (span, stat) in _SPAN_METRICS.items():
            out[metric] = {"calls": calls[span], "matrices": matrices[span],
                           "s": outer[span], "self_s": self_time[span]}[stat]
        out["linalg.sample.draws"] = self._draws
        out["linalg.sample.unique_ratio"] = (len(self._seen) / self._draws
                                             if self._draws else 0.0)
        out["linalg.eig.bytes_in"] = bytes_in
        out["regions.classify_grid.points"] = points
        oracle_calls = sum(calls[f"generators.{n}"] for n in
                           ("pair_oracle", "dissipativity_oracle", "ccp_oracle"))
        out["generators.oracle_calls_per_solve"] = oracle_calls / solves if solves else 0.0
        out["cli.self_s"] = layer_self["cli"]
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path):
        """Write the recorded spans as JSON lines."""
        keys = ("name", "layer", "start", "end", "parent", "call_id", "book",
                "attrs", "nested")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")
