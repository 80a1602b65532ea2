"""The three closed-loop, single-client workloads and their output checks.

A workload turns a seeded ``numpy.random.Generator`` into passes: lists of
call specs whose cost does not depend on the seed (the seed picks order,
continuous parameters and the ``seed=`` values the program receives, never
the mix of call kinds and dimensions).  ``execute`` makes one call into the
package; ``check`` validates its output with invariants, never with stored
digests, so a change that legitimately alters a random stream still passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re

import numpy as np

MARGIN = 1e-6          # closed-form/oracle comparisons skip points this close to a boundary
ORACLE_TOL = 1e-9      # tolerance of the oracle verdicts, as in the acceptance tests


def _shuffled(specs, rng):
    """Number each spec's slot in the pass mix, then shuffle the call order."""
    for slot, spec in enumerate(specs):
        spec["slot"] = slot
    return [specs[i] for i in rng.permutation(len(specs))]


def _cli(cli, argv, tracer):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            rc = cli.main(argv)
        else:
            with tracer.span("cli.main", "cli"):
                rc = cli.main(argv)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# grid: regions.classify_grid over the standard padded grid
# ---------------------------------------------------------------------------

class Grid:
    """Batched oracle path of ``classify_grid``: one candidate set per call."""

    name = "grid"
    MIX = ((3, 41), (5, 25), (8, 13), (16, 4))  # (d, n): n x n grid points
    SAMPLE_BUDGET = 64

    def __init__(self, qm, workdir):
        self.regions = qm.regions

    def mix(self):
        return {"calls_per_pass": [{"d": d, "n": n} for d, n in self.MIX],
                "sample_budget": self.SAMPLE_BUDGET, "pad": 0.2}

    def make_pass(self, rng):
        specs = []
        for d, n in self.MIX:
            ax, bx = self.regions.default_grid(d, n)
            specs.append({"kind": "classify_grid", "d": d, "alphas": ax, "betas": bx,
                          "seed": int(rng.integers(2**31)), "ops": n * n})
        return _shuffled(specs, rng)

    def solves(self, specs):
        return 0

    def execute(self, spec, tracer):
        return self.regions.classify_grid(spec["d"], spec["alphas"], spec["betas"],
                                          sample_budget=self.SAMPLE_BUDGET,
                                          seed=spec["seed"], tol=ORACLE_TOL)

    def check(self, spec, res):
        """Failed points: margin-filtered disagreement, nesting, PPT vs EB."""
        bad = np.zeros(res["margin_cp"].shape, dtype=bool)
        for key in ("positive", "cp", "eb"):
            off = np.abs(res[f"margin_{key}"]) > MARGIN
            bad |= off & (res[f"closed_{key}"] != res[f"numeric_{key}"])
        bad |= res["closed_eb"] & ~res["closed_cp"]
        bad |= res["closed_cp"] & ~res["closed_positive"]
        ppt_tested = res["numeric_cp"] & (np.abs(res["margin_eb"]) > MARGIN)
        bad |= ppt_tested & ((res["pt_min"] >= -ORACLE_TOL) != res["closed_eb"])
        return int(bad.sum())

    def fingerprint(self, res):
        return [(k, np.asarray(v).tobytes()) for k, v in sorted(res.items())]


# ---------------------------------------------------------------------------
# bisect: oracle-only threshold bisection, as in the acceptance test c01
# ---------------------------------------------------------------------------

class Bisect:
    """Three oracles bisected to their thresholds; each solve reuses one seed."""

    name = "bisect"
    SOLVES = tuple((o, d) for d in (2, 3, 5, 8) for o in ("pair", "schwarz", "ccp")) \
        + (("ccp", 16),)
    BUDGET = 10_000
    TOL = 2e-4
    WIDTH = 0.1     # bracket width: ceil(log2(0.1 / 2e-4)) = 9 oracle calls per solve
    SHIFT = 0.03    # the bracket centre moves by up to this much around the threshold
    ACCEPT = 1e-3

    def __init__(self, qm, workdir):
        self.g = qm.generators

    def mix(self):
        return {"solves_per_pass": [{"oracle": o, "d": d} for o, d in self.SOLVES],
                "budget": self.BUDGET, "tolerance": self.TOL,
                "bracket_width": self.WIDTH, "bracket_shift": self.SHIFT,
                "accept": self.ACCEPT}

    @staticmethod
    def threshold(oracle, d):
        return {"pair": -1.0, "schwarz": -d / (d + 2.0), "ccp": 0.0}[oracle]

    def make_pass(self, rng):
        specs = []
        for oracle, d in self.SOLVES:
            centre = self.threshold(oracle, d) + float(rng.uniform(-self.SHIFT, self.SHIFT))
            specs.append({"kind": oracle, "d": d, "kappa": float(rng.uniform(0.5, 2.0)),
                          "lo": centre - self.WIDTH / 2, "hi": centre + self.WIDTH / 2,
                          "seed": int(rng.integers(2**31)), "ops": 1})
        return _shuffled(specs, rng)

    def solves(self, specs):
        return len(specs)

    def _above(self, spec, nu):
        g = self.g
        p = g.GenParams(spec["d"], spec["kappa"], nu)
        if spec["kind"] == "pair":
            return g.is_conditionally_positive(p, self.BUDGET, spec["seed"]).sampled_min \
                >= -ORACLE_TOL
        if spec["kind"] == "schwarz":
            rep = g.is_dissipative(p, self.BUDGET, spec["seed"])
            return min(rep.min_witness_eig, rep.min_sampled_eig) >= -ORACLE_TOL
        return g.is_ccp(p).min_eig_projected >= -ORACLE_TOL

    def execute(self, spec, tracer):
        lo, hi = spec["lo"], spec["hi"]
        while hi - lo > self.TOL:
            mid = 0.5 * (lo + hi)
            if self._above(spec, mid):
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    def check(self, spec, nu):
        # a bracket the oracle does not flip inside ends at an endpoint, which
        # lies at least WIDTH/2 - SHIFT from the threshold and so fails here
        return 0 if abs(nu - self.threshold(spec["kind"], spec["d"])) <= self.ACCEPT else 1

    def fingerprint(self, nu):
        return nu


# ---------------------------------------------------------------------------
# session: single entry-point calls, one at a time
# ---------------------------------------------------------------------------

D_ALL = tuple(range(2, 17))
SCHEDULES = ("const", "enm", "pdiv", "sdiv", "enm2", "weyl")
BOUNDARY_SCHEDULES = ("enm", "enm2", "weyl")   # ride the CP boundary: min Choi eig ~ 0
TRAJECTORY_STEPS = 4
WEYL_D = tuple(range(2, 9))    # weyl expm cost grows steeply with d and t
WEYL_T_MAX = 2.0
VERIFY_SUITES = ("linalg", "channels", "dynamics")
VERIFY_REPEATS = 3

# (kind, dimensions): one call of each kind at each dimension per pass
SESSION_KINDS = (
    [(k, D_ALL) for k in ("classify", "spectrum", "crossings", "area", "region", "apply")]
    + [(f"trajectory.{s}", WEYL_D if s == "weyl" else D_ALL) for s in SCHEDULES]
    + [(f"verify.{s}", (None,) * VERIFY_REPEATS) for s in VERIFY_SUITES]
    + [("extract", D_ALL), ("schwarz", D_ALL)]
)

_VERIFY_TAIL = re.compile(r"^(\d+)/(\d+) checks passed$")


def _h(d):
    return d / (d - 1.0)


def _nu_enm(d, t):
    e = math.exp(d * t)
    return -(d - 1.0) * (e - 1.0) / (e + d - 1.0)


def _cp_margin(d, alpha, beta):
    h = _h(d)
    return min(alpha, h - alpha, beta + alpha / d, h - (d + 1.0) * alpha / d - beta)


class Session:
    """Every entry point, one call at a time, d drawn over 2..16."""

    name = "session"
    KINDS = SESSION_KINDS
    CLASSIFY_BUDGET = 256
    SPECTRUM_BUDGET = 1000
    SCHWARZ_BUDGET = 200

    def __init__(self, qm, workdir):
        self.cli = qm.cli
        self.channels = qm.channels
        self.dynamics = qm.dynamics
        self.regions = qm.regions
        self.workdir = workdir
        self._files = 0

    def mix(self):
        return {"calls_per_pass": {k: len(ds) for k, ds in self.KINDS},
                "d_range": [D_ALL[0], D_ALL[-1]], "weyl_d_max": WEYL_D[-1],
                "weyl_t_max": WEYL_T_MAX, "trajectory_steps": TRAJECTORY_STEPS,
                "classify_budget": self.CLASSIFY_BUDGET,
                "spectrum_budget": self.SPECTRUM_BUDGET,
                "schwarz_budget": self.SCHWARZ_BUDGET}

    def make_pass(self, rng):
        specs = [self._spec(kind, d, rng) for kind, ds in self.KINDS for d in ds]
        return _shuffled(specs, rng)

    def solves(self, specs):
        return 0

    def _state_file(self, d, rng):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        self._files += 1
        path = os.path.join(self.workdir, f"state{self._files}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"d": d, "rho": [[float(z.real), float(z.imag)]
                                       for z in rho.reshape(-1)]}, fh)
        return path

    def _spec(self, kind, d, rng):
        # numbers go as --opt=value: argparse reads "--nu -2.9e-05" as two options
        u = rng.uniform
        seed = str(int(rng.integers(2**31)))
        spec = {"kind": kind, "d": d, "ops": 1}
        ds = str(d)
        if kind == "classify":
            lo, hi = -0.2, _h(d) + 0.2
            spec["argv"] = ["classify", "--d", ds, f"--alpha={u(lo, hi)!r}",
                            f"--beta={u(lo, hi)!r}", "--seed", seed,
                            "--budget", str(self.CLASSIFY_BUDGET)]
        elif kind == "spectrum":
            spec["argv"] = ["spectrum", "--d", ds, f"--kappa={u(0.5, 2.0)!r}",
                            f"--nu={u(max(-1.5, 1.0 - d), 1.0)!r}",
                            "--class", str(rng.choice(["positive", "schwarz", "kpos"])),
                            "--seed", seed, "--budget", str(self.SPECTRUM_BUDGET)]
        elif kind == "crossings":
            spec["argv"] = ["crossings", "--d", ds, f"--kappa={u(0.5, 2.0)!r}",
                            f"--nu={u(max(-1.8, 1.05 - d), 0.5)!r}"]
        elif kind == "area":
            spec["argv"] = ["area", "--d", ds]
        elif kind == "region":
            spec["format"] = str(rng.choice(["csv", "json"]))
            spec["argv"] = ["region", "--d", ds,
                            "--which", str(rng.choice(["p", "cp", "eb"])),
                            "--format", spec["format"]]
        elif kind == "apply":
            spec["argv"] = ["apply", "--d", ds, "--state", self._state_file(d, rng),
                            "--schedule", str(rng.choice(SCHEDULES[:5])),
                            f"--kappa={u(0.5, 2.0)!r}", f"--nu={u(-0.9, 1.0)!r}",
                            f"--t={u(0.0, 3.0)!r}"]
        elif kind.startswith("trajectory."):
            sched = kind.split(".")[1]
            t_max = WEYL_T_MAX if sched == "weyl" else u(0.5, 2.0)
            spec["argv"] = ["trajectory", "--d", ds, "--schedule", sched,
                            f"--kappa={u(0.5, 2.0)!r}", f"--nu={u(-1.5, 1.0)!r}",
                            f"--t-max={t_max!r}", "--steps", str(TRAJECTORY_STEPS)]
        elif kind.startswith("verify."):
            spec["argv"] = ["verify", "--suite", kind.split(".")[1], "--seed", seed]
        elif kind == "extract":
            # even d: the ENM schedule, odd d: a constant-rate semigroup
            spec["t"] = u(0.05, 0.4)
            if d % 2 == 0:
                spec.update(schedule="enm", kappa=1.0, nu=_nu_enm(d, spec["t"]))
            else:
                spec.update(schedule="const", kappa=u(0.5, 1.5), nu=u(-1.5, 1.0))
        elif kind == "schwarz":
            # even d: a CP point (no violation exists), odd d: a non-positive point
            spec["seed"] = int(seed)
            h = _h(d)
            if d % 2 == 0:
                while True:
                    alpha, beta = u(0.0, h), u(-1.0, h)
                    if _cp_margin(d, alpha, beta) > 0.02:
                        break
                spec.update(alpha=alpha, beta=beta, expect_violation=False)
            else:
                alpha = u(0.1, h - 0.1)
                spec.update(alpha=alpha, beta=-2.0 * alpha / d - u(0.05, 0.3),
                            expect_violation=True)
        else:
            raise ValueError(f"unknown session call kind {kind!r}")
        return spec

    def execute(self, spec, tracer):
        kind = spec["kind"]
        if "argv" in spec:
            return _cli(self.cli, spec["argv"], tracer)
        dy = self.dynamics
        d = spec["d"]
        if kind == "extract":
            sched = (dy.OptimalENM(d) if spec["schedule"] == "enm"
                     else dy.ConstantNu(d, spec["kappa"], spec["nu"]))
            rep = dy.extract_time_local_generator(lambda t: dy.map_at(sched, t), spec["t"])
            return rep.kappa_fit, rep.nu_fit, rep.residual, rep.condition_number
        m = self.channels.build_phi_family(
            self.channels.MapParams(d, spec["alpha"], spec["beta"]))
        return self.regions.schwarz_falsify(m, self.SCHWARZ_BUDGET, spec["seed"])

    def check(self, spec, out):
        try:
            return 0 if self._valid(spec, out) else 1
        except (ValueError, KeyError, IndexError, TypeError):
            return 1  # unparsable output

    def _valid(self, spec, out):
        kind, d = spec["kind"], spec["d"]
        if kind == "extract":
            kappa_fit, nu_fit, _resid, _cond = out
            return (abs(kappa_fit - spec["kappa"]) <= 1e-6 * max(1.0, spec["kappa"])
                    and abs(nu_fit - spec["nu"]) <= 1e-6 * max(1.0, abs(spec["nu"])))
        if kind == "schwarz":
            return (out is not None) == spec["expect_violation"]
        rc, text = out
        if rc != 0:
            return False
        if kind.startswith("trajectory."):
            lines = text.strip().split("\n")
            if lines[0] != "t,alpha,beta,positive,cp,eb,min_choi_eig":
                return False
            rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
            if len(rows) != TRAJECTORY_STEPS + 1 or any(len(r) != 7 for r in rows):
                return False
            if kind.split(".")[1] in BOUNDARY_SCHEDULES:
                return all(-1e-9 <= r[6] <= 1e-8 for r in rows)
            return True
        if kind.startswith("verify."):
            m = _VERIFY_TAIL.match(text.strip().split("\n")[-1])
            return m is not None and m.group(1) == m.group(2)
        if spec.get("format") == "csv":
            lines = text.strip().split("\n")
            pts = [[float(x) for x in line.split(",")] for line in lines[1:]]
            return lines[0] == "alpha,beta" and len(pts) >= 3 and all(len(p) == 2 for p in pts)
        payload = json.loads(text)
        if kind == "classify":
            return payload["agreement"] is True
        if kind == "region":
            return len(payload["vertices"]) >= 3
        if kind == "area":
            return all(abs(payload[k] - payload["shoelace"][k]) <= 1e-9
                       for k in ("P", "CP", "EB"))
        if kind == "apply":
            rho = np.asarray(payload["rho"], dtype=float)
            return rho.shape == (d * d, 2) and abs(rho[::d + 1, 0].sum() - 1.0) <= 1e-9
        return isinstance(payload, dict)   # spectrum, crossings: parsed

    def fingerprint(self, out):
        if isinstance(out, np.ndarray):
            return out.tobytes()
        return out


WORKLOADS = {w.name: w for w in (Grid, Bisect, Session)}
