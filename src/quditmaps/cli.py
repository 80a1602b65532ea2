"""Command-line interface.

Subcommands: classify, region, area, trajectory, crossings, spectrum,
verify, apply.  All floating-point output uses 12 significant digits and
runs are deterministic given (seed, arguments).

Exit codes: 0 success, 1 property failure, 2 usage error, 3 closed-form /
oracle disagreement beyond the margin filter.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass, fields

import numpy as np

from . import dynamics, regions, verify
from .channels import MapParams, apply as apply_map, state_from_json, state_to_json
from .errors import QuditMapsError
from .generators import (
    GenParams,
    is_ccp,
    is_conditionally_positive,
    is_dissipative,
    spectrum_rates,
)
from .regions import MARGIN_FILTER

ENV_SEED = "QUDITMAPS_SEED"

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_USAGE = 2
EXIT_DISAGREEMENT = 3


@dataclass
class RunConfig:
    tolerance: float = 1e-9
    seed: int = 42
    sample_budget: int = 10_000
    output_path: str | None = None


def _fmt(x: float) -> str:
    return f"{float(x) + 0.0:.12g}"  # +0.0 normalizes -0.0


def _round12(obj):
    """Round every float to 12 significant digits; non-finite floats become None."""
    if isinstance(obj, (float, np.floating)):
        return float(_fmt(obj)) if np.isfinite(obj) else None  # JSON has no inf/nan
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _emit(text: str, output: str | None):
    if output:
        # a sibling temp file renamed over the target: a failed write leaves it as it was
        try:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(output)),
                                       prefix=".quditmaps-", suffix=".tmp")
        except OSError as exc:
            raise QuditMapsError(f"cannot write {output}: {exc.strerror}") from None
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.chmod(tmp, 0o666 & ~_umask())  # the mode open(output, "w") would give
            os.replace(tmp, output)
        except BaseException:
            os.unlink(tmp)
            raise
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(payload, output: str | None):
    _emit(json.dumps(_round12(payload), indent=2, allow_nan=False), output)


def _load_json_object(path: str, what: str) -> dict:
    """The JSON object in a file; malformed JSON or a non-object is a usage error."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise QuditMapsError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise QuditMapsError(f"{what} {path} must hold a JSON object")
    return data


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_config(cfg: RunConfig) -> RunConfig:
    """Each resolved value has its type and range; any other is a usage error."""
    if not _is_int(cfg.seed) or cfg.seed < 0:
        raise QuditMapsError(f"seed must be an integer >= 0, got {cfg.seed!r}")
    most = np.iinfo(np.intp).max  # numpy shapes no more samples than this
    if not _is_int(cfg.sample_budget) or not 0 <= cfg.sample_budget <= most:
        raise QuditMapsError(
            f"sampling budget must be an integer in [0, {most}], got {cfg.sample_budget!r}")
    tol = cfg.tolerance
    if (isinstance(tol, bool) or not isinstance(tol, (int, float)) or not math.isfinite(tol)
            or tol < 0):
        raise QuditMapsError(f"tolerance must be a finite number >= 0, got {tol!r}")
    if cfg.output_path is not None and not isinstance(cfg.output_path, str):
        raise QuditMapsError(f"output path must be a string, got {cfg.output_path!r}")
    return cfg


def _load_config(args) -> RunConfig:
    """Defaults, then QUDITMAPS_SEED, then the --config file, then the options."""
    cfg = RunConfig()
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise QuditMapsError(f"{ENV_SEED} must be an integer, got {env_seed!r}") from None
    if args.config:
        data = _load_json_object(args.config, "config file")
        for f in fields(cfg):
            if f.name in data:
                setattr(cfg, f.name, data[f.name])
    for option, key in (("seed", "seed"), ("budget", "sample_budget"),
                        ("tolerance", "tolerance"), ("output", "output_path")):
        if getattr(args, option, None) is not None:
            setattr(cfg, key, getattr(args, option))
    return _check_config(cfg)


class _Parser(argparse.ArgumentParser):
    """Reads ``-2.9e-05`` as a negative number, as argparse already reads ``-0.5``.

    Subparsers are made of the parent's class, so every float option takes
    the exponent form after a space.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quditmaps",
        description="Positivity classes, region geometry, and non-Markovian "
                    "dynamics of the qudit dephasing/depolarizing map family.",
    )
    parser.add_argument("--config", help="JSON RunConfig with defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, d_required=True):
        sp.add_argument("--d", type=int, required=d_required, help="qudit dimension")
        sp.add_argument("--output", default=None, help="write to file instead of stdout")

    def const_rates(sp):
        # every schedule accepts them, as perfbench/workloads.py passes them to all
        sp.add_argument("--kappa", type=float, default=1.0,
                        help="rate kappa; read only by --schedule const")
        sp.add_argument("--nu", type=float, default=0.0,
                        help="nu; read only by --schedule const")

    def sampling(sp):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--budget", type=int, default=None, help="sampling budget")

    sp = sub.add_parser("classify", help="closed-form and oracle region membership")
    common(sp)
    sampling(sp)
    sp.add_argument("--tolerance", type=float, default=None)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)

    sp = sub.add_parser("region", help="region polygon vertices")
    common(sp)
    sp.add_argument("--which", required=True, choices=["p", "cp", "eb", "P", "CP", "EB"])
    sp.add_argument("--format", choices=["csv", "json"], default="csv")

    sp = sub.add_parser("area", help="closed-form and shoelace region areas")
    common(sp)

    sp = sub.add_parser("trajectory", help="(alpha(t), beta(t)) trajectory CSV")
    common(sp)
    sp.add_argument("--schedule", required=True, choices=list(dynamics.SCHEDULES))
    const_rates(sp)
    sp.add_argument("--t-max", type=float, required=True, dest="t_max")
    sp.add_argument("--steps", type=int, required=True)

    sp = sub.add_parser("crossings", help="region entry times of the semigroup")
    common(sp)
    sp.add_argument("--kappa", type=float, required=True)
    sp.add_argument("--nu", type=float, required=True)

    sp = sub.add_parser("spectrum", help="relaxation rates and the rate bound")
    common(sp)
    sampling(sp)
    sp.add_argument("--kappa", type=float, required=True)
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--class", dest="positivity_class", default="kpos",
                    choices=["positive", "schwarz", "kpos"])

    sp = sub.add_parser("verify", help="run the invariants battery")
    sp.add_argument("--suite", default="all",
                    choices=["all"] + sorted(verify.SUITES))
    sampling(sp)
    sp.add_argument("--output", default=None)

    sp = sub.add_parser("apply", help="evolve a JSON state under a schedule")
    common(sp, d_required=False)
    sp.add_argument("--state", required=True, help="path to a JSON state file")
    sp.add_argument("--schedule", required=True, choices=list(dynamics.SCHEDULES))
    const_rates(sp)
    sp.add_argument("--t", type=float, required=True)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parsing leaves it unchanged, so ``main`` reuses it."""
    return build_parser()


def _verdict_payload(v: regions.RegionVerdict) -> dict:
    return {
        "positive": bool(v.positive),
        "cp": bool(v.completely_positive),
        "eb": bool(v.entanglement_breaking),
        "margins": {
            "positive": v.margin_positive,
            "cp": v.margin_cp,
            "eb": v.margin_eb,
        },
    }


def cmd_classify(args, cfg) -> int:
    p = MapParams(args.d, args.alpha, args.beta)
    closed = regions.classify_point(p)
    oracle = regions.classify_numeric(p, sample_budget=cfg.sample_budget,
                                      seed=cfg.seed, tol=cfg.tolerance)
    disagree = []
    for key, c_flag, o_flag, margin in (
        ("positive", closed.positive, oracle.positive, closed.margin_positive),
        ("cp", closed.completely_positive, oracle.completely_positive, closed.margin_cp),
        ("eb", closed.entanglement_breaking, oracle.entanglement_breaking, closed.margin_eb),
    ):
        if abs(margin) > MARGIN_FILTER and c_flag != o_flag:
            disagree.append(key)
    payload = {
        "d": args.d,
        "alpha": args.alpha,
        "beta": args.beta,
        "closed_form": _verdict_payload(closed),
        "oracle": _verdict_payload(oracle),
        "margins": _verdict_payload(closed)["margins"],
        "agreement": not disagree,
        "disagreements": disagree,
    }
    _emit_json(payload, cfg.output_path)
    return EXIT_OK if not disagree else EXIT_DISAGREEMENT


def cmd_region(args, cfg) -> int:
    poly = regions.region_polygon(args.which.upper(), args.d)
    if args.format == "json":
        _emit_json({"which": poly.which, "d": poly.d,
                    "vertices": [list(v) for v in poly.vertices]}, cfg.output_path)
    else:
        _emit(regions.polygon_csv(poly), cfg.output_path)
    return EXIT_OK


def cmd_area(args, cfg) -> int:
    payload = {}
    shoelace = {}
    for which in regions.REGIONS:
        rep = regions.region_area(which, args.d)
        payload[which] = rep.closed_form
        shoelace[which] = rep.shoelace
    payload["shoelace"] = shoelace
    _emit_json(payload, cfg.output_path)
    return EXIT_OK


def cmd_trajectory(args, cfg) -> int:
    if args.steps < 0:
        raise QuditMapsError(f"--steps must be >= 0, got {args.steps}")
    if not (math.isfinite(args.t_max) and args.t_max >= 0):
        raise QuditMapsError(f"--t-max must be a finite number >= 0, got {args.t_max}")
    sched = dynamics.schedule_from_name(args.schedule, args.d, args.kappa, args.nu)
    tr = dynamics.trajectory(sched, np.linspace(0.0, args.t_max, args.steps + 1))
    lines = ["t,alpha,beta,positive,cp,eb,min_choi_eig"]
    for t, alpha, beta, pos, cp, eb, choi_min in zip(*(
            column.tolist() for column in (tr.t, tr.alpha, tr.beta, tr.positive,
                                           tr.completely_positive,
                                           tr.entanglement_breaking, tr.min_choi_eig))):
        lines.append(f"{_fmt(t)},{_fmt(alpha)},{_fmt(beta)},"
                     f"{int(pos)},{int(cp)},{int(eb)},{_fmt(choi_min)}")
    _emit("\n".join(lines) + "\n", cfg.output_path)
    return EXIT_OK


def cmd_crossings(args, cfg) -> int:
    rep = dynamics.crossing_times(args.d, args.kappa, args.nu)
    payload = {
        "t_P": rep.t_p,
        "t_CP": rep.t_cp,
        "t_EB": rep.t_eb,
        "margins": rep.margins,
        "horizon": rep.horizon,
    }
    _emit_json(payload, cfg.output_path)
    return EXIT_OK


def cmd_spectrum(args, cfg) -> int:
    cls = {"kpos": "kpositive"}.get(args.positivity_class, args.positivity_class)
    params = GenParams(args.d, args.kappa, args.nu)
    rep = spectrum_rates(params, cls)
    pair = is_conditionally_positive(params, cfg.sample_budget, cfg.seed)
    dis = is_dissipative(params, cfg.sample_budget, cfg.seed)
    ccp = is_ccp(params)
    payload = {
        "d": rep.d,
        "gamma_diag": rep.gamma_diag,
        "gamma_offdiag": rep.gamma_offdiag,
        "gamma_total": rep.gamma_total,
        "gamma_max": rep.gamma_max,
        "class": rep.positivity_class,
        "c_d": rep.c_d,
        "bound_satisfied": rep.bound_satisfied,
        "bound_saturated": rep.bound_saturated,
        "class_tests": {
            "positive": {"closed_form": pair.closed_form,
                         "sampled": pair.sampled_min,
                         "seed": cfg.seed, "budget": cfg.sample_budget},
            "schwarz": {"closed_form": dis.closed_form,
                        "witness": dis.min_witness_eig,
                        "sampled": dis.min_sampled_eig,
                        "decided_by": dis.argmin_family,
                        "seed": cfg.seed, "budget": cfg.sample_budget},
            "cp": {"closed_form": ccp.closed_form,
                   "projected_min_eig": ccp.min_eig_projected},
        },
    }
    _emit_json(payload, cfg.output_path)
    return EXIT_OK


def cmd_verify(args, cfg) -> int:
    results = verify.run_suite(args.suite, seed=cfg.seed, budget=cfg.sample_budget)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name}: {r.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", cfg.output_path)
    return EXIT_OK if n_fail == 0 else EXIT_PROPERTY_FAILURE


def cmd_apply(args, cfg) -> int:
    state = state_from_json(_load_json_object(args.state, "state file"))
    d = state.d if args.d is None else args.d
    sched = dynamics.schedule_from_name(args.schedule, d, args.kappa, args.nu)
    out = apply_map(dynamics.map_at(sched, args.t), state)
    _emit_json(state_to_json(out), cfg.output_path)
    return EXIT_OK


COMMANDS = {
    "classify": cmd_classify,
    "region": cmd_region,
    "area": cmd_area,
    "trajectory": cmd_trajectory,
    "crossings": cmd_crossings,
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "apply": cmd_apply,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        cfg = _load_config(args)
        return COMMANDS[args.command](args, cfg)
    except (QuditMapsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # such as a sampling budget too large to allocate
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
