"""Runtime verification battery: every module's invariants as named checks.

Each check is a function returning ``(passed, detail)``; ``run_suite``
executes a suite and returns CheckResult records.  The CLI ``verify``
subcommand prints one line per check and exits nonzero on any failure.

The tests call these checks too; a keyword argument widens a check's sweep
for a test, and its default is the battery's own sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels, dynamics, generators, linalg, regions
from .channels import MapParams, build_phi_family


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# linalg
# ---------------------------------------------------------------------------

def check_eigh_reconstruction(seed, budget, dims=range(2, 9)):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for d in dims:
        for _ in range(20):
            a = linalg.random_hermitian(d, rng)
            w, v = linalg.eig_hermitian(a)
            resid = linalg.frobenius(v @ np.diag(w) @ v.conj().T - a)
            worst = max(worst, resid / max(linalg.frobenius(a), 1e-300))
    return worst <= 1e-10, f"worst relative residual {worst:.2e}"


def check_partial_transpose_involution(seed, budget, subsystems=(2,)):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 4))
        m = linalg.ginibre(d * d, rng)
        for sub in subsystems:
            pt = linalg.partial_transpose(m, d, sub)
            worst = max(worst, np.abs(linalg.partial_transpose(pt, d, sub) - m).max())
            worst = max(
                worst,
                np.abs(linalg.partial_transpose(m.conj().T, d, sub) - pt.conj().T).max(),
            )
    return worst == 0.0, f"max deviation {worst:.2e}"


def check_vec_roundtrip(seed, budget):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for d in range(2, 9):
        for _ in range(20):
            m = linalg.ginibre(d, rng)
            worst = max(worst, np.abs(linalg.unvec(linalg.vec(m), d) - m).max())
    return worst == 0.0, f"max deviation {worst:.2e}"


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

def check_family_tp_unital(seed, budget, points=None):
    """``points``: (d, alpha, beta) triples; a 7 x 7 grid per d = 2..6 by default."""
    if points is None:
        points = [(d, float(alpha), float(beta)) for d in range(2, 7)
                  for alpha in np.linspace(-0.5, d / (d - 1) + 0.5, 7)
                  for beta in np.linspace(-1.0, 1.5, 7)]
    worst = 0.0
    for d, alpha, beta in points:
        m = build_phi_family(MapParams(d, alpha, beta))
        ptr = channels.partial_trace_output(m.choi, d)
        worst = max(worst, float(np.abs(ptr - np.eye(d)).max()))
        vi = linalg.vec(np.eye(d))
        worst = max(worst, float(np.abs(m.transfer @ vi - vi).max()))
    return worst <= 1e-10, f"worst TP/unital defect {worst:.2e}"


def check_choi_roundtrip(seed, budget):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 5))
        t = linalg.ginibre(d * d, rng)
        c = channels.choi_from_transfer(t, d)
        worst = max(worst, np.abs(channels.choi_from_transfer(c, d) - t).max())
    return worst <= 1e-12, f"max round-trip deviation {worst:.2e}"


def check_adjoint_preserves_cp(seed, budget):
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(100):
        d = int(rng.integers(2, 5))
        alpha = float(rng.uniform(-0.3, d / (d - 1) + 0.3))
        beta = float(rng.uniform(-0.8, 1.2))
        m = build_phi_family(MapParams(d, alpha, beta))
        cp_m = float(np.linalg.eigvalsh(m.choi)[0]) >= -1e-9
        cp_adj = float(np.linalg.eigvalsh(channels.hs_adjoint(m).choi)[0]) >= -1e-9
        ok = ok and (cp_m == cp_adj)
    return ok, "CP(choi) iff CP(adjoint choi) on 100 family maps"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def check_trace_annihilation(seed, budget, cases=((2, 1.0, -0.4), (3, 0.7, -1.2),
                                                 (4, 2.0, 0.3), (5, 1.0, -0.9))):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for d, kappa, nu in cases:
        gen = generators.build_generator(
            generators.GenParams(d, kappa, nu, tuple(rng.uniform(-1, 1, d)))
        )
        for _ in range(200):
            x = linalg.ginibre(d, rng)
            worst = max(worst, abs(np.trace(gen(x))) / max(1.0, linalg.frobenius(x)))
    return worst <= 1e-10, f"worst |Tr L(X)| {worst:.2e}"


def check_spectrum_consistency(seed, budget, params=None):
    """``params``: GenParams to test; one random draw per d = 2..6 by default."""
    if params is None:
        rng = np.random.default_rng(seed)
        params = [generators.GenParams(d, float(rng.uniform(0.2, 2.0)),
                                       float(rng.uniform(-1.5, 1.0)),
                                       tuple(rng.uniform(-1, 1, d)))
                  for d in range(2, 7)]
    ok = True
    for p in params:
        eig = np.linalg.eigvals(generators.build_generator(p).transfer)
        ok = ok and linalg.match_multisets(
            eig, generators.expected_spectrum(p), tol=1e-9 * max(1.0, p.kappa * p.d)
        )
    dims = sorted({p.d for p in params})
    return ok, f"transfer spectra match the closed form for d={dims[0]}..{dims[-1]}"


def check_threshold_ordering(seed, budget):
    ok = True
    for d in range(2, 9):
        lo = generators.positivity_threshold(d)
        mid = generators.schwarz_threshold(d)
        hi = generators.ccp_threshold(d)
        ok = ok and (lo < mid < hi)
        for nu in np.linspace(-1.4, 0.4, 19):
            p = generators.GenParams(d, 1.0, float(nu))
            ccp = generators.is_ccp(p).closed_form
            dis = generators.is_dissipative(p, 0).closed_form
            pos = generators.is_conditionally_positive(p, 0).closed_form
            ok = ok and ((not ccp or dis) and (not dis or pos))
    return ok, "-1 < -d/(d+2) < 0 and CP => Schwarz => positive for d=2..8"


def check_dissipativity_sampling_soundness(seed, budget):
    worst = np.inf
    for d in range(2, 7):
        for nu in (generators.schwarz_threshold(d), -0.2, 0.0, 0.5):
            rep = generators.is_dissipative(
                generators.GenParams(d, 1.0, float(nu)),
                sample_budget=budget, seed=seed,
            )
            worst = min(worst, rep.min_sampled_eig, rep.min_witness_eig)
    return worst >= -1e-9, (f"smallest fixed-w form/witness eigenvalue {worst:.2e} "
                            f"at nu >= -d/(d+2), d=2..6")


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

def check_grid_agreement(seed, budget, sample_budget=32, dims=(2, 3, 4, 5), n=101):
    bad = 0
    tested = 0
    for d in dims:
        rep = regions.grid_agreement_report(d, n=n, sample_budget=sample_budget,
                                            seed=seed)
        bad += (rep["positive_disagreements"] + rep["cp_disagreements"]
                + rep["eb_disagreements"] + rep["nesting_violations"]
                + rep["ppt_vs_eb_disagreements"])
        tested += rep["positive_tested"] + rep["cp_tested"] + rep["eb_tested"]
    return bad == 0, f"{bad} disagreements among {tested} margin-filtered tests"


def check_areas(seed, budget, dims=range(3, 13)):
    worst = 0.0
    for d in dims:
        for which in regions.REGIONS:
            rep = regions.region_area(which, d)
            worst = max(worst, abs(rep.closed_form - rep.shoelace))
    return worst <= 1e-12, f"worst |closed form - shoelace| {worst:.2e}"


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def check_saturation_identity(seed, budget):
    from scipy.integrate import quad  # deferred: only this check needs it

    worst = 0.0
    for d in range(2, 7):
        for t in np.linspace(0.2, 5.0, 9):
            n_int = quad(lambda u: dynamics.nu_enm(d, u), 0.0, float(t),
                         epsabs=1e-12, epsrel=1e-12, limit=500)[0]
            lhs = np.exp(-n_int) * d
            rhs = np.exp((d - 1) * t) + (d - 1) * np.exp(-t)
            worst = max(worst, abs(lhs - rhs) / rhs)
    return worst <= 1e-9, f"worst relative saturation defect {worst:.2e}"


def check_boundary_riding(seed, budget, n_times=41):
    lo, hi = 0.0, -np.inf
    for d in range(2, 7):
        s = dynamics.OptimalENM(d)
        for t in np.linspace(0.0, 20.0, n_times):
            ev = float(np.linalg.eigvalsh(dynamics.map_at(s, float(t)).choi)[0])
            lo, hi = min(lo, ev), max(hi, ev)
    return lo >= -1e-10 and hi <= 1e-8, f"Choi min eig in [{lo:.2e}, {hi:.2e}]"


def check_divisibility_flags(seed, budget):
    ok = True
    for d in (3, 4, 6):
        sw = dynamics.switch_times(d)
        for t in np.linspace(0.0, 4.0, 81):
            _, nu_p = dynamics.kappa_nu_at(dynamics.PDivisible(d), float(t))
            _, nu_s = dynamics.kappa_nu_at(dynamics.SchwarzDivisible(d), float(t))
            ok = ok and nu_p >= generators.positivity_threshold(d) - 1e-12
            ok = ok and nu_s >= generators.schwarz_threshold(d) - 1e-12
        for t in (sw.t_star * 1.01, sw.t_star + 1.0):
            ok = ok and dynamics.nu_enm(d, t) < generators.positivity_threshold(d)
    return ok, "P-divisible nu >= -1, Schwarz-divisible nu >= -d/(d+2), ENM below -1 after t_*"


def check_rate_violation_signature(seed, budget):
    ok = True
    worst = np.inf
    for d in range(2, 7):
        nu = dynamics.nu_enm(d, 20.0)
        rep = generators.spectrum_rates(generators.GenParams(d, 1.0, nu))
        gap = rep.gamma_diag - rep.gamma_total / d
        ok = ok and abs(gap - 1.0) < 1e-6 and gap > 0
        worst = min(worst, gap)
    return ok, f"Gamma_diag - Gamma/d -> 1 (smallest observed {worst:.6f})"


def check_weyl_mixture_tanh(seed, budget):
    worst = 0.0
    s = dynamics.OptimalENM(2)
    for t in np.linspace(0.0, 5.0, 100):
        diff = np.abs(
            dynamics.weyl_mixture_map(2, float(t)).transfer
            - dynamics.map_at(s, float(t)).transfer
        ).max()
        worst = max(worst, float(diff))
    return worst <= 1e-10, f"max transfer deviation from the tanh schedule {worst:.2e}"


SUITES = {
    "linalg": [
        ("linalg.eigh_reconstruction", check_eigh_reconstruction),
        ("linalg.partial_transpose_involution", check_partial_transpose_involution),
        ("linalg.vec_roundtrip", check_vec_roundtrip),
    ],
    "channels": [
        ("channels.family_tp_unital", check_family_tp_unital),
        ("channels.choi_roundtrip", check_choi_roundtrip),
        ("channels.adjoint_preserves_cp", check_adjoint_preserves_cp),
    ],
    "generators": [
        ("generators.trace_annihilation", check_trace_annihilation),
        ("generators.spectrum_consistency", check_spectrum_consistency),
        ("generators.threshold_ordering", check_threshold_ordering),
        ("generators.dissipativity_sampling", check_dissipativity_sampling_soundness),
    ],
    "regions": [
        ("regions.grid_agreement", check_grid_agreement),
        ("regions.areas", check_areas),
    ],
    "dynamics": [
        ("dynamics.saturation_identity", check_saturation_identity),
        ("dynamics.boundary_riding", check_boundary_riding),
        ("dynamics.divisibility_flags", check_divisibility_flags),
        ("dynamics.rate_violation_signature", check_rate_violation_signature),
        ("dynamics.weyl_mixture_tanh", check_weyl_mixture_tanh),
    ],
}


def run_suite(suite: str = "all", seed: int = 42, budget: int = 10_000):
    """Run one module's checks (or all of them); returns CheckResult list."""
    if suite == "all":
        names = [c for group in SUITES.values() for c in group]
    elif suite in SUITES:
        names = SUITES[suite]
    else:
        raise KeyError(f"unknown suite {suite!r}; choose from {list(SUITES) + ['all']}")
    results = []
    for name, fn in names:
        try:
            passed, detail = fn(seed, budget)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, passed=passed, detail=detail))
    return results
