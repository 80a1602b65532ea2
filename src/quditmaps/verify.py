"""Runtime verification battery: every module's invariants as named checks.

Each check is a function returning ``(passed, detail)``; ``run_suite``
executes a suite and returns CheckResult records.  The CLI ``verify``
subcommand prints one line per check and exits nonzero on any failure.

The tests call these checks too; a keyword argument widens a check's sweep
for a test, and its default is the battery's own sweep.

A check that draws samples draws them from ``default_rng(seed)`` as one
stack per dimension d and makes one batched call per d; when d itself is
random, the d of every sample is drawn first.  So each detail value is
deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels, dynamics, generators, linalg, regions
from .channels import build_phi_family  # noqa: F401  (perfbench/tracer.py patches this name)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _dagger(m):
    return m.conj().swapaxes(-1, -2)


def _sizes(rng, lo, hi, n):
    """How many of ``n`` samples get each d in [lo, hi), d drawn uniformly; indexed by d."""
    return np.bincount(rng.integers(lo, hi, size=n), minlength=hi)


def _max_abs(a) -> float:
    return float(np.abs(a).max(initial=0.0))


# ---------------------------------------------------------------------------
# linalg
# ---------------------------------------------------------------------------

def check_eigh_reconstruction(seed, budget, dims=range(2, 9)):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for d in dims:
        a = linalg.random_hermitian(d, rng, n=20)
        w, v = linalg.eig_hermitian(a)
        resid = np.linalg.norm((v * w[:, None, :]) @ _dagger(v) - a, axis=(-2, -1))
        norm = np.maximum(np.linalg.norm(a, axis=(-2, -1)), 1e-300)
        worst = max(worst, float((resid / norm).max()))
    return worst <= 1e-10, f"worst relative residual {worst:.2e}"


def check_partial_transpose_involution(seed, budget, subsystems=(2,)):
    rng = np.random.default_rng(seed)
    sizes = _sizes(rng, 2, 4, 1000)
    worst = 0.0
    for d in (2, 3):
        m = linalg.ginibre(d * d, rng, n=int(sizes[d]))
        for sub in subsystems:
            pt = linalg.partial_transpose(m, d, sub)
            worst = max(worst, _max_abs(linalg.partial_transpose(pt, d, sub) - m),
                        _max_abs(linalg.partial_transpose(_dagger(m), d, sub) - _dagger(pt)))
    return worst == 0.0, f"max deviation {worst:.2e}"


def check_vec_roundtrip(seed, budget):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for d in range(2, 9):
        m = linalg.ginibre(d, rng, n=20)
        worst = max(worst, _max_abs(linalg.unvec(linalg.vec(m), d) - m))
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
    for d in sorted({int(p[0]) for p in points}):
        _, alpha, beta = np.array([p for p in points if p[0] == d], dtype=float).T
        t = channels.family_transfer(d, alpha, beta)
        ptr = channels.partial_trace_output(channels.choi_from_transfer(t, d), d)
        vi = linalg.vec(np.eye(d))
        worst = max(worst, _max_abs(ptr - np.eye(d)), _max_abs(t @ vi - vi))
    return worst <= 1e-10, f"worst TP/unital defect {worst:.2e}"


def check_choi_roundtrip(seed, budget):
    rng = np.random.default_rng(seed)
    sizes = _sizes(rng, 2, 5, 500)
    worst = 0.0
    for d in (2, 3, 4):
        t = linalg.ginibre(d * d, rng, n=int(sizes[d]))
        c = channels.choi_from_transfer(t, d)
        worst = max(worst, _max_abs(channels.choi_from_transfer(c, d) - t))
    return worst <= 1e-12, f"max round-trip deviation {worst:.2e}"


def check_adjoint_preserves_cp(seed, budget):
    """The Hilbert-Schmidt adjoint of a transfer is its conjugate transpose."""
    rng = np.random.default_rng(seed)
    sizes = _sizes(rng, 2, 5, 100)
    ok = True
    for d in (2, 3, 4):
        n = int(sizes[d])
        alpha = rng.uniform(-0.3, d / (d - 1) + 0.3, n)
        beta = rng.uniform(-0.8, 1.2, n)
        t = channels.family_transfer(d, alpha, beta)
        cp_m = np.linalg.eigvalsh(channels.choi_from_transfer(t, d))[:, 0] >= -1e-9
        cp_adj = np.linalg.eigvalsh(channels.choi_from_transfer(_dagger(t), d))[:, 0] >= -1e-9
        ok = ok and bool(np.array_equal(cp_m, cp_adj))
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
        x = linalg.ginibre(d, rng, n=200)
        tr = np.abs(np.trace(gen(x), axis1=-2, axis2=-1))
        scale = np.maximum(1.0, np.linalg.norm(x, axis=(-2, -1)))
        worst = max(worst, float((tr / scale).max()))
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
    """The closed-form verdicts nu >= threshold, as the class tests report them."""
    ok = True
    nu = np.linspace(-1.4, 0.4, 19)
    for d in range(2, 9):
        lo = generators.positivity_threshold(d)
        mid = generators.schwarz_threshold(d)
        hi = generators.ccp_threshold(d)
        ccp, dis, pos = nu >= hi, nu >= mid, nu >= lo
        ok = ok and lo < mid < hi and bool(np.all(~ccp | dis) and np.all(~dis | pos))
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

# Gauss-Legendre nodes of the saturation check's rate integrals; doubling
# them moves no integral of the check's (d, t) grid by more than 1e-12 relative.
_SATURATION_NODES = 64


def _enm_rate_integrals(nodes=_SATURATION_NODES):
    """(d, t, Int_0^t nu_enm(d, u) du) on the saturation check's grid, by Gauss-Legendre.

    d = 2..6 runs along axis 0 and the nine t in [0.2, 5] along axis 1.
    """
    x, wts = np.polynomial.legendre.leggauss(nodes)
    dims = range(2, 7)
    t = np.linspace(0.2, 5.0, 9)
    u = t[:, None] / 2 * (x + 1)  # the nodes mapped onto each [0, t]
    integrals = np.array([dynamics.nu_enm(d, u) @ wts for d in dims]) * t / 2
    return np.array(dims)[:, None], t, integrals


def check_saturation_identity(seed, budget):
    d, t, n_int = _enm_rate_integrals()
    lhs = np.exp(-n_int) * d
    rhs = np.exp((d - 1) * t) + (d - 1) * np.exp(-t)
    worst = float((np.abs(lhs - rhs) / rhs).max())
    return worst <= 1e-9, f"worst relative saturation defect {worst:.2e}"


def check_boundary_riding(seed, budget, n_times=41):
    lo, hi = 0.0, -np.inf
    ts = np.linspace(0.0, 20.0, n_times)
    for d in range(2, 7):
        t = channels.family_transfer(d, *dynamics.OptimalENM(d).alpha_beta(ts))
        ev = np.linalg.eigvalsh(channels.choi_from_transfer(t, d))[:, 0]
        lo, hi = min(lo, float(ev.min())), max(hi, float(ev.max()))
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
    ts = np.linspace(0.0, 5.0, 100)
    mixture = dynamics._weyl_mixture_transfer(2, dynamics._weyl_spectrum(2, ts))
    tanh = channels.family_transfer(2, *dynamics.OptimalENM(2).alpha_beta(ts))
    worst = _max_abs(mixture - tanh)
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
    """Run one module's checks (or all of them); returns CheckResult list.

    A check that raises fails, except for a MemoryError (such as a budget
    too large to allocate), which is raised: it says nothing of the check.
    """
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
        except MemoryError:
            raise
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, passed=passed, detail=detail))
    return results
