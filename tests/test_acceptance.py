"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines; a pytest failure on any test is the FAIL signal for that
criterion.
"""

import time

import numpy as np
import pytest

from quditmaps import dynamics as dy
from quditmaps import generators as g
from quditmaps import linalg as la
from quditmaps import regions as r
from quditmaps import verify
from quditmaps.channels import named_map


def _report(num, name):
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


def _passes(check, *args, **kwargs):
    passed, detail = check(*args, **kwargs)
    assert passed, detail


def _bisect(is_above, lo, hi, tol):
    assert not is_above(lo) and is_above(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if is_above(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_c01_threshold_triple():
    """Closed-form thresholds exact; oracle-only bisection recovers them to 1e-3."""
    budget = 10_000
    start = time.time()
    for d in range(2, 9):
        th_p = g.positivity_threshold(d)
        th_s = g.schwarz_threshold(d)
        th_c = g.ccp_threshold(d)
        assert (th_p, th_s, th_c) == (-1.0, -d / (d + 2.0), 0.0)
        eps = 1e-12
        assert g.is_conditionally_positive(g.GenParams(d, 1.0, th_p), 0).closed_form
        assert not g.is_conditionally_positive(
            g.GenParams(d, 1.0, th_p - eps), 0
        ).closed_form
        assert g.is_dissipative(g.GenParams(d, 1.0, th_s), 0).closed_form
        assert not g.is_dissipative(g.GenParams(d, 1.0, th_s - eps), 0).closed_form
        assert g.is_ccp(g.GenParams(d, 1.0, th_c)).closed_form
        assert not g.is_ccp(g.GenParams(d, 1.0, th_c - eps)).closed_form

        # numerical oracles only: orthogonal-pair sampling, witness+sampling,
        # projected Choi eigenvalue
        def oracle_p(nu):
            rep = g.is_conditionally_positive(g.GenParams(d, 1.0, nu), budget, 42)
            return rep.sampled_min >= -1e-9

        def oracle_s(nu):
            rep = g.is_dissipative(g.GenParams(d, 1.0, nu), budget, 42)
            return min(rep.min_witness_eig, rep.min_sampled_eig) >= -1e-9

        def oracle_c(nu):
            return g.is_ccp(g.GenParams(d, 1.0, nu)).min_eig_projected >= -1e-9

        assert abs(_bisect(oracle_p, -1.2, -0.8, 2e-4) - th_p) <= 1e-3
        assert abs(_bisect(oracle_s, th_s - 0.2, th_s + 0.2, 2e-4) - th_s) <= 1e-3
        assert abs(_bisect(oracle_c, -0.2, 0.2, 2e-4) - th_c) <= 1e-3
    elapsed = time.time() - start
    assert elapsed < 30.0, f"threshold bisections took {elapsed:.1f}s"
    _report(1, "threshold triple")


def test_c02_region_oracle_agreement():
    """101x101 grid, d in {2,3,4,5}: zero closed-form/oracle disagreements."""
    _passes(verify.check_grid_agreement, 42, 0, sample_budget=64)
    _report(2, "region oracle agreement")


def test_c03_areas():
    """Closed-form areas match polygon shoelace to 1e-12; ratios trend right.

    The EB closed form is the quadrilateral area (3d-2)/(4(d-1)^2), which is
    what the stated EB extreme points span (7/16 at d=3); see the strict
    xfail in test_regions for the inconsistent (3d-2)/(2d(d-1)) value.
    """
    _passes(verify.check_areas, 42, 0)
    assert r.region_area("P", 3).closed_form == pytest.approx(15.0 / 8.0, abs=1e-12)
    assert r.region_area("CP", 3).closed_form == pytest.approx(9.0 / 8.0, abs=1e-12)
    assert r.region_area("EB", 3).shoelace == pytest.approx(7.0 / 16.0, abs=1e-12)
    ratios_p = [r.region_area("P", d).closed_form / r.region_area("CP", d).closed_form
                for d in range(3, 13)]
    ratios_eb = [r.region_area("EB", d).closed_form / r.region_area("CP", d).closed_form
                 for d in range(3, 13)]
    assert all(a > b > 1.0 for a, b in zip(ratios_p, ratios_p[1:]))
    assert abs(ratios_p[-1] - 1.0) < abs(ratios_p[0] - 1.0)
    assert all(a > b > 0.0 for a, b in zip(ratios_eb, ratios_eb[1:]))
    _report(3, "areas (EB closed form = quadrilateral area)")


def test_c04_tangency_slopes():
    """Boundary derivatives at t=0: kappa*nu, kappa*(nu+1), kappa*(nu+d/(d+2))."""
    step = 1e-6
    for d in range(2, 7):
        for kappa in (0.7, 1.0, 1.3):
            for nu in (-1.0, -d / (d + 2.0), -0.25, 0.0, 0.4):
                expected = {
                    "CP": kappa * nu,
                    "P": kappa * (nu + 1.0),
                    "Schwarz": kappa * (nu + d / (d + 2.0)),
                }
                slopes = {
                    "CP": 1.0 / d,
                    "P": 2.0 / d,
                    "Schwarz": 2.0 * (d + 1.0) / (d * (d + 2.0)),
                }
                for boundary, target in expected.items():
                    got = dy.tangency_slope(d, kappa, nu, boundary)
                    assert got == pytest.approx(target, abs=1e-12)
                    # independent central difference of the trajectory functional
                    s = slopes[boundary]

                    def functional(t):
                        a_fac = np.exp(-kappa * d * t)
                        b_fac = np.exp(-kappa * (d - 1.0 + nu) * t)
                        return (a_fac - b_fac) + s * (1.0 - a_fac)

                    fd = (functional(step) - functional(-step)) / (2.0 * step)
                    assert abs(fd - target) <= 1e-6 * max(1.0, abs(target))
    # the three tangency statements: zero slope exactly at each threshold
    for d in range(2, 7):
        assert dy.tangency_slope(d, 1.0, 0.0, "CP") == 0.0
        assert dy.tangency_slope(d, 1.0, -1.0, "P") == 0.0
        assert abs(dy.tangency_slope(d, 1.0, -d / (d + 2.0), "Schwarz")) <= 1e-15
    _report(4, "tangency slopes")


def test_c05_eternal_non_markovianity():
    """ENM map rides the CP boundary on [0,20] and converges to E4."""
    _passes(verify.check_boundary_riding, 42, 0, n_times=200)
    for d in range(2, 7):
        s = dy.OptimalENM(d)
        e4, _ = named_map("E4", d)
        assert np.abs(dy.asymptotic_map(s).transfer - e4.transfer).max() <= 1e-10
        assert np.abs(dy.map_at(s, 50.0).transfer - e4.transfer).max() <= 1e-10
    _report(5, "eternal non-Markovianity")


def test_c06_switch_time_identities():
    """nu(t_*) = -1 and nu(t_S) = -d/(d+2) to 1e-12, t_S < t_*; d=3 closed values."""
    for d in range(3, 13):
        sw = dy.switch_times(d)
        assert abs(dy.nu_enm(d, sw.t_star) + 1.0) <= 1e-12
        assert abs(dy.nu_enm(d, sw.t_s) + d / (d + 2.0)) <= 1e-12
        assert sw.t_s < sw.t_star
    sw3 = dy.switch_times(3)
    assert sw3.t_star == pytest.approx(np.log(4.0) / 3.0, abs=1e-15)
    assert sw3.t_s == pytest.approx(np.log(16.0 / 7.0) / 3.0, abs=1e-15)
    _report(6, "switch-time identities")


def test_c07_enm2_milestones():
    """ENM2 equals E4 at t1 = ln(d)/d, converges to E3, and its extracted
    rates match d/(d-e^{dt}), 1-e^{dt} to 1e-4 relative away from t1."""
    for d in (2, 3, 4, 5):
        t1 = np.log(d) / d
        s = dy.ENM2(d)
        e4, _ = named_map("E4", d)
        e3, _ = named_map("E3", d)
        assert np.abs(dy.map_at(s, t1).transfer - e4.transfer).max() <= 1e-10
        assert np.abs(dy.asymptotic_map(s).transfer - e3.transfer).max() <= 1e-10
        assert np.abs(dy.map_at(s, 60.0).transfer - e3.transfer).max() <= 1e-10
        for t in (0.3 * t1, 0.6 * t1, 1.5 * t1, 2.5 * t1):
            rep = dy.extract_time_local_generator(lambda u: dy.map_at(s, u), t)
            kappa_true = d / (d - np.exp(d * t))
            nu_true = 1.0 - np.exp(d * t)
            assert abs(rep.kappa_fit - kappa_true) <= 1e-4 * abs(kappa_true)
            assert abs(rep.nu_fit - nu_true) <= 1e-4 * abs(nu_true)
    _report(7, "ENM2 milestones")


def test_c08_weyl_mixture():
    """d=2 extraction reproduces -tanh(t) to 1e-6; d in {2,3,4} mixtures are
    CPTP with Choi minimum eigenvalue zero within 1e-9 on (0, 5]."""
    for t in np.linspace(0.05, 5.0, 100):
        rep = dy.extract_time_local_generator(
            lambda u: dy.weyl_mixture_map(2, u), float(t)
        )
        assert abs(rep.nu_fit + np.tanh(t)) <= 1e-6
    for d in (2, 3, 4):
        for t in np.linspace(0.2, 5.0, 25):
            m = dy.weyl_mixture_map(d, float(t))
            assert m.is_trace_preserving()
            assert m.is_unital()
            ev = float(np.linalg.eigvalsh(m.choi)[0])
            assert abs(ev) <= 1e-9
    _report(8, "Weyl mixture")


def test_c09_rates():
    """Spectra match closed forms to 1e-9; the rate bound holds per class,
    saturates only at d=2 for the three threshold nu values; the asymptotic
    ENM violation Gamma_diag - Gamma/d -> 1 is observed."""
    rng = np.random.default_rng(42)
    params = [g.GenParams(d, float(rng.uniform(0.2, 2.0)),
                          float(rng.uniform(-(d - 1) + 0.05, 1.0)),
                          tuple(rng.uniform(-1, 1, d)))
              for d in range(2, 9) for _ in range(3)]
    _passes(verify.check_spectrum_consistency, 42, 0, params=params)
    for d in range(2, 9):
        for cls, nu_min in (("positive", -1.0), ("schwarz", -d / (d + 2.0)),
                            ("kpositive", 0.0)):
            for nu in np.linspace(nu_min, 1.0, 9):
                rep = g.spectrum_rates(g.GenParams(d, 1.0, float(nu)), cls)
                assert rep.bound_satisfied
        for cls, nu in (("positive", -1.0), ("schwarz", -d / (d + 2.0)),
                        ("kpositive", 0.0)):
            rep = g.spectrum_rates(g.GenParams(d, 1.0, nu), cls)
            assert rep.bound_saturated == (d == 2)
    _passes(verify.check_rate_violation_signature, 42, 0)
    _report(9, "relaxation rates and the bound")


def test_c10_pair_functional_bound():
    """1e5 random orthonormal pairs per d never exceed 1/2 + 1e-12; the
    saturating two-coordinate pair attains 1/2 at machine precision."""
    rng = np.random.default_rng(42)
    for d in range(2, 9):
        xs, ys = la.haar_orthonormal_pair(d, rng, n=100_000)
        vals = np.sum(np.abs(xs) ** 2 * np.abs(ys) ** 2, axis=1)
        assert float(vals.max()) <= 0.5 + 1e-12
    x = np.array([1.0, 1.0]) / np.sqrt(2.0)
    y = np.array([1.0, -1.0]) / np.sqrt(2.0)
    # 1/sqrt(2) is not a dyadic float, so "exactly 1/2" means within one ulp
    assert abs(float(np.sum(np.abs(x) ** 2 * np.abs(y) ** 2)) - 0.5) <= 1e-15
    _report(10, "pair-functional bound")
