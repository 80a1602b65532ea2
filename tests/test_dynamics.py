import ast
import math
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from quditmaps import dynamics as dy
from quditmaps import linalg as la
from quditmaps.channels import MapParams, build_phi_family, family_fit, named_map
from quditmaps.errors import DimensionMismatch, NegativeTime, NoLimit, SingularMap, UnknownName
from quditmaps.regions import classify_point
from reference import alpha_beta_by_quadrature, basis_matrix, dense_extraction


ALL_SCHEDULES = lambda d: [
    dy.ConstantNu(d, 1.0, -0.5),
    dy.OptimalENM(d),
    dy.PDivisible(d),
    dy.SchwarzDivisible(d),
    dy.ENM2(d),
    dy.WeylMixture(d),
]


# --- trajectory coordinates -----------------------------------------------------

def test_all_schedules_start_at_origin():
    for s in ALL_SCHEDULES(3):
        alpha, beta = dy.alpha_beta_at(s, 0.0)
        assert (alpha, beta) == pytest.approx((0.0, 0.0), abs=1e-12)


def test_constant_nu_relaxes_to_depolarizing():
    alpha, beta = dy.alpha_beta_at(dy.ConstantNu(4, 1.0, -1.4), 60.0)
    assert (alpha, beta) == pytest.approx((1.0, 0.0), abs=1e-12)


def test_enm_rides_the_cp_boundary_exactly():
    for d in (2, 3, 6):
        s = dy.OptimalENM(d)
        for t in np.linspace(0.0, 8.0, 30):
            alpha, beta = dy.alpha_beta_at(s, float(t))
            assert alpha == pytest.approx(1.0 - np.exp(-d * t), abs=1e-14)
            assert beta == pytest.approx(-alpha / d, abs=1e-14)


def test_negative_time_rejected():
    with pytest.raises(NegativeTime):
        dy.alpha_beta_at(dy.OptimalENM(3), -0.1)
    with pytest.raises(NegativeTime):
        dy.map_at(dy.ENM2(3), -1.0)


def test_quadrature_cross_checks_closed_forms():
    d = 3
    s = dy.OptimalENM(d)
    for t in (0.3, 1.1):
        ab_quad = alpha_beta_by_quadrature(
            d, lambda u: 1.0, lambda u: dy.nu_enm(d, u), t
        )
        assert ab_quad == pytest.approx(dy.alpha_beta_at(s, t), abs=1e-9)
    s2 = dy.ConstantNu(d, 0.8, -1.2)
    ab_quad = alpha_beta_by_quadrature(d, lambda u: 0.8, lambda u: -1.2, 0.7)
    assert ab_quad == pytest.approx(dy.alpha_beta_at(s2, 0.7), abs=1e-9)


# ENM2 is left out: its rates are not integrable across t1 = ln(d)/d
@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 16])
@pytest.mark.parametrize("name", ["const", "enm", "pdiv", "sdiv"])
def test_schedule_quadrature_matches_closed_form(name, d):
    sched = dy.schedule_from_name(name, d, kappa=0.8, nu=-0.6)
    for t in (0.2, 0.8, 2.5):
        ab_quad = alpha_beta_by_quadrature(
            d,
            lambda u: dy.kappa_nu_at(sched, u)[0],
            lambda u: dy.kappa_nu_at(sched, u)[1],
            t,
        )
        assert ab_quad == pytest.approx(dy.alpha_beta_at(sched, t), abs=1e-8)


# --- the optimal schedule ---------------------------------------------------------

def test_nu_enm_is_tanh_at_d2():
    ts = np.linspace(0.0, 10.0, 200)
    assert np.abs(dy.nu_enm(2, ts) + np.tanh(ts)).max() <= 1e-12


def test_nu_enm_zero_at_zero_and_limit():
    assert dy.nu_enm(5, 0.0) == 0.0
    assert dy.nu_enm(3, 50.0) == pytest.approx(-2.0, abs=1e-12)


def test_nu_enm_monotone():
    ts = np.linspace(0.0, 6.0, 300)
    vals = dy.nu_enm(4, ts)
    assert np.all(np.diff(vals) < 0)


def test_switch_times_d3_values():
    sw = dy.switch_times(3)
    assert sw.t_star == pytest.approx(np.log(4.0) / 3.0, abs=1e-15)
    assert sw.t_s == pytest.approx(np.log(16.0 / 7.0) / 3.0, abs=1e-15)


def test_switch_time_identities():
    for d in range(3, 13):
        sw = dy.switch_times(d)
        assert dy.nu_enm(d, sw.t_star) == pytest.approx(-1.0, abs=1e-12)
        assert dy.nu_enm(d, sw.t_s) == pytest.approx(-d / (d + 2.0), abs=1e-12)
        assert sw.t_s < sw.t_star


def test_switch_time_infinite_at_d2():
    assert dy.switch_times(2).t_star == np.inf


def test_switch_times_are_cached_per_d():
    for d in range(2, 17):
        sw = dy.switch_times(d)
        assert dy.switch_times(np.int64(d)) is sw and dy.switch_times(float(d)) is sw
        t_star = np.inf if d == 2 else np.log(2.0 * (d - 1) / (d - 2)) / d
        t_s = np.log(2.0 * (d * d - 1) / (d * d - 2)) / d
        assert (sw.t_star, sw.t_s) == (float(t_star), float(t_s))
    with pytest.raises(DimensionMismatch):
        dy.switch_times(17)


# --- maps along schedules ---------------------------------------------------------

def test_enm_choi_boundary():
    for d in (2, 4):
        s = dy.OptimalENM(d)
        for t in np.linspace(0.0, 20.0, 50):
            ev = np.linalg.eigvalsh(dy.map_at(s, float(t)).choi)[0]
            assert -1e-10 <= ev <= 1e-8


def test_enm2_hits_e4_at_singular_time():
    for d in (2, 3, 5):
        t1 = np.log(d) / d
        m = dy.map_at(dy.ENM2(d), t1)
        e4, _ = named_map("E4", d)
        assert np.abs(m.transfer - e4.transfer).max() <= 1e-10


def test_enm2_converges_to_e3():
    for d in (2, 3):
        m = dy.map_at(dy.ENM2(d), 50.0)
        e3, _ = named_map("E3", d)
        assert np.abs(m.transfer - e3.transfer).max() <= 1e-10


@pytest.mark.parametrize("d", range(2, 17))
@pytest.mark.parametrize("t", [50.0, 300.0])
def test_enm2_rates_at_late_times_reach_their_limits_without_a_warning(d, t):
    # kappa = d/(d - e^{dt}) and nu = 1 - e^{dt}; once e^{dt} overflows they
    # are the IEEE limits -0.0 and -inf, with no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kappa, nu = dy.kappa_nu_at(dy.ENM2(d), t)
    if d * t < math.log(np.finfo(float).max):
        e = np.exp(d * t)
        assert (kappa, nu) == (d / (d - e), 1.0 - e)
        assert kappa < 0 and math.isfinite(nu)
    else:
        assert kappa == 0.0 and math.copysign(1.0, kappa) == -1.0
        assert nu == -math.inf


def test_pdivisible_piecewise_display():
    # for t > t_*: coefficients (1/2) e^{-(d-2)(t-t_*)} on X, the balance on
    # Delta, and (1 - e^{-dt})/d on I Tr
    d = 4
    ts = dy.switch_times(d).t_star
    for t in (ts + 0.3, ts + 1.2):
        id_c = 0.5 * np.exp(-(d - 2.0) * (t - ts))
        delta_c = np.exp(-d * t) - id_c
        tau_c = 1.0 - np.exp(-d * t)
        target = build_phi_family(MapParams(d, tau_c, delta_c))
        assert 1.0 - tau_c - delta_c == pytest.approx(id_c, abs=1e-14)
        got = dy.map_at(dy.PDivisible(d), t)
        assert np.abs(got.transfer - target.transfer).max() <= 1e-10


def test_sdivisible_piecewise_display_with_consistent_rate():
    # freezing nu at -d/(d+2) fixes the coherence decay rate at
    # (d-1) + nu = (d^2-2)/(d+2); continuity at t_S pins the prefactor
    d = 3
    ts = dy.switch_times(d).t_s
    for t in (ts + 0.4, ts + 1.5):
        id_c = (d + 2.0) / (2.0 * (d + 1.0)) * np.exp(
            -(d * d - 2.0) / (d + 2.0) * (t - ts)
        )
        target = build_phi_family(
            MapParams(d, 1.0 - np.exp(-d * t), np.exp(-d * t) - id_c)
        )
        got = dy.map_at(dy.SchwarzDivisible(d), t)
        assert np.abs(got.transfer - target.transfer).max() <= 1e-10


@pytest.mark.xfail(
    strict=True,
    reason="a coherence decay rate d^2/(d+2) after t_S is inconsistent with "
    "nu = -d/(d+2): the generator gives (d^2-2)/(d+2), and continuity at t_S "
    "plus the schedule definition fix that rate",
)
def test_sdivisible_with_quoted_rate():
    d = 3
    ts = dy.switch_times(d).t_s
    t = ts + 0.8
    id_c = (d + 2.0) / (2.0 * (d + 1.0)) * np.exp(-d * d / (d + 2.0) * (t - ts))
    target = build_phi_family(
        MapParams(d, 1.0 - np.exp(-d * t), np.exp(-d * t) - id_c)
    )
    got = dy.map_at(dy.SchwarzDivisible(d), t)
    assert np.abs(got.transfer - target.transfer).max() <= 1e-10


def test_sdivisible_continuity_at_switch():
    for d in (3, 5):
        ts = dy.switch_times(d).t_s
        before = dy.map_at(dy.SchwarzDivisible(d), ts)
        after = dy.map_at(dy.SchwarzDivisible(d), ts + 1e-12)
        assert np.abs(before.transfer - after.transfer).max() <= 1e-10


def test_map_with_hamiltonian_conjugation():
    d, t = 3, 0.6
    h = (0.4, -0.1, -0.3)
    m = dy.map_at(dy.ConstantNu(d, 1.0, -0.2), t, h=h)
    u = np.diag(np.exp(-1j * np.asarray(h) * t))
    alpha, beta = dy.alpha_beta_at(dy.ConstantNu(d, 1.0, -0.2), t)
    phi = build_phi_family(MapParams(d, alpha, beta))
    rho = la.random_hermitian(d, np.random.default_rng(0))
    assert np.allclose(m(rho), u @ phi(rho) @ u.conj().T)


@pytest.mark.parametrize("d", [2, 3, 6, 16])
def test_schedule_maps_limits_and_extractions_are_real_without_a_hamiltonian(d):
    # every schedule's map, limit and time-local generator has a real transfer
    for s in ALL_SCHEDULES(d):
        for m in (dy.map_at(s, 0.4), dy.asymptotic_map(s)):
            assert m.transfer.dtype == float and m.choi.dtype == float
        # before ENM2's singular time ln(d)/d, which is at least 0.17 for d <= 16
        assert dy.extract_time_local_generator(s.map, 0.1).generator.transfer.dtype == float
    assert dy.weyl_mixture_map(d, 0.7).transfer.dtype == float
    # a Hamiltonian makes the map and its extracted generator complex
    h = tuple(np.linspace(-0.4, 0.3, d))
    s = dy.ConstantNu(d, 1.0, -0.2)
    m = dy.map_at(s, 0.6, h=h)
    assert m.transfer.dtype == complex and m.choi.dtype == complex
    rep = dy.extract_time_local_generator(lambda t: dy.map_at(s, t, h=h), 0.6)
    assert rep.generator.transfer.dtype == complex
    assert rep.kappa_fit == pytest.approx(1.0, abs=1e-6)
    assert rep.nu_fit == pytest.approx(-0.2, abs=1e-6)


# --- asymptotics -------------------------------------------------------------------

def test_asymptotic_enm_is_e4():
    for d in (2, 3, 6):
        m = dy.asymptotic_map(dy.OptimalENM(d))
        e4, _ = named_map("E4", d)
        assert np.abs(m.transfer - e4.transfer).max() <= 1e-12


def test_asymptotic_enm_qubit_state_action():
    m = dy.asymptotic_map(dy.OptimalENM(2))
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    out = m(rho)
    assert np.allclose(out, np.array([[0.5, rho[0, 1] / 2], [rho[1, 0] / 2, 0.5]]))


def test_asymptotic_divisible_schedules_depolarize():
    for d in (3, 4):
        for s in (dy.PDivisible(d), dy.SchwarzDivisible(d)):
            m = dy.asymptotic_map(s)
            tau0 = build_phi_family(MapParams(d, 1.0, 0.0))
            assert np.abs(m.transfer - tau0.transfer).max() <= 1e-12
            far = dy.map_at(s, 50.0)
            assert np.abs(far.transfer - m.transfer).max() <= 1e-10


def test_asymptotic_pdivisible_d2_is_the_enm_limit():
    m = dy.asymptotic_map(dy.PDivisible(2))
    e4, _ = named_map("E4", 2)
    assert np.abs(m.transfer - e4.transfer).max() <= 1e-12


def test_asymptotic_enm2_flips_populations_at_d2():
    m = dy.asymptotic_map(dy.ENM2(2))
    rho = np.array([[0.8, 0.1], [0.1, 0.2]], dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    from quditmaps.channels import dephase

    assert np.allclose(m(rho), sx @ dephase(rho) @ sx)


def test_asymptotic_constant_nu():
    m = dy.asymptotic_map(dy.ConstantNu(3, 1.0, -0.5))
    tau0 = build_phi_family(MapParams(3, 1.0, 0.0))
    assert np.abs(m.transfer - tau0.transfer).max() <= 1e-12
    with pytest.raises(NoLimit):
        dy.asymptotic_map(dy.ConstantNu(3, 1.0, -2.5))


def test_only_the_weyl_mixture_overrides_the_limit():
    # every family schedule takes ``Schedule.limit``, the family map at
    # alpha_beta(inf); only the mixture, which leaves the family, has its own
    owners = set()
    for path in Path(dy.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.FunctionDef) and item.name == "limit"
                    for item in node.body):
                owners.add(node.name)
    assert owners == {"Schedule", "WeylMixture"}


@pytest.mark.parametrize("coordinates", [lambda t: (t, 0.0), lambda t: (0.0, -t),
                                         lambda t: (t - t, 0.0)])
def test_a_schedule_whose_coordinates_do_not_converge_has_no_limit(coordinates):
    # the default limit checks both coordinates at t = inf: inf, -inf, NaN
    class Runaway(dy.Schedule):
        def kappa_nu(self, t):
            return 1.0, 0.0

        def alpha_beta(self, t):
            return coordinates(t)

    with pytest.raises(NoLimit):
        dy.asymptotic_map(Runaway(3))


TINY = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300)


@settings(max_examples=300, deadline=None)
@given(d=st.integers(2, 16), kappa=st.one_of(st.sampled_from(TINY), st.floats(-20, 20)),
       nu=st.one_of(st.sampled_from(TINY), st.floats(-30, 30)),
       edge=st.sampled_from([None, -math.inf, 0.0, math.inf]))
@example(d=3, kappa=1.0, nu=-2.5, edge=None)
@example(d=3, kappa=1.0, nu=-2.0, edge=None)
@example(d=3, kappa=0.0, nu=0.3, edge=None)
@example(d=3, kappa=-1.0, nu=0.3, edge=None)
@example(d=3, kappa=1e-300, nu=-2.0, edge=math.inf)
@example(d=2, kappa=5e-324, nu=0.0, edge=0.0)
def test_constant_nu_limit_is_tau0_exactly_when_beta_decays(d, kappa, nu, edge):
    # the default limit, the family map at alpha_beta(inf), raises NoLimit
    # exactly where the rule it replaced did (d - 1 + nu <= 0 or kappa <= 0),
    # and gives tau0 bit for bit elsewhere; ``edge`` puts nu at -(d - 1) or
    # one float either side of it.  One case more raises: a subnormal kappa
    # times a small d - 1 + nu underflows to a zero rate, so the computed
    # B(t) = exp(-0 t) is 1 at every finite t and NaN at t = inf
    if edge is not None:
        nu = float(np.nextafter(-(d - 1.0), edge))
    s = dy.ConstantNu(d, kappa, nu)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if d - 1 + nu <= 0 or kappa <= 0 or kappa * (d - 1 + nu) == 0.0:
            with pytest.raises(NoLimit):
                dy.asymptotic_map(s)
        else:
            tau0 = build_phi_family(MapParams(d, 1.0, 0.0))
            assert dy.asymptotic_map(s).transfer.tobytes() == tau0.transfer.tobytes()


# --- crossing times -----------------------------------------------------------------

def test_crossings_nu_zero_never_leaves_cp():
    rep = dy.crossing_times(3, 1.0, 0.0)
    assert rep.t_cp == 0.0 and rep.t_p == 0.0
    assert rep.t_eb is not None and rep.t_eb > 0.0


def test_crossings_deep_negative_nu_ordered_and_flipping():
    d, kappa, nu = 3, 1.0, -1.5
    rep = dy.crossing_times(d, kappa, nu)
    assert rep.t_p is not None and rep.t_cp is not None and rep.t_eb is not None
    assert 0.0 < rep.t_p < rep.t_cp < rep.t_eb

    s = dy.ConstantNu(d, kappa, nu)

    def verdict(t):
        alpha, beta = dy.alpha_beta_at(s, t)
        return classify_point(MapParams(d, alpha, beta))

    eps = 1e-6
    assert not verdict(rep.t_p - eps).positive
    assert verdict(rep.t_p + eps).positive
    assert not verdict(rep.t_cp - eps).completely_positive
    assert verdict(rep.t_cp + eps).completely_positive
    assert not verdict(rep.t_eb - eps).entanglement_breaking
    assert verdict(rep.t_eb + eps).entanglement_breaking


def test_crossings_between_thresholds():
    rep = dy.crossing_times(3, 1.0, -0.5)
    assert rep.t_p == 0.0
    assert rep.t_cp is not None and rep.t_cp > 0.0


def test_crossings_nondecaying_regime_reports_none():
    rep = dy.crossing_times(3, 1.0, -2.5)
    assert rep.t_p is None and rep.t_cp is None and rep.t_eb is None
    assert rep.margins["P"] < 0.0


@settings(max_examples=60, deadline=None)
@given(d_nu=st.integers(2, 16).flatmap(lambda d: st.tuples(
           st.just(d), st.floats(1.0 - d, 0.5, exclude_min=True, exclude_max=True))),
       kappa=st.floats(1.0, 1e8))
def test_crossings_are_ordered_and_scale_as_one_over_kappa(d_nu, kappa):
    # the trajectory depends on kappa t only, so kappa t is the kappa = 1 root
    d, nu = d_nu
    rep, unit = dy.crossing_times(d, kappa, nu), dy.crossing_times(d, 1.0, nu)
    times = [t for t in (rep.t_p, rep.t_cp, rep.t_eb) if t is not None]
    assert all(kappa * a <= kappa * b + 1e-12 for a, b in zip(times, times[1:]))
    for t, t1 in ((rep.t_p, unit.t_p), (rep.t_cp, unit.t_cp), (rep.t_eb, unit.t_eb)):
        if t1 is not None:
            assert t is not None and abs(kappa * t - t1) <= 1e-12 * t1


def _lower_form(m):
    """beta + m alpha/d in s, as ``crossing_times`` evaluates it: the first
    bracket as a product, the second as expm1(-s)^2 q(e^{-s}) / d."""
    def g(d, nu, s):
        k, rate = d - m, m - 1 + nu
        if rate >= 0:
            near = math.exp(-k * s) * -math.expm1(-rate * s)
        else:
            near = -math.exp(-(d - 1.0 + nu) * s) * -math.expm1(rate * s)
        q = [float(m * (n + 1)) for n in range(k)] + [float((m - 1) * k)]
        y, poly = math.exp(-s), 0.0
        for coef in reversed(q):
            poly = poly * y + coef
        return near + math.expm1(-s) ** 2 * poly / d
    return g


# the boundary functionals of ``crossing_times`` in s = kappa t, evaluated as
# it evaluates them
_FORMS = {
    "P": _lower_form(2),
    "CP": _lower_form(1),
    "EB": lambda d, nu, s: -math.expm1(-d * s) / d - math.exp(-(d - 1.0 + nu) * s),
}


def _brentq_first_root(g, horizon=50.0):
    """The scan of ``crossing_times`` with scipy's brentq refining the bracket."""
    from scipy.optimize import brentq

    s_lo = 1e-6
    if g(s_lo) >= 0.0:
        return 0.0 if g(0.0) >= -1e-15 else None
    s_hi = s_lo
    while s_hi < horizon:
        s_next = min(s_hi * 1.5, horizon)
        if g(s_next) >= 0.0:
            return float(brentq(g, s_hi, s_next, xtol=1e-12, rtol=8.9e-16))
        s_hi = s_next
    return None


@settings(max_examples=80, deadline=None)
@given(d_nu=st.integers(2, 16).flatmap(lambda d: st.tuples(
           st.just(d), st.floats(1.0 - d, 0.5, exclude_min=True, exclude_max=True))))
@example(d_nu=(2, -1e-5))  # a CP root where the functional's slope is -nu = 1e-5
def test_crossing_roots_are_the_last_float_of_the_sign_change(d_nu):
    # at kappa = 1, t = s: each root is a float where the functional is >= 0
    # and the float below it one where it is < 0
    d, nu = d_nu
    rep = dy.crossing_times(d, 1.0, nu)
    rate, weight = d - 1.0 + nu, {"P": 2.0 / d, "CP": 1.0 / d, "EB": 1.0 + 1.0 / d}
    for key, t in (("P", rep.t_p), ("CP", rep.t_cp), ("EB", rep.t_eb)):
        if (key == "P" and nu >= -1.0) or (key == "CP" and nu >= 0.0):
            assert t == 0.0
            continue
        g = lambda s: _FORMS[key](d, nu, s)
        ref = _brentq_first_root(g)
        assert (t is None) == (ref is None), (key, t, ref)
        if t is None or t == 0.0:
            assert t == ref
            continue
        assert g(t) >= 0.0 > g(np.nextafter(t, 0.0)), (key, t)
        # brentq's root is within its xtol of 1e-12, plus the width of the
        # band where g is within rounding (2 eps, its terms are at most ~1) of 0
        slope = (weight[key] - 1.0) * d * np.exp(-d * t) + rate * np.exp(-rate * t)
        assert abs(t - ref) <= 1e-12 + 2 * np.finfo(float).eps / abs(slope), (key, t, ref)


def _decimal_root(d, nu, m, lo, hi):
    """Root of beta + m alpha/d on [lo, hi] by 200 bisections in 60-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        dd = Decimal(d)

        def g(s):
            a, b = (-dd * s).exp(), (-(dd - 1 + Decimal(nu)) * s).exp()
            return (a - b) + m * (1 - a) / dd

        lo, hi = Decimal(lo), Decimal(hi)
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if g(mid) >= 0 else (mid, hi)
        return float(hi)


@pytest.mark.parametrize("d, nu, key", [
    (3, -1e-4, "CP"),      # a flat root: the slope of g there is -nu = 1e-4; the
                           # decimal root is 9.99966671388537e-05, and 1 - A and
                           # A - B put it at 9.99966685330516e-05
    (3, -2.6e-6, "CP"),
    (5, -1.0 - 1e-4, "P"),
    (16, -0.3, "CP"),
])
def test_crossing_roots_match_a_decimal_reference(d, nu, key):
    # 1 - A and A - B carry an error of eps, which moves a root whose
    # functional has slope |g'| by eps / |g'|: 1.4e-8 relative at nu = -1e-4;
    # alpha and beta from expm1 alone, summed, still leave 2.4e-12
    rep = dy.crossing_times(d, 1.0, nu)
    t = rep.t_cp if key == "CP" else rep.t_p
    ref = _decimal_root(d, nu, 1 if key == "CP" else 2, t / 2, 2 * t)
    assert abs(t - ref) <= 1e-13 * ref, (t, ref)


# --- tangency slopes ----------------------------------------------------------------

def test_tangency_zero_slopes_at_thresholds():
    for d in (2, 3, 5):
        assert dy.tangency_slope(d, 1.0, 0.0, "CP") == pytest.approx(0.0, abs=1e-12)
        assert dy.tangency_slope(d, 1.0, -1.0, "P") == pytest.approx(0.0, abs=1e-12)
        nu_s = -d / (d + 2.0)
        assert dy.tangency_slope(d, 1.0, nu_s, "Schwarz") == pytest.approx(
            0.0, abs=1e-12
        )


def test_tangency_general_values_and_fd():
    d, kappa, nu = 4, 0.7, -0.35
    assert dy.tangency_slope(d, kappa, nu, "CP") == pytest.approx(kappa * nu)
    assert dy.tangency_slope(d, kappa, nu, "P") == pytest.approx(kappa * (nu + 1))
    assert dy.tangency_slope(d, kappa, nu, "Schwarz") == pytest.approx(
        kappa * (nu + d / (d + 2.0))
    )
    # independent finite difference of the boundary functional
    s = dy.ConstantNu(d, kappa, nu)
    step = 1e-6

    def g_cp(t):
        alpha, beta = dy.alpha_beta_at(s, t)
        return beta + alpha / d

    fd = (g_cp(2 * step) - g_cp(0.0)) / (2 * step)
    assert fd == pytest.approx(kappa * nu, rel=1e-4)


def test_tangency_unknown_boundary():
    with pytest.raises(UnknownName):
        dy.tangency_slope(3, 1.0, 0.0, "EB")


# --- Weyl operators and the mixture --------------------------------------------------

def test_weyl_d2_set():
    ops = dy.weyl_ops(2)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    assert np.allclose(ops[0], np.eye(2))
    assert np.allclose(ops[1], sx)
    assert np.allclose(ops[2], sz)
    assert np.allclose(ops[3], sz @ sx)  # equals i sigma_y


def test_weyl_identity_and_unitarity():
    for d in (2, 3, 5):
        ops = dy.weyl_ops(d)
        assert np.allclose(ops[0], np.eye(d))
        for w in ops:
            assert np.allclose(w @ w.conj().T, np.eye(d))


def test_weyl_completeness_relation():
    rng = np.random.default_rng(1)
    for d in (2, 3, 4):
        ops = dy.weyl_ops(d)
        for _ in range(20):
            a = la.ginibre(d, rng)
            twirl = sum(w @ a @ w.conj().T for w in ops)
            assert np.abs(twirl - d * np.eye(d) * np.trace(a)).max() <= 1e-10
    e12 = basis_matrix(0, 1, 3)
    twirl = sum(w @ e12 @ w.conj().T for w in dy.weyl_ops(3))
    assert np.abs(twirl).max() <= 1e-12


def test_weyl_mixture_identity_at_zero():
    # exactly id, so the t = 0 verdicts are the identity map's
    for d in range(2, 17):
        assert np.array_equal(dy.weyl_mixture_map(d, 0.0).transfer, np.eye(d * d))


@pytest.mark.parametrize("d", range(2, 17))
def test_weyl_conjugation_is_diagonal_on_the_weyl_operators(d):
    # W_kl W_ab W_kl^+ = omega^((k b - l a) mod d) W_ab, the relation the
    # mixture's spectrum is built from
    ops = dy._weyl_cached(d)
    k, l = np.divmod(np.arange(d * d), d)
    n = (k[:, None] * l - l[:, None] * k) % d
    for w, row in zip(ops, n):
        conj = w @ ops @ w.conj().T
        assert np.abs(conj - np.exp(2j * np.pi * row / d)[:, None, None] * ops).max() <= 1e-12
    counts = np.stack([np.bincount(n[l > 0, ab], minlength=d) for ab in range(d * d)])
    assert np.array_equal(dy._weyl_tables(d)[0], counts)


def test_weyl_mixture_is_cptp_on_boundary():
    for d in (2, 3, 4, 16):
        for t in (0.1, 0.9, 3.0):
            m = dy.weyl_mixture_map(d, t)
            assert m.is_trace_preserving() and m.is_unital()
            ev = np.linalg.eigvalsh(m.choi)
            assert ev[0] >= -1e-9
            assert abs(ev[0]) <= 1e-9  # rides the CP boundary


def test_weyl_mixture_offdiagonal_factor_is_real_at_d3():
    # f(t) = (1/3)(1 + 2 e^{-3t/2} cos(sqrt(3) t / 2)) is the coefficient of
    # the identity component; its root-of-unity form must be real
    for t in (0.3, 1.0, 2.7):
        omega = np.exp(2j * np.pi / 3.0)
        f_complex = np.mean(np.exp(t * (omega ** np.arange(3) - 1.0)))
        assert abs(f_complex.imag) <= 1e-12
        f_real = (1.0 + 2.0 * np.exp(-1.5 * t) * np.cos(np.sqrt(3.0) * t / 2.0)) / 3.0
        assert f_complex.real == pytest.approx(f_real, abs=1e-12)
        alpha, beta = dy.alpha_beta_at(dy.WeylMixture(3), t)
        assert 1.0 - alpha - beta == pytest.approx(f_real, abs=1e-10)


def dense_weyl_mixture(d, t):
    """Reference: the average of the d(d-1) dense exp(t(C_kl - id)), l > 0."""
    ops = dy.weyl_ops(d)
    eye = np.eye(d * d)
    acc = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for l in range(1, d):
            w = ops[k * d + l]
            acc += expm(t * (np.kron(w.conj(), w) - eye))
    return acc / (d * (d - 1))


def dense_commutant_average(d):
    """Reference: the mean over l > 0 of the group averages (1/d) sum_n C_kl^n."""
    ops = dy.weyl_ops(d)
    acc = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for l in range(1, d):
            w = ops[k * d + l]
            conj_transfer = np.kron(w.conj(), w)
            power = np.eye(d * d, dtype=complex)
            for _ in range(d):
                acc += power / d
                power = power @ conj_transfer
    return acc / (d * (d - 1))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8])
def test_weyl_mixture_matches_dense_reference(d):
    for t in (0.0, 0.05, 0.7, 2.0, 5.0, 50.0):
        diff = np.abs(dy.weyl_mixture_map(d, t).transfer - dense_weyl_mixture(d, t)).max()
        assert diff <= 1e-12
    assert np.abs(dy.weyl_commutant_average(d) - dense_commutant_average(d)).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
def test_weyl_mixture_transfer_of_a_stack_matches_the_map_bit_for_bit(d):
    ts = np.linspace(0.0, 3.0, 6)
    mu = dy._weyl_spectrum(d, ts.reshape(2, 3))
    assert mu.shape == (2, 3, d * d)
    stack = dy._weyl_mixture_transfer(d, mu)
    assert stack.shape == (2, 3, d * d, d * d)
    for t, transfer in zip(ts, stack.reshape(6, d * d, d * d)):
        assert np.array_equal(transfer, dy.weyl_mixture_map(d, t).transfer)


def test_weyl_mixture_makes_no_expm(monkeypatch):
    calls = []
    monkeypatch.setattr(dy, "expm", lambda a: calls.append(a.shape))
    for d in (2, 3, 5, 8):
        dy.weyl_mixture_map(d, 0.7)
        dy.weyl_commutant_average(d)
    assert calls == []
    assert not hasattr(dy, "_shift_weyl_transfers")
    assert not hasattr(dy, "_generator_basis")
    assert not hasattr(dy, "_weyl_power_index")
    assert not hasattr(dy, "_weyl_weights")


def exact_weyl_generator(d, t):
    """L_t = V diag(mu'/(1 + mu)) V^+ from the spectrum, with V built from weyl_ops."""
    ops = np.array(dy.weyl_ops(d))
    v = la.vec(ops).T / np.sqrt(d)  # columns vec(W_ab)/sqrt(d)
    k, l = np.divmod(np.arange(d * d), d)
    n = (k[:, None] * l - l[:, None] * k)[l > 0] % d  # (k, l > 0) x (a, b)
    z = np.exp(2j * np.pi * n / d) - 1.0
    mu = np.exp(t * z).real.sum(axis=0) / (d * (d - 1)) - 1.0
    dmu = (z * np.exp(t * z)).real.sum(axis=0) / (d * (d - 1))
    return (v * (dmu / (1.0 + mu))) @ v.conj().T


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 8), t=st.floats(dy._EXTRACT_DT, 3.0))
def test_extracted_weyl_generator_matches_the_exact_one(d, t):
    # from t = dt on, where the extraction takes central differences
    try:
        rep = dy.extract_time_local_generator(lambda u: dy.weyl_mixture_map(d, u), t)
    except SingularMap:  # some 1 + mu_ab passes through 0
        return
    exact = exact_weyl_generator(d, t)
    assert np.abs(rep.generator.transfer - exact).max() <= 1e-6
    if d == 2:  # kappa = 1, nu = -tanh t
        assert rep.nu_fit == pytest.approx(-np.tanh(t), abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(dy.SCHEDULES)), d=st.integers(2, 16),
       t=st.floats(0.0, 5.0), kappa=st.floats(0.1, 2.0), nu=st.floats(-2.0, 1.0))
def test_every_schedule_map_is_trace_preserving_and_unital(name, d, t, kappa, nu):
    s = dy.schedule_from_name(name, d, kappa, nu)
    m = dy.map_at(s, t)
    assert m.is_trace_preserving() and m.is_unital()
    if name != "weyl":  # the family schedules stay in the (alpha, beta) family
        assert family_fit(m)[2] <= 1e-12


def test_weyl_mixture_asymptotics():
    # equals E4 exactly for prime d; for d=4 coherence transfer survives
    for d in (2, 3, 5):
        m = dy.asymptotic_map(dy.WeylMixture(d))
        e4, _ = named_map("E4", d)
        assert np.abs(m.transfer - e4.transfer).max() <= 1e-12
    m4 = dy.asymptotic_map(dy.WeylMixture(4))
    e4, _ = named_map("E4", 4)
    assert np.abs(m4.transfer - e4.transfer).max() > 0.1
    far = dy.weyl_mixture_map(4, 50.0)
    assert np.abs(m4.transfer - far.transfer).max() <= 1e-10


# --- generator extraction -------------------------------------------------------------

def test_extraction_recovers_constant_generator():
    s = dy.ConstantNu(3, 0.8, -0.6)
    rep = dy.extract_time_local_generator(lambda t: dy.map_at(s, t), 0.9)
    assert rep.kappa_fit == pytest.approx(0.8, abs=1e-6)
    assert rep.nu_fit == pytest.approx(-0.6, abs=1e-6)
    assert rep.residual <= 1e-6


def test_extraction_enm2_rates():
    for d in (2, 3):
        s = dy.ENM2(d)
        t1 = np.log(d) / d
        for t in (0.35 * t1, 0.7 * t1, 1.6 * t1):
            rep = dy.extract_time_local_generator(lambda u: dy.map_at(s, u), t)
            kappa_true = d / (d - np.exp(d * t))
            nu_true = 1.0 - np.exp(d * t)
            assert rep.kappa_fit == pytest.approx(kappa_true, rel=1e-4)
            assert rep.nu_fit == pytest.approx(nu_true, rel=1e-4)


def test_extraction_enm_schedule():
    d = 4
    s = dy.OptimalENM(d)
    for t in (0.2, 1.0):
        rep = dy.extract_time_local_generator(lambda u: dy.map_at(s, u), t)
        assert rep.kappa_fit == pytest.approx(1.0, rel=1e-4)
        assert rep.nu_fit == pytest.approx(dy.nu_enm(d, t), rel=1e-4)


def test_extraction_singular_at_enm2_blowup():
    # at every d, before any inverse is taken: no numpy warning either
    for d in range(2, 17):
        fn, t1 = (lambda u, s=dy.ENM2(d): dy.map_at(s, u)), np.log(d) / d
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMap):
                dy.extract_time_local_generator(fn, t1)
        with pytest.raises(SingularMap):
            dense_extraction(fn, t1)


@pytest.mark.parametrize("d", [2, 5, 16])
def test_extraction_singular_on_a_zero_one_by_one_block(d):
    # one coherence entry of a regular family map set to zero: that 1 x 1
    # block's singular value is 0, so the condition number is infinite
    def fn(u):
        transfer = dy.map_at(dy.ConstantNu(d, 0.8, -0.6), u).transfer.copy()
        transfer[1, 1] = 0.0
        return dy.SuperMap(d, transfer)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMap, match="inf"):
            dy.extract_time_local_generator(fn, 0.4)
    with pytest.raises(SingularMap):
        dense_extraction(fn, 0.4)


def _extraction_cases(d):
    """(label, map_fn, t) for every schedule at a forward- and a central-difference
    time, a Hamiltonian (complex transfers), a random dense map (one component),
    and a family map's transposed transfer (not C-contiguous)."""
    t1 = math.log(d) / d  # ENM2's blow-up
    for name in sorted(dy.SCHEDULES):
        s = dy.schedule_from_name(name, d, 0.8, -0.6)
        for t in ((3e-6, 0.4 * t1, 1.6 * t1) if name == "enm2" else (3e-6, 0.7)):
            yield f"{name} t={t:.3g}", (lambda u, s=s: dy.map_at(s, u)), t
    s, h = dy.ConstantNu(d, 0.8, -0.6), np.linspace(-1.0, 1.0, d)
    yield "h", (lambda u: dy.map_at(s, u, h)), 0.7
    rng = np.random.default_rng(d)
    a, b = rng.standard_normal((2, d * d, d * d)) + 1j * rng.standard_normal((2, d * d, d * d))
    yield "dense", (lambda u: dy.SuperMap(d, np.eye(d * d) + u * a + u * u * b)), 0.3
    yield "transposed", (lambda u: dy.SuperMap(d, dy.map_at(s, u, h).transfer.T)), 0.7


@pytest.mark.parametrize("d", range(2, 17))
def test_extraction_matches_the_dense_reference(d):
    # the dense path rounds its singular values, inverse and product to
    # eps times the condition number, so that is the scale of the tolerance
    for label, fn, t in _extraction_cases(d):
        try:
            gen, kappa, nu, residual, cond = dense_extraction(fn, t)
        except SingularMap:  # a Weyl 1 + mu_ab through 0; the other path must agree
            with pytest.raises(SingularMap):
                dy.extract_time_local_generator(fn, t)
            continue
        rep = dy.extract_time_local_generator(fn, t)
        tol = 64 * np.finfo(float).eps * cond * np.abs(gen).max()
        assert np.abs(rep.generator.transfer - gen).max() <= tol, label
        assert abs(rep.kappa_fit - kappa) <= tol, label
        assert abs(rep.nu_fit - nu) <= tol * d / abs(kappa), label
        assert abs(rep.condition_number - cond) <= 64 * np.finfo(float).eps * cond * cond, label
        assert abs(rep.residual - residual) <= tol * d * d, label


def test_a_warm_extraction_and_fit_solve_nothing_larger_than_d(monkeypatch):
    # no d^2 x d^2 svd, cond or inverse, and no lstsq over d^4 rows: every
    # np.linalg call gets vectors or matrices of order at most d
    d, shapes = 16, []
    s = dy.ConstantNu(d, 0.8, -0.6)
    extract = lambda: dy.extract_time_local_generator(lambda u: dy.map_at(s, u), 0.5)
    weyl = dy.weyl_mixture_map(d, 0.5)
    extract(), family_fit(weyl)
    for name in ("svd", "inv", "cond", "lstsq", "pinv", "solve", "norm", "eig", "eigh",
                 "eigvals", "eigvalsh", "qr", "det", "matrix_rank"):
        def spy(*args, _call=getattr(np.linalg, name), **kwargs):
            shapes.extend(np.shape(a) for a in args if isinstance(a, np.ndarray))
            return _call(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    rep = extract()
    fit = family_fit(weyl)
    assert shapes  # the spies see the blockwise calls
    assert all(max(shape[-2:], default=0) <= d for shape in shapes if len(shape) >= 2), shapes
    assert rep.kappa_fit == pytest.approx(0.8, rel=1e-6) and fit[2] > 0.0


def test_extraction_weyl_mixture_d2_gives_tanh():
    for t in (0.4, 1.3):
        rep = dy.extract_time_local_generator(
            lambda u: dy.weyl_mixture_map(2, u), t
        )
        assert rep.kappa_fit == pytest.approx(1.0, abs=1e-6)
        assert rep.nu_fit == pytest.approx(-np.tanh(t), abs=1e-6)


def test_kappa_nu_undefined_for_weyl_mixture():
    with pytest.raises(UnknownName):
        dy.kappa_nu_at(dy.WeylMixture(3), 0.5)


# --- trajectory points -------------------------------------------------------------

def test_trajectory_point_flags():
    pt_cp = dy.trajectory_point(dy.OptimalENM(3), 0.4)
    assert pt_cp.schwarz_flag == "in" and pt_cp.verdict.completely_positive
    assert -1e-10 <= pt_cp.min_choi_eig <= 1e-8

    pt_out = dy.trajectory_point(dy.ConstantNu(3, 1.0, -1.5), 0.3)
    assert pt_out.schwarz_flag == "out" and not pt_out.verdict.positive

    # positive but outside CP with no falsifier budget: honestly unknown
    pt_unknown = dy.trajectory_point(dy.ConstantNu(3, 1.0, -0.5), 0.2)
    assert pt_unknown.verdict.positive
    assert not pt_unknown.verdict.completely_positive
    assert pt_unknown.schwarz_flag == "unknown"


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(dy.SCHEDULES)), d=st.integers(2, 16),
       t=st.floats(0.0, 3.0), kappa=st.floats(0.1, 2.0), nu=st.floats(-1.0, 1.0))
def test_trajectory_min_choi_eig_matches_dense_solve(name, d, t, kappa, nu):
    # the blockwise minimum against one dense d^2 x d^2 solve of the same map
    s = dy.schedule_from_name(name, d, kappa, nu)
    dense = np.linalg.eigvalsh(dy.map_at(s, t).choi)[0]
    assert abs(dy.trajectory_point(s, t).min_choi_eig - dense) <= 1e-12


def test_trajectory_point_builds_the_weyl_mixture_once(monkeypatch):
    calls = []
    original = dy.weyl_mixture_map

    def counting(d, t):
        calls.append((d, t))
        return original(d, t)

    monkeypatch.setattr(dy, "weyl_mixture_map", counting)
    pt = dy.trajectory_point(dy.WeylMixture(3), 0.7)
    assert len(calls) == 1
    assert (pt.alpha, pt.beta) == dy.alpha_beta_at(dy.WeylMixture(3), 0.7)


# --- rate-bound violation signature ----------------------------------------------------

def test_enm_rate_violation():
    from quditmaps.generators import GenParams, spectrum_rates

    for d in (2, 3, 6):
        nu = dy.nu_enm(d, 25.0)
        rep = spectrum_rates(GenParams(d, 1.0, nu))
        assert rep.gamma_diag == pytest.approx(d)
        assert rep.gamma_offdiag == pytest.approx(0.0, abs=1e-8)
        assert rep.gamma_total == pytest.approx(d * (d - 1.0), abs=1e-6)
        assert rep.gamma_diag - rep.gamma_total / d == pytest.approx(1.0, abs=1e-6)
