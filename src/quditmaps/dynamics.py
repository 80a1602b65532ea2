"""Time-dependent evolutions: semigroup trajectories, non-Markovian schedules,
region-crossing times, asymptotic maps, and time-local generator extraction.

A schedule fixes the time dependence (kappa(t), nu(t)) of the generator
family.  With A(t) = exp(-d Int kappa) and B(t) = exp(-Int kappa (d-1+nu)),
the evolution stays inside the two-parameter map family with coordinates

    alpha(t) = 1 - A(t),       beta(t) = A(t) - B(t).

Implemented schedules:

* ``ConstantNu``        -- the Markovian semigroup, alpha = 1 - e^{-kappa d t},
                           beta = e^{-kappa d t} - e^{-kappa (d-1+nu) t}.
* ``OptimalENM``        -- kappa = 1 and nu(t) = -(d-1)(e^{dt}-1)/(e^{dt}+d-1),
                           the schedule that saturates the complete-positivity
                           bound: the trajectory rides beta = -alpha/d forever
                           (eternally non-Markovian) and converges to the
                           entanglement-breaking map E4.
* ``PDivisible``        -- the ENM schedule until nu reaches -1 at t_*, frozen
                           at nu = -1 afterwards; relaxes to the completely
                           depolarizing channel.
* ``SchwarzDivisible``  -- same but frozen at the Schwarz threshold -d/(d+2)
                           from t_S on.
* ``ENM2``              -- the closed-form boundary map alpha(t) =
                           d(1-e^{-dt})/(d-1), beta = -alpha/d, whose
                           time-local rates kappa(t) = d/(d - e^{dt}),
                           nu(t) = 1 - e^{dt} blow up at t1 = ln(d)/d; the map
                           itself stays regular, passes through E4 at t1 and
                           converges to E3.
* ``WeylMixture``       -- the uniform mixture of the d(d-1) unitary-conjugation
                           semigroups generated by the shifting Weyl operators
                           Z^k X^l (l > 0).  Its time-local rates are only
                           reported through numerical extraction; see
                           ``extract_time_local_generator``.

Each schedule is a subclass of ``Schedule`` that owns its behaviour:
``kappa_nu(t)``, ``alpha_beta(t)``, ``limit()``, and ``points(ts)``, the
coordinates and Choi minima of a trajectory on a grid of times.  A family
schedule gives ``kappa_nu`` and ``alpha_beta`` only, and its
``alpha_beta`` takes an array of times as well as one time, elementwise,
with the floats of the one-time call: its map, points and limit (the
family map at ``alpha_beta(inf)``) follow from them.  Adding a schedule
means adding one such class (and a name in ``SCHEDULES`` for the CLI); the
public functions ``kappa_nu_at``, ``alpha_beta_at``, ``map_at`` and
``asymptotic_map`` are thin wrappers around those methods.

``trajectory(s, ts)`` classifies a whole time grid at once: one
``alpha_beta`` call, one check of the coordinates, one
``regions.family_min_eig`` call for the Choi minima and the closed-form
slacks on the arrays; ``trajectory_point`` is its one-time case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .channels import (
    MapParams,
    SuperMap,
    build_phi_family,
    compose,
    coordinates_finite,
    family_fit,
    support_columns,
    support_fit,
    unitary_conjugation,
)
from .errors import (
    DimensionMismatch, NegativeRate, NegativeTime, NoLimit, SingularMap, UnknownName,
)
from .generators import (
    GenParams, ccp_threshold, generator_blocks, positivity_threshold, schwarz_threshold,
)
from .linalg import affine_blocks, bisect, check_dimension, min_eig_gathered
from .regions import RegionVerdict, _closed_slacks, _flags, family_min_eig

__all__ = [
    "ConstantNu", "OptimalENM", "PDivisible", "SchwarzDivisible", "ENM2",
    "WeylMixture", "Schedule", "SCHEDULES", "SwitchTimes", "CrossingReport",
    "ExtractionReport", "TrajectoryPoint", "nu_enm", "switch_times",
    "alpha_beta_at", "kappa_nu_at", "map_at", "asymptotic_map",
    "crossing_times", "tangency_slope", "weyl_ops", "weyl_mixture_map",
    "weyl_commutant_average", "extract_time_local_generator",
    "schedule_from_name", "Trajectory", "trajectory", "trajectory_point",
]


def _check_time(t: float) -> float:
    """A finite t >= 0; the t -> infinity limit is ``asymptotic_map``."""
    t = float(t)
    if not (math.isfinite(t) and t >= 0):
        raise NegativeTime(f"time must be a finite number >= 0, got {t}")
    return t


def _check_times(ts) -> np.ndarray:
    """A 1-D float array of finite times >= 0; the first that is not raises
    as ``_check_time`` does."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    bad = np.flatnonzero(~(np.isfinite(ts) & (ts >= 0)))
    if bad.size:
        _check_time(ts[bad[0]])
    return ts


# ---------------------------------------------------------------------------
# the ENM schedule and its switch times
# ---------------------------------------------------------------------------

def nu_enm(d: int, t) -> np.ndarray | float:
    """nu(t) = -(d-1)(e^{dt} - 1)/(e^{dt} + d - 1).

    Monotone decreasing from 0 to -(d-1); equals -tanh(t) for d = 2.
    Evaluated through e^{-dt} so large times do not overflow.
    """
    check_dimension(d)
    em = np.exp(-d * np.asarray(t, dtype=float))
    out = -(d - 1.0) * (1.0 - em) / (1.0 + (d - 1.0) * em) + 0.0
    return float(out) if np.isscalar(t) else out


@dataclass(frozen=True)
class SwitchTimes:
    t_star: float  # nu_enm reaches -1 (infinity for d = 2)
    t_s: float     # nu_enm reaches -d/(d+2)


def switch_times(d: int) -> SwitchTimes:
    """Times where the ENM schedule crosses the positivity and Schwarz thresholds.

    t_* = (1/d) ln(2(d-1)/(d-2)) for d > 2 (infinite for d = 2) and
    t_S = (1/d) ln(2(d^2-1)/(d^2-2)).  A pure function of d, cached per d:
    the frozen schedules read it on every ``kappa_nu`` and ``alpha_beta``.
    """
    return _switch_times(check_dimension(d))


@lru_cache(maxsize=None)
def _switch_times(d: int) -> SwitchTimes:
    t_star = np.inf if d == 2 else np.log(2.0 * (d - 1) / (d - 2)) / d
    t_s = np.log(2.0 * (d * d - 1) / (d * d - 2)) / d
    return SwitchTimes(t_star=float(t_star), t_s=float(t_s))


def _enm_id_coefficient(d: int, t: float) -> float:
    """B(t) = (1 + (d-1) e^{-dt}) / d of the boundary-saturating schedule."""
    return (1.0 + (d - 1.0) * np.exp(-d * t)) / d


# ---------------------------------------------------------------------------
# the schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """A time dependence (kappa(t), nu(t)) of the generator family in dimension d.

    Subclasses implement ``kappa_nu`` and ``alpha_beta``; ``alpha_beta``
    takes one time or an array of times, elementwise, and gives at each time
    the floats of the one-time call.  The default ``map`` builds the family
    map from ``alpha_beta``, the default ``points`` reads the family's
    cached Choi blocks for a whole time grid, and the default ``limit`` is
    the family map at ``alpha_beta(inf)``.  Only a schedule that leaves the
    family overrides them.  The methods take t >= 0 unchecked; the
    module-level wrappers check it.  Subclasses that add no fields need no
    ``@dataclass`` of their own.
    """

    d: int

    def __post_init__(self):
        check_dimension(self.d)

    def kappa_nu(self, t: float):
        """The rates (kappa(t), nu(t))."""
        raise NotImplementedError

    def alpha_beta(self, t):
        """The family coordinates (alpha(t), beta(t)) of the map at time t,
        or arrays of them at an array of times."""
        raise NotImplementedError

    def limit(self) -> SuperMap:
        """The t -> infinity limit of the dynamical map: the family map at
        ``alpha_beta(inf)``.

        The closed forms evaluate to their limits at t = inf in IEEE
        arithmetic: a decaying exponential is 0 there.  A trajectory that
        does not decay gives an inf or NaN coordinate (an exponent of +inf,
        or 0 * inf), and raises NoLimit: for ``ConstantNu`` that is
        d - 1 + nu <= 0 or kappa <= 0, and also a rate kappa (d - 1 + nu)
        that underflows to 0 (a subnormal kappa), with which the computed
        trajectory does not decay at any finite t either.
        """
        alpha, beta = self.alpha_beta(math.inf)
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise NoLimit(f"the {type(self).__name__} trajectory has no finite limit "
                          f"for d={self.d}: (alpha, beta)(inf) = ({alpha}, {beta})")
        return build_phi_family(MapParams(self.d, alpha, beta))

    def map(self, t: float) -> SuperMap:
        """The dynamical map at time t."""
        return build_phi_family(self._params(t))

    def points(self, ts: np.ndarray):
        """Arrays (alpha, beta, smallest Choi eigenvalue) of the maps at the 1-D times ``ts``.

        One ``alpha_beta`` call gives the coordinates, and
        ``channels.coordinates_finite``, ``MapParams``' rule, checks them
        all before any solve: the first time whose coordinates overflow
        raises as ``_params`` does.  The eigenvalues are one
        ``regions.family_min_eig`` call on the paired coordinates: a
        combination of the family's cached Choi blocks, with no map built,
        in chunks of bounded bytes; a point gets the same floats in any chunk
        as alone.
        """
        alphas, betas = self.alpha_beta(ts)
        bad = np.flatnonzero(~coordinates_finite(self.d, alphas, betas))
        if bad.size:
            self._params(float(ts[bad[0]]))  # raises, naming that time
        return alphas, betas, family_min_eig(self.d, "choi", alphas, betas)

    def _params(self, t: float) -> MapParams:
        """The checked family coordinates at time t (``channels.MapParams``).

        Coordinates that overflow raise ``DimensionMismatch`` naming the
        schedule, t and the rates (kappa(t), nu(t)), on one line.
        """
        alpha, beta = self.alpha_beta(t)
        try:
            return MapParams(self.d, alpha, beta)
        except DimensionMismatch as exc:
            kappa, nu = self.kappa_nu(t)
            raise DimensionMismatch(
                f"the {type(self).__name__} trajectory overflows at t = {t} with "
                f"(kappa, nu) = ({kappa}, {nu}): {exc}") from None


@dataclass(frozen=True)
class ConstantNu(Schedule):
    kappa: float
    nu: float

    def __post_init__(self):
        super().__post_init__()
        GenParams(self.d, self.kappa, self.nu)  # the generator's checks: finite rates

    def kappa_nu(self, t):
        return self.kappa, self.nu

    def alpha_beta(self, t):
        d = self.d
        # a growing trajectory overflows to inf (and inf - inf to nan); MapParams rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            a_fac = np.exp(-self.kappa * d * t)
            b_fac = np.exp(-self.kappa * (d - 1.0 + self.nu) * t)
            return 1.0 - a_fac, a_fac - b_fac


class OptimalENM(Schedule):
    def kappa_nu(self, t):
        return 1.0, nu_enm(self.d, t)

    def alpha_beta(self, t):
        # A - B with B = (1 + (d-1)A)/d collapses to -alpha/d; computing it
        # that way keeps the trajectory on the CP boundary bitwise.  A huge
        # array t makes d t inf, whose exponential is 0, without a warning
        with np.errstate(over="ignore"):
            alpha = 1.0 - np.exp(-self.d * t)
        return alpha, -alpha / self.d


class _FrozenENM(Schedule):
    """The ENM schedule until a switch time t_sw, then nu frozen at nu_f;
    subclasses give ``_switch() -> (t_sw, nu_f)``.

    After the switch the coherence coefficient decays at the frozen rate
    d - 1 + nu_f from its ENM value, so B(t) = B_enm(t_sw) e^{-(d-1+nu_f)(t-t_sw)}.
    """

    def kappa_nu(self, t):
        t_sw, nu_f = self._switch()
        return 1.0, nu_enm(self.d, t) if t <= t_sw else nu_f

    def alpha_beta(self, t):
        """OptimalENM's coordinates up to t_sw and the frozen rate's after,
        chosen per element of t.  Both share alpha = 1 - e^{-dt}; the branch
        not chosen may be inf or NaN (at d = 2, t_* is inf) and warns nothing."""
        d = self.d
        t_sw, nu_f = self._switch()
        with np.errstate(over="ignore", invalid="ignore"):
            a_fac = np.exp(-d * t)
            b_fac = _enm_id_coefficient(d, t_sw) * np.exp(-(d - 1.0 + nu_f) * (t - t_sw))
            alpha = 1.0 - a_fac
            return alpha, np.where(t <= t_sw, -alpha / d, a_fac - b_fac)[()]


class PDivisible(_FrozenENM):
    def _switch(self):
        return switch_times(self.d).t_star, positivity_threshold(self.d)


class SchwarzDivisible(_FrozenENM):
    def _switch(self):
        return switch_times(self.d).t_s, schwarz_threshold(self.d)


class ENM2(Schedule):
    def kappa_nu(self, t):
        """(d/(d - e^{dt}), 1 - e^{dt}); singular at t1 = ln(d)/d.

        Once e^{dt} overflows to inf, the rates are their IEEE limits,
        kappa = -0.0 and nu = -inf (the t -> infinity limits kappa -> 0 and
        nu -> -inf), and the overflow warns nothing.
        """
        with np.errstate(over="ignore"):
            e = np.exp(self.d * t)
        if abs(self.d - e) < 1e-12:
            raise SingularMap(f"ENM2 rates are singular at t1 = ln(d)/d for d={self.d}")
        return self.d / (self.d - e), 1.0 - e

    def alpha_beta(self, t):
        with np.errstate(over="ignore"):  # d t may overflow to inf: e^{-inf} = 0
            alpha = self.d * (1.0 - np.exp(-self.d * t)) / (self.d - 1.0)
        return alpha, -alpha / self.d


class WeylMixture(Schedule):
    def kappa_nu(self, t):
        raise UnknownName(
            "WeylMixture has no closed-form (kappa, nu); use "
            "extract_time_local_generator"
        )

    def alpha_beta(self, t):
        return family_fit(self.map(t))[:2]

    def limit(self):
        return SuperMap(self.d, weyl_commutant_average(self.d))

    def map(self, t):
        return weyl_mixture_map(self.d, t)

    def points(self, ts):
        """The fit of the mixture map and its Choi minimum at each time, from
        one map build per time.

        The mixture leaves the family at composite d, so its Choi matrix is
        solved blockwise on its own nonzero pattern (blocks of at most d x d)
        by ``linalg.affine_blocks`` and ``linalg.min_eig_gathered``.  The
        pattern is the same at every t > 0, so only the first such time
        labels it.
        """
        out = np.empty((3, len(ts)))
        for i, t in enumerate(ts):
            m = self.map(float(t))
            choi_min = min(min_eig_gathered(size, blocks[0])
                           for size, _, blocks in affine_blocks((m.choi,)))
            out[:, i] = (*family_fit(m)[:2], choi_min)
        return out[0], out[1], out[2]


# CLI name -> constructor from (d, kappa, nu)
SCHEDULES = {
    "const": ConstantNu,
    "enm": lambda d, kappa, nu: OptimalENM(d),
    "pdiv": lambda d, kappa, nu: PDivisible(d),
    "sdiv": lambda d, kappa, nu: SchwarzDivisible(d),
    "enm2": lambda d, kappa, nu: ENM2(d),
    "weyl": lambda d, kappa, nu: WeylMixture(d),
}


def schedule_from_name(name: str, d: int, kappa: float = 1.0,
                       nu: float = 0.0) -> Schedule:
    """CLI-facing constructor: const, enm, pdiv, sdiv, enm2, weyl."""
    key = name.lower()
    if key not in SCHEDULES:
        raise UnknownName(f"unknown schedule {name!r}; choose from {sorted(SCHEDULES)}")
    return SCHEDULES[key](d, kappa, nu)


# ---------------------------------------------------------------------------
# schedule rates, trajectory coordinates, maps and limits
# ---------------------------------------------------------------------------

def kappa_nu_at(s: Schedule, t: float):
    """(kappa(t), nu(t)) of a schedule.  Not defined for WeylMixture, whose
    time-local rates are only available through numerical extraction."""
    return s.kappa_nu(_check_time(t))


def alpha_beta_at(s: Schedule, t: float):
    """Trajectory coordinates (alpha(t), beta(t)) in closed form.

    For WeylMixture the coordinates are the least-squares family fit of the
    mixture map; the fit is exact when d is prime (the mixture then stays in
    the family) and approximate otherwise.
    """
    return s.alpha_beta(_check_time(t))


def map_at(s: Schedule, t: float, h=None) -> SuperMap:
    """The dynamical map at time t.

    All schedules except WeylMixture stay in the two-parameter family and
    are built from their closed-form (alpha, beta); the mixture is the
    average of the d(d-1) unitary-conjugation semigroups.  With a diagonal
    Hamiltonian vector ``h`` the map is composed with conjugation by
    exp(-i H t).
    """
    t = _check_time(t)
    m = s.map(t)
    if h is not None and any(float(x) != 0.0 for x in h):
        u = np.diag(np.exp(-1j * np.asarray(h, dtype=float) * t))
        m = compose(unitary_conjugation(u), m)
    return m


def asymptotic_map(s: Schedule) -> SuperMap:
    """The t -> infinity limit of the schedule's dynamical map.

    A family schedule's limit is the family map at its ``alpha_beta(inf)``
    (``Schedule.limit``): OptimalENM converges to E4; PDivisible,
    SchwarzDivisible, and any ConstantNu with kappa > 0 and nu > -(d-1)
    relax to the completely depolarizing channel; ENM2 converges to E3.
    WeylMixture converges to the average of the cyclic-group conditional
    expectations of its Weyl unitaries (equal to E4 exactly when d is
    prime).  Raises NoLimit when the coordinates do not converge
    (ConstantNu with kappa <= 0 or nu <= -(d-1)).
    """
    return s.limit()


# ---------------------------------------------------------------------------
# region crossings along the Markovian trajectory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossingReport:
    """Entry times into the positive / CP / EB regions; None = not reached.

    ``margins`` holds the boundary-functional values at the scan horizon,
    so an absent crossing still reports how far the trajectory ended up
    from the boundary.
    """

    t_p: Optional[float]
    t_cp: Optional[float]
    t_eb: Optional[float]
    margins: dict
    horizon: float


# ``crossing_times`` looks for crossings on (0, _HORIZON].
_HORIZON = 50.0


def _first_root(g: Callable[[float], float], kappa: float) -> Optional[float]:
    """First time t in (0, _HORIZON] at which g(kappa t) changes sign.

    The scan grows s = kappa t from 1e-6 by factors of 1.5 until g >= 0, then
    ``linalg.bisect`` shrinks that bracket until its ends are adjacent floats.
    The root is the end where g >= 0: in s, g < 0 at the float just below it.
    """
    s_lo, horizon = 1e-6, _HORIZON * kappa
    if g(s_lo) >= 0.0:
        return 0.0 if g(0.0) >= -1e-15 else None
    s_hi = s_lo
    while s_hi < horizon:
        s_next = min(s_hi * 1.5, horizon)
        if g(s_next) >= 0.0:
            return float(bisect(lambda s: g(s) >= 0.0, s_hi, s_next)[1]) / kappa
        s_hi = s_next
    return None


def _boundary_functionals(d: int, nu: float) -> dict:
    """The P, CP and EB boundary functionals of the constant-nu trajectory in s = kappa t.

    With f(x) = -expm1(-x) and c = d - 1 + nu the trajectory is
    alpha = f(d s), beta = f(c s) - f(d s).  The lower boundary
    beta + m alpha/d >= 0 (m = 2: P, m = 1: CP) is split as
    [f(c s) - f((d-m) s)] + [f((d-m) s) - (d-m) f(d s)/d], where

    * the first bracket is e^{-(d-m)s} f((m-1+nu) s), or -e^{-cs} f(-(m-1+nu) s)
      when m - 1 + nu < 0, so neither factor overflows into inf * 0;
    * the second is expm1(-s)^2 q(e^{-s}) / d with
      q(y) = m sum_{n<k} (n+1) y^n + (m-1) k y^k, k = d - m: a polynomial
      with nonnegative coefficients, since 1 - d y^k + k y^d = (1-y)^2 q(y)
      for m = 1, and 2 - d y^k + k y^d = (1-y)^2 q(y) for m = 2.

    No term cancels against another, so g is exact to a few eps of its own
    size near s = 0 and at flat roots, where 1 - A and A - B would each
    carry an error of eps.  The EB boundary beta >= 1 - alpha - alpha/d is
    alpha/d - e^{-cs}.
    """
    c = d - 1.0 + nu

    def lower(m):
        k, rate = d - m, m - 1 + nu
        q = [float(m * (n + 1)) for n in range(k)] + [float((m - 1) * k)]

        def g(s):
            if rate >= 0:
                near = math.exp(-k * s) * -math.expm1(-rate * s)
            else:
                near = -_exp(-c * s) * -math.expm1(rate * s)
            y, poly = math.exp(-s), 0.0
            for coef in reversed(q):  # Horner
                poly = poly * y + coef
            return near + math.expm1(-s) ** 2 * poly / d
        return g

    return {"P": lower(2), "CP": lower(1),
            "EB": lambda s: -math.expm1(-d * s) / d - _exp(-c * s)}


def _exp(x: float) -> float:
    """e^x, or inf where it overflows (a trajectory that does not decay)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def crossing_times(d: int, kappa: float, nu: float) -> CrossingReport:
    """Times at which the constant-nu trajectory (re)enters P, CP, and EB.

    The scan ends at t = 50 (``_HORIZON``), where ``margins`` are taken.
    For nu >= -1 the map never leaves the positivity region (t_p = 0); for
    nu >= 0 it never leaves CP (t_cp = 0).  The EB entry time is the root of
    the binding inequality beta >= 1 - alpha - alpha/d, which exists for
    every decaying trajectory (d - 1 + nu > 0).  The trajectory depends on
    kappa t only, so the roots are found in s = kappa t, from s = 1e-6 on,
    and the same crossings are found at every kappa.  The boundary
    functionals are evaluated without cancellation
    (``_boundary_functionals``), and each root is bisected to the last
    float: the functional is >= 0 at the reported s and < 0 at the float
    below it (numpy only; no tolerance to choose).
    Raises NegativeRate unless kappa and nu are finite and kappa > 0.
    """
    ConstantNu(d, kappa, nu)  # checks d and finite rates
    if kappa <= 0:
        raise NegativeRate(f"kappa must be > 0, got {kappa}")
    g = _boundary_functionals(d, nu)
    t_p = 0.0 if nu >= -1.0 else _first_root(g["P"], kappa)
    t_cp = 0.0 if nu >= 0.0 else _first_root(g["CP"], kappa)
    t_eb = _first_root(g["EB"], kappa)
    margins = {k: f(kappa * _HORIZON) for k, f in g.items()}
    return CrossingReport(t_p=t_p, t_cp=t_cp, t_eb=t_eb, margins=margins,
                          horizon=_HORIZON)


def tangency_slope(d: int, kappa: float, nu: float, boundary: str) -> float:
    """d/dt at t = 0 of the boundary functional along the semigroup trajectory.

    Returns kappa*(nu+1) for the positivity boundary, kappa*nu for the CP
    boundary, and kappa*(nu + d/(d+2)) for the Schwarz tangency line.
    """
    check_dimension(d)
    slopes = {
        "P": kappa * (nu - positivity_threshold(d)),
        "CP": kappa * (nu - ccp_threshold(d)),
        "SCHWARZ": kappa * (nu - schwarz_threshold(d)),
    }
    key = boundary.upper()
    if key not in slopes:
        raise UnknownName(
            f"unknown boundary {boundary!r}; choose from {sorted(slopes)}"
        )
    return slopes[key]


# ---------------------------------------------------------------------------
# Weyl operators and the mixture of conjugation semigroups
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _weyl_cached(d: int) -> np.ndarray:
    """The d^2 Weyl unitaries as one read-only (d^2, d, d) stack.

    W_kl[r, c] = omega^(k r) where r = c + l (mod d), and 0 elsewhere.
    """
    check_dimension(d)
    k, l, r, c = np.ogrid[:d, :d, :d, :d]
    ops = (np.exp(2j * np.pi * (k * r % d) / d) * ((c + l) % d == r)).reshape(d * d, d, d)
    ops.flags.writeable = False
    return ops


def weyl_ops(d: int):
    """The d^2 Weyl unitaries W_{kl} = Z^k X^l, indexed by k*d + l.

    Z is the diagonal clock, X the cyclic shift.  Their uniform twirl is
    completely depolarizing: sum_{kl} W X W^+ = d * I * Tr X.
    """
    return list(_weyl_cached(d))


@lru_cache(maxsize=None)
def _weyl_tables(d: int):
    """Read-only tables ``(counts, wave, lag, rows, cols)`` of the Weyl mixture.

    Conjugation by W_kl scales W_ab by omega^n, n = (k b - l a) mod d.
    ``counts[a d + b, n]`` is the number of (k, l > 0) with that n.  The
    other four build the transfer; see ``_weyl_mixture_transfer``.
    """
    k, l = np.divmod(np.arange(d * d), d)
    n = (k[l > 0, None] * l - l[l > 0, None] * k) % d  # rows (k, l > 0), columns (a, b)
    counts = (n[..., None] == np.arange(d)).sum(axis=0).astype(float)
    m = np.arange(d)
    wave = np.cos(2.0 * np.pi * (m[:, None] * m % d) / d) / d  # [m, a]: cos(2 pi a m / d) / d
    lag = (m[:, None] - m) % d  # [r, r']: m = r - r'
    b, r, r2 = np.ogrid[:d, :d, :d]
    # vec stacks columns, so entry (r, c) of a matrix sits at index c d + r
    rows, cols = (r - b) % d * d + r, (r2 - b) % d * d + r2
    tables = (counts, wave, lag, rows, cols)
    for table in tables:
        table.flags.writeable = False
    return tables


def _weyl_spectrum(d: int, t) -> np.ndarray:
    """mu(t): the Weyl mixture at time t scales W_ab by 1 + mu_ab(t).

    exp(t(C_kl - id)) scales W_ab by exp(t(omega^n - 1)), so
    mu_ab = sum_n counts[ab, n] expm1(t(omega^n - 1)) / (d(d-1)), which is
    real since n and d - n occur equally often.  ``t`` is a number or an
    array of times; the result has shape t.shape + (d^2,), and each row is
    summed as a single time's would be.  At a huge t the exponent's real
    part overflows to -inf, where expm1 is -1: the limit, without a warning.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.expm1(t[..., None] * (np.exp(2j * np.pi * np.arange(d) / d) - 1.0)).real
    return (e[..., None, :] * _weyl_tables(d)[0]).sum(axis=-1) / (d * (d - 1))


def _weyl_mixture_transfer(d: int, mu: np.ndarray) -> np.ndarray:
    """Transfers I + sum_ab mu_ab vec(W_ab) vec(W_ab)^+ / d, for mu of shape (..., d^2).

    vec(W_ab)/sqrt(d) is an orthonormal basis, so this is the map that
    scales W_ab by 1 + mu_ab.  W_ab is nonzero only where r - c = b, with
    entries omega^(a r); so the transfer is nonzero only between (r, c) and
    (r', c') with r - c = r' - c' = b, where it is the sum over a of
    mu_ab omega^(a (r - r')) / d.  mu_ab equals mu_{-a, b}, so that sum is
    real: g[b, m] = sum_a mu_ab cos(2 pi a m / d) / d at m = (r - r') mod d.
    At mu = 0 the result is exactly the identity.
    """
    _, wave, lag, rows, cols = _weyl_tables(d)
    mu = np.asarray(mu, dtype=float)
    by_b = mu.reshape(mu.shape[:-1] + (d, d)).swapaxes(-1, -2)[..., None, :]
    g = (by_b * wave).sum(axis=-1)  # (..., b, m)
    out = np.zeros(mu.shape[:-1] + (d * d, d * d))
    out[..., rows, cols] = g[..., lag]
    out.reshape(mu.shape[:-1] + (-1,))[..., ::d * d + 1] += 1.0  # the diagonal
    return out


# Kept only because perfbench/tracer.py patches ``dynamics.expm``.  Nothing in
# the package calls it: the Weyl mixture is built from its spectrum.
def expm(a) -> np.ndarray:
    """``scipy.linalg.expm`` of a square matrix or a stack of them."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


def weyl_mixture_map(d: int, t: float) -> SuperMap:
    """Uniform mixture of the d(d-1) semigroups exp(t(W . W^+ - id)), l > 0.

    The mixture is CPTP for every t >= 0 and its Choi matrix is singular
    (the map rides the boundary of complete positivity).
    """
    t = _check_time(t)
    check_dimension(d)
    return SuperMap(d, _weyl_mixture_transfer(d, _weyl_spectrum(d, t)))


def weyl_commutant_average(d: int) -> np.ndarray:
    """Exact t -> infinity transfer of the Weyl mixture.

    Conjugation by W_{kl} has order dividing d, so each semigroup converges
    to the group average (1/d) sum_n C^n, the conditional expectation onto
    the commutant of W_{kl}: it keeps W_ab when n = 0 and drops it
    otherwise.  So mu_ab(infinity) = counts[ab, 0] / (d(d-1)) - 1.
    """
    check_dimension(d)
    return _weyl_mixture_transfer(d, _weyl_tables(d)[0][:, 0] / (d * (d - 1)) - 1.0)


# ---------------------------------------------------------------------------
# time-local generator extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtractionReport:
    generator: SuperMap
    kappa_fit: float
    nu_fit: float
    residual: float
    condition_number: float


# Step of the finite differences in ``extract_time_local_generator``, and the
# transfer condition number above which it calls the map singular.
_EXTRACT_DT = 1e-5
_COND_LIMIT = 1e12


@lru_cache(maxsize=None)
def _generator_fit_columns(d: int) -> tuple:
    hop, phase = generator_blocks(d)
    return support_columns(d, np.zeros((d * d, d * d)), (hop, phase))


def extract_time_local_generator(map_fn: Callable[[float], SuperMap],
                                 t: float) -> ExtractionReport:
    """Numerical time-local generator L_t = (d Phi_t / dt) Phi_t^{-1}.

    Central differences with step dt = 1e-5 (forward ones for t < dt); the
    result is least-squares fitted to the two-parameter generator structure
    (diagonal Hamiltonian absent), reporting (kappa_fit, nu_fit) and the
    Frobenius residual of the fit.  Raises SingularMap when the transfer
    condition number exceeds 1e12 (the map is not invertible there).

    No d^2 x d^2 matrix is solved.  The transfers at t and t +- dt are
    block diagonal on the connected components of their joint nonzero
    pattern, and so are their difference, the inverse and the generator;
    ``linalg.affine_blocks`` gathers the three on those components, each
    transfer on its own (the labelling is cached per pattern).  Each block
    size takes one batched call for the singular values, one for the
    inverse and one product (a 1 x 1 block is its own singular value and is
    divided by), in the transfers' dtype: real arithmetic for a real
    schedule, complex only for complex transfers (a Hamiltonian, a unitary
    conjugation).  The condition number is the largest singular value over
    all blocks divided by the smallest, and it is checked before any
    inverse is taken.  The generator is exactly zero off its blocks.  The fit
    reads the 2 d^2 - d entries where hop or phase can be nonzero
    (``channels.support_fit``), and ``residual`` combines the misfit there
    with the generator's norm elsewhere: it is the misfit of the fit
    alone, with no rounding of a dense inverse in it.
    """
    t = _check_time(t)
    m0 = map_fn(t)
    d = m0.d
    dt = _EXTRACT_DT
    if t >= dt:
        ends, step = (map_fn(t + dt).transfer, map_fn(t - dt).transfer), 2.0 * dt
    else:
        ends, step = (map_fn(t + dt).transfer, m0.transfer), dt
    groups = []
    for size, idx, (now, ahead, behind) in affine_blocks((m0.transfer, *ends)):
        at = idx[:, :, None] * (d * d) + idx[:, None, :]  # flat indices of the blocks
        # a 1 x 1 block is its own singular value, and its inverse a quotient
        sv = np.abs(now) if size == 1 else np.linalg.svd(now, compute_uv=False)
        groups.append((size, at, now, (ahead - behind) / step, sv))
    s_max = max(float(sv.max()) for *_, sv in groups)
    s_min = min(float(sv.min()) for *_, sv in groups)
    cond = s_max / s_min if s_min > 0.0 else math.inf  # floats: an overflow is inf
    if not math.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularMap(f"transfer condition number {cond:.3e} at t={t}")
    gen = np.zeros((d * d, d * d), dtype=np.result_type(m0.transfer, *ends))
    for size, at, now, diff, _ in groups:
        gen.put(at, diff / now if size == 1 else diff @ np.linalg.inv(now))

    coef, residual = support_fit(gen, _generator_fit_columns(d))
    kappa_fit = float(coef[0].real)
    nu_fit = float(d * coef[1].real / kappa_fit) if kappa_fit != 0.0 else np.nan
    return ExtractionReport(
        generator=SuperMap(d, gen),
        kappa_fit=kappa_fit,
        nu_fit=nu_fit,
        residual=residual,
        condition_number=cond,
    )


# ---------------------------------------------------------------------------
# trajectory points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectoryPoint:
    t: float
    alpha: float
    beta: float
    verdict: RegionVerdict
    schwarz_flag: str  # "in", "out", or "unknown"
    min_choi_eig: float


@dataclass(frozen=True)
class Trajectory:
    """A schedule's trajectory on a grid of times, one array entry per time.

    The columns of the ``trajectory`` CSV: the times, the coordinates, the
    closed-form P, CP and EB flags and the smallest Choi eigenvalue; and
    the closed-form margins (``regions.classify_point``'s slacks, in
    ``RegionVerdict.margins`` order) and the Schwarz flags ("in", "out" or
    "unknown").
    """

    t: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    positive: np.ndarray
    completely_positive: np.ndarray
    entanglement_breaking: np.ndarray
    margins: tuple
    min_choi_eig: np.ndarray
    schwarz_flag: np.ndarray


def trajectory(s: Schedule, ts, sample_budget: int = 0, seed: int = 42) -> Trajectory:
    """A schedule's trajectory at the times ``ts``, with its verdicts, as arrays.

    The coordinates and ``min_choi_eig``, the smallest eigenvalue of each
    map's Choi matrix, come from the schedule's ``points``: the family
    schedules read them off the family's cached Choi blocks in one
    ``regions.family_min_eig`` call (the floats ``classify_grid`` gives at
    those points) and build no map; the Weyl mixture builds its map once
    per time, fits it and solves its Choi blocks.  The flags and margins
    are the closed-form slacks on the arrays.

    The Schwarz flag is 'in' where the point is CP (CP implies Schwarz),
    'out' where it is not positive or a falsifier finds a witness (budget
    permitting), and 'unknown' otherwise.  A map is built, for the
    falsifier, only at the positive, non-CP points, and only when
    ``sample_budget`` > 0.  Boundary-riding schedules sit at margin zero,
    where the strict boolean verdicts are decided by the last rounding
    error; use ``min_choi_eig`` (and the margins) on the boundary, not the
    booleans.  A time that is negative or not finite raises
    ``NegativeTime``, and coordinates that overflow raise before any solve.
    """
    from .regions import schwarz_falsify

    ts = _check_times(ts)
    alphas, betas, choi_min = s.points(ts)
    margins = tuple(_closed_slacks(s.d, alphas, betas).values())
    positive, cp, eb = _flags(margins)
    flags = np.where(cp, "in", np.where(positive, "unknown", "out"))
    if sample_budget > 0:
        for i in np.flatnonzero(positive & ~cp):
            if schwarz_falsify(map_at(s, ts[i]), sample_budget, seed) is not None:
                flags[i] = "out"
    return Trajectory(t=ts, alpha=alphas, beta=betas, positive=positive,
                      completely_positive=cp, entanglement_breaking=eb, margins=margins,
                      min_choi_eig=choi_min, schwarz_flag=flags)


def trajectory_point(s: Schedule, t: float, sample_budget: int = 0,
                     seed: int = 42) -> TrajectoryPoint:
    """One point of a schedule's trajectory with its verdicts: the one-time
    case of ``trajectory``, whose docstring gives the flags."""
    tr = trajectory(s, [t], sample_budget, seed)
    margins = tuple(float(m[0]) for m in tr.margins)
    return TrajectoryPoint(t=float(tr.t[0]), alpha=float(tr.alpha[0]), beta=float(tr.beta[0]),
                           verdict=RegionVerdict(*_flags(margins), *margins),
                           schwarz_flag=str(tr.schwarz_flag[0]),
                           min_choi_eig=float(tr.min_choi_eig[0]))
