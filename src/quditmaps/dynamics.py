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
``kappa_nu(t)``, ``alpha_beta(t)`` and ``limit()``.  Adding a schedule means
adding one such class (and a name in ``SCHEDULES`` for the CLI); the public
functions ``kappa_nu_at``, ``alpha_beta_at``, ``map_at`` and
``asymptotic_map`` are thin wrappers around those methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm

from .channels import (
    MapParams,
    SuperMap,
    build_phi_family,
    compose,
    family_fit,
    named_map,
    unitary_conjugation,
)
from .errors import NegativeRate, NegativeTime, NoLimit, SingularMap, UnknownName
from .generators import (
    ccp_threshold, generator_blocks, positivity_threshold, schwarz_threshold,
)
from .linalg import check_dimension, min_eig_affine

__all__ = [
    "ConstantNu", "OptimalENM", "PDivisible", "SchwarzDivisible", "ENM2",
    "WeylMixture", "Schedule", "SCHEDULES", "SwitchTimes", "CrossingReport",
    "ExtractionReport", "TrajectoryPoint", "nu_enm", "switch_times",
    "alpha_beta_at", "kappa_nu_at", "map_at", "asymptotic_map",
    "crossing_times", "tangency_slope", "weyl_ops", "weyl_mixture_map",
    "weyl_commutant_average", "extract_time_local_generator",
    "alpha_beta_by_quadrature", "schedule_from_name", "trajectory_point",
]


def _check_time(t: float) -> float:
    """A finite t >= 0; the t -> infinity limit is ``asymptotic_map``."""
    t = float(t)
    if not (math.isfinite(t) and t >= 0):
        raise NegativeTime(f"time must be a finite number >= 0, got {t}")
    return t


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
    t_S = (1/d) ln(2(d^2-1)/(d^2-2)).
    """
    check_dimension(d)
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

    Subclasses implement ``kappa_nu``, ``alpha_beta`` and ``limit``; the
    default ``map`` builds the family map from ``alpha_beta``.  The methods
    take t >= 0 unchecked; the module-level wrappers check it.  Subclasses
    that add no fields need no ``@dataclass`` of their own.
    """

    d: int

    def __post_init__(self):
        check_dimension(self.d)

    def kappa_nu(self, t: float):
        """The rates (kappa(t), nu(t))."""
        raise NotImplementedError

    def alpha_beta(self, t: float):
        """The family coordinates (alpha(t), beta(t)) of the map at time t."""
        raise NotImplementedError

    def limit(self) -> SuperMap:
        """The t -> infinity limit of the dynamical map."""
        raise NotImplementedError

    def map(self, t: float) -> SuperMap:
        """The dynamical map at time t."""
        return build_phi_family(MapParams(self.d, *self.alpha_beta(t)))

    def coordinates(self, m: SuperMap, t: float):
        """(alpha, beta) of ``m = self.map(t)``; closed forms ignore ``m``."""
        return self.alpha_beta(t)


@dataclass(frozen=True)
class ConstantNu(Schedule):
    kappa: float
    nu: float

    def __post_init__(self):
        super().__post_init__()
        if not (math.isfinite(self.kappa) and math.isfinite(self.nu)):
            raise NegativeRate(
                f"kappa and nu must be finite, got {self.kappa} and {self.nu}")

    def kappa_nu(self, t):
        return self.kappa, self.nu

    def alpha_beta(self, t):
        d = self.d
        a_fac = np.exp(-self.kappa * d * t)
        b_fac = np.exp(-self.kappa * (d - 1.0 + self.nu) * t)
        return 1.0 - a_fac, a_fac - b_fac

    def limit(self):
        if self.d - 1 + self.nu <= 0 or self.kappa <= 0:
            raise NoLimit(f"beta(t) does not decay for kappa={self.kappa}, "
                          f"nu={self.nu}, d={self.d}")
        return build_phi_family(MapParams(self.d, 1.0, 0.0))


class OptimalENM(Schedule):
    def kappa_nu(self, t):
        return 1.0, nu_enm(self.d, t)

    def alpha_beta(self, t):
        # A - B with B = (1 + (d-1)A)/d collapses to -alpha/d; computing it
        # that way keeps the trajectory on the CP boundary bitwise
        alpha = 1.0 - np.exp(-self.d * t)
        return alpha, -alpha / self.d

    def limit(self):
        return named_map("E4", self.d)[0]


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
        d = self.d
        t_sw, nu_f = self._switch()
        if t <= t_sw:
            return OptimalENM(d).alpha_beta(t)
        a_fac = np.exp(-d * t)
        b_fac = _enm_id_coefficient(d, t_sw) * np.exp(-(d - 1.0 + nu_f) * (t - t_sw))
        return 1.0 - a_fac, a_fac - b_fac

    def limit(self):
        t_sw, nu_f = self._switch()
        if np.isinf(t_sw):  # never switches (t_* is infinite at d = 2)
            return OptimalENM(self.d).limit()
        return ConstantNu(self.d, 1.0, nu_f).limit()


class PDivisible(_FrozenENM):
    def _switch(self):
        return switch_times(self.d).t_star, positivity_threshold(self.d)


class SchwarzDivisible(_FrozenENM):
    def _switch(self):
        return switch_times(self.d).t_s, schwarz_threshold(self.d)


class ENM2(Schedule):
    def kappa_nu(self, t):
        e = np.exp(self.d * t)
        if abs(self.d - e) < 1e-12:
            raise SingularMap(f"ENM2 rates are singular at t1 = ln(d)/d for d={self.d}")
        return self.d / (self.d - e), 1.0 - e

    def alpha_beta(self, t):
        alpha = self.d * (1.0 - np.exp(-self.d * t)) / (self.d - 1.0)
        return alpha, -alpha / self.d

    def limit(self):
        return named_map("E3", self.d)[0]


class WeylMixture(Schedule):
    def kappa_nu(self, t):
        raise UnknownName(
            "WeylMixture has no closed-form (kappa, nu); use "
            "extract_time_local_generator"
        )

    def alpha_beta(self, t):
        return self.coordinates(self.map(t), t)

    def limit(self):
        return SuperMap(self.d, weyl_commutant_average(self.d))

    def map(self, t):
        return weyl_mixture_map(self.d, t)

    def coordinates(self, m, t):
        return family_fit(m)[:2]


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

    OptimalENM converges to E4; PDivisible, SchwarzDivisible, and any
    ConstantNu with nu > -(d-1) relax to the completely depolarizing
    channel; ENM2 converges to E3; WeylMixture converges to the average of
    the cyclic-group conditional expectations of its Weyl unitaries (equal
    to E4 exactly when d is prime).  Raises NoLimit when beta(t) does not
    decay (ConstantNu with nu <= -(d-1)).
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


def _first_root(g: Callable[[float], float], horizon: float) -> Optional[float]:
    """First sign change of g on (0, horizon] by doubling scan plus brentq."""
    from scipy.optimize import brentq

    t_lo = 1e-6
    if g(t_lo) >= 0.0:
        return 0.0 if g(0.0) >= -1e-15 else None
    t_hi = t_lo
    while t_hi < horizon:
        t_next = min(t_hi * 1.5, horizon)
        if g(t_next) >= 0.0:
            return float(brentq(g, t_hi, t_next, xtol=1e-12, rtol=8.9e-16))
        t_hi = t_next
    return None


def crossing_times(d: int, kappa: float, nu: float,
                   horizon: float = 50.0) -> CrossingReport:
    """Times at which the constant-nu trajectory (re)enters P, CP, and EB.

    For nu >= -1 the map never leaves the positivity region (t_p = 0); for
    nu >= 0 it never leaves CP (t_cp = 0).  The EB entry time is the root of
    the binding inequality beta >= 1 - alpha - alpha/d, which exists for
    every decaying trajectory (d - 1 + nu > 0).  When all three are present
    the ordering t_p <= t_cp <= t_eb is enforced as a postcondition.
    Raises NegativeRate unless kappa and nu are finite and kappa > 0.
    """
    trajectory = ConstantNu(d, kappa, nu).alpha_beta  # checks d and finite rates
    if kappa <= 0:
        raise NegativeRate(f"kappa must be > 0, got {kappa}")
    forms = {
        "P": lambda alpha, beta: beta + 2.0 * alpha / d,
        "CP": lambda alpha, beta: beta + alpha / d,
        "EB": lambda alpha, beta: beta + alpha + alpha / d - 1.0,
    }
    g = {k: (lambda t, f=f: f(*trajectory(t))) for k, f in forms.items()}
    t_p = 0.0 if nu >= -1.0 else _first_root(g["P"], horizon)
    t_cp = 0.0 if nu >= 0.0 else _first_root(g["CP"], horizon)
    t_eb = _first_root(g["EB"], horizon)
    margins = {k: float(fn(horizon)) for k, fn in g.items()}
    times = [t for t in (t_p, t_cp, t_eb) if t is not None]
    if len(times) == 3 and not (times[0] <= times[1] + 1e-12 and
                                times[1] <= times[2] + 1e-12):
        raise RuntimeError(f"crossing times out of order: {times}")
    return CrossingReport(t_p=t_p, t_cp=t_cp, t_eb=t_eb, margins=margins,
                          horizon=horizon)


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
    """The d^2 Weyl unitaries as one read-only (d^2, d, d) stack."""
    check_dimension(d)
    omega = np.exp(2j * np.pi / d)
    z = np.diag(omega ** np.arange(d))
    x = np.roll(np.eye(d), 1, axis=0)  # X|k> = |k+1 mod d>
    ops = np.empty((d * d, d, d), dtype=complex)
    for k in range(d):
        zk = np.linalg.matrix_power(z, k)
        for l in range(d):
            ops[k * d + l] = zk @ np.linalg.matrix_power(x, l)
    ops.flags.writeable = False
    return ops


def weyl_ops(d: int):
    """The d^2 Weyl unitaries W_{kl} = Z^k X^l, indexed by k*d + l.

    Z is the diagonal clock, X the cyclic shift.  Their uniform twirl is
    completely depolarizing: sum_{kl} W X W^+ = d * I * Tr X.
    """
    return list(_weyl_cached(d))


@lru_cache(maxsize=None)
def _weyl_power_index(d: int) -> np.ndarray:
    """Index j with W_{kl}^n = W_j up to a phase, over (k, l > 0, n); read-only."""
    k, l, n = np.meshgrid(np.arange(d), np.arange(1, d), np.arange(d), indexing="ij")
    j = (n * k % d) * d + n * l % d
    j.flags.writeable = False
    return j


def _weyl_mixture_transfer(d: int, w: np.ndarray) -> np.ndarray:
    """Transfers of the uniform mixture over k, l > 0 of sum_n w_n C_{kl}^n.

    C_{kl} is conjugation by W_{kl}.  W_{kl}^n is W_{nk mod d, nl mod d} up
    to a phase, so the mixture is the Weyl channel sum_j p_j W_j . W_j^+
    with the weights p gathered from w.  ``w`` is real, of shape (..., d);
    the result has shape (..., d^2, d^2), and each row of weights is
    gathered and summed as a single row would be.
    """
    j = _weyl_power_index(d)
    w = np.asarray(w)
    rows = w.reshape(-1, 1, 1, d)
    m = rows.shape[0]
    # row r gathers into bins r d^2 + j, so each row's bins fill in its own order
    bins = (np.arange(m)[:, None, None, None] * (d * d) + j).ravel()
    p = np.bincount(bins, weights=np.broadcast_to(rows, (m,) + j.shape).ravel(),
                    minlength=m * d * d).reshape(m, 1, d * d) / (d * (d - 1))
    ops = _weyl_cached(d).reshape(d * d, d * d)
    # acc[(a, b), (c, e)] = sum_j p_j conj(W_j)[a, b] W_j[c, e]; the transpose
    # reorders it to sum_j p_j kron(conj(W_j), W_j)
    acc = (ops.conj().T * p) @ ops
    acc = acc.reshape(m, d, d, d, d).transpose(0, 1, 3, 2, 4)
    return acc.reshape(w.shape[:-1] + (d * d, d * d))


def weyl_mixture_map(d: int, t: float) -> SuperMap:
    """Uniform mixture of the d(d-1) semigroups exp(t(W . W^+ - id)), l > 0.

    The mixture is CPTP for every t >= 0 and its Choi matrix is singular
    (the map rides the boundary of complete positivity).
    """
    t = _check_time(t)
    check_dimension(d)
    # C^d = id, so exp(t(C - id)) = sum_{n<d} w_n C^n, where w is the first
    # column of exp(t(X - I)) for the d x d cyclic shift X
    shift = np.roll(np.eye(d), 1, axis=0)
    w = expm(t * (shift - np.eye(d)))[:, 0]
    return SuperMap(d, _weyl_mixture_transfer(d, w))


def weyl_commutant_average(d: int) -> np.ndarray:
    """Exact t -> infinity transfer of the Weyl mixture.

    Conjugation by W_{kl} has order dividing d, so each semigroup converges
    to the group average (1/d) sum_n C^n, the conditional expectation onto
    the commutant of W_{kl}; the mixture converges to their mean.
    """
    check_dimension(d)
    return _weyl_mixture_transfer(d, np.full(d, 1.0 / d))


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


def extract_time_local_generator(map_fn: Callable[[float], SuperMap], t: float,
                                 dt: float = 1e-5,
                                 cond_limit: float = 1e12) -> ExtractionReport:
    """Numerical time-local generator L_t = (d Phi_t / dt) Phi_t^{-1}.

    Central differences with step ``dt``; the result is least-squares
    fitted to the two-parameter generator structure (diagonal Hamiltonian
    absent), reporting (kappa_fit, nu_fit) and the Frobenius residual of
    the fit.  Raises SingularMap when the transfer condition number
    exceeds ``cond_limit`` (the map is not invertible there).
    """
    t = _check_time(t)
    m0 = map_fn(t)
    d = m0.d
    cond = float(np.linalg.cond(m0.transfer))
    if not np.isfinite(cond) or cond > cond_limit:
        raise SingularMap(f"transfer condition number {cond:.3e} at t={t}")
    if t >= dt:
        deriv = (map_fn(t + dt).transfer - map_fn(t - dt).transfer) / (2.0 * dt)
    else:
        deriv = (map_fn(t + dt).transfer - m0.transfer) / dt
    gen = deriv @ np.linalg.inv(m0.transfer)

    hop, phase = generator_blocks(d)
    basis = np.column_stack([hop.ravel(), phase.ravel()])
    coef, *_ = np.linalg.lstsq(basis, gen.ravel(), rcond=None)
    residual = float(np.linalg.norm(basis @ coef - gen.ravel()))
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
# quadrature fallback for generic (kappa(t), nu(t)) rates
# ---------------------------------------------------------------------------

def alpha_beta_by_quadrature(d: int, kappa_fn: Callable[[float], float],
                             nu_fn: Callable[[float], float], t: float,
                             tol: float = 1e-11):
    """(alpha, beta) from adaptive quadrature of the rate integrals.

    Cross-checks the closed-form trajectories; useful for arbitrary rates.
    """
    from scipy.integrate import quad

    t = _check_time(t)
    check_dimension(d)
    int_kappa = quad(kappa_fn, 0.0, t, epsabs=tol, epsrel=tol, limit=500)[0]
    int_kn = quad(lambda u: kappa_fn(u) * (d - 1.0 + nu_fn(u)), 0.0, t,
                  epsabs=tol, epsrel=tol, limit=500)[0]
    a_fac = np.exp(-d * int_kappa)
    b_fac = np.exp(-int_kn)
    return 1.0 - a_fac, a_fac - b_fac


@dataclass(frozen=True)
class TrajectoryPoint:
    t: float
    alpha: float
    beta: float
    verdict: object  # regions.RegionVerdict
    schwarz_flag: str  # "in", "out", or "unknown"
    min_choi_eig: float


def trajectory_point(s: Schedule, t: float, sample_budget: int = 0,
                     seed: int = 42) -> TrajectoryPoint:
    """One sampled point of a schedule's trajectory with its verdicts.

    The Schwarz flag is 'in' when the point is CP (CP implies Schwarz),
    'out' when it is not positive or a falsifier finds a witness (budget
    permitting), and 'unknown' otherwise.

    ``min_choi_eig`` is the smallest eigenvalue of the map's Choi matrix,
    solved blockwise on its nonzero pattern by ``linalg.min_eig_affine``: the
    family's Choi matrix splits into one d x d block and scalars, the Weyl
    mixture's into d blocks of size d.  Boundary-riding schedules sit at
    margin zero, where the strict boolean verdicts are decided by the last
    rounding error; use ``min_choi_eig`` (and the verdict margins) on the
    boundary, not the booleans.
    """
    from .regions import classify_point, schwarz_falsify

    t = _check_time(t)
    m = map_at(s, t)
    alpha, beta = s.coordinates(m, t)
    verdict = classify_point(MapParams(s.d, alpha, beta))
    choi_min = float(min_eig_affine(m.choi[None], [[1.0]])[0])
    if verdict.completely_positive:
        flag = "in"
    elif not verdict.positive:
        flag = "out"
    elif sample_budget > 0 and schwarz_falsify(m, sample_budget, seed) is not None:
        flag = "out"
    else:
        flag = "unknown"
    return TrajectoryPoint(t=float(t), alpha=alpha, beta=beta, verdict=verdict,
                           schwarz_flag=flag, min_choi_eig=choi_min)
