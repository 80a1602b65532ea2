"""The two-parameter map family, named maps, Choi matrices, and map algebra.

Every map handled by the package acts on d x d matrices and is stored as a
d^2 x d^2 transfer matrix (column-stacking convention, see ``linalg``).  The
central object is the interpolation family

    Phi_{alpha,beta} = (1 - alpha - beta) * id + alpha * tau0 + beta * Delta,

where ``tau0`` sends every input to the maximally mixed multiple of the
identity and ``Delta`` is the diagonal pinching.  The family is unital,
trace-preserving and self-adjoint for all real (alpha, beta).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadWeights, DimensionMismatch, QuditMapsError, UnknownName
from .linalg import (
    as_complex_matrix,
    check_dimension,
    frobenius,
    real_or_complex,
    unvec,
    vec,
)

# Tolerance of the trace-preserving, unital and state checks.
_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class MapParams:
    """A point (d, alpha, beta) of the interpolation family."""

    d: int
    alpha: float
    beta: float

    def __post_init__(self):
        """Rejects coordinates at which the map's numerics would overflow.

        s = d^2 (|1 - alpha - beta| + |alpha| + |beta|) must be finite: the
        map's transfer and Choi entries are at most s / d^2 in magnitude,
        its Choi eigenvalues and its images of unit states at most s / d,
        so the oracles' sums and Hermitisations stay finite.
        """
        d = check_dimension(self.d)
        alpha, beta = float(self.alpha), float(self.beta)  # python floats overflow silently
        if not math.isfinite(d * d * (abs(1.0 - alpha - beta) + abs(alpha) + abs(beta))):
            raise DimensionMismatch(
                f"alpha and beta must be finite, and so must d^2 (|1 - alpha - beta| + "
                f"|alpha| + |beta|); got alpha = {alpha}, beta = {beta} at d = {d}")


class SuperMap:
    """A linear map on d x d matrices held as a d^2 x d^2 transfer matrix.

    The transfer follows ``linalg.real_or_complex``: real or integer input
    is stored as ``float64`` and complex input as ``complex128``.  Input
    that already has that dtype is stored as it is and made read-only.
    """

    def __init__(self, d: int, transfer: np.ndarray):
        self.d = check_dimension(d)
        t = real_or_complex(transfer)
        if t.shape != (d * d, d * d):
            raise DimensionMismatch(
                f"transfer must be {d*d} x {d*d} for d={d}, got {t.shape}"
            )
        self.transfer = t
        self.transfer.flags.writeable = False
        self._choi = None

    @property
    def choi(self) -> np.ndarray:
        """Unnormalized Choi matrix sum_ij E_ij (x) m(E_ij); cached."""
        if self._choi is None:
            c = choi_from_transfer(self.transfer, self.d)
            c.flags.writeable = False
            self._choi = c
        return self._choi

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Apply the map to d x d matrices, shape (..., d, d)."""
        v = vec(x)
        if v.shape[-1] != self.d * self.d:
            raise DimensionMismatch(f"a d={self.d} map cannot act on shape {np.shape(x)}")
        # one matrix-vector product per input, so a batch matches one-by-one calls
        return unvec((self.transfer @ v[..., None])[..., 0], self.d)

    def is_trace_preserving(self) -> bool:
        ptr = partial_trace_output(self.choi, self.d)
        return float(np.abs(ptr - np.eye(self.d)).max()) <= _CHECK_TOL

    def is_unital(self) -> bool:
        vi = np.eye(self.d).reshape(-1)  # vec(I), real so a real transfer stays real
        return float(np.abs(self.transfer @ vi - vi).max()) <= _CHECK_TOL

    def __repr__(self):
        return f"SuperMap(d={self.d})"


@dataclass
class QuantumState:
    """A d x d density matrix; validation lives in ``validate_state``."""

    d: int
    rho: np.ndarray

    def __post_init__(self):
        check_dimension(self.d)
        self.rho = as_complex_matrix(self.rho)
        if self.rho.shape != (self.d, self.d):
            raise DimensionMismatch(
                f"state must be {self.d} x {self.d}, got {self.rho.shape}"
            )


def validate_state(state: QuantumState) -> bool:
    """Hermitian, unit trace, and no eigenvalue below -1e-10 (``_CHECK_TOL``)."""
    rho = state.rho
    if np.abs(rho - rho.conj().T).max() > _CHECK_TOL * (1.0 + frobenius(rho)):
        return False
    if abs(np.trace(rho) - 1.0) > _CHECK_TOL:
        return False
    return float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0]) >= -_CHECK_TOL


# ---------------------------------------------------------------------------
# transfer <-> Choi reshuffling
# ---------------------------------------------------------------------------

def choi_from_transfer(transfer: np.ndarray, d: int) -> np.ndarray:
    """Reshuffle transfer matrices (..., d^2, d^2) into (unnormalized) Choi matrices.

    The same index permutation inverts itself, so it also maps a Choi
    matrix back to its transfer matrix.  A real transfer gives a real Choi
    matrix (``linalg.real_or_complex``).
    """
    t = real_or_complex(transfer)
    if t.shape[-2:] != (d * d, d * d):
        raise DimensionMismatch(f"expected {d*d} x {d*d}, got {t.shape}")
    t4 = t.reshape(-1, d, d, d, d)  # [batch, col_out, row_out, col_in, row_in]
    return np.ascontiguousarray(t4.transpose(0, 4, 2, 3, 1)).reshape(t.shape)


def partial_trace_output(choi: np.ndarray, d: int) -> np.ndarray:
    """Trace the output factor of Choi matrices (..., d^2, d^2); I_d iff trace-preserving.

    Real for a real Choi matrix (``linalg.real_or_complex``).
    """
    c = real_or_complex(choi)
    return np.einsum("...iaja->...ij", c.reshape(c.shape[:-2] + (d, d, d, d)))


# ---------------------------------------------------------------------------
# the interpolation family and the named maps
# ---------------------------------------------------------------------------

def dephase(x: np.ndarray) -> np.ndarray:
    """Diagonal pinching Delta(X): keep the diagonal, kill the rest."""
    m = as_complex_matrix(x)
    return np.diag(np.diag(m))


@lru_cache(maxsize=None)
def family_transfer_parts(d: int) -> np.ndarray:
    """Transfer matrices of (id, tau0, Delta) as one real (3, d^2, d^2) stack.

    Read-only and cached per d; unpacking it gives the three parts.
    """
    d = check_dimension(d)
    n = d * d
    vi = np.eye(d).reshape(-1)  # vec(I)
    parts = np.zeros((3, n, n))
    parts[0] = np.eye(n)
    parts[1] = np.outer(vi, vi) / d
    parts[2][np.diag_indices(n)] = vi
    parts.flags.writeable = False
    return parts


def family_transfer(d: int, alpha, beta) -> np.ndarray:
    """Transfers of (1 - alpha - beta) id + alpha tau0 + beta Delta, shape (..., d^2, d^2).

    ``alpha`` and ``beta`` are real numbers or arrays that broadcast
    together; each transfer is the one ``build_phi_family`` makes, bit for bit.
    """
    t_id, t_tau0, t_delta = family_transfer_parts(d)
    alpha = np.asarray(alpha, dtype=float)[..., None, None]
    beta = np.asarray(beta, dtype=float)[..., None, None]
    return (1.0 - alpha - beta) * t_id + alpha * t_tau0 + beta * t_delta


def build_phi_family(params: MapParams) -> SuperMap:
    """The map (1 - alpha - beta) id + alpha tau0 + beta Delta as a SuperMap."""
    return SuperMap(params.d, family_transfer(params.d, params.alpha, params.beta))


def named_map_coordinates(name: str, d: int) -> MapParams:
    """(alpha, beta) coordinates of the named maps."""
    d = check_dimension(d)
    h = d / (d - 1)
    table = {
        "Reduction": (h, 0.0),
        "Pinch2": (h, -2.0 / (d - 1)),
        "PhiCP": (0.0, h),
        "E1": (0.0, 1.0),
        "E2": (d / (2.0 * (d - 1)), 0.5),
        "E3": (h, -1.0 / (d - 1)),
        "E4": (1.0, -1.0 / d),
    }
    if name not in table:
        raise UnknownName(f"unknown map name {name!r}; choose from {sorted(table)}")
    alpha, beta = table[name]
    return MapParams(d, alpha, beta)


def named_map(name: str, d: int):
    """A named map together with its family coordinates.

    The transfer matrix is built directly from the map's defining action
    (not from the coordinates), so agreement with ``build_phi_family`` at
    the returned coordinates is a genuine consistency check.

    Names: Reduction, Pinch2, PhiCP, E1, E2, E3, E4.
    """
    params = named_map_coordinates(name, d)
    t_id, t_tau0, t_delta = family_transfer_parts(d)
    t_tr = d * t_tau0  # transfer of X -> I Tr X
    c = d - 1
    actions = {
        "Reduction": (t_tr - t_id) / c,
        "Pinch2": (t_tr + t_id - 2.0 * t_delta) / c,
        "PhiCP": (d * t_delta - t_id) / c,
        "E1": t_delta,
        "E2": (t_tr / c + t_delta - t_id / c) / 2.0,
        "E3": (t_tr - t_delta) / c,
        "E4": (t_id + t_tr - t_delta) / d,
    }
    return SuperMap(d, actions[name]), params


NAMED_MAPS = ("Reduction", "Pinch2", "PhiCP", "E1", "E2", "E3", "E4")


@lru_cache(maxsize=None)
def covariant_support(d: int) -> np.ndarray:
    """Flat indices of the diagonal and the population block of a d^2 x d^2 matrix.

    The population block holds the entries (i(d+1), j(d+1)) that map X[j, j]
    to X[i, i].  A transfer that commutes with X -> U X U^+ for every
    diagonal unitary U is zero outside these 2 d^2 - d entries; so are the
    family's parts and the generator's hop and phase blocks.  Ascending,
    read-only and cached per d.
    """
    d = check_dimension(d)
    n = d * d
    diag = np.arange(d) * (d + 1)  # vec index of X[i, i]
    # a mask, not np.union1d, which imports numpy.ma on its first call
    mask = np.zeros(n * n, dtype=bool)
    mask[np.arange(n) * (n + 1)] = True
    mask[diag[:, None] * n + diag] = True
    support = np.flatnonzero(mask)
    support.flags.writeable = False
    return support


def support_columns(d: int, offset, parts) -> tuple:
    """The least-squares problem ``mat ~ offset + sum_k coef[k] parts[k]`` on ``covariant_support``.

    ``offset`` and the K ``parts`` are real d^2 x d^2 matrices that vanish
    off the support.  Returns ``(support, base, cols, pinv)``: the support,
    the offset's entries there, the parts' entries as (support, K)
    columns, and their pseudo-inverse; ``support_fit`` solves with them.
    Callers cache the tuple per d.
    """
    support = covariant_support(d)
    base, *cols = (np.asarray(m).reshape(-1)[support] for m in (offset, *parts))
    cols = np.column_stack(cols)
    out = (support, base, cols, np.linalg.pinv(cols))
    for arr in out[1:]:
        arr.flags.writeable = False
    return out


def support_fit(mat, columns) -> tuple:
    """Least-squares ``coef`` of ``mat ~ offset + sum_k coef[k] parts[k]``, and the residual.

    ``columns`` is ``support_columns(d, offset, parts)``.  The parts vanish off
    the support, so the fit reads only the 2 d^2 - d support entries of
    ``mat``: ``coef`` is the pseudo-inverse times their difference from the
    offset (complex when ``mat`` is, real otherwise).  The residual is the
    Frobenius norm of ``mat - offset - sum_k coef[k] parts[k]``: the misfit
    on the support combined with the norm of ``mat`` off it.
    """
    support, base, cols, pinv = columns
    flat = mat.reshape(-1)
    rhs = flat[support] - base
    coef = pinv @ rhs
    rest = flat.copy()
    rest[support] = 0.0
    misfit = cols @ coef - rhs
    return coef, math.sqrt(np.vdot(misfit, misfit).real + np.vdot(rest, rest).real)


@lru_cache(maxsize=None)
def _family_fit_columns(d: int) -> tuple:
    t_id, t_tau0, t_delta = family_transfer_parts(d)
    return support_columns(d, t_id, (t_tau0 - t_id, t_delta - t_id))


def family_fit(m: SuperMap):
    """Least-squares (alpha, beta) coordinates of an arbitrary map.

    Returns ``(alpha, beta, residual)`` where residual is the Frobenius
    mismatch between the map and the fitted family member.  Residual ~ 0
    certifies membership in the family.  The family's parts vanish off
    ``covariant_support``, so the fit is ``support_fit`` with cached
    columns: a product with their (2, 2 d^2 - d) pseudo-inverse, plus the
    norm of the transfer off the support in the residual.
    """
    coef, resid = support_fit(m.transfer, _family_fit_columns(m.d))
    return float(coef[0].real), float(coef[1].real), resid


# ---------------------------------------------------------------------------
# map algebra
# ---------------------------------------------------------------------------

def hs_adjoint(m: SuperMap) -> SuperMap:
    """Hilbert-Schmidt adjoint; transfer matrix is the conjugate transpose."""
    return SuperMap(m.d, m.transfer.conj().T)


def compose(m1: SuperMap, m2: SuperMap) -> SuperMap:
    """The composition m1 o m2 (m2 acts first)."""
    if m1.d != m2.d:
        raise DimensionMismatch(f"cannot compose maps with d={m1.d} and d={m2.d}")
    return SuperMap(m1.d, m1.transfer @ m2.transfer)


def mix(weights, maps) -> SuperMap:
    """Convex combination of maps with nonnegative weights summing to one."""
    w = np.asarray(weights, dtype=float)
    if len(maps) != w.size or w.size == 0:
        raise BadWeights("need as many weights as maps")
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
        raise BadWeights(f"weights must be nonnegative and sum to 1, got {w}")
    d = maps[0].d
    if any(m.d != d for m in maps):
        raise DimensionMismatch("all mixed maps must share the same dimension")
    transfer = sum(wi * m.transfer for wi, m in zip(w, maps))
    return SuperMap(d, transfer)


def apply(m: SuperMap, state: QuantumState) -> QuantumState:
    """Apply a map to a state.  No renormalization is performed."""
    if m.d != state.d:
        raise DimensionMismatch(f"map d={m.d} does not match state d={state.d}")
    return QuantumState(state.d, m(state.rho))


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def state_to_json(state: QuantumState) -> dict:
    """{"d": d, "rho": [[re, im], ...]} with row-major entries."""
    flat = np.asarray(state.rho, dtype=complex).reshape(-1)
    return {"d": state.d, "rho": [[float(z.real), float(z.imag)] for z in flat]}


def state_from_json(obj) -> QuantumState:
    """The state of a ``state_to_json`` object, or of its JSON text.

    A missing key, a "d" that is not an integer (a float or a boolean is
    not), a non-numeric entry or a non-finite one (Python's ``json`` reads
    ``NaN`` and ``Infinity``) raises QuditMapsError; a dimension outside
    2..16 or a wrong number of pairs raises DimensionMismatch.
    """
    try:
        if isinstance(obj, str):
            obj = json.loads(obj)
        d = obj["d"]
        arr = np.asarray(obj["rho"], dtype=float)
    except KeyError as exc:
        raise QuditMapsError(f"JSON object has no {exc.args[0]!r} entry") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise QuditMapsError(f"malformed JSON object: {exc}") from None
    if not isinstance(d, numbers.Integral) or isinstance(d, bool):
        raise QuditMapsError(f"dimension d must be an integer, got {d!r}")
    d = check_dimension(d)
    if arr.shape != (d * d, 2):
        raise DimensionMismatch(f"expected {d*d} [re, im] pairs, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise QuditMapsError("state entries must be finite numbers")
    return QuantumState(d, (arr[:, 0] + 1j * arr[:, 1]).reshape(d, d))


def unitary_conjugation(u: np.ndarray) -> SuperMap:
    """The map X -> U X U^dagger."""
    u = as_complex_matrix(u)
    d = u.shape[0]
    return SuperMap(d, np.kron(u.conj(), u))
