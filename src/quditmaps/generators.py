"""The qudit generator family, its spectrum, and the three positivity-class tests.

The generator acts on d x d matrices as

    L(rho) = -i [H, rho]
             + kappa * [ (sum_{i != j} E_ij rho E_ji - (d-1) rho)
                         + (nu/d) * (sum_{k=1}^{d-1} Z^k rho Z*^k - (d-1) rho) ],

with diagonal H = diag(h_1 ... h_d) and Z = diag(q, q^2, ..., q^d), q = exp(2 pi i / d).
Collapsing the sums gives the equivalent compact form

    L(rho) = kappa * [ I Tr(rho) + (nu - 1) Delta(rho) - (d - 1 + nu) rho ] - i [H, rho].

``generator_blocks`` sets the two sums' transfer matrices entrywise; the
test-suite checks them against np.kron loops over the sums, and the
generator against the compact form.  The semigroup
exp(t L) is positive iff nu >= -1, satisfies the operator Schwarz inequality
iff nu >= -d/(d+2), and is completely positive iff nu >= 0; each closed-form
threshold is paired here with a numerical oracle:

* conditional positivity  <->  <y| L(|x><x|) |y> >= 0 over orthonormal pairs,
* complete positivity     <->  the Choi matrix compressed to the complement of
  the maximally entangled vector is PSD,
* Schwarz (dissipativity)  <->  w^+ D(X) w >= 0 for every unit w and every X,
  where D(X) = L(X^+ X) - L(X)^+ X - X^+ L(X) is Lindblad's dissipation
  function ("On the generators of quantum dynamical semigroups", CMP 1976).
  For a fixed w this is a Hermitian form x^+ Q(w) x in x = vec X,

      Q(w) = conj(L^+(w w^+)) kron I - T^+ P_w - P_w T,   P_w = (conj(w) w^T) kron I,

  with T the transfer matrix.  D(X + cI) = D(X), so Q(w) is compressed to
  traceless X, where D(X) = kappa M(a, X) with a = 1 - nu and
  M(a, X) = Tr(X^+ X) I + (d-a) X^+ X - a Delta(X^+ X)
            + a (Delta(X^+) X + X^+ Delta(X)).
  The smallest eigenvalue of the compressed Q(w)/kappa is the exact minimum
  of w^+ M(a, X) w over unit traceless X.  hop and phase commute with
  X -> U X U^+ for every permutation and diagonal sign flip U, so
  D(U X U^+) = U D(X) U^+ and Q(U w) is unitarily similar to Q(w), on
  traceless X too.  These U carry every basis vector to e_1, every
  (e_i +- e_j)/sqrt 2 to (e_1 + e_2)/sqrt 2 and the uniform vector to
  itself, up to a global sign, so those three orbit representatives give
  the minimum over all d^2 + 1 deterministic candidates.

The dissipativity witness is the one-parameter traceless family
X(c) = [[1, -c], [c, -1]] (+) 0; for d + 2 - 2a > 0 its smallest M-eigenvalue
is minimized at c* = d / (d + 2 - 2a) where it equals d + 2 - d^2/(d + 2 - 2a),
crossing zero exactly at the Schwarz threshold.  It is reported as a
closed-form cross-check; the form oracle does not read it.

Cost of an oracle call
----------------------
The generator is affine in its parameters,

    L = kappa * hop + (kappa nu / d) * phase + sum_k h_k (-i [E_kk, .]),

and a threshold bisection calls an oracle many times with one seed.  So each
oracle keeps what does not depend on (kappa, nu, h), and a call only
combines it:

* pair oracle: each pair's functional value under hop and phase.  The
  Hamiltonian part adds nothing: <y| -i [H, |x><x|] |y> vanishes for every
  H because <x|y> = 0.  hop and phase commute with X -> U X U^+ for every
  diagonal unitary U, which multiplies X[r, c] by u_r conj(u_c); so a
  transfer entry may link X[r, c] to X[r', c'] only where u_r' conj(u_c') =
  u_r conj(u_c) for every U: on the diagonal, or between two populations
  X[j, j] -> X[i, i].  ``_covariant_blocks`` reads the two blocks on that
  support (and raises if an entry lies off it), so the value of N pairs
  takes two (N x d) @ (d x d) products per block, with no (d^2, N) stack
  of |x><x|.  A call is one (pairs x 2) product and an argmin;
* dissipativity oracle: Q(w) is linear in the generator, and D of -i[H, .]
  is zero, so Q/kappa = Q_hop + (nu/d) Q_phase.  The candidates w are the
  three orbit representatives of the deterministic ``positivity_candidates``
  plus ceil(budget / d^3) seeded Haar vectors: one (d^2 - 1)-square solve
  costs about as much as d^3 solves of d x d, so the budget buys about the
  eigensolve work of the old budget of X samples.  Every form is built at
  |w|: w = U |w| for a diagonal unitary U, and the covariance
  ``_covariant_blocks`` checks makes Q(|w|) unitarily similar to Q(w) on
  traceless X.  So the dense forms of both are real, built in real
  arithmetic, and the drawn w stay the reported argmin.  The
  representatives' forms depend on d alone and are built once per d
  (``_representative_parts``); only the Haar forms are kept per seed.
  Stage 1 solves the basis and pair representatives, which are
  block-sparse, on their ``linalg.affine_blocks``; stage 2 certifies the
  dense forms, the uniform representative's and the Haar vectors', with
  ``linalg.min_eig_capped``, capped at the stage-1 minimum;
* projected-Choi oracle: nothing is kept but ``_covariant_blocks`` and the
  basis of ``_omega_complement``, the off-diagonal units |ij> plus an
  orthonormal basis ``inner`` of Omega's complement inside span{|ii>}.  On
  the covariant support the compressed Choi matrix is diagonal on the units,
  where it reads the population block, and inner^T S inner on span{|ii>};
  the Hamiltonian part drops out of the compression.  A call is O(d^2) work
  and one (d - 1)-square ``eigvalsh``, with no d^2 x d^2 matrix.  The
  dissipativity oracle compresses its forms with the same basis.

The two sampling oracles keep the parts of the last seeded sample set only,
keyed by (oracle, d, sample count, seed), and drop them before the next set
is drawn.  The README gives the measured cost of each oracle call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channels import SuperMap, dephase
from .errors import (
    DimensionMismatch,
    NegativeRate,
    NotTraceless,
    QuditMapsError,
    UnknownName,
)
from .linalg import (
    affine_blocks,
    as_complex_matrix,
    check_dimension,
    deterministic_candidates,
    diagonal_covariant,
    frobenius,
    haar_orthonormal_pair,
    maximally_entangled_vector,
    min_eig_capped,
    min_eig_gathered,
    null_space,
    positivity_candidates,
)
from .linalg import random_traceless  # noqa: F401  (perfbench/tracer.py patches this name)

POSITIVITY_CLASSES = ("positive", "schwarz", "kpositive")


@dataclass(frozen=True)
class GenParams:
    """Generator data (d, kappa, nu, h)."""

    d: int
    kappa: float
    nu: float
    h: tuple = ()

    def __post_init__(self):
        d = check_dimension(self.d)
        h = tuple(float(x) for x in self.h)
        kappa, nu = float(self.kappa), float(self.nu)  # so an overflow warns nothing
        rates = (kappa * d, kappa * (d - 1 + nu), kappa * nu / d,
                 kappa * d * (d - 1) * (d + nu))
        if not np.isfinite((kappa, nu) + h + rates).all():
            raise NegativeRate(
                f"kappa, nu, h and the rates kappa d, kappa (d-1+nu), kappa nu/d and "
                f"kappa d (d-1) (d+nu) must be finite, got kappa={kappa}, nu={nu}, h={h}")
        if h and len(h) != self.d:
            raise DimensionMismatch(f"h must have {self.d} entries, got {len(h)}")
        if not h:
            h = (0.0,) * self.d
        object.__setattr__(self, "h", h)

    @property
    def a(self) -> float:
        """Dephasing weight a = 1 - nu of the equivalent pinching form."""
        return 1.0 - self.nu


def positivity_threshold(d: int) -> float:
    """exp(tL) positive for all t iff nu >= this value."""
    return -1.0


def schwarz_threshold(d: int) -> float:
    """exp(tL) a Schwarz-map semigroup iff nu >= this value."""
    check_dimension(d)
    return -d / (d + 2.0)


def ccp_threshold(d: int) -> float:
    """exp(tL) completely positive for all t iff nu >= this value."""
    return 0.0


@lru_cache(maxsize=None)
def generator_blocks(d: int):
    """Transfers of the generator's kappa and kappa nu / d blocks; real, read-only,
    cached per d.

    The defining sums are set entrywise (``vec`` index c d + r holds X[r, c]).
    sum_{i != j} E_ij X E_ji = sum_{i != j} X_jj E_ii, so hop is 1 at (ii, jj)
    for i != j and -(d - 1) on the diagonal.  sum_{k=1}^{d-1} Z^k X Z*^k
    multiplies X[r, c] by d delta_rc - 1, so phase is diagonal with entries
    d delta_rc - d.
    """
    d = check_dimension(d)
    diag = np.arange(d) * (d + 1)  # vec index of X[i, i]
    hop = np.zeros((d * d, d * d))
    hop[np.ix_(diag, diag)] = 1.0
    np.fill_diagonal(hop, -(d - 1))
    phase = np.diag((d * np.eye(d) - d).ravel())
    for block in (hop, phase):
        block.flags.writeable = False
    return hop, phase


def build_generator(p: GenParams) -> SuperMap:
    """Transfer matrix of the generator, from ``generator_blocks`` and the Hamiltonian.

    Real without a Hamiltonian, complex with one.
    """
    d = p.d
    hop, phase = generator_blocks(d)
    transfer = p.kappa * (hop + (p.nu / d) * phase)
    if any(p.h):
        ham = np.diag(np.asarray(p.h, dtype=complex))
        transfer = transfer - 1j * (
            np.kron(np.eye(d, dtype=complex), ham) - np.kron(ham.conj(), np.eye(d))
        )
    return SuperMap(d, transfer)


def expected_spectrum(p: GenParams) -> np.ndarray:
    """Closed-form generator spectrum.

    {-i (h_k - h_l) - kappa (d - 1 + nu)} for k != l, plus 0, plus -kappa*d
    with multiplicity d - 1.
    """
    vals = [0.0 + 0.0j] + [-p.kappa * p.d + 0.0j] * (p.d - 1)
    for k in range(p.d):
        for l in range(p.d):
            if k != l:
                vals.append(-1j * (p.h[k] - p.h[l]) - p.kappa * (p.d - 1 + p.nu))
    return np.asarray(vals)


@dataclass(frozen=True)
class RateReport:
    """Relaxation rates of the semigroup and the universal rate bound."""

    d: int
    gamma_diag: float      # population modes, multiplicity d - 1
    gamma_offdiag: float   # coherence modes, multiplicity d(d - 1)
    gamma_total: float
    gamma_max: float
    positivity_class: str
    c_d: float
    bound_satisfied: bool
    bound_saturated: bool


def rate_bound_coefficient(d: int, positivity_class: str) -> float:
    """c_d in Gamma_max <= c_d * Gamma: 1, 2/(d+1), or 1/d per class."""
    check_dimension(d)
    table = {"positive": 1.0, "schwarz": 2.0 / (d + 1), "kpositive": 1.0 / d}
    key = positivity_class.lower()
    if key not in table:
        raise UnknownName(
            f"unknown positivity class {positivity_class!r}; choose from {POSITIVITY_CLASSES}"
        )
    return table[key]


# Slack of the rate-bound test: absolute for "satisfied", relative to
# max(1, bound) for "saturated".
_SATURATION_TOL = 1e-12


def spectrum_rates(p: GenParams, positivity_class: str = "kpositive") -> RateReport:
    """Closed-form relaxation rates and the rate bound of a positivity class.

    Gamma_diag = kappa d, Gamma_offdiag = kappa (d - 1 + nu),
    Gamma_total = kappa d (d-1) (d + nu).  Raises NegativeRate outside
    kappa >= 0, d - 1 + nu >= 0.
    """
    if p.kappa < 0:
        raise NegativeRate(f"kappa must be >= 0, got {p.kappa}")
    if p.d - 1 + p.nu < 0:
        raise NegativeRate(f"d - 1 + nu must be >= 0, got {p.d - 1 + p.nu}")
    gamma_diag = p.kappa * p.d
    gamma_offdiag = p.kappa * (p.d - 1 + p.nu)
    gamma_total = p.kappa * p.d * (p.d - 1) * (p.d + p.nu)
    gamma_max = max(gamma_diag, gamma_offdiag)

    c_d = rate_bound_coefficient(p.d, positivity_class)
    bound = c_d * gamma_total
    return RateReport(
        d=p.d,
        gamma_diag=gamma_diag,
        gamma_offdiag=gamma_offdiag,
        gamma_total=gamma_total,
        gamma_max=gamma_max,
        positivity_class=positivity_class.lower(),
        c_d=c_d,
        bound_satisfied=gamma_max <= bound + _SATURATION_TOL,
        bound_saturated=abs(gamma_max - bound) <= _SATURATION_TOL * max(1.0, bound),
    )


# ---------------------------------------------------------------------------
# seeded sample parts, reused across calls with one seed
# ---------------------------------------------------------------------------

# The parts of the last seeded sample set, keyed by (oracle, d, budget, seed).
# One slot: a bisection reuses one seed, and dropping the old set before the
# next is drawn keeps two sets from ever being held at once.
_sample_parts: dict = {}


def _seeded_parts(oracle: str, d: int, n: int, seed, build):
    """``build(d, n, seed)`` as read-only arrays, reused while the key repeats.

    Seeds that are not integers (a ``Generator``, ``None``) draw anew on every
    call, as ``default_rng`` does with them, so their parts are never kept.
    """
    if not isinstance(seed, (int, np.integer)):
        return build(d, n, seed)
    key = (oracle, d, n, seed)
    parts = _sample_parts.get(key)
    if parts is None:
        _sample_parts.clear()
        parts = build(d, n, seed)
        for arr in parts:
            arr.flags.writeable = False
        _sample_parts[key] = parts
    return parts


# ---------------------------------------------------------------------------
# conditional positivity (orthonormal-pair oracle)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairSamplingReport:
    closed_form: bool
    sampled_min: float
    argmin_pair: tuple = field(repr=False, default=())


@lru_cache(maxsize=None)
def _covariant_blocks(d: int):
    """hop and phase as (b, P) pairs of d x d arrays; read-only, cached per d.

    A transfer T that commutes with X -> U X U^+ for every diagonal unitary
    U has nonzeros only on its diagonal and in its population block, the
    entries (i(d+1), j(d+1)) that map X[j, j] to X[i, i].  b[r, c] is the
    diagonal entry T[c d + r, c d + r] that scales X[r, c] (zero for r = c)
    and P[i, j] = T[i(d+1), j(d+1)].  Each block's support is checked
    exactly, by ``linalg.diagonal_covariant`` on the components of its
    pattern; an entry outside it raises instead of being dropped.  The
    arrays have the blocks' dtype: real for ``generator_blocks``.
    """
    diag = np.arange(d) * (d + 1)  # vec index of X[i, i]
    out = []
    for name, block in zip(("hop", "phase"), generator_blocks(d)):
        if not diagonal_covariant(d, (idx for _, idx, _ in affine_blocks((block,)))):
            raise QuditMapsError(f"the {name} block at d = {d} has entries outside the "
                                 "diagonal and the population block")
        b = np.diagonal(block).reshape(d, d).T.copy()  # b[r, c] = T[c d + r, c d + r]
        np.fill_diagonal(b, 0.0)
        pop = block[np.ix_(diag, diag)]
        for arr in (b, pop):
            arr.flags.writeable = False
        out.append((b, pop))
    return tuple(out)


def _pair_parts(d: int, n: int, seed):
    """Each pair's functional value under hop and phase, and the pairs.

    Rows are the two-coordinate pairs, read as (x, y) from rows d .. d^2 - 1
    of ``linalg.deterministic_candidates``, then ``n`` Haar pairs drawn from
    ``seed``; the columns are hop and phase, so ``parts @ [kappa, kappa nu / d]``
    is the functional of the generator with those parameters, whatever its
    Hamiltonian: for every H and every orthonormal pair (x, y),

        <y| -i [H, |x><x|] |y> = -i (<y|H|x> <x|y> - <y|x> <x|H|y>) = 0,

    since <x|y> = 0.  For a block (b, P) of ``_covariant_blocks`` and
    rho = |x><x|,

        <y| T(rho) |y> = sum_{r != c} b[r, c] a_r conj(a_c)
                         + sum_{i, j} P[i, j] |y_i|^2 |x_j|^2,   a = conj(y) x,

    one (pairs x d) @ (d x d) product and a row sum per term.
    """
    pairs = deterministic_candidates(d)[d:d * d].reshape(-1, 2, d)
    xs, ys = pairs[:, 0], pairs[:, 1]
    if n > 0:
        sx, sy = haar_orthonormal_pair(d, np.random.default_rng(seed), n=n)
        xs, ys = np.concatenate((xs, sx)), np.concatenate((ys, sy))
    a = ys.conj() * xs
    ac = a.conj()
    px, py = np.abs(xs) ** 2, np.abs(ys) ** 2
    cols = [np.einsum("nr,nr->n", a, ac @ b.T).real
            + np.einsum("ni,ni->n", py, px @ pop.T).real
            for b, pop in _covariant_blocks(d)]
    return np.column_stack(cols), xs, ys


def is_conditionally_positive(p: GenParams, sample_budget: int = 10_000,
                              seed: int = 42) -> PairSamplingReport:
    """Closed form nu >= -1 next to the orthonormal-pair sampling oracle.

    ``sampled_min`` is the minimum of <y|L(|x><x|)|y> over the deterministic
    two-coordinate pairs plus ``sample_budget`` Haar-random pairs; the
    deterministic pairs make the sampled verdict flip exactly at nu = -1.
    """
    if p.kappa <= 0:
        raise NegativeRate(f"kappa must be > 0, got {p.kappa}")
    parts, xs, ys = _seeded_parts("pair", p.d, max(int(sample_budget), 0), seed,
                                  _pair_parts)
    vals = parts @ np.array([p.kappa, p.kappa * p.nu / p.d])
    k = int(np.argmin(vals))
    return PairSamplingReport(
        closed_form=p.nu >= positivity_threshold(p.d),
        sampled_min=float(vals[k]),
        argmin_pair=(xs[k], ys[k]),
    )


# ---------------------------------------------------------------------------
# conditional complete positivity (projected-Choi oracle)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _omega_complement(d: int):
    """A sparse orthonormal basis of the complement of Omega, as (order, inner).

    Omega is supported on span{|ii>}, so the off-diagonal units |ij> plus an
    orthonormal basis ``inner`` (d x (d - 1)) of Omega's complement inside
    span{|ii>} span its complement.  ``order`` lists the off-diagonal
    coordinates, then the diagonal ones.  Cached per d, read-only.
    """
    omega = maximally_entangled_vector(d).real
    on, off = np.flatnonzero(omega), np.flatnonzero(omega == 0)
    inner = null_space(omega[on][None, :])  # d x (d - 1), orthonormal
    order = np.concatenate((off, on))
    for arr in (order, inner):
        arr.flags.writeable = False
    return order, inner


def _compress(m: np.ndarray, d: int) -> np.ndarray:
    """Q^T m Q for (..., d^2, d^2) matrices m and the basis Q of ``_omega_complement``.

    The coordinates are ordered off-diagonal first, then ``inner`` is
    applied to the last d rows and columns in place; the eigenvalues do not
    depend on which orthonormal basis of the complement is used, and this
    one keeps the block structure m has on the off-diagonal units.
    """
    order, inner = _omega_complement(d)
    c = m[..., order[:, None], order]
    k = d * d - d
    c[..., k:-1] = c[..., k:] @ inner
    c[..., k:-1, :] = inner.T @ c[..., k:, :]
    return c[..., :-1, :-1]


@dataclass(frozen=True)
class CcpReport:
    closed_form: bool
    min_eig_projected: float


def is_ccp(p: GenParams) -> CcpReport:
    """Closed form nu >= 0 next to the projected-Choi eigenvalue oracle.

    The oracle compresses the generator's Choi matrix sum_rc E_rc (x) L(E_rc)
    to the orthogonal complement of the maximally entangled vector Omega and
    reports the smallest eigenvalue of that (d^2 - 1)-dimensional block.

    The Hamiltonian part adds nothing: the Choi matrix of -i [H, .] is
    -i (|v><Omega| - |Omega><v|) with v = (I kron H) Omega, which the
    compression removes for every H.  The rest is read on the support
    ``_covariant_blocks`` checks: L maps E_rc to b[r, c] E_rc for r != c and
    E_jj to sum_i P[i, j] E_ii, with (b, P) = kappa (b, P)_hop +
    (kappa nu / d) (b, P)_phase.  So the Choi matrix is diagonal, P[i, j],
    on the off-diagonal units |ji>, and on span{|ii>} it is S with
    S[r, c] = b[r, c] for r != c and S[j, j] = P[j, j].  In the basis of
    ``_omega_complement`` the compression is those diagonal entries next to
    inner^T S inner, so the minimum is the smaller of min_{i != j} P[i, j]
    and one (d - 1)-square eigenvalue; no d^2 x d^2 matrix is built.
    """
    if p.kappa <= 0:
        raise NegativeRate(f"kappa must be > 0, got {p.kappa}")
    d, t = p.d, p.kappa * p.nu / p.d
    (b_hop, pop_hop), (b_phase, pop_phase) = _covariant_blocks(d)
    pop = p.kappa * pop_hop + t * pop_phase
    s = p.kappa * b_hop + t * b_phase + np.diag(np.diagonal(pop))
    _, inner = _omega_complement(d)
    units = pop.real[~np.eye(d, dtype=bool)].min()
    return CcpReport(
        closed_form=p.nu >= ccp_threshold(d),
        min_eig_projected=float(min(units, np.linalg.eigvalsh(inner.T @ s @ inner)[0])),
    )


# ---------------------------------------------------------------------------
# dissipativity (Schwarz class): one Hermitian form per output vector
# ---------------------------------------------------------------------------

def dissipativity_matrix(d: int, a: float, x: np.ndarray) -> np.ndarray:
    """M(a, X) for traceless X; the generator is dissipative iff M >= 0 always."""
    d = check_dimension(d)
    xm = as_complex_matrix(x)
    if xm.shape != (d, d):
        raise DimensionMismatch(f"X must be {d} x {d}, got {xm.shape}")
    if abs(np.trace(xm)) > 1e-10 * frobenius(xm):
        raise NotTraceless(f"|Tr X| = {abs(np.trace(xm)):.3e} is not ~0")
    xdx = xm.conj().T @ xm
    m = np.trace(xdx) * np.eye(d) + (d - a) * xdx - a * dephase(xdx)
    m = m + a * (dephase(xm.conj().T) @ xm + xm.conj().T @ dephase(xm))
    return (m + m.conj().T) / 2.0  # Hermitian by construction; symmetrize rounding


def witness_operator(d: int, c: float) -> np.ndarray:
    """The traceless witness [[1, -c], [c, -1]] embedded in the top 2x2 block."""
    d = check_dimension(d)
    x = np.zeros((d, d), dtype=complex)
    x[0, 0], x[0, 1] = 1.0, -c
    x[1, 0], x[1, 1] = c, -1.0
    return x


def witness_min_eig(d: int, a: float, c: float) -> float:
    """Smallest eigenvalue of M(a, X(c)) for the witness family.

    ``dissipativity_matrix`` symmetrises M, so it is Hermitian by
    construction and goes to ``eigvalsh`` unchecked.
    """
    return float(np.linalg.eigvalsh(dissipativity_matrix(d, a, witness_operator(d, c)))[0])


def dissipation_forms(d: int, ws: np.ndarray) -> np.ndarray:
    """The hop and phase parts of the form Q(w) of each unit vector w in ``ws``.

    For a generator with transfer T, w^+ D(X) w = x^+ Q(w) x with x = vec X,
    where D(X) = L(X^+ X) - L(X)^+ X - X^+ L(X) is the dissipation function
    and

        Q(w) = conj(L^+(w w^+)) kron I - T^+ P_w - P_w T,  P_w = (conj(w) w^T) kron I.

    Q(w) is linear in T; T = hop and T = phase are built here, and
    Q/kappa = Q_hop + (nu/d) Q_phase (a Hamiltonian part adds nothing: D of
    -i[H, .] is zero).  Each Q(w) is compressed to traceless X by
    ``_compress``; D(X + cI) = D(X), so only the identity's zero eigenvalue
    goes.  Dense, shape (2, len(ws), d^2 - 1, d^2 - 1); each part is
    compressed as it is built.  Real ``ws`` give real forms, since the
    blocks are real: built in real arithmetic throughout.
    """
    n, dd = len(ws), d * d
    blocks = generator_blocks(d)
    rho = np.einsum("nc,nr->ncr", ws.conj(), ws).reshape(n, dd)  # vec(w w^+)
    forms = np.empty((2, n, dd - 1, dd - 1), dtype=np.result_type(ws, *blocks))
    for out, block in zip(forms, blocks):
        adj = block.conj().T
        g = (rho @ adj.T).reshape(n, d, d).swapaxes(-1, -2)  # L^+(w w^+), unvec'd
        g = (g + g.conj().swapaxes(-1, -2)) / 2.0  # L^+ keeps Hermiticity; drop rounding
        # T^+ P_w at column c' d + r' is (T^+ (conj(w) kron I))[:, r'] w_c'
        u = np.einsum("icr,nc->nir", adj.reshape(dd, d, d), ws.conj())
        tp = (u[:, :, None, :] * ws[:, None, :, None]).reshape(n, dd, dd)
        q = np.einsum("nab,rs->narbs", g.conj(), np.eye(d)).reshape(n, dd, dd)
        q -= tp
        q -= tp.conj().swapaxes(-1, -2)
        out[:] = _compress(q, d)
    return forms


# The family each orbit representative stands for: e_1, (e_1 + e_2)/sqrt 2 and
# the uniform vector, rows 0, d and d^2 of ``positivity_candidates(d)``.
_FAMILIES = ("basis", "pair", "uniform")


@lru_cache(maxsize=None)
def _representative_parts(d: int):
    """The three orbit representatives' hop and phase forms; read-only, cached per d.

    Returns ``(blocks, member, uniform, ws)``.  The forms do not depend on
    the seed, so they are built once per d, by ``dissipation_forms`` at |w|
    (see ``_form_parts``).  The basis and pair forms are block-sparse at
    every d (at d = 16 the basis form is 240 1 x 1 blocks and one 15 x 15,
    the pair form 210 1 x 1, 14 2 x 2 and one 17 x 17), so they are kept
    only as ``blocks``, the ``linalg.affine_blocks`` of their stacked
    (2, 2, d^2 - 1, d^2 - 1) parts: per block size, the components (index
    b (d^2 - 1) + i is row i of representative b, 0 basis and 1 pair) and
    the (hop, phase) blocks there.  ``member`` names each block's
    representative, ``idx[:, 0] // (d^2 - 1)`` over the sizes, in the order
    in which ``_representative_minimum`` concatenates the blocks' minima.
    The uniform form is one dense block, solved whole with the Haar forms,
    but most of its entries are zero (83 % at d = 16), so it is kept as
    ``(support, hop, phase)``: the flat indices of its nonzero entries and
    its two parts there.  ``ws`` are the three representatives as drawn.
    """
    _covariant_blocks(d)  # raises unless hop and phase are diagonal-unitary covariant
    ws = deterministic_candidates(d)[[0, d, d * d]]
    forms = dissipation_forms(d, np.abs(ws))
    support = np.flatnonzero(np.any(forms[:, 2] != 0, axis=0))
    uniform = (support, forms[0, 2].reshape(-1)[support], forms[1, 2].reshape(-1)[support])
    blocks = affine_blocks(forms[:, :2])
    member = np.concatenate([idx[:, 0] // (d * d - 1) for _, idx, _ in blocks])
    for arr in (*uniform, ws, member):
        arr.flags.writeable = False
    return blocks, member, uniform, ws


def _form_parts(d: int, n: int, seed):
    """Dense real hop and phase forms of ``n`` Haar vectors drawn from ``seed``,
    (n, d^2 - 1, d^2 - 1) each, and the vectors.

    The vectors are the seeded rows of ``positivity_candidates``.  Each form
    is built at |w|, entrywise: for the diagonal unitary U with w = U |w|,
    w^+ D(X) w = |w|^+ D(U^+ X U) |w| whenever hop and phase commute with
    X -> U X U^+, which ``_covariant_blocks`` checks (it raises otherwise).
    X -> U^+ X U is unitary on traceless X, so Q(|w|) is unitarily similar
    to Q(w) there, and it is real.  The drawn w are returned, so they stay
    the reported argmin.  The representatives' forms do not depend on the
    seed and are built once per d (``_representative_parts``).
    """
    _covariant_blocks(d)  # raises unless hop and phase are diagonal-unitary covariant
    ws = positivity_candidates(d, n, np.random.default_rng(seed))[d * d + 1:]
    hop, phase = dissipation_forms(d, np.abs(ws))
    return hop, phase, ws


def _representative_minimum(d: int, t: float):
    """Smallest eigenvalue of Q_hop + t Q_phase over the basis and pair
    representatives, and its w and family.

    Solved on the blocks of ``_representative_parts``: one
    ``linalg.min_eig_gathered`` per block size gives every block's minimum,
    and ``member``, built once per d, names each block's representative.
    On a tie the basis representative decides, as the first of the three.
    """
    blocks, member, _, ws = _representative_parts(d)
    vals = np.concatenate([min_eig_gathered(size, (phase * t + hop)[:, None])
                           for size, _, (hop, phase) in blocks])
    best = vals.min()
    k = member[vals == best].min()
    return best, ws[k], _FAMILIES[k]


@dataclass(frozen=True)
class DissipativityReport:
    closed_form: bool
    min_witness_eig: float
    min_sampled_eig: float
    argmin_w: np.ndarray = field(repr=False, compare=False, default=None)
    argmin_family: str | None = None


def is_dissipative(p: GenParams, sample_budget: int = 10_000,
                   seed: int = 42) -> DissipativityReport:
    """Closed form nu >= -d/(d+2) next to the fixed-w form oracle and the witness.

    ``min_sampled_eig`` is the smallest eigenvalue of Q(w)/kappa on traceless
    X (the exact minimum of w^+ M(a, X) w over unit traceless X), minimised
    over the d^2 + 1 deterministic ``positivity_candidates`` and
    ceil(budget / d^3) seeded Haar vectors w.  Each form is built, real, at
    |w|, which has the spectrum of the form at w (see ``_form_parts``).
    The deterministic candidates' three orbit representatives have their
    minimum; their forms are built once per d (``_representative_parts``).
    Stage 1 solves the basis and pair representatives on their blocks;
    stage 2 certifies the dense forms, the uniform representative's and
    the Haar vectors', with ``linalg.min_eig_capped``, capped at the
    stage-1 minimum, so the result is a plain solve's of every form.
    ``argmin_w`` is the deciding w as drawn (a representative, or a Haar
    vector) and ``argmin_family`` its kind: ``basis``, ``pair``,
    ``uniform`` or ``haar``; a later stage or form decides only when it is
    strictly lower.  ``sample_budget = 0`` runs no oracle and reports
    infinity.

    The witness, a closed-form cross-check that decides nothing, is
    evaluated at its optimal parameter c* = d/(d+2-2a) when d + 2 - 2a > 0;
    otherwise the quadratic-in-c eigenvalue is unbounded below and a large
    deterministic c in {10, 100} exhibits the divergence.
    """
    if p.kappa <= 0:
        raise NegativeRate(f"kappa must be > 0, got {p.kappa}")
    d, a = p.d, p.a
    if d + 2 - 2 * a > 0:
        c_star = d / (d + 2 - 2 * a)
        min_witness = witness_min_eig(d, a, c_star)
    else:
        min_witness = min(witness_min_eig(d, a, c) for c in (10.0, 100.0))
    best, w, family = np.inf, None, None
    if sample_budget > 0:
        n = -(-int(sample_budget) // d ** 3)
        t = p.nu / d
        best, w, family = _representative_minimum(d, t)
        *_, uniform, reps = _representative_parts(d)
        hop, phase, haar = _seeded_parts("dissipativity", d, n, seed, _form_parts)
        mats = np.empty((1 + len(hop),) + hop.shape[1:], dtype=hop.dtype)
        np.multiply(phase, t, out=mats[1:])
        mats[1:] += hop
        support, u_hop, u_phase = uniform
        mats[0] = 0.0
        mats[0].reshape(-1)[support] = u_phase * t + u_hop
        low = min_eig_capped(mats[:, None], np.full(len(mats), best))
        k = int(np.argmin(low))
        if low[k] < best:
            best = low[k]
            w, family = (haar[k - 1], "haar") if k else (reps[2], "uniform")
    return DissipativityReport(
        closed_form=p.nu >= schwarz_threshold(d),
        min_witness_eig=float(min_witness),
        min_sampled_eig=float(best),
        argmin_w=w,
        argmin_family=family,
    )
