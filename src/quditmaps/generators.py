"""The qudit generator family, its spectrum, and the three positivity-class tests.

The generator acts on d x d matrices as

    L(rho) = -i [H, rho]
             + kappa * [ (sum_{i != j} E_ij rho E_ji - (d-1) rho)
                         + (nu/d) * (sum_{k=1}^{d-1} Z^k rho Z*^k - (d-1) rho) ],

with diagonal H = diag(h_1 ... h_d) and Z = diag(q, q^2, ..., q^d), q = exp(2 pi i / d).
Collapsing the sums gives the equivalent compact form

    L(rho) = kappa * [ I Tr(rho) + (nu - 1) Delta(rho) - (d - 1 + nu) rho ] - i [H, rho],

which the test-suite uses as an independent cross-check.  The semigroup
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
  of w^+ M(a, X) w over unit traceless X.

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

* pair oracle: each pair's functional value under hop, phase and the d
  Hamiltonian units.  The hop and phase blocks are applied as the sparse
  matrices they are (496 and 252 nonzeros of 65 536 at d = 16).  A call is
  one (pairs x (d + 2)) product and an argmin;
* dissipativity oracle: Q(w) is linear in the generator, and D of -i[H, .]
  is zero, so Q/kappa = Q_hop + (nu/d) Q_phase.  The candidates w are the
  d^2 + 1 deterministic ``positivity_candidates`` (basis vectors,
  two-coordinate superpositions, the uniform superposition) plus
  ceil(budget / d^3) seeded Haar vectors: one (d^2 - 1)-square solve costs
  about as much as d^3 solves of d x d, so the budget buys about the
  eigensolve work of the old budget of X samples.  Stage 1 solves the
  deterministic forms blockwise: they are built as one sparse block
  diagonal matrix, and their blocks (at d = 16 of sizes 1, 2, 15, 17 and
  255) are labelled and kept by size, lower triangles only; for the life of
  the process while a d's blocks take at most 512 KB (d <= 11), otherwise
  until another large d is labelled.  Stage 2 certifies the Haar forms with
  ``linalg.min_eig_capped``, capped at the stage-1 minimum; their dense
  parts are kept per seed;
* projected-Choi oracle: the Choi matrix is compressed to Omega's complement
  with a sparse orthonormal basis, the off-diagonal units |ij> plus an
  orthonormal basis of Omega's complement inside span{|ii>}.  The compressed
  matrix is block diagonal, and ``linalg.min_eig_affine`` finds and solves
  the blocks; no (d^2 - 1)-dimensional eigensolve is made.  The dissipativity
  oracle compresses with the same basis.

The two sampling oracles keep the parts of the last seeded sample set only,
keyed by (oracle, d, sample count, seed), and drop them before the next set
is drawn.  On one BLAS thread (2-core shared machine), a 9-call Schwarz
bisection with budget 10 000 takes about 10, 14, 18 and 44 ms at d = 2, 3,
5 and 8, and 220 ms at d = 16 (about 50, 70, 140, 300 and 1000 ms when
10 000 random X were solved).  Labelling the deterministic forms takes
about 3, 4, 9, 30 and 80 ms at d = 2, 5, 8, 12 and 16; with them kept, a
call with budget 1000 and a new seed takes about 1 ms at d = 2 and 3 ms at
d = 8 (2.4 and 13 ms with random X), and at d >= 12, where a new d labels
anew, 30 to 95 ms (27 to 50 ms).  A repeated pair-oracle call at d = 8
takes 0.1 ms; ``is_ccp`` at d = 16 takes 2 to 5 ms, where the dense
255 x 255 eigensolve took 24 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import null_space
from scipy.sparse import csr_array

from .channels import SuperMap, dephase
from .errors import (
    DimensionMismatch,
    NegativeRate,
    NotOrthonormal,
    NotTraceless,
    UnknownName,
)
from .linalg import (
    affine_blocks,
    as_complex_matrix,
    basis_matrix,
    check_dimension,
    frobenius,
    haar_orthonormal_pair,
    maximally_entangled_vector,
    min_eig,
    min_eig_affine,
    min_eig_capped,
    positivity_candidates,
    two_coordinate_pairs,
    unvec,
    vec,
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
        check_dimension(self.d)
        h = tuple(float(x) for x in self.h)
        if not np.isfinite((self.kappa, self.nu) + h).all():
            raise NegativeRate(f"kappa, nu and h must be finite, got kappa={self.kappa}, "
                               f"nu={self.nu}, h={h}")
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


def phase_unitary(d: int) -> np.ndarray:
    """Z = sum_l exp(2 pi i l / d) E_ll, the diagonal clock unitary."""
    d = check_dimension(d)
    return np.diag(np.exp(2j * np.pi * np.arange(1, d + 1) / d))


@lru_cache(maxsize=None)
def generator_blocks(d: int):
    """Transfers of the generator's kappa and kappa nu / d blocks, built
    literally from their defining sums; read-only and cached per d."""
    d = check_dimension(d)
    eye = np.eye(d * d, dtype=complex)
    hop = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            if i != j:
                e = basis_matrix(i, j, d)
                hop += np.kron(e.conj(), e)  # X -> E_ij X E_ji
    hop -= (d - 1) * eye
    z = phase_unitary(d)
    phase = np.zeros_like(hop)
    for k in range(1, d):
        zk = np.linalg.matrix_power(z, k)
        phase += np.kron(zk.conj(), zk)
    phase -= (d - 1) * eye
    for block in (hop, phase):
        block.flags.writeable = False
    return hop, phase


def build_generator(p: GenParams) -> SuperMap:
    """Transfer matrix of the generator, built literally from its defining sums."""
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


def spectrum_rates(p: GenParams, positivity_class: str = "kpositive",
                   saturation_tol: float = 1e-12) -> RateReport:
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
        bound_satisfied=gamma_max <= bound + saturation_tol,
        bound_saturated=abs(gamma_max - bound) <= saturation_tol * max(1.0, bound),
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

def pair_functional(gen: SuperMap, x: np.ndarray, y: np.ndarray) -> float:
    """<y| L(|x><x|) |y> evaluated through the transfer matrix."""
    out = gen(np.outer(x, x.conj()))
    return float(np.real(y.conj() @ out @ y))


@dataclass(frozen=True)
class PairSamplingReport:
    closed_form: bool
    sampled_min: float
    argmin_pair: tuple = field(repr=False, default=())


def _pair_parts(d: int, n: int, seed):
    """Each pair's functional value under each basis generator, and the pairs.

    Rows are the two-coordinate pairs, then ``n`` Haar pairs drawn from
    ``seed``; columns are hop, phase and the d units -i [E_kk, .] of the
    diagonal Hamiltonian, so ``parts @ [kappa, kappa nu / d, h_1 .. h_d]`` is
    the functional of the generator with those parameters.
    """
    xs, ys = (np.asarray(v) for v in zip(*two_coordinate_pairs(d)))
    if n > 0:
        sx, sy = haar_orthonormal_pair(d, np.random.default_rng(seed), n=n)
        xs, ys = np.concatenate((xs, sx)), np.concatenate((ys, sy))
    # vec(|x><x|) as columns (samples on the last axis, C order for the sparse
    # products): row c*d + r holds x_r conj(x_c), as in ``linalg.vec``
    xt, yt = xs.T, ys.T
    rho = (xt.conj()[:, None, :] * xt[None, :, :]).reshape(d * d, -1)
    # <y| B(rho) |y> with B(rho) laid out as [c, r, sample]
    cols = [np.einsum("rn,crn,cn->n", yt.conj(),
                      (csr_array(block) @ rho).reshape(d, d, -1), yt).real
            for block in generator_blocks(d)]
    # <y| -i (E_kk rho - rho E_kk) |y> with rho = |x><x|
    ovl = np.einsum("ni,ni->n", xs.conj(), ys)  # <x|y>
    ham = (-1j * (ys.conj() * xs * ovl[:, None]
                  - (xs.conj() * ys) * ovl.conj()[:, None])).real
    return np.column_stack(cols + [ham]), xs, ys


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
    vals = parts @ np.array([p.kappa, p.kappa * p.nu / p.d, *p.h])
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

    The oracle compresses the generator's Choi matrix to the orthogonal
    complement of the maximally entangled vector and reports the smallest
    eigenvalue of that (d^2 - 1)-dimensional block.  The eigenvalues do not
    depend on which orthonormal basis of the complement is used; a sparse one
    keeps the compression block diagonal, so the blocks are solved apart.
    """
    if p.kappa <= 0:
        raise NegativeRate(f"kappa must be > 0, got {p.kappa}")
    c = _compress(build_generator(p).choi, p.d)
    return CcpReport(
        closed_form=p.nu >= ccp_threshold(p.d),
        min_eig_projected=float(min_eig_affine(c[None], [[1.0]])[0]),
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
    """Smallest eigenvalue of M(a, X(c)) for the witness family."""
    return min_eig(dissipativity_matrix(d, a, witness_operator(d, c)))


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
    goes.  Dense, shape (2, len(ws), d^2 - 1, d^2 - 1).
    """
    n, dd = len(ws), d * d
    rho = vec(np.einsum("ni,nj->nij", ws, ws.conj()))
    forms = np.empty((2, n, dd, dd), dtype=complex)
    for q, block in zip(forms, generator_blocks(d)):
        adj = block.conj().T
        g = unvec(rho @ adj.T, d)  # L^+(w w^+)
        g = (g + g.conj().swapaxes(-1, -2)) / 2.0  # L^+ keeps Hermiticity; drop rounding
        # T^+ P_w at column c' d + r' is (T^+ (conj(w) kron I))[:, r'] w_c'
        u = np.einsum("icr,nc->nir", adj.reshape(dd, d, d), ws.conj())
        tp = (u[:, :, None, :] * ws[:, None, :, None]).reshape(n, dd, dd)
        q[:] = np.einsum("nab,rs->narbs", g.conj(), np.eye(d)).reshape(n, dd, dd)
        q -= tp
        q -= tp.conj().swapaxes(-1, -2)
    return _compress(forms, d)


def _repeat_diagonal(x: csr_array, n: int) -> csr_array:
    """kron(I_n, x): ``n`` copies of the CSR matrix x down the diagonal."""
    (rows, cols), nnz = x.shape, x.nnz
    indices = (x.indices + cols * np.arange(n)[:, None]).ravel()
    indptr = np.append((x.indptr[:-1] + nnz * np.arange(n)[:, None]).ravel(), n * nnz)
    return csr_array((np.tile(x.data, n), indices, indptr), shape=(n * rows, n * cols))


def _kron_eye(a: np.ndarray, d: int) -> csr_array:
    """Block diagonal of kron(a[n], I_d) over a (N, d, d) stack, sparse."""
    n, c, c2 = np.nonzero(a)
    dd, r = d * d, np.arange(d)
    rows = ((n * dd + c * d)[:, None] + r).ravel()
    cols = ((n * dd + c2 * d)[:, None] + r).ravel()
    return csr_array((np.repeat(a[n, c, c2], d), (rows, cols)),
                     shape=(len(a) * dd, len(a) * dd))


@lru_cache(maxsize=None)
def _sparse_form_operators(d: int):
    """The basis of ``_omega_complement``, its transpose, and the adjoints of hop and phase."""
    order, inner = _omega_complement(d)
    k = d * d - d
    basis = csr_array((np.concatenate((np.ones(k), inner.ravel())),
                       (np.concatenate((order[:k], np.repeat(order[k:], d - 1))),
                        np.concatenate((np.arange(k), k + np.tile(np.arange(d - 1), d))))),
                      shape=(d * d, d * d - 1))
    adjoints = tuple(csr_array(block.conj().T) for block in generator_blocks(d))
    return basis, basis.T.tocsr(), adjoints


def _sparse_dissipation_forms(d: int, ws: np.ndarray):
    """``dissipation_forms`` as entries of one sparse block diagonal matrix.

    Block n, of size d^2 - 1, is the compressed Q(ws[n]); the forms of
    sparse vectors w are sparse.  Returns ``(rows, cols, vals)``, the
    entries of both parts (vals of shape (2, E)) on their joint pattern.
    """
    n = len(ws)
    basis, basis_t, adjoints = _sparse_form_operators(d)
    basis, basis_t = _repeat_diagonal(basis, n), _repeat_diagonal(basis_t, n)
    proj = _kron_eye(ws.conj()[:, :, None] * ws[:, None, :], d)
    rho = vec(np.einsum("ni,nj->nij", ws, ws.conj()))
    forms = []
    for adj in adjoints:
        g = unvec((adj @ rho.T).T, d)
        g = (g + g.conj().swapaxes(-1, -2)) / 2.0
        tp = _repeat_diagonal(adj, n) @ proj
        forms.append(basis_t @ (_kron_eye(g.conj(), d) - tp - tp.conj().T) @ basis)
    joint = (abs(forms[0]) + abs(forms[1])).tocoo()
    keep = joint.data != 0
    rows, cols = joint.row[keep], joint.col[keep]
    return rows, cols, np.stack([f[rows, cols] for f in forms])


# Candidates times d^2 coordinates whose sparse forms are built together: at
# d = 16 the temporaries of 128 candidates stay near 13 MB, where all 257 at
# once take 28 MB.
_FORM_CHUNK = 2**15

# The blocks of a d are kept for the life of the process while they take at
# most this many bytes (d <= 11); larger ones only until another large d is
# labelled, so a bisection still labels once.  Kept blocks cost about twice
# their size in resident memory, and those of d = 2..16 together 7.5 MB.
_KEPT_FORM_BYTES = 2**19
_kept_forms: dict = {}
_last_forms: dict = {}


def _candidate_form_blocks(d: int):
    """``_label_candidate_forms(d)``, kept as ``_KEPT_FORM_BYTES`` allows."""
    forms = _kept_forms.get(d) or _last_forms.get(d)
    if forms is None:
        forms = _label_candidate_forms(d)
        if sum(a.nbytes for group in forms[1] for a in group[1:]) <= _KEPT_FORM_BYTES:
            _kept_forms[d] = forms
        else:
            _last_forms.clear()
            _last_forms[d] = forms
    return forms


def _label_candidate_forms(d: int):
    """The deterministic candidates w and the blocks of their forms, by size.

    Nothing here depends on kappa, nu, h or a seed, so a d's forms are built
    and labelled once while they are kept.  The blocks are read-only, in
    groups (size, candidate of each block, hop entries, phase entries): a
    1 x 1 block as its real diagonal pair, once per distinct pair, and a
    larger one as its lower triangle, which is all ``eigvalsh`` reads.  A
    part with no imaginary entry is kept real.
    """
    ws = positivity_candidates(d)
    m = d * d - 1
    chunk = max(1, _FORM_CHUNK // (d * d))
    by_size = {}
    for start in range(0, len(ws), chunk):
        sub = ws[start:start + chunk]
        for idx, blocks in affine_blocks(*_sparse_dissipation_forms(d, sub), len(sub) * m):
            rows, cols = np.tril_indices(blocks.shape[-1])
            by_size.setdefault(blocks.shape[-1], []).append(
                (start + idx[:, 0] // m, blocks[:, :, rows, cols]))
    groups = []
    for size, pieces in sorted(by_size.items()):
        owner = np.concatenate([o for o, _ in pieces])
        low = np.concatenate([v for _, v in pieces], axis=1)
        if size == 1:  # real diagonal pairs, packed as complex numbers to find repeats
            pair, first = np.unique(low[0, :, 0].real + 1j * low[1, :, 0].real,
                                    return_index=True)
            owner, low = owner[first], np.stack((pair.real, pair.imag))[:, :, None]
        parts = [(v.real if np.iscomplexobj(v) and not v.imag.any() else v).copy()
                 for v in low]
        groups.append((size, owner, *parts))
    for arr in [ws] + [a for group in groups for a in group[1:]]:
        arr.flags.writeable = False
    return ws, tuple(groups)


def _candidate_form_minimum(d: int, t: float):
    """Smallest eigenvalue of Q_hop + t Q_phase over the deterministic forms, and its w."""
    ws, groups = _candidate_form_blocks(d)
    best, k = np.inf, 0
    for size, owner, hop, phase in groups:
        vals = hop + t * phase
        if size == 1:
            mins = vals[:, 0]
        else:
            rows, cols = np.tril_indices(size)
            mats = np.zeros((len(owner), size, size), dtype=vals.dtype)
            mats[:, rows, cols] = vals
            mins = np.linalg.eigvalsh(mats, UPLO="L")[:, 0]
        i = int(np.argmin(mins))
        if mins[i] < best:
            best, k = mins[i], owner[i]
    family = "basis" if k < d else "pair" if k < d * d else "uniform"
    return best, ws[k], family


def _haar_form_parts(d: int, n: int, seed):
    """Dense hop and phase forms, (n, d^2 - 1, d^2 - 1) each, of ``n`` Haar vectors w."""
    ws = positivity_candidates(d, n, np.random.default_rng(seed))[d * d + 1:]
    hop, phase = dissipation_forms(d, ws)
    return hop, phase, ws


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
    ceil(budget / d^3) seeded Haar vectors w.  Stage 1 solves the kept
    blocks of the deterministic forms; stage 2 certifies the dense Haar
    forms with ``linalg.min_eig_capped``, capped at the stage-1 minimum, so
    the result is a plain solve's.  ``argmin_w`` is the deciding w and
    ``argmin_family`` its kind: ``basis``, ``pair``, ``uniform`` or
    ``haar``.  ``sample_budget = 0`` runs no oracle and reports infinity.

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
        best, w, family = _candidate_form_minimum(d, p.nu / d)
        n = -(-int(sample_budget) // d ** 3)
        q0, q1, haar = _seeded_parts("dissipativity", d, n, seed, _haar_form_parts)
        mats = np.multiply(q1, p.nu / d)
        mats += q0
        low = min_eig_capped(mats[:, None], np.full(n, best))
        k = int(np.argmin(low))
        if low[k] < best:
            best, w, family = low[k], haar[k], "haar"
    return DissipativityReport(
        closed_form=p.nu >= schwarz_threshold(d),
        min_witness_eig=float(min_witness),
        min_sampled_eig=float(best),
        argmin_w=w,
        argmin_family=family,
    )


# ---------------------------------------------------------------------------
# the pair-functional bound
# ---------------------------------------------------------------------------

def lemma1_value(x, y) -> float:
    """sum_i |x_i|^2 |y_i|^2 for an orthonormal pair; always <= 1/2."""
    xv = np.asarray(x, dtype=complex).reshape(-1)
    yv = np.asarray(y, dtype=complex).reshape(-1)
    if xv.shape != yv.shape:
        raise NotOrthonormal("x and y must have the same length")
    if abs(np.linalg.norm(xv) - 1.0) > 1e-10 or abs(np.linalg.norm(yv) - 1.0) > 1e-10:
        raise NotOrthonormal("x and y must be normalized")
    if abs(np.vdot(xv, yv)) > 1e-10:
        raise NotOrthonormal(f"|<x, y>| = {abs(np.vdot(xv, yv)):.3e} is not ~0")
    return float(np.sum(np.abs(xv) ** 2 * np.abs(yv) ** 2))
