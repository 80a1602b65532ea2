"""The qudit generator family, its spectrum, and the three positivity-class tests.

The generator acts on d x d matrices as

    L(rho) = -i [H, rho]
             + kappa * [ (sum_{i != j} E_ij rho E_ji - (d-1) rho)
                         + (nu/d) * (sum_{k=1}^{d-1} Z^k rho Z*^k - (d-1) rho) ],

with diagonal H = diag(h_1 ... h_d) and Z = diag(w, w^2, ..., w^d), w = exp(2 pi i / d).
Collapsing the sums gives the equivalent compact form

    L(rho) = kappa * [ I Tr(rho) + (nu - 1) Delta(rho) - (d - 1 + nu) rho ] - i [H, rho],

which the test-suite uses as an independent cross-check.  The semigroup
exp(t L) is positive iff nu >= -1, satisfies the operator Schwarz inequality
iff nu >= -d/(d+2), and is completely positive iff nu >= 0; each closed-form
threshold is paired here with a numerical oracle:

* conditional positivity  <->  <y| L(|x><x|) |y> >= 0 over orthonormal pairs,
* complete positivity     <->  the Choi matrix compressed to the complement of
  the maximally entangled vector is PSD,
* Schwarz (dissipativity)  <->  M(a, X) >= 0 for traceless X with a = 1 - nu,
  where M(a, X) = Tr(X^+ X) I + (d-a) X^+ X - a Delta(X^+ X)
                  + a (Delta(X^+) X + X^+ Delta(X)).

The dissipativity witness is the one-parameter traceless family
X(c) = [[1, -c], [c, -1]] (+) 0; for d + 2 - 2a > 0 its smallest M-eigenvalue
is minimized at c* = d / (d + 2 - 2a) where it equals d + 2 - d^2/(d + 2 - 2a),
crossing zero exactly at the Schwarz threshold.

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
* dissipativity oracle: M(a, X) = M0(X) + a M1(X), so a call starts with
  one combination.  The first call of a seed solves every sample with one
  batched ``eigvalsh`` and moves the 32 lowest to the front of the kept
  parts.  A later call solves those 32, and ``linalg.min_eig_capped``
  certifies the others against their minimum with a batched Cholesky; a
  sample the certificate rejects is solved, so the minimum is a plain
  solve's, to the bit, however far ``nu`` has moved;
* projected-Choi oracle: the Choi matrix is compressed to Omega's complement
  with a sparse orthonormal basis, the off-diagonal units |ij> plus an
  orthonormal basis of Omega's complement inside span{|ii>}.  The compressed
  matrix is block diagonal, and ``linalg.min_eig_affine`` finds and solves
  the blocks; no (d^2 - 1)-dimensional eigensolve is made.

The two sampling oracles keep the parts of the last seeded sample set only,
keyed by (oracle, d, budget, seed), and drop them before the next set is
drawn.  On one BLAS thread, a repeated call with budget 10 000 at d = 8 takes
0.1 ms for the pair oracle (90 ms when every call drew and built its own) and
about 17 ms for the dissipativity oracle (about 90 ms with one ``eigvalsh``
over every sample, 300 ms when every call drew its own; 4, 4, 8 and 63 ms
at d = 2, 3, 5 and 16); ``is_ccp`` at d = 16 takes 2 to 5 ms, where the
dense 255 x 255 eigensolve took 24 ms.
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
    as_complex_matrix,
    basis_matrix,
    check_dimension,
    frobenius,
    haar_orthonormal_pair,
    maximally_entangled_vector,
    min_eig,
    min_eig_affine,
    min_eig_capped,
    random_traceless,
)

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

def two_coordinate_pairs(d: int):
    """Orthonormal pairs ((e_i + e_j)/sqrt2, (e_i - e_j)/sqrt2) for i < j.

    These saturate the pair functional sum_k |x_k|^2 |y_k|^2 at 1/2, so they
    pin the conditional-positivity oracle to its exact threshold.
    """
    pairs = []
    for i in range(d):
        for j in range(i + 1, d):
            x = np.zeros(d, dtype=complex)
            y = np.zeros(d, dtype=complex)
            x[i] = x[j] = 1.0 / np.sqrt(2.0)
            y[i] = 1.0 / np.sqrt(2.0)
            y[j] = -1.0 / np.sqrt(2.0)
            pairs.append((x, y))
    return pairs


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
    choi = build_generator(p).choi
    # Omega is supported on span{|ii>}, so the off-diagonal units |ij> plus an
    # orthonormal basis ``inner`` of Omega's complement inside span{|ii>} are
    # an orthonormal basis Q of its complement.  Q^T C Q: order the
    # coordinates off-diagonal first, then apply inner to the last d rows and
    # columns in place.
    omega = maximally_entangled_vector(p.d).real
    on, off = np.flatnonzero(omega), np.flatnonzero(omega == 0)
    inner = null_space(omega[on][None, :])  # d x (d - 1), orthonormal
    order = np.concatenate((off, on))
    c = choi[np.ix_(order, order)]
    k = off.size
    c[:, k:-1] = c[:, k:] @ inner
    c[k:-1] = inner.T @ c[k:]
    return CcpReport(
        closed_form=p.nu >= ccp_threshold(p.d),
        min_eig_projected=float(min_eig_affine(c[None, :-1, :-1], [[1.0]])[0]),
    )


# ---------------------------------------------------------------------------
# dissipativity (Schwarz class): witness family plus random sampling
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


def _dissipativity_parts(d: int, n: int, seed):
    """M0 and M1 with M(a, X) = M0 + a M1 for ``n`` traceless X drawn from ``seed``.

    M0 = Tr(X^+ X) I + d X^+ X and
    M1 = Delta(X^+) X + X^+ Delta(X) - X^+ X - Delta(X^+ X); both are
    Hermitian to the last bit, and so is every real combination.
    """
    xs = random_traceless(d, np.random.default_rng(seed), n=n)
    xdx = xs.conj().swapaxes(-1, -2) @ xs
    xdx += xdx.conj().swapaxes(-1, -2)  # the product carries rounding
    xdx /= 2.0
    idx = np.arange(d)
    diag = xdx[:, idx, idx]
    m1 = xs[:, idx, idx].conj()[:, :, None] * xs  # Delta(X^+) X
    del xs  # freed before M0 is built, so at most three stacks are alive at once
    m1 += m1.conj().swapaxes(-1, -2)
    m1 -= xdx
    m1[:, idx, idx] -= diag
    m0 = d * xdx
    m0[:, idx, idx] += diag.sum(axis=1)[:, None]
    return m0, m1


# Samples a repeated dissipativity call solves outright: the lowest at the seed's first call.
_HINT = 32


def _bring_forward(arrays, idx):
    """Move samples ``idx`` of each kept array to its front, in place, by swaps.

    The kept arrays are read-only; this reordering is their one write.
    """
    k = idx.size
    src = idx[idx >= k]
    dst = np.setdiff1d(np.arange(k), idx)
    for arr in arrays:
        arr.flags.writeable = True
        arr[dst], arr[src] = arr[src], arr[dst]
        arr.flags.writeable = False


@dataclass(frozen=True)
class DissipativityReport:
    closed_form: bool
    min_witness_eig: float
    min_sampled_eig: float


def is_dissipative(p: GenParams, sample_budget: int = 10_000,
                   seed: int = 42) -> DissipativityReport:
    """Closed form nu >= -d/(d+2) next to the witness and sampling oracles.

    The witness is evaluated at its optimal parameter c* = d/(d+2-2a) when
    d + 2 - 2a > 0; otherwise the quadratic-in-c eigenvalue is unbounded
    below and a large deterministic c in {10, 100} exhibits the divergence.
    """
    if p.kappa <= 0:
        raise NegativeRate(f"kappa must be > 0, got {p.kappa}")
    d, a = p.d, p.a
    if d + 2 - 2 * a > 0:
        c_star = d / (d + 2 - 2 * a)
        min_witness = witness_min_eig(d, a, c_star)
    else:
        min_witness = min(witness_min_eig(d, a, c) for c in (10.0, 100.0))
    min_sampled = np.inf
    if sample_budget > 0:
        key = ("dissipativity", d, int(sample_budget), seed)
        first = key not in _sample_parts
        m0, m1 = _seeded_parts(*key, _dissipativity_parts)
        m = np.multiply(m1, a)
        m += m0
        if first:
            low = np.linalg.eigvalsh(m)[:, 0]
            min_sampled = low.min()
            if low.size > _HINT:
                _bring_forward((m0, m1), np.argpartition(low, _HINT)[:_HINT])
        else:
            # the first call's lowest samples lead: solve them, then certify
            # the rest against their minimum
            k = min(_HINT, len(m))
            lead = np.linalg.eigvalsh(m[:k])[:, 0].min()
            min_sampled = min_eig_capped(m[None, k:], [lead])[0]
    return DissipativityReport(
        closed_form=p.nu >= schwarz_threshold(d),
        min_witness_eig=float(min_witness),
        min_sampled_eig=float(min_sampled),
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
