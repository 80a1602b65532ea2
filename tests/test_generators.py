import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space
from scipy.sparse import csr_array

from quditmaps import channels as ch
from quditmaps import generators as g
from quditmaps import linalg as la
from quditmaps import verify
from quditmaps.errors import NegativeRate, NotOrthonormal, NotTraceless, QuditMapsError
from reference import (basis_matrix, dense_representative_minima, pair_functional,
                       phase_unitary)


def qubit_generator_transfer(kappa, nu, omega):
    """The d=2 generator built directly from sigma_+, sigma_-, sigma_z."""
    sp = np.array([[0, 1], [0, 0]], dtype=complex)
    sm = sp.conj().T
    sz = np.diag([1.0, -1.0]).astype(complex)
    ham = np.diag([omega / 2, -omega / 2]).astype(complex)
    eye = np.eye(2, dtype=complex)

    def sandwich(a, b):  # X -> a X b
        return np.kron(b.T, a)

    t = -1j * (sandwich(ham, eye) - sandwich(eye, ham))
    t += kappa * (
        sandwich(sp, sm) + sandwich(sm, sp) - np.eye(4)
        + (nu / 2.0) * (sandwich(sz, sz) - np.eye(4))
    )
    return t


def test_generator_reduces_to_qubit_form():
    kappa, nu, omega = 0.8, -0.4, 1.3
    p = g.GenParams(2, kappa, nu, (omega / 2, -omega / 2))
    assert np.abs(
        g.build_generator(p).transfer - qubit_generator_transfer(kappa, nu, omega)
    ).max() <= 1e-12


def test_generator_is_unital():
    for d in (2, 3, 5):
        gen = g.build_generator(g.GenParams(d, 1.3, -0.7))
        assert np.abs(gen(np.eye(d))).max() <= 1e-12


def test_generator_offdiagonal_eigenvalue():
    gen = g.build_generator(g.GenParams(3, 1.0, 0.0))
    e12 = basis_matrix(0, 1, 3)
    assert np.allclose(gen(e12), -2.0 * e12)


def test_generator_compact_form():
    # I Tr(rho) + (nu-1) Delta(rho) - (d-1+nu) rho equals the literal sums
    rng = np.random.default_rng(0)
    for d, kappa, nu in ((2, 0.7, -0.4), (3, 1.0, -1.2), (5, 2.0, 0.6)):
        gen = g.build_generator(g.GenParams(d, kappa, nu))
        for _ in range(10):
            x = la.ginibre(d, rng)
            expected = kappa * (
                np.eye(d) * np.trace(x) + (nu - 1.0) * ch.dephase(x)
                - (d - 1.0 + nu) * x
            )
            assert np.abs(gen(x) - expected).max() <= 1e-12


def literal_generator_blocks(d):
    """hop and phase from np.kron loops over their defining sums."""
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
    return hop, phase


@pytest.mark.parametrize("d", range(2, 17))
def test_generator_blocks_match_the_defining_sums(d):
    hop, phase = g.generator_blocks(d)
    ref_hop, ref_phase = literal_generator_blocks(d)
    assert np.array_equal(hop, ref_hop)
    assert np.abs(phase - ref_phase).max() <= 1e-13
    assert not (hop.flags.writeable or phase.flags.writeable)


@pytest.mark.parametrize("d", [2, 3, 16])
def test_generator_is_real_without_a_hamiltonian_and_complex_with_one(d):
    assert all(block.dtype == float for block in g.generator_blocks(d))
    assert all(a.dtype == float for pair in g._covariant_blocks(d) for a in pair)
    gen = g.build_generator(g.GenParams(d, 0.9, -0.3))
    assert gen.transfer.dtype == float and gen.choi.dtype == float
    ham = g.build_generator(g.GenParams(d, 0.9, -0.3, tuple(np.linspace(-1.0, 1.0, d))))
    assert ham.transfer.dtype == complex
    assert np.array_equal(ham.transfer.real, gen.transfer)


@pytest.mark.parametrize("d", range(2, 17))
def test_generator_blocks_are_permutation_and_sign_covariant(d):
    # X -> U X U^+ for a transposition or a single-coordinate sign flip U (both
    # real) has transfer U kron U; it maps vec index c d + r to u(c) d + u(r)
    # with sign s_c s_r, so conjugating a block by it only reindexes entries
    blocks = g.generator_blocks(d)
    idx = np.arange(d)
    for i in range(d):
        sign = np.ones(d)
        sign[i] = -1.0
        s = np.outer(sign, sign).ravel()  # vec index c d + r -> s_c s_r
        for block in blocks:
            assert np.array_equal(s[:, None] * block * s[None, :], block)
        for j in range(i + 1, d):
            perm = idx.copy()
            perm[[i, j]] = perm[[j, i]]
            vec_perm = (perm[:, None] * d + perm[None, :]).ravel()
            for block in blocks:
                assert np.array_equal(block[np.ix_(vec_perm, vec_perm)], block)


def test_generator_annihilates_trace():
    # the battery stops at d = 5
    cases = [(d, 1.0, -0.8) for d in (2, 3, 4, 8, 16)]
    passed, detail = verify.check_trace_annihilation(1, 0, cases=cases)
    assert passed, detail


# --- spectrum and rates -------------------------------------------------------

def test_spectrum_rates_example():
    rep = g.spectrum_rates(g.GenParams(3, 1.0, -0.5))
    assert rep.gamma_diag == pytest.approx(3.0)
    assert rep.gamma_offdiag == pytest.approx(1.5)
    assert rep.gamma_total == pytest.approx(15.0)


def test_spectrum_consistency_with_hamiltonian():
    # the battery stops at d = 6
    rng = np.random.default_rng(2)
    params = [g.GenParams(d, 0.9, -0.3, tuple(rng.uniform(-2, 2, d)))
              for d in (2, 3, 5, 8, 16)]
    passed, detail = verify.check_spectrum_consistency(0, 0, params=params)
    assert passed, detail


def test_rate_report_total_consistency():
    rep = g.spectrum_rates(g.GenParams(5, 1.7, -0.9))
    total = (rep.d - 1) * rep.gamma_diag + rep.d * (rep.d - 1) * rep.gamma_offdiag
    assert rep.gamma_total == pytest.approx(total, abs=1e-12)


def test_rate_bound_saturated_only_at_d2():
    assert g.spectrum_rates(g.GenParams(2, 1.0, 0.0), "kpositive").bound_saturated
    rep3 = g.spectrum_rates(g.GenParams(3, 1.0, 0.0), "kpositive")
    assert rep3.bound_satisfied and not rep3.bound_saturated
    assert rep3.gamma_max == pytest.approx(3.0)
    assert rep3.c_d * rep3.gamma_total == pytest.approx(6.0)


def test_rates_reject_invalid_parameters():
    with pytest.raises(NegativeRate):
        g.spectrum_rates(g.GenParams(3, -1.0, 0.0))
    with pytest.raises(NegativeRate):
        g.spectrum_rates(g.GenParams(3, 1.0, -2.5))


# --- conditional positivity ---------------------------------------------------

def saturating_pair(d):
    x = np.zeros(d, dtype=complex)
    y = np.zeros(d, dtype=complex)
    x[0] = x[1] = 1.0 / np.sqrt(2.0)
    y[0], y[1] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
    return x, y


def test_pair_functional_closed_form():
    # <y|L(|x><x|)|y> = kappa (1 - (1 - nu) sum |x_k|^2 |y_k|^2)
    rng = np.random.default_rng(3)
    for d, kappa, nu in ((3, 1.0, -0.7), (4, 0.6, 0.4)):
        gen = g.build_generator(g.GenParams(d, kappa, nu))
        for _ in range(50):
            x, y = la.haar_orthonormal_pair(d, rng)
            val = pair_functional(gen, x, y)
            s = float(np.sum(np.abs(x) ** 2 * np.abs(y) ** 2))
            assert val == pytest.approx(kappa * (1.0 - (1.0 - nu) * s), abs=1e-10)


def test_conditional_positivity_boundary_pair():
    d, kappa = 4, 1.0
    gen = g.build_generator(g.GenParams(d, kappa, -1.0))
    x, y = saturating_pair(d)
    assert pair_functional(gen, x, y) == pytest.approx(0.0, abs=1e-12)


def test_conditional_positivity_sampled_minima():
    rep0 = g.is_conditionally_positive(g.GenParams(3, 1.0, 0.0), 2000, seed=5)
    assert rep0.closed_form
    assert rep0.sampled_min == pytest.approx(0.5, abs=1e-10)  # kappa/2 at nu=0

    rep_neg = g.is_conditionally_positive(g.GenParams(3, 1.0, -1.5), 2000, seed=5)
    assert not rep_neg.closed_form
    assert rep_neg.sampled_min == pytest.approx(-0.25, abs=1e-10)

    rep_b = g.is_conditionally_positive(g.GenParams(3, 1.0, -1.0), 2000, seed=5)
    assert rep_b.closed_form and rep_b.sampled_min >= -1e-9


# --- conditional complete positivity -------------------------------------------

def test_ccp_boundary_and_interior():
    assert g.is_ccp(g.GenParams(3, 1.0, 0.0)).min_eig_projected == pytest.approx(
        0.0, abs=1e-12
    )
    assert g.is_ccp(g.GenParams(3, 1.0, 0.5)).min_eig_projected == pytest.approx(
        0.5, abs=1e-12
    )
    rep = g.is_ccp(g.GenParams(3, 1.0, -0.1))
    assert not rep.closed_form
    assert rep.min_eig_projected == pytest.approx(-0.1, abs=1e-12)


def test_ccp_sign_matches_closed_form():
    for d in (2, 4):
        for nu in (-0.6, -0.05, 0.05, 0.8):
            rep = g.is_ccp(g.GenParams(d, 1.3, nu))
            assert (rep.min_eig_projected >= -1e-9) == rep.closed_form


def test_ccp_insensitive_to_hamiltonian():
    a = g.is_ccp(g.GenParams(3, 1.0, -0.2)).min_eig_projected
    b = g.is_ccp(g.GenParams(3, 1.0, -0.2, (0.5, -1.0, 0.5))).min_eig_projected
    assert a == pytest.approx(b, abs=1e-10)


# --- dissipativity --------------------------------------------------------------

def test_dissipativity_matrix_on_matrix_unit():
    for d, a in ((3, 1.6), (4, 0.5)):
        m = g.dissipativity_matrix(d, a, basis_matrix(0, 1, d))
        expected = np.eye(d) + (d - 2 * a) * basis_matrix(1, 1, d)
        assert np.abs(m - expected).max() <= 1e-12


def test_dissipativity_matrix_zero():
    assert np.abs(g.dissipativity_matrix(3, 1.2, np.zeros((3, 3)))).max() == 0.0


def test_dissipativity_matrix_requires_traceless():
    with pytest.raises(NotTraceless):
        g.dissipativity_matrix(3, 1.0, np.eye(3))


def test_witness_threshold_saturation():
    # at a = 2(d+1)/(d+2) the optimal witness eigenvalue is exactly zero
    d = 3
    a = 2.0 * (d + 1) / (d + 2)
    assert a == pytest.approx(1.6)
    c_star = d / (d + 2 - 2 * a)
    assert c_star == pytest.approx(5.0 / 3.0)
    assert g.witness_min_eig(d, a, c_star) == pytest.approx(0.0, abs=1e-12)


def test_is_dissipative_threshold_values():
    rep = g.is_dissipative(g.GenParams(3, 1.0, -0.6), 500, seed=6)
    assert rep.closed_form
    assert rep.min_witness_eig == pytest.approx(0.0, abs=1e-12)

    rep2 = g.is_dissipative(g.GenParams(3, 1.0, -0.8), 500, seed=6)
    assert not rep2.closed_form
    assert rep2.min_witness_eig == pytest.approx(5.0 - 9.0 / 1.4, abs=1e-10)

    # d=2 recovers the qubit threshold nu >= -1/2
    assert g.schwarz_threshold(2) == pytest.approx(-0.5)
    assert g.is_dissipative(g.GenParams(2, 1.0, -0.5), 500, seed=6).closed_form
    assert not g.is_dissipative(g.GenParams(2, 1.0, -0.51), 500, seed=6).closed_form


def test_is_dissipative_witness_unbounded_region():
    # deep below threshold (d + 2 - 2a <= 0) large deterministic c shows divergence
    rep = g.is_dissipative(g.GenParams(3, 1.0, -2.0), 10, seed=7)
    assert not rep.closed_form
    assert rep.min_witness_eig < -100.0


def test_dissipative_is_exactly_schwarz_of_small_time_map():
    # L(X^+X) - L(X^+)X - X^+L(X) equals kappa M(a, X) for traceless X
    rng = np.random.default_rng(9)
    d, kappa, nu = 3, 0.7, -0.45
    gen = g.build_generator(g.GenParams(d, kappa, nu))
    for _ in range(25):
        x = la.random_traceless(d, rng)
        lhs = gen(x.conj().T @ x) - gen(x.conj().T) @ x - x.conj().T @ gen(x)
        rhs = kappa * g.dissipativity_matrix(d, 1.0 - nu, x)
        assert np.abs(lhs - rhs).max() <= 1e-10


# --- the pair-functional bound ---------------------------------------------------

def test_lemma1_disjoint_supports():
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    assert g.lemma1_value(x, y) == 0.0


def test_lemma1_saturating_pair():
    x, y = saturating_pair(2)
    # 1/sqrt(2) is not exactly representable, so the sum lands within 1 ulp of 1/2
    assert abs(g.lemma1_value(x, y) - 0.5) <= 1e-15


def test_lemma1_monte_carlo_bound():
    rng = np.random.default_rng(10)
    for d in range(2, 9):
        xs, ys = la.haar_orthonormal_pair(d, rng, n=2000)
        vals = np.sum(np.abs(xs) ** 2 * np.abs(ys) ** 2, axis=1)
        assert vals.max() <= 0.5 + 1e-12


def test_lemma1_rejects_bad_pairs():
    with pytest.raises(NotOrthonormal):
        g.lemma1_value(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(NotOrthonormal):
        g.lemma1_value(np.array([2.0, 0.0]), np.array([0.0, 1.0]))


# --- the oracles against dense per-call references -------------------------------

def reference_pair_min(p, budget, seed):
    """Pair oracle minimum from the generator's dense transfer, one call at a time."""
    gen = g.build_generator(p)
    pairs = la.deterministic_candidates(p.d)[p.d:p.d * p.d].reshape(-1, 2, p.d)
    best = min(pair_functional(gen, x, y) for x, y in pairs)
    if budget > 0:
        xs, ys = la.haar_orthonormal_pair(p.d, np.random.default_rng(seed), n=budget)
        rho = np.einsum("ni,nj->nij", xs, xs.conj())
        out = la.unvec((gen.transfer @ la.vec(rho).T).T, p.d)
        best = min(best, np.real(np.einsum("ni,nij,nj->n", ys.conj(), out, ys)).min())
    return float(best)


def reference_projected_choi_min(p):
    """Dense compression of the generator's Choi matrix to Omega's complement."""
    choi = g.build_generator(p).choi
    q = null_space(la.maximally_entangled_vector(p.d).conj().reshape(1, -1))
    return la.min_eig(q.conj().T @ choi @ q)


@pytest.fixture
def fresh_sample_parts():
    g._sample_parts.clear()
    yield g._sample_parts
    g._sample_parts.clear()


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 16), kappa=st.floats(0.05, 5.0), nu=st.floats(-3.0, 2.0),
       with_h=st.booleans(), seed=st.integers(0, 2**31 - 1),
       budget=st.integers(0, 150), data=st.data())
def test_oracles_match_dense_references(d, kappa, nu, with_h, seed, budget, data):
    h = tuple(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d))) \
        if with_h else ()
    p = g.GenParams(d, kappa, nu, h)
    scale = 1.0 + kappa * (d + abs(nu)) + sum(abs(x) for x in p.h)
    tol = 1e-12 * scale

    g._sample_parts.clear()
    pair = g.is_conditionally_positive(p, budget, seed)
    assert abs(pair.sampled_min - reference_pair_min(p, budget, seed)) <= tol
    x, y = pair.argmin_pair
    assert abs(pair_functional(g.build_generator(p), x, y) - pair.sampled_min) <= tol
    hit = g.is_conditionally_positive(p, budget, seed)
    assert hit.sampled_min == pair.sampled_min
    assert all(np.array_equal(u, v) for u, v in zip(hit.argmin_pair, pair.argmin_pair))

    dis = g.is_dissipative(p, budget, seed)
    if budget > 0:
        # the blockwise and certified solves against plain eigvalsh of the dense forms
        ws = dis.argmin_w[None]
        if d <= 8:
            ws = haar_candidates(d, budget, seed)
        hop, phase = g.dissipation_forms(d, ws)
        ref = np.linalg.eigvalsh(hop + (nu / d) * phase)[:, 0].min()
        assert abs(dis.min_sampled_eig - ref) <= 1e-12 * (d + abs(1.0 - nu)) * d
    else:
        assert dis.min_sampled_eig == np.inf and dis.argmin_w is None
    assert g.is_dissipative(p, budget, seed) == dis

    ccp = g.is_ccp(p)
    assert abs(ccp.min_eig_projected - reference_projected_choi_min(p)) <= tol


def _bisect_nine(above, lo, hi):
    for _ in range(9):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if above(mid) else (mid, hi)


def test_bisection_draws_its_samples_once(monkeypatch, fresh_sample_parts):
    draws = {"positivity_candidates": 0, "haar_orthonormal_pair": 0}
    for name in draws:
        orig = getattr(g, name)

        def counting(*args, _name=name, _orig=orig, **kwargs):
            if _name == "haar_orthonormal_pair" or args[1:2] > (0,):  # Haar w drawn
                draws[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(g, name, counting)
    d, budget, seed = 5, 2000, 17
    _bisect_nine(lambda nu: g.is_conditionally_positive(
        g.GenParams(d, 1.3, nu), budget, seed).sampled_min >= -1e-9, -1.2, -0.8)
    assert draws["haar_orthonormal_pair"] == 1
    assert list(fresh_sample_parts) == [("pair", d, budget, seed)]

    _bisect_nine(lambda nu: g.is_dissipative(
        g.GenParams(d, 1.3, nu), budget, seed).min_sampled_eig >= -1e-9, -0.9, -0.5)
    assert draws["positivity_candidates"] == 1
    # the pair set was dropped when the Haar w were drawn: ceil(2000 / 5^3) of
    # them, alone, since the orbit representatives' forms are kept per d
    key = ("dissipativity", d, 16, seed)
    assert list(fresh_sample_parts) == [key]
    hop, phase, ws = fresh_sample_parts[key]
    assert hop.shape == phase.shape == (16, d * d - 1, d * d - 1)
    assert hop.dtype == phase.dtype == float  # built at |w|, in real arithmetic
    assert ws.shape == (16, d)
    assert all(not a.flags.writeable for a in fresh_sample_parts[key])

    g.is_dissipative(g.GenParams(d, 1.3, -0.6), budget, seed + 1)
    assert draws["positivity_candidates"] == 2
    assert list(fresh_sample_parts) == [("dissipativity", d, 16, seed + 1)]


@pytest.mark.parametrize("far_nu", [-3.0, 1.5])
def test_kept_forms_give_the_exact_minimum_at_a_far_nu(far_nu, fresh_sample_parts):
    # the parts kept by a call at nu = -0.6 serve a call at a far nu exactly
    d, budget, seed = 3, 2000, 11
    g.is_dissipative(g.GenParams(d, 1.0, -0.6), budget, seed)
    p = g.GenParams(d, 1.0, far_nu)
    rep = g.is_dissipative(p, budget, seed)
    assert list(fresh_sample_parts) == [("dissipativity", d, -(-budget // d ** 3), seed)]
    ref = reference_form_minima(p, haar_candidates(d, budget, seed))
    assert abs(rep.min_sampled_eig - ref.min()) <= 1e-12 * (1.0 + d * (d + abs(far_nu)))


def test_generator_seeds_are_not_kept(fresh_sample_parts):
    p = g.GenParams(3, 1.0, -0.5)
    a = g.is_dissipative(p, 50, np.random.default_rng(3))
    b = g.is_dissipative(p, 50, np.random.default_rng(3))
    assert a == b and not fresh_sample_parts
    assert np.array_equal(a.argmin_w, b.argmin_w)


# --- the pair parts by the covariant contraction ---------------------------------

def stacked_pair_parts(d, xs, ys):
    """Pair values under hop, phase and the d units -i [E_kk, .], from the dense stack.

    hop and phase act on the (d^2, N) stack of vec(|x><x|) as sparse blocks;
    the Hamiltonian columns are -i (a_k <x|y> - conj(a_k) <y|x>), a = conj(y) x.
    """
    xt, yt = xs.T, ys.T
    rho = (xt.conj()[:, None, :] * xt[None, :, :]).reshape(d * d, -1)
    cols = [np.einsum("rn,crn,cn->n", yt.conj(),
                      (csr_array(block) @ rho).reshape(d, d, -1), yt).real
            for block in g.generator_blocks(d)]
    ovl = np.einsum("ni,ni->n", xs.conj(), ys)
    ham = (-1j * (ys.conj() * xs * ovl[:, None]
                  - (xs.conj() * ys) * ovl.conj()[:, None])).real
    return np.column_stack(cols + [ham])


@pytest.mark.parametrize("d", range(2, 17))
def test_pair_parts_match_the_dense_stack(d):
    parts, xs, ys = g._pair_parts(d, 300, 1000 + d)
    assert parts.shape == (d * (d - 1) // 2 + 300, 2)
    ref = stacked_pair_parts(d, xs, ys)
    assert np.abs(parts - ref[:, :2]).max() <= 1e-13 * (1.0 + np.abs(ref).max())


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
def test_pair_oracle_with_a_hamiltonian_matches_the_dense_stack(d):
    # the oracle keeps no Hamiltonian column: <y| -i[H, |x><x|] |y> = 0 for
    # orthonormal pairs; the reference keeps the d columns and the dense
    # generator applies H
    rng = np.random.default_rng(40 + d)
    h = tuple(rng.uniform(-3.0, 3.0, d))
    p = g.GenParams(d, 0.7, -0.4, h)
    g._sample_parts.clear()
    rep = g.is_conditionally_positive(p, 300, 11)
    _, xs, ys = g._pair_parts(d, 300, 11)
    vals = stacked_pair_parts(d, xs, ys) @ np.array([p.kappa, p.kappa * p.nu / d, *h])
    assert np.abs(vals).max() > 0.1
    assert abs(rep.sampled_min - vals.min()) <= 1e-13 * (1.0 + np.abs(vals).max())
    dense = pair_functional(g.build_generator(p), *rep.argmin_pair)
    assert abs(dense - rep.sampled_min) <= 1e-12 * (1.0 + np.abs(vals).max())


@pytest.fixture
def fresh_covariant_blocks():
    g._covariant_blocks.cache_clear()
    g._sample_parts.clear()
    yield
    g._covariant_blocks.cache_clear()
    g._sample_parts.clear()


@pytest.mark.parametrize("d", [2, 3, 5])
def test_pair_parts_contract_any_covariant_transfer(d, monkeypatch, fresh_covariant_blocks):
    # hop and phase have symmetric, real (b, P); random complex entries on the
    # covariant support also test the index order of the contraction
    rng = np.random.default_rng(70 + d)
    diag = np.arange(d) * (d + 1)
    blocks = []
    for _ in range(2):
        t = np.diag(la.ginibre(d, rng).ravel())
        t[np.ix_(diag, diag)] = la.ginibre(d, rng)
        blocks.append(t)
    monkeypatch.setattr(g, "generator_blocks", lambda dim: tuple(blocks))
    parts, xs, ys = g._pair_parts(d, 300, 5)
    ref = stacked_pair_parts(d, xs, ys)
    assert np.abs(parts - ref[:, :2]).max() <= 1e-13 * (1.0 + np.abs(ref).max())


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("entry", ["coherence_to_coherence", "population_to_coherence",
                                   "coherence_to_population"])
def test_covariant_blocks_reject_an_entry_off_their_support(which, entry, monkeypatch,
                                                            fresh_covariant_blocks):
    d = 3
    orig = g.generator_blocks

    def perturbed(dim):
        blocks = [b.copy() for b in orig(dim)]
        # vec index 1 holds X[1, 0], 3 holds X[0, 1], 4 holds X[1, 1]
        row, col = {"coherence_to_coherence": (1, 3), "population_to_coherence": (1, 4),
                    "coherence_to_population": (4, 3)}[entry]
        blocks[which][row, col] = 1e-300
        return tuple(blocks)

    monkeypatch.setattr(g, "generator_blocks", perturbed)
    # every oracle reads the transfer through this covariance, so each must
    # raise rather than drop the entry
    p = g.GenParams(d, 1.0, -0.5, (0.3, -0.2, 0.1))
    for oracle in (lambda: g.is_conditionally_positive(p, 10, 0), lambda: g.is_ccp(p),
                   lambda: g.is_dissipative(p, 10, 0)):
        with pytest.raises(QuditMapsError, match=("hop", "phase")[which]):
            oracle()


@pytest.mark.parametrize("d", [2, 3, 5])
def test_ccp_oracle_contracts_any_covariant_transfer(d, monkeypatch, fresh_covariant_blocks):
    # Hermiticity-preserving blocks on the covariant support with complex b
    # and a population block that is not symmetric, against the dense Choi
    # matrix of the generator they make
    rng = np.random.default_rng(90 + d)
    diag = np.arange(d) * (d + 1)
    blocks = []
    for _ in range(2):
        b = la.random_hermitian(d, rng)
        t = np.diag(b.T.ravel())  # T[c d + r, c d + r] = b[r, c]
        t[np.ix_(diag, diag)] = rng.normal(size=(d, d))
        blocks.append(t)
    monkeypatch.setattr(g, "generator_blocks", lambda dim: tuple(blocks))
    for nu in (-2.0, -0.3, 0.0, 0.8):
        p = g.GenParams(d, 0.9, nu, tuple(rng.uniform(-2.0, 2.0, d)))
        ref = reference_projected_choi_min(p)
        assert abs(g.is_ccp(p).min_eig_projected - ref) <= 1e-12 * (1.0 + abs(ref) + d)


@pytest.mark.parametrize("d", range(2, 17))
def test_ccp_oracle_matches_the_dense_compression(d):
    rng = np.random.default_rng(20 + d)
    for nu in (-1.5, -0.2, 0.0, 0.6):
        for h in ((), tuple(rng.uniform(-3.0, 3.0, d))):
            p = g.GenParams(d, 1.7, nu, h)
            tol = 1e-12 * (1.0 + p.kappa * (d + abs(nu)) + sum(abs(x) for x in p.h))
            assert abs(g.is_ccp(p).min_eig_projected - reference_projected_choi_min(p)) <= tol


def test_cold_ccp_oracle_builds_no_dense_matrix(monkeypatch, fresh_covariant_blocks):
    # a cold call at d = 16 peaks below one 256 x 256 complex array and never
    # builds the generator's transfer; the transfer blocks themselves, built
    # once per process, are warmed first
    d = 16
    g.generator_blocks(d)
    g._omega_complement.cache_clear()
    calls = []
    orig = g.build_generator

    def spy(p):
        calls.append(p)
        return orig(p)

    monkeypatch.setattr(g, "build_generator", spy)
    p = g.GenParams(d, 1.2, -0.3, tuple(np.linspace(-1.0, 1.0, d)))
    tracemalloc.start()
    try:
        rep = g.is_ccp(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not calls
    assert peak < (d * d) ** 2 * np.dtype(complex).itemsize
    assert rep.min_eig_projected == pytest.approx(-0.3 * 1.2, abs=1e-12)


# --- the fixed-w form oracle against its definition ----------------------------

def haar_candidates(d, budget, seed):
    """The oracle's candidates w: the deterministic set, then ceil(budget / d^3) Haar draws."""
    n = -(-budget // d ** 3)
    return la.positivity_candidates(d, n, np.random.default_rng(seed))


def reference_form_minima(p, ws):
    """Smallest eigenvalue of each Q(w)/kappa on traceless X, built from the definition.

    Entry (i, j) of Q(w) is w^+ D(E_i, E_j) w for the matrix units E_i = unvec(e_i)
    and D(A, B) = L(A^+ B) - L(A)^+ B - A^+ L(B), with L the dense transfer
    matrix of ``build_generator`` (Hamiltonian included); the forms are then
    compressed by a dense orthonormal basis of the traceless matrices.
    """
    d, dd = p.d, p.d * p.d
    t = g.build_generator(p).transfer
    units = la.unvec(np.eye(dd), d)
    images = la.unvec(t.T, d)  # L(E_i)
    prods = np.einsum("iba,jbc->ijac", units.conj(), units)
    dis = la.unvec(la.vec(prods) @ t.T, d)
    dis -= np.einsum("iba,jbc->ijac", images.conj(), units)
    dis -= np.einsum("iba,jbc->ijac", units.conj(), images)
    forms = np.einsum("na,ijac,nc->nij", ws.conj(), dis, ws)
    basis = null_space(la.vec(np.eye(d))[None, :])
    return np.linalg.eigvalsh(basis.conj().T @ forms @ basis)[:, 0] / p.kappa


@settings(max_examples=25, deadline=None)
@given(d=st.integers(2, 8), kappa=st.floats(0.05, 5.0), nu=st.floats(-3.0, 2.0),
       seed=st.integers(0, 2**31 - 1), budget=st.integers(1, 2000), data=st.data())
def test_form_oracle_matches_dense_forms_from_the_definition(d, kappa, nu, seed, budget,
                                                             data):
    h = tuple(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)
                        .filter(any)))
    p = g.GenParams(d, kappa, nu, h)
    rep = g.is_dissipative(p, budget, seed)
    ref = reference_form_minima(p, haar_candidates(d, budget, seed))
    tol = 1e-12 * (1.0 + d * (d + abs(nu)) + sum(abs(x) for x in h) / kappa)
    assert abs(rep.min_sampled_eig - ref.min()) <= tol
    assert abs(reference_form_minima(p, rep.argmin_w[None])[0] - rep.min_sampled_eig) <= tol
    assert rep.argmin_family in ("basis", "pair", "uniform", "haar")


@settings(max_examples=25, deadline=None)
@given(d=st.integers(2, 8), nu=st.floats(-3.0, 2.0), seed=st.integers(0, 2**31 - 1))
def test_forms_at_abs_w_have_the_spectrum_of_the_forms_at_w(d, nu, seed):
    # w = U |w| for a diagonal unitary U, and hop and phase commute with
    # X -> U X U^+, so Q(|w|) is unitarily similar to Q(w) on traceless X
    ws = la.positivity_candidates(d, 6, np.random.default_rng(seed))[d * d + 1:]
    hop, phase = g.dissipation_forms(d, ws)
    hop_abs, phase_abs = g.dissipation_forms(d, np.abs(ws))
    assert hop_abs.dtype == phase_abs.dtype == float
    ref = np.linalg.eigvalsh(hop + (nu / d) * phase)
    got = np.linalg.eigvalsh(hop_abs + (nu / d) * phase_abs)
    assert np.abs(got - ref).max() <= 1e-12 * (1.0 + d * (d + abs(nu)))


def no_haar_forms(d, n, seed):
    """``generators._form_parts`` without a single Haar vector."""
    m = d * d - 1
    return np.empty((0, m, m)), np.empty((0, m, m)), np.empty((0, d), dtype=complex)


@pytest.mark.parametrize("d", [9, 10, 11, 12])
def test_representatives_give_the_minimum_over_all_deterministic_forms(d, monkeypatch,
                                                                      fresh_sample_parts):
    # permutations and sign flips carry every deterministic candidate onto a
    # representative, so its three forms have the minimum of all d^2 + 1; the
    # oracle is run with its Haar vectors taken away, so the blockwise stage
    # and the uniform form in the certified stage decide alone
    nus = (-1.5, -1.0, g.schwarz_threshold(d), -0.3, 0.0, 1.2)
    ws = la.positivity_candidates(d)
    ref = np.full(len(nus), np.inf)
    for start in range(0, len(ws), 16):
        hop, phase = g.dissipation_forms(d, ws[start:start + 16])
        for i, nu in enumerate(nus):
            ref[i] = min(ref[i], np.linalg.eigvalsh(hop + (nu / d) * phase)[:, 0].min())
    monkeypatch.setattr(g, "_form_parts", no_haar_forms)
    for nu, expected in zip(nus, ref):
        rep = g.is_dissipative(g.GenParams(d, 1.0, nu), 1, 0)
        assert abs(rep.min_sampled_eig - expected) <= 1e-12 * (d + abs(1.0 - nu)) * d
        assert np.array_equal(rep.argmin_w,
                              ws[{"basis": 0, "pair": d, "uniform": d * d}[rep.argmin_family]])
        assert abs(dense_representative_minima(d, nu / d).min() - expected) \
            <= 1e-12 * (d + abs(1.0 - nu)) * d


@pytest.mark.parametrize("d, budget", [(2, 40), (3, 300), (5, 600)])
def test_haar_stage_finds_the_minimum_below_its_cap(d, budget, monkeypatch,
                                                   fresh_sample_parts):
    # the stage-1 result is replaced by a cap that half the dense forms (the
    # uniform representative's and the Haar vectors') fall below, so the
    # certified stage must find the exact minimum and its vector
    p = g.GenParams(d, 0.9, -0.4, tuple(np.linspace(-1.0, 1.0, d)))
    ws = la.positivity_candidates(d)[d * d:]
    dense = np.concatenate((ws, haar_candidates(d, budget, 7)[d * d + 1:]))
    ref = reference_form_minima(p, dense)
    cap = float(np.median(ref))
    monkeypatch.setattr(g, "_representative_minimum", lambda d, t: (cap, ws[0], "basis"))
    rep = g.is_dissipative(p, budget, 7)
    assert rep.argmin_family == ("haar" if np.argmin(ref) else "uniform")
    assert abs(rep.min_sampled_eig - ref.min()) <= 1e-12 * (1.0 + d * (d + 0.4))
    assert np.array_equal(rep.argmin_w, dense[np.argmin(ref)])


FAMILIES = ("basis", "pair", "uniform")


@pytest.mark.parametrize("d", range(2, 17))
def test_staged_minimum_is_the_dense_minimum_of_every_form(d, fresh_sample_parts):
    # the blockwise and certified stages against one dense eigvalsh of the
    # three representatives' forms and the Haar forms; the deciding family is
    # the dense argmin wherever the smallest minimum is apart from the others
    budget, seed = 1000, 60 + d
    haar = haar_candidates(d, budget, seed)[d * d + 1:]
    hop, phase = g.dissipation_forms(d, np.abs(haar))
    reps = la.positivity_candidates(d)[[0, d, d * d]]
    decided = 0
    for nu in (-3.0, -1.0, g.schwarz_threshold(d), -0.3, 0.0, 0.7, 1.0):
        t = nu / d
        dense = np.concatenate((dense_representative_minima(d, t),
                                np.linalg.eigvalsh(hop + t * phase)[:, 0]))
        rep = g.is_dissipative(g.GenParams(d, 1.0, nu), budget, seed)
        tol = 1e-12 * (d + abs(1.0 - nu)) * d
        assert abs(rep.min_sampled_eig - dense.min()) <= tol
        first, second = np.sort(dense)[:2]
        if second - first > tol:
            k = int(np.argmin(dense))
            assert rep.argmin_family == (FAMILIES[k] if k < 3 else "haar")
            assert np.array_equal(rep.argmin_w, reps[k] if k < 3 else haar[k - 3])
            decided += 1
    assert decided >= 2


def test_a_new_seed_builds_only_the_haar_forms(monkeypatch, fresh_sample_parts):
    # the representatives' forms depend on d alone: after one call at d, a
    # call with a new seed builds the forms of its Haar vectors and no other
    d, budget = 6, 2000
    p = g.GenParams(d, 1.0, -0.5)
    g.is_dissipative(p, budget, 1)
    built = []
    orig = g.dissipation_forms

    def spy(dim, ws):
        built.append(ws.copy())
        return orig(dim, ws)

    monkeypatch.setattr(g, "dissipation_forms", spy)
    rep = g.is_dissipative(p, budget, 2)
    haar = haar_candidates(d, budget, 2)[d * d + 1:]
    assert len(built) == 1 and np.array_equal(built[0], np.abs(haar))
    assert len(haar) == -(-budget // d ** 3)
    assert rep == g.is_dissipative(p, budget, 2)
    assert all(not np.asarray(a).flags.writeable
               for a in g._representative_parts(d)[:1] + g._representative_parts(d)[2:4]
               + g._representative_parts(d)[4])


@pytest.mark.parametrize("d", [2, 3, 5])
def test_forms_agree_with_the_dissipativity_matrix(d):
    # x^+ Q(w) x / kappa = w^+ M(a, X) w = w^+ D(X) w / kappa on traceless X, h != 0
    rng = np.random.default_rng(40 + d)
    kappa, nu = 0.7, -0.45
    p = g.GenParams(d, kappa, nu, tuple(rng.uniform(-2.0, 2.0, d)))
    gen = g.build_generator(p)
    ws = la.positivity_candidates(d, 8, rng)
    hop, phase = g.dissipation_forms(d, ws)
    forms = hop + (nu / d) * phase
    for _ in range(10):
        x = la.random_traceless(d, rng)
        xc = g._compress(np.outer(la.vec(x), la.vec(x).conj()), d)
        values = np.einsum("nij,ji->n", forms, xc)
        m = g.dissipativity_matrix(d, 1.0 - nu, x)
        dx = gen(x.conj().T @ x) - gen(x).conj().T @ x - x.conj().T @ gen(x)
        for w, v in zip(ws, values):
            assert abs(v - w.conj() @ m @ w) <= 1e-13
            assert abs(kappa * v - w.conj() @ dx @ w) <= 1e-12


def test_hamiltonian_part_has_no_dissipation():
    # D(X) = L(X^+X) - L(X)^+X - X^+L(X) vanishes for L = -i[H, .], any Hermitian H
    rng = np.random.default_rng(12)
    for d in (2, 3, 5, 8):
        ham = la.random_hermitian(d, rng)
        eye = np.eye(d)
        gen = ch.SuperMap(d, -1j * (np.kron(eye, ham) - np.kron(ham.T, eye)))
        for x in la.ginibre(d, rng, n=5):
            dx = gen(x.conj().T @ x) - gen(x).conj().T @ x - x.conj().T @ gen(x)
            assert np.abs(dx).max() <= 1e-12 * (1.0 + np.abs(ham).max() * np.abs(x).max() ** 2)


@pytest.mark.parametrize("d", range(2, 17))
def test_witness_free_bisection_recovers_the_schwarz_threshold(d):
    # bisect on the form oracle alone, between the positivity and CP thresholds
    lo, hi = -1.0, 0.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        rep = g.is_dissipative(g.GenParams(d, 1.3, mid))
        lo, hi = (lo, mid) if rep.min_sampled_eig >= -1e-12 else (mid, hi)
    assert abs(0.5 * (lo + hi) - g.schwarz_threshold(d)) <= 1e-9
