import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from quditmaps import channels as ch
from quditmaps import generators as g
from quditmaps import linalg as la
from quditmaps import verify
from quditmaps.errors import NegativeRate, NotOrthonormal, NotTraceless


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
    e12 = la.basis_matrix(0, 1, 3)
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
            val = g.pair_functional(gen, x, y)
            s = float(np.sum(np.abs(x) ** 2 * np.abs(y) ** 2))
            assert val == pytest.approx(kappa * (1.0 - (1.0 - nu) * s), abs=1e-10)


def test_conditional_positivity_boundary_pair():
    d, kappa = 4, 1.0
    gen = g.build_generator(g.GenParams(d, kappa, -1.0))
    x, y = saturating_pair(d)
    assert g.pair_functional(gen, x, y) == pytest.approx(0.0, abs=1e-12)


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
        m = g.dissipativity_matrix(d, a, la.basis_matrix(0, 1, d))
        expected = np.eye(d) + (d - 2 * a) * la.basis_matrix(1, 1, d)
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
    best = min(g.pair_functional(gen, x, y) for x, y in g.two_coordinate_pairs(p.d))
    if budget > 0:
        xs, ys = la.haar_orthonormal_pair(p.d, np.random.default_rng(seed), n=budget)
        rho = np.einsum("ni,nj->nij", xs, xs.conj())
        out = la.unvec((gen.transfer @ la.vec(rho).T).T, p.d)
        best = min(best, np.real(np.einsum("ni,nij,nj->n", ys.conj(), out, ys)).min())
    return float(best)


def reference_sampled_dissipativity_min(p, budget, seed):
    """Smallest eigenvalue of M(a, X) over the seeded X, built per call."""
    d, a = p.d, p.a
    xs = la.random_traceless(d, np.random.default_rng(seed), n=budget)
    xdx = np.einsum("nki,nkj->nij", xs.conj(), xs)
    tr = np.einsum("nii->n", xdx)
    idx = np.arange(d)
    m = tr[:, None, None] * np.eye(d) + (d - a) * xdx
    dd = np.zeros_like(xdx)
    dd[:, idx, idx] = xdx[:, idx, idx]
    m = m - a * dd
    dxc = np.zeros_like(xs)
    dxc[:, idx, idx] = np.einsum("nii->ni", xs).conj()
    cross = np.einsum("nik,nkj->nij", dxc, xs)
    m = m + a * (cross + np.conj(np.swapaxes(cross, -1, -2)))
    m = (m + np.conj(np.swapaxes(m, -1, -2))) / 2.0
    return float(np.linalg.eigvalsh(m)[:, 0].min())


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
    assert abs(g.pair_functional(g.build_generator(p), x, y) - pair.sampled_min) <= tol
    hit = g.is_conditionally_positive(p, budget, seed)
    assert hit.sampled_min == pair.sampled_min
    assert all(np.array_equal(u, v) for u, v in zip(hit.argmin_pair, pair.argmin_pair))

    dis = g.is_dissipative(p, budget, seed)
    if budget > 0:
        ref = reference_sampled_dissipativity_min(p, budget, seed)
        assert abs(dis.min_sampled_eig - ref) <= 1e-12 * (d + abs(1.0 - nu)) * d
    else:
        assert dis.min_sampled_eig == np.inf
    assert g.is_dissipative(p, budget, seed) == dis

    ccp = g.is_ccp(p)
    assert abs(ccp.min_eig_projected - reference_projected_choi_min(p)) <= tol


def _bisect_nine(above, lo, hi):
    for _ in range(9):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if above(mid) else (mid, hi)


def test_bisection_draws_its_samples_once(monkeypatch, fresh_sample_parts):
    draws = {"random_traceless": 0, "haar_orthonormal_pair": 0}
    for name in draws:
        orig = getattr(g, name)

        def counting(*args, _name=name, _orig=orig, **kwargs):
            draws[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(g, name, counting)
    d, budget, seed = 5, 2000, 17
    _bisect_nine(lambda nu: g.is_conditionally_positive(
        g.GenParams(d, 1.3, nu), budget, seed).sampled_min >= -1e-9, -1.2, -0.8)
    assert draws["haar_orthonormal_pair"] == 1
    assert list(fresh_sample_parts) == [("pair", d, budget, seed)]

    def schwarz_above(nu):
        rep = g.is_dissipative(g.GenParams(d, 1.3, nu), budget, seed)
        return min(rep.min_witness_eig, rep.min_sampled_eig) >= -1e-9

    _bisect_nine(schwarz_above, -0.9, -0.5)
    assert draws["random_traceless"] == 1
    # the pair set was dropped when the traceless set was drawn
    assert list(fresh_sample_parts) == [("dissipativity", d, budget, seed)]
    assert all(not a.flags.writeable for a in fresh_sample_parts[("dissipativity", d, budget, seed)])

    g.is_dissipative(g.GenParams(d, 1.3, -0.6), budget, seed + 1)
    assert draws["random_traceless"] == 2
    assert list(fresh_sample_parts) == [("dissipativity", d, budget, seed + 1)]


def plain_sampled_min(p, budget, seed):
    """The sampled minimum as one batched eigvalsh over the oracle's own M(a, X)."""
    m0, m1 = g._dissipativity_parts(p.d, budget, seed)
    return float(np.linalg.eigvalsh(m1 * p.a + m0)[:, 0].min())


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
def test_hinted_bisection_matches_plain_and_dense_solves(d, fresh_sample_parts):
    # every call after the first solves the first call's lowest samples and
    # certifies the rest; the minimum is still the plain solve's, to the bit
    budget, seed = 400, 31 + d
    lo = g.schwarz_threshold(d) - 0.04
    hi = lo + 0.1
    for _ in range(11):
        nu = 0.5 * (lo + hi)
        p = g.GenParams(d, 0.8, nu)
        rep = g.is_dissipative(p, budget, seed)
        assert rep.min_sampled_eig == plain_sampled_min(p, budget, seed)
        ref = reference_sampled_dissipativity_min(p, budget, seed)
        assert abs(rep.min_sampled_eig - ref) <= 1e-12 * (d + abs(1.0 - nu)) * d
        lo, hi = (lo, nu) if min(rep.min_witness_eig, rep.min_sampled_eig) >= -1e-9 \
            else (nu, hi)


@pytest.mark.parametrize("far_nu", [-3.0, 1.5])
def test_stale_hint_still_gives_the_exact_minimum(far_nu, fresh_sample_parts):
    d, budget, seed = 3, 2000, 11
    g.is_dissipative(g.GenParams(d, 1.0, -0.6), budget, seed)
    # the first call moved its lowest samples to the front of the kept parts
    m0, m1 = fresh_sample_parts[("dissipativity", d, budget, seed)]
    p = g.GenParams(d, 1.0, far_nu)
    lows = np.linalg.eigvalsh(m1 * p.a + m0)[:, 0]
    assert np.argmin(lows) >= g._HINT  # a sample outside the hint sets the minimum
    rep = g.is_dissipative(p, budget, seed)
    assert rep.min_sampled_eig == lows.min() == plain_sampled_min(p, budget, seed)
    ref = reference_sampled_dissipativity_min(p, budget, seed)
    assert abs(rep.min_sampled_eig - ref) <= 1e-12 * (d + abs(1.0 - far_nu)) * d


def test_only_the_first_call_of_a_seed_solves_every_sample(monkeypatch, fresh_sample_parts):
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        if np.ndim(a) == 3:  # the sample stacks; the witness is one matrix
            solved[-1] += np.shape(a)[0]
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    d, budget, seed = 5, 2000, 17

    def schwarz_above(nu):
        solved.append(0)
        rep = g.is_dissipative(g.GenParams(d, 1.3, nu), budget, seed)
        return min(rep.min_witness_eig, rep.min_sampled_eig) >= -1e-9

    _bisect_nine(schwarz_above, -0.9, -0.5)
    assert len(solved) == 9
    assert solved[0] == budget
    assert all(0 < n <= g._HINT for n in solved[1:])


def test_generator_seeds_are_not_kept(fresh_sample_parts):
    p = g.GenParams(3, 1.0, -0.5)
    a = g.is_dissipative(p, 50, np.random.default_rng(3))
    b = g.is_dissipative(p, 50, np.random.default_rng(3))
    assert a == b and not fresh_sample_parts
