from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from quditmaps import channels
from quditmaps import dynamics as dy
from quditmaps import generators
from quditmaps import linalg as la
from quditmaps import regions as r
from quditmaps import verify
from quditmaps.channels import (MapParams, SuperMap, build_phi_family,
                                choi_from_transfer, compose, named_map,
                                unitary_conjugation)
from quditmaps.errors import NotUnital, QuditMapsError, UnknownName
from quditmaps.generators import (GenParams, build_generator, generator_blocks,
                                  schwarz_threshold, witness_operator)
from quditmaps.linalg import partial_transpose
from reference import basis_matrix, sampled_positivity_min, schwarz_violation


def transposition_map(d):
    """X -> X^T; the canonical positive unital map that is not Schwarz."""
    t = np.zeros((d * d, d * d), dtype=complex)
    for row in range(d):
        for col in range(d):
            t[row * d + col, col * d + row] = 1.0  # vec index col*d+row: (c,r) <- (r,c)
    return SuperMap(d, t)


def dense_positivity_min(m, sample_budget, seed):
    """The positivity falsifier by one dense eigensolve per candidate output."""
    rng = np.random.default_rng(seed)
    mins = []
    for v in r.positivity_candidates(m.d, sample_budget, rng):
        out = m(np.outer(v, v.conj()))
        mins.append(np.linalg.eigvalsh((out + out.conj().T) / 2.0)[0])
    return min(mins)


def package_positivity_min(m, sample_budget, seed):
    """The package's two positivity stages on any map: the deterministic
    candidates' blockwise images solved by ``eigvalsh``, then the sampled
    outputs certified against that minimum by ``regions._sampled_min``."""
    images = r._pure_images(r._transfer_blocks(m.transfer[None]),
                            la.deterministic_candidates(m.d))
    best = np.linalg.eigvalsh(images)[..., 0].min(axis=-1)
    if sample_budget > 0:
        best = r._sampled_min(m.d, m.transfer[None], np.ones((1, 1)), best, sample_budget, seed)
    return float(best[0])


# --- closed-form classification -----------------------------------------------

def test_identity_is_cp_not_eb():
    v = r.classify_point(MapParams(3, 0.0, 0.0))
    assert v.positive and v.completely_positive and not v.entanglement_breaking


def test_reduction_is_positive_not_cp():
    v = r.classify_point(MapParams(3, 1.5, 0.0))
    assert v.positive and not v.completely_positive


def test_e4_sits_on_both_lower_eb_boundaries():
    d = 3
    _, p = named_map("E4", d)
    v = r.classify_point(p)
    assert v.entanglement_breaking
    assert v.margin_eb == pytest.approx(0.0, abs=1e-12)
    # both lower constraints are active at E4
    assert p.beta + p.alpha / d == pytest.approx(0.0, abs=1e-12)
    assert p.beta - (1 - p.alpha - p.alpha / d) == pytest.approx(0.0, abs=1e-12)


def test_negative_alpha_is_not_positive():
    assert not r.classify_point(MapParams(3, -0.1, 0.0)).positive


def test_nesting_on_named_maps():
    for d in (2, 3, 5):
        for name in ("Reduction", "Pinch2", "PhiCP", "E1", "E2", "E3", "E4"):
            _, p = named_map(name, d)
            v = r.classify_point(p)
            assert (not v.entanglement_breaking) or v.completely_positive
            assert (not v.completely_positive) or v.positive


def test_unknown_region():
    with pytest.raises(UnknownName):
        r.region_polygon("Q", 3)


# --- numeric oracles ------------------------------------------------------------

def test_e3_is_eb_by_ppt():
    d = 3
    m, p = named_map("E3", d)
    assert np.linalg.eigvalsh(m.choi)[0] >= -1e-12
    assert np.linalg.eigvalsh(partial_transpose(m.choi, d, 2))[0] >= -1e-12
    assert r.classify_numeric(p, 200, seed=0).entanglement_breaking


def test_phicp_is_cp_but_not_ppt():
    d = 3
    m, p = named_map("PhiCP", d)
    assert np.linalg.eigvalsh(m.choi)[0] >= -1e-12
    assert np.linalg.eigvalsh(partial_transpose(m.choi, d, 2))[0] < -1e-6
    v = r.classify_numeric(p, 200, seed=0)
    assert v.completely_positive and not v.entanglement_breaking
    # consistent with the closed-form upper bound beta <= 1 - alpha + alpha/d = 1
    assert p.beta > 1.0


def test_positivity_boundary_vertex_sampled_margin():
    # (alpha, beta) = (3/2, -1) is a vertex of the positivity region at d=3
    p = MapParams(3, 1.5, -1.0)
    assert r.classify_point(p).margin_positive == pytest.approx(0.0, abs=1e-12)
    v = r.classify_numeric(p, 10_000, seed=1)
    assert abs(v.margin_positive) <= 1e-9


def test_numeric_matches_closed_form_on_named_maps():
    for d in (2, 3, 4):
        for name in ("Reduction", "Pinch2", "PhiCP", "E1", "E2", "E3", "E4"):
            _, p = named_map(name, d)
            closed = r.classify_point(p)
            numeric = r.classify_numeric(p, 500, seed=2)
            # named maps sit on boundaries, so compare only clear verdicts
            if abs(closed.margin_positive) > 1e-6:
                assert closed.positive == numeric.positive
            if abs(closed.margin_cp) > 1e-6:
                assert closed.completely_positive == numeric.completely_positive
            if abs(closed.margin_eb) > 1e-6:
                assert closed.entanglement_breaking == numeric.entanglement_breaking


def test_grid_matches_pointwise_classifier():
    d = 3
    alphas = np.linspace(-0.2, 1.7, 11)
    betas = np.linspace(-0.7, 1.7, 11)
    grid = r.classify_grid(d, alphas, betas, sample_budget=32, seed=3)
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            v = r.classify_point(MapParams(d, float(a), float(b)))
            assert grid["closed_positive"][i, j] == v.positive
            assert grid["closed_cp"][i, j] == v.completely_positive
            assert grid["closed_eb"][i, j] == v.entanglement_breaking
            n = r.classify_numeric(MapParams(d, float(a), float(b)), 32, seed=3)
            assert grid["numeric_cp"][i, j] == n.completely_positive
            assert grid["numeric_eb"][i, j] == n.entanglement_breaking


@pytest.mark.parametrize("d, n, budget",
                         [(2, 7, 16), (3, 7, 16), (5, 5, 16), (8, 4, 16), (16, 3, 16),
                          (3, 7, 32)],
                         ids=["2-7", "3-7", "5-5", "8-4", "16-3", "3-7-32"])
def test_grid_minima_match_dense_pointwise_solves(d, n, budget):
    # the blockwise, affine oracle against dense solves of each point's own map;
    # with budget 32 at d = 3 the 49 points' 1568 sampled outputs exceed the
    # size crossover, so the certificate runs over components
    alphas, betas = r.default_grid(d, n)
    grid = r.classify_grid(d, alphas, betas, sample_budget=budget, seed=11)
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            m = build_phi_family(MapParams(d, float(a), float(b)))
            choi_min = np.linalg.eigvalsh(m.choi)[0]
            pt_min = np.linalg.eigvalsh(partial_transpose(m.choi, d, 2))[0]
            assert abs(grid["choi_min"][i, j] - choi_min) <= 1e-12
            assert abs(grid["pt_min"][i, j] - pt_min) <= 1e-12
            pos_min = dense_positivity_min(m, sample_budget=budget, seed=11)
            assert abs(grid["pos_min"][i, j] - pos_min) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 8, 16])
def test_grid_through_the_identity_matches_dense_solves(d):
    # at alpha = beta = 0 every candidate's output is a pure state, so all
    # candidates tie at 0 and the Cholesky certificate has no slack
    axis = np.array([-0.1, 0.0, 0.1])
    grid = r.classify_grid(d, axis, axis, sample_budget=16, seed=5)
    for i, a in enumerate(axis):
        for j, b in enumerate(axis):
            m = build_phi_family(MapParams(d, float(a), float(b)))
            pos_min = dense_positivity_min(m, sample_budget=16, seed=5)
            assert abs(grid["pos_min"][i, j] - pos_min) <= 1e-12
    assert abs(grid["pos_min"][1, 1]) <= 1e-12


@pytest.mark.parametrize("scale", [1.0, 1e-8])
@pytest.mark.parametrize("d, seed", [(2, 0), (3, 1), (5, 1)])
def test_sampled_candidate_sets_the_minimum_of_a_random_map(d, seed, scale):
    # a Hermitian Choi matrix gives a Hermiticity-preserving map outside the
    # family, on which a random candidate beats every deterministic one; at
    # scale 1e-8 it wins by less than 1e-8, which the certificate must not miss;
    # 64 samples take the LAPACK path of the certificate, 2048 the one over
    # components
    rng = np.random.default_rng(seed)
    choi = scale * la.random_hermitian(d * d, rng)
    m = SuperMap(d, choi_from_transfer(choi, d))
    deterministic = dense_positivity_min(m, sample_budget=0, seed=seed)
    for budget in (64, 2048):
        sampled = dense_positivity_min(m, sample_budget=budget, seed=seed)
        assert sampled < deterministic - 1e-3 * scale
        for path in (sampled_positivity_min, package_positivity_min):
            assert abs(path(m, sample_budget=budget, seed=seed) - sampled) <= 1e-12
    for path in (sampled_positivity_min, package_positivity_min):
        assert abs(path(m, sample_budget=0, seed=seed) - deterministic) <= 1e-12


def covariant(d, parts) -> bool:
    """``linalg.diagonal_covariant`` on the components of a stack of transfers."""
    return la.diagonal_covariant(d, (rows for rows, _ in r._transfer_blocks(parts)[1]))


def off_pattern_maps(d, seed):
    """A family map with one entry added that links X[0, 1] to X[1, 0], and a
    family map conjugated by a random complex unitary."""
    m = build_phi_family(MapParams(d, 0.4, -0.1))
    t = m.transfer.copy()
    t[1, d] = 0.3  # vec index 1 is X[1, 0], d is X[0, 1]
    u = np.linalg.qr(la.ginibre(d, np.random.default_rng(seed)))[0]
    conj = compose(unitary_conjugation(u), compose(m, unitary_conjugation(u.conj().T)))
    return SuperMap(d, t), conj


@pytest.mark.parametrize("d", range(2, 17))
def test_family_parts_and_generator_blocks_pass_the_diagonal_unitary_check(d):
    parts = channels.family_transfer_parts(d)
    assert covariant(d, parts)
    for block in generator_blocks(d):
        assert la.diagonal_covariant(d, (idx for _, idx, _ in la.affine_blocks((block,))))
    # what the check stands for: each part commutes with X -> U X U^+
    u = np.diag(np.exp(2j * np.pi * np.random.default_rng(d).random(d)))
    conj = unitary_conjugation(u).transfer
    for part in (*parts, *generator_blocks(d)):
        assert np.abs(part @ conj - conj @ part).max() <= 1e-14
    assert r.diagonal_covariant is generators.diagonal_covariant is la.diagonal_covariant


@pytest.mark.parametrize("d", [2, 3, 8, 16])
def test_a_map_off_the_covariant_pattern_is_imaged_at_c(d, monkeypatch):
    inputs = []
    images = r._images

    def imaging(blocks, x):
        inputs.append(x)
        return images(blocks, x)

    monkeypatch.setattr(r, "_images", imaging)
    budget, seed = 48, d
    family = build_phi_family(MapParams(d, 0.4, -0.1))
    # a complex map on the covariant pattern: the family after a diagonal unitary
    u = np.diag(np.exp(2j * np.pi * np.random.default_rng(seed).random(d)))
    on_pattern = (family, compose(family, unitary_conjugation(u)))
    cand = la.positivity_candidates(d, budget, np.random.default_rng(seed))[d * d + 1:]
    for m in (*on_pattern, *off_pattern_maps(d, seed)):
        inputs.clear()
        got = package_positivity_min(m, sample_budget=budget, seed=seed)
        assert abs(got - dense_positivity_min(m, sample_budget=budget, seed=seed)) <= 1e-12
        # the deterministic candidates, then the sampled ones: at |c| on the
        # covariant pattern, at c off it
        imaged_at_modulus = any(m is k for k in on_pattern)
        c = np.abs(cand) if imaged_at_modulus else cand
        assert covariant(d, m.transfer[None]) == imaged_at_modulus
        assert np.array_equal(inputs[-1], np.einsum("ni,nj->nij", c, c.conj()))


def wide_grid(d):
    """A 9 x 9 grid reaching far outside P, where samples set some minima."""
    return np.linspace(-1.0, 3.0, 9), np.linspace(-3.0, 3.0, 9)


def imaged_at_c(d, alphas, betas, budget, seed):
    """``classify_grid``'s ``pos_min`` with the sampled candidates imaged at c."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(r, "diagonal_covariant", lambda d, groups: False)
        return r.classify_grid(d, alphas, betas, sample_budget=budget, seed=seed)["pos_min"]


def assert_within_capped_rounding(d, alphas, betas, real, cplx):
    # ``min_eig_capped``'s margin, 2 (n + 1)^2 eps times the outputs' largest
    # diagonal entry plus the cap, bounds how far two solves of unitarily
    # similar outputs may differ
    aa, bb = np.meshgrid(alphas, betas, indexing="ij")
    scale = (np.abs(1.0 - aa - bb) + np.abs(aa) + np.abs(bb)).max() + np.abs(cplx).max()
    assert np.abs(real - cplx).max() <= 2 * (d + 1) ** 2 * np.finfo(float).eps * scale


@pytest.mark.parametrize("d", range(2, 17))
def test_the_real_path_gives_the_complex_minima_where_samples_set_them(d):
    alphas, betas = wide_grid(d)
    grid = r.classify_grid(d, alphas, betas, sample_budget=32, seed=d)
    stage1 = r.family_min_eig(d, "candidates", alphas, betas)
    assert (grid["pos_min"] < stage1).any()
    assert_within_capped_rounding(d, alphas, betas, grid["pos_min"],
                                  imaged_at_c(d, alphas, betas, 32, d))


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 16), seed=st.integers(0, 2**31 - 1),
       alphas=st.lists(st.floats(-1.0, 3.0), min_size=1, max_size=4),
       betas=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
def test_sampling_at_the_modulus_keeps_every_minimum(d, seed, alphas, betas):
    alphas, betas = np.array(alphas), np.array(betas)
    real = r.classify_grid(d, alphas, betas, sample_budget=16, seed=seed)["pos_min"]
    assert_within_capped_rounding(d, alphas, betas, real,
                                  imaged_at_c(d, alphas, betas, 16, seed))


@pytest.mark.parametrize("d", range(2, 17))
def test_grid_and_single_map_certificates_are_real(d, monkeypatch):
    dtypes = []
    capped = r.min_eig_capped

    def recording(mats, cap):
        dtypes.append(mats.dtype)
        return capped(mats, cap)

    monkeypatch.setattr(r, "min_eig_capped", recording)
    r.classify_grid(d, *r.default_grid(d, 4), sample_budget=8, seed=d)
    r.classify_numeric(MapParams(d, 0.3, 0.1), sample_budget=8, seed=d)
    assert dtypes and all(dtype == np.float64 for dtype in dtypes)


@pytest.mark.parametrize("d", [2, 3, 16])
def test_transfer_blocks_read_the_diagonal_from_the_one_entry_components(d):
    rng = np.random.default_rng(d)
    for transfer in (channels.family_transfer_parts(d), rng.standard_normal((d ** 4,))
                     .reshape(d * d, d * d) * (rng.random((d * d, d * d)) < 2.0 / d ** 2)):
        diag, pairs = r._transfer_blocks(transfer)
        # row-major index r d + c is X[r, c], vec index c d + r
        want = np.diagonal(transfer, axis1=-2, axis2=-1).reshape(transfer.shape[:-2] + (d, d))
        want = np.swapaxes(want, -1, -2).reshape(transfer.shape[:-2] + (1, d * d)).copy()
        for rows, _ in pairs:
            want[..., 0, rows.ravel()] = 0.0
        assert diag.dtype == transfer.dtype and diag.flags.c_contiguous
        assert np.array_equal(diag, want)


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """The shape of every array passed to ``np.linalg.eigvalsh`` in the test."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return shapes


@pytest.mark.parametrize("d", [3, 8, 16])
def test_grid_solves_no_matrix_larger_than_d(d, eigvalsh_shapes):
    r.classify_grid(d, *r.default_grid(d, 5), sample_budget=8)
    orders = [shape[-1] for shape in eigvalsh_shapes]
    assert orders and max(orders) <= d


@pytest.mark.parametrize("d", [3, 8, 16])
def test_grid_certifies_the_samples_without_eigensolves(d, eigvalsh_shapes):
    # on this grid no sample sets a point's minimum, so the Cholesky
    # certificate holds and the sampled outputs, points * budget matrices of
    # order d, never reach eigvalsh
    budget = 64
    alphas, betas = r.default_grid(d, 9)
    r.classify_grid(d, alphas, betas, sample_budget=budget, seed=7)
    order_d = sum(int(np.prod(shape[:-2])) for shape in eigvalsh_shapes
                  if shape[-1] == d)
    assert 0 < order_d < alphas.size * betas.size * budget


def test_grid_of_ties_solves_only_the_tied_samples(eigvalsh_shapes):
    # on the line d(1 - alpha - beta) + beta = 0 every sample's output has the
    # basis candidates' eigenvalue alpha/d, so the certificate cannot pass
    # those points; the rest of their chunk must not be solved with them
    d, budget = 3, 64
    alphas = np.linspace(0.0, 1.5, 41)
    betas = alphas + 0.0375
    grid = r.classify_grid(d, alphas, betas, sample_budget=budget)
    order_d = sum(int(np.prod(shape[:-2])) for shape in eigvalsh_shapes
                  if shape[-1] == d)
    assert 0 < order_d < alphas.size * betas.size * budget // 20
    aa, bb = np.meshgrid(alphas, betas, indexing="ij")
    tied = np.abs(d * (1.0 - aa - bb) + bb) <= 1e-12
    assert tied.sum() >= 10
    check = tied | (np.arange(tied.size).reshape(tied.shape) % 17 == 0)
    for i, j in zip(*np.nonzero(check)):
        m = build_phi_family(MapParams(d, float(alphas[i]), float(betas[j])))
        pos_min = dense_positivity_min(m, sample_budget=budget, seed=42)
        assert abs(grid["pos_min"][i, j] - pos_min) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 16), alpha=st.floats(-0.5, 2.5), beta=st.floats(-1.5, 1.5))
def test_classify_numeric_margins_match_dense_solves(d, alpha, beta):
    # the blockwise Choi and partial-transpose minima against dense solves
    choi = build_phi_family(MapParams(d, alpha, beta)).choi
    choi_min = np.linalg.eigvalsh(choi)[0]
    pt_min = np.linalg.eigvalsh(partial_transpose(choi, d, 2))[0]
    v = r.classify_numeric(MapParams(d, alpha, beta), sample_budget=0)
    assert abs(v.margin_cp - choi_min) <= 1e-12
    assert abs(v.margin_eb - min(choi_min, pt_min)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 16), alpha=st.floats(-0.5, 2.5), beta=st.floats(-1.5, 1.5))
def test_closed_form_matches_oracle_off_the_margin(d, alpha, beta):
    p = MapParams(d, alpha, beta)
    closed = r.classify_point(p)
    numeric = r.classify_numeric(p, sample_budget=64, seed=d)
    for flag, margin in (("positive", "margin_positive"),
                         ("completely_positive", "margin_cp"),
                         ("entanglement_breaking", "margin_eb")):
        if abs(getattr(closed, margin)) > r.MARGIN_FILTER:
            assert getattr(closed, flag) == getattr(numeric, flag), (flag, closed, numeric)


@pytest.mark.parametrize("d", [3, 8, 16])
def test_single_map_oracles_solve_no_matrix_larger_than_d(d, eigvalsh_shapes):
    for name in sorted(dy.SCHEDULES):
        dy.trajectory_point(dy.schedule_from_name(name, d, 0.7, -0.4), 0.6)
    r.classify_numeric(MapParams(d, 0.6, -0.2), sample_budget=8)
    orders = [shape[-1] for shape in eigvalsh_shapes]
    assert orders and max(orders) <= d


def test_grid_positivity_batches_stay_within_byte_budget(monkeypatch):
    # at d = 16 with budget 256 one point's sampled outputs, real, take 0.5 MB
    # and their Cholesky factor as much again: the 100 points at once would
    # hold 105 MB, more than the budget
    def recording(solve, sizes):
        def wrapper(a, *args, **kwargs):
            sizes.append(np.asarray(a).nbytes)
            return solve(a, *args, **kwargs)
        return wrapper

    sizes = {"eigvalsh": [], "lapack": []}
    monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh, sizes["eigvalsh"]))
    monkeypatch.setattr(la, "_lapack_passes", recording(la._lapack_passes, sizes["lapack"]))
    d = 16
    res = r.classify_grid(d, *r.default_grid(d, 10), sample_budget=256, seed=2)
    assert sizes["lapack"] and 2 * max(sizes["lapack"]) <= r._CHUNK_BYTES
    assert sizes["eigvalsh"] and max(sizes["eigvalsh"]) <= r._CHUNK_BYTES
    monkeypatch.undo()
    monkeypatch.setattr(r, "_CHUNK", 1)
    one = r.classify_grid(d, *r.default_grid(d, 10), sample_budget=256, seed=2)
    assert np.abs(res["pos_min"] - one["pos_min"]).max() <= 1e-12


@pytest.mark.parametrize("budget", [16, 0])
def test_grid_is_the_same_on_a_cold_and_a_warm_cache(budget):
    # the per-d blocks are built by the first call after ``cache_clear``
    # and reused by the second; they are read-only
    for d in range(2, 17):
        r._family_blocks.cache_clear()
        cold = r.classify_grid(d, *r.default_grid(d, 5), sample_budget=budget, seed=d)
        warm = r.classify_grid(d, *r.default_grid(d, 5), sample_budget=budget, seed=d)
        assert r._family_blocks.cache_info().hits >= 1
        for key, value in cold.items():
            assert value.dtype == warm[key].dtype and value.shape == warm[key].shape, key
            assert value.tobytes() == warm[key].tobytes(), (d, key)
        for blocks in (r._family_blocks(d, oracle) for oracle in r._ORACLES):
            assert blocks and not any(array.flags.writeable
                                      for _, _, *arrays in blocks for array in arrays)


@pytest.mark.parametrize("d", [3, 16])
def test_a_warm_grid_call_images_only_its_samples(d, monkeypatch):
    # a warm call reshuffles no Choi matrix, takes no partial transpose, and
    # its one image product takes the ``budget`` sampled candidates alone;
    # the cold call before it is the spies' positive control: it builds the
    # Choi and the partial-transpose blocks, each from its own Choi stack
    calls = {"choi_from_transfer": 0, "partial_transpose": 0, "images": []}
    for name in ("choi_from_transfer", "partial_transpose"):
        def counting(*args, _name=name, _solve=getattr(r, name), **kwargs):
            calls[_name] += 1
            return _solve(*args, **kwargs)
        monkeypatch.setattr(r, name, counting)
    images = r._images

    def imaging(transfer, inputs):
        calls["images"].append(len(inputs))
        return images(transfer, inputs)

    monkeypatch.setattr(r, "_images", imaging)
    budget = 24
    r._family_blocks.cache_clear()
    r.classify_grid(d, *r.default_grid(d, 6), sample_budget=budget, seed=1)
    assert calls == {"choi_from_transfer": 2, "partial_transpose": 1,
                     "images": [d * d + 1, budget]}
    calls["choi_from_transfer"] = calls["partial_transpose"] = 0
    calls["images"] = []
    r.classify_grid(d, *r.default_grid(d, 6), sample_budget=budget, seed=2)
    assert calls == {"choi_from_transfer": 0, "partial_transpose": 0, "images": [budget]}
    calls["images"] = []
    r.classify_grid(d, *r.default_grid(d, 6), sample_budget=0, seed=3)
    assert calls["images"] == []


@pytest.fixture
def builds(monkeypatch):
    """Counts of the calls that build a family transfer, a Choi matrix, a
    partial transpose, a block decomposition or a labelling of a pattern, on
    every name they are called by."""
    calls = Counter()
    for owner, name in ((channels, "family_transfer"), (channels, "choi_from_transfer"),
                        (r, "choi_from_transfer"), (r, "partial_transpose"),
                        (r, "affine_blocks"), (dy, "affine_blocks"), (la, "affine_blocks"),
                        (la, "components")):
        def counting(*args, _name=name, _solve=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _solve(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("d", [3, 16])
def test_a_warm_trajectory_point_builds_no_map_and_no_blocks(d, builds):
    # a family schedule's point reads the cached Choi blocks; the Weyl
    # mixture, which leaves the family, is the spies' positive control: it
    # reshuffles and decomposes its Choi matrix at every t, but its pattern
    # is the same at every t > 0, so a warm point labels nothing
    for name in ("const", "enm", "pdiv", "sdiv", "enm2"):
        s = dy.schedule_from_name(name, d, 0.7, -0.4)
        dy.trajectory_point(s, 0.6)
        builds.clear()
        dy.trajectory_point(s, 1.1)
        assert not builds, name
    dy.trajectory_point(dy.WeylMixture(d), 0.6)
    builds.clear()
    dy.trajectory_point(dy.WeylMixture(d), 1.1)
    assert builds == {"choi_from_transfer": 1, "affine_blocks": 1}
    # the falsifier needs the map: a positive, non-CP point with a budget builds it once
    builds.clear()
    pt = dy.trajectory_point(dy.ConstantNu(d, 1.0, -0.5), 1e-3, sample_budget=4)
    assert pt.verdict.positive and not pt.verdict.completely_positive
    assert builds == {"family_transfer": 1, "affine_blocks": 1}  # and splits it


@pytest.mark.parametrize("d", [3, 16])
def test_a_warm_classify_numeric_takes_no_partial_transpose(d, builds):
    r.classify_numeric(MapParams(d, 0.6, -0.2), sample_budget=8)
    builds.clear()
    r.classify_numeric(MapParams(d, 0.3, 0.1), sample_budget=8, seed=1)
    # the map that images the samples, split on its components
    assert builds == {"family_transfer": 1, "affine_blocks": 1}
    builds.clear()
    r.classify_numeric(MapParams(d, 0.3, 0.1), sample_budget=0)
    assert not builds


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
def test_single_points_get_the_grid_floats(d):
    # the trajectory's Choi minimum and classify_numeric's margins at a point
    # are the grid's minima there, bit for bit, inside a grid of other points
    rng = np.random.default_rng(d)
    for name in ("const", "enm", "pdiv", "sdiv", "enm2"):
        for t in (0.0, 0.05, 0.6, 2.0):
            pt = dy.trajectory_point(dy.schedule_from_name(name, d, 0.7, -0.4), t)
            alphas = np.insert(rng.uniform(-0.5, 2.5, 4), 2, pt.alpha)
            betas = np.insert(rng.uniform(-1.5, 1.5, 3), 1, pt.beta)
            grid = r.classify_grid(d, alphas, betas, sample_budget=0)
            v = r.classify_numeric(MapParams(d, pt.alpha, pt.beta), sample_budget=0)
            choi_min, pt_min = grid["choi_min"][2, 1], grid["pt_min"][2, 1]
            assert pt.min_choi_eig == choi_min == v.margin_cp, (name, t)
            assert v.margin_eb == min(choi_min, pt_min), (name, t)
            assert v.margin_positive == grid["pos_min"][2, 1], (name, t)


def test_positivity_candidates_need_rng_for_samples():
    with pytest.raises(QuditMapsError):
        r.positivity_candidates(16, 64)
    assert r.positivity_candidates(3, 0).shape == (3 + 6 + 1, 3)
    assert r.positivity_candidates(3, 5, np.random.default_rng(0)).shape == (15, 3)


def test_grid_agreement_small():
    # the battery's 101 x 101 grids stop at d = 5
    passed, detail = verify.check_grid_agreement(4, 0, dims=(8, 16), n=21)
    assert passed, detail


# --- polygons and areas ----------------------------------------------------------

def test_eb_polygon_vertices_d3():
    poly = r.region_polygon("EB", 3)
    expected = {(0.0, 1.0), (0.75, 0.5), (1.5, -0.5), (1.0, -1.0 / 3.0)}
    got = {(round(a, 12), round(b, 12)) for a, b in poly.vertices}
    assert got == {(round(a, 12), round(b, 12)) for a, b in expected}


def test_p_polygon_contains_identity_and_phicp():
    poly = r.region_polygon("P", 3)
    assert (0.0, 0.0) in poly.vertices
    assert any(np.allclose(v, (0.0, 1.5)) for v in poly.vertices)
    assert len(poly.vertices) == 4


def test_cp_polygon_is_a_triangle():
    poly = r.region_polygon("CP", 3)
    assert len(poly.vertices) == 3
    assert any(np.allclose(v, (1.5, -0.5)) for v in poly.vertices)  # pinches at E3


def test_polygons_are_ccw_and_satisfy_inequalities():
    for d in (2, 3, 7):
        for which in r.REGIONS:
            poly = r.region_polygon(which, d)
            assert r.shoelace_area(poly.vertices) > 0.0
            for a, b in poly.vertices:
                margins = dict(zip(r.REGIONS, r.classify_point(MapParams(d, a, b)).margins))
                assert margins[which] >= -1e-12


def test_eb_vertices_are_extreme_points():
    # every EB vertex has at least two active constraints
    for d in (3, 5):
        for a, b in r.region_polygon("EB", d).vertices:
            slacks = [
                pa * a + pb * b + pc
                for pa, pb, pc in r._half_planes("EB", d)
            ]
            assert sum(1 for s in slacks if abs(s) <= 1e-12) >= 2
            v = r.classify_point(MapParams(d, a, b))
            assert v.entanglement_breaking and v.margin_eb >= -1e-12


def test_areas_d3():
    assert r.region_area("P", 3).closed_form == pytest.approx(15.0 / 8.0)
    assert r.region_area("CP", 3).closed_form == pytest.approx(9.0 / 8.0)
    assert r.region_area("EB", 3).closed_form == pytest.approx(7.0 / 16.0)


def test_areas_d2_degenerate_check():
    assert r.region_area("P", 2).closed_form == pytest.approx(4.0)
    assert r.region_area("CP", 2).closed_form == pytest.approx(2.0)
    # at d=2 the EB quadrilateral is still proper and has unit area
    assert r.region_area("EB", 2).shoelace == pytest.approx(1.0, abs=1e-12)


def test_shoelace_matches_closed_form():
    # the battery covers d = 3..12
    passed, detail = verify.check_areas(0, 0, dims=range(2, 17))
    assert passed, detail


def test_eb_area_against_independent_ppt_grid():
    # Monte-Carlo-style oracle: fraction of a fine grid that is Choi-PSD and
    # PPT, entirely independent of the closed-form inequalities
    d = 3
    alphas = np.linspace(0.0, 1.5, 151)
    betas = np.linspace(-0.6, 1.1, 171)
    res = r.classify_grid(d, alphas, betas, sample_budget=0)
    cell = (alphas[1] - alphas[0]) * (betas[1] - betas[0])
    est = res["numeric_eb"].sum() * cell
    assert est == pytest.approx(7.0 / 16.0, abs=0.02)


@pytest.mark.xfail(
    strict=True,
    reason="the quadrilateral spanned by the four EB extreme maps has area "
    "(3d-2)/(4(d-1)^2); the often-quoted (3d-2)/(2d(d-1)) disagrees for d >= 3",
)
def test_quoted_eb_area_value():
    d = 3
    assert r.region_area("EB", d).shoelace == pytest.approx(7.0 / 12.0, abs=1e-12)


def test_area_ratio_trends():
    p_over_cp = []
    eb_over_cp = []
    for d in range(3, 13):
        p_over_cp.append(r.region_area("P", d).closed_form
                         / r.region_area("CP", d).closed_form)
        eb_over_cp.append(r.region_area("EB", d).closed_form
                          / r.region_area("CP", d).closed_form)
    assert all(x > y for x, y in zip(p_over_cp, p_over_cp[1:]))  # decreasing to 1
    assert all(x > 1.0 for x in p_over_cp)
    assert all(x > y for x, y in zip(eb_over_cp, eb_over_cp[1:]))  # decreasing to 0
    assert eb_over_cp[-1] < eb_over_cp[0] / 3.0


# --- Schwarz falsifier ------------------------------------------------------------

def reference_candidates(d, sample_budget, rng):
    """The falsifier's candidates one at a time, in its scan order."""
    for i in range(d):
        for j in range(d):
            if i != j:
                yield basis_matrix(i, j, d)
    for c in np.linspace(-5.0, 5.0, 101):
        yield witness_operator(d, float(c))
    for v in la.positivity_candidates(d, 0, rng):
        yield np.outer(np.eye(d, dtype=complex)[0], v.conj())
    for _ in range(int(sample_budget)):
        g = la.ginibre(d, rng)
        yield g / np.linalg.norm(g)


def reference_gap_min(m, x):
    """Smallest eigenvalue of m(X^+ X) - m(X)^+ m(X), one map application per image."""
    mx = m(x)
    gap = m(x.conj().T @ x) - mx.conj().T @ mx
    return np.linalg.eigvalsh((gap + gap.conj().T) / 2.0)[0]


def reference_falsify(m, sample_budget, seed, threshold=-1e-8):
    """The per-candidate loop: one map application and one ``eigvalsh`` per X.

    Returns (scan index, X) of the first violation, or None.
    """
    rng = np.random.default_rng(seed)
    for k, x in enumerate(reference_candidates(m.d, sample_budget, rng)):
        if reference_gap_min(m, x) < threshold:
            return k, x
    return None


def n_deterministic(d):
    """Matrix units, witnesses and rank-one probes: the candidates before the draws."""
    return d * (d - 1) + 101 + d * d + 1


def assert_same_candidate(found, k, x, d):
    if k < n_deterministic(d):
        assert np.array_equal(found, x)
    else:  # only the Frobenius normalisation may round differently
        assert np.abs(found - x).max() <= 1e-15


def rotated(m, kind, seed):
    """X -> U m(X) U^+ for a random real orthogonal or complex unitary U.

    The family's transfers are symmetric, and the family is covariant under
    permutations; after such a U the transfer is neither, so a transposed
    product changes the gaps' spectra.
    """
    g = la.ginibre(m.d, np.random.default_rng(seed))
    u = np.linalg.qr(g.real if kind == "orthogonal" else g)[0]
    return compose(unitary_conjugation(u), m)


def semigroup_below_schwarz(d, nu, t=1e-3):
    gen = build_generator(GenParams(d, 1.0, nu))
    return SuperMap(d, expm(t * gen.transfer))


@st.composite
def falsifier_cases(draw):
    d = draw(st.integers(2, 16))
    kind = draw(st.sampled_from(["cp", "p_not_cp", "not_p", "transposition",
                                 "semigroup", "weyl", "phased_weyl", "orthogonal",
                                 "unitary"]))
    h = d / (d - 1.0)
    u = st.floats(0.0, 1.0)
    alpha = draw(u) * h
    if kind == "cp":
        lo, hi = -alpha / d, h - (d + 1.0) * alpha / d
        m = build_phi_family(MapParams(d, alpha, lo + draw(u) * (hi - lo)))
    elif kind in ("p_not_cp", "orthogonal", "unitary"):
        m = build_phi_family(MapParams(d, alpha, -alpha / d - draw(u) * alpha / d))
        if kind != "p_not_cp":
            m = rotated(m, kind, draw(st.integers(0, 2**31)))
    elif kind == "not_p":
        m = build_phi_family(MapParams(d, alpha, -2.0 * alpha / d - 0.01 - draw(u)))
    elif kind == "transposition":
        m = transposition_map(d)
    elif kind == "semigroup":
        m = semigroup_below_schwarz(d, schwarz_threshold(d) - 0.05 - 0.9 * draw(u))
    elif kind == "phased_weyl":
        # a diagonal unitary after the Weyl mixture: a complex, unital transfer
        # with the mixture's d blocks of size d, not symmetric
        phases = np.exp(2j * np.pi * np.array([draw(u) for _ in range(d)]))
        m = compose(unitary_conjugation(np.diag(phases)), dy.weyl_mixture_map(d, 0.05 + draw(u)))
    else:
        d = draw(st.sampled_from([4, 6, 8, 9, 10, 12, 14, 15, 16]))
        m = dy.weyl_mixture_map(d, draw(st.floats(0.05, 3.0)))
    return m, draw(st.integers(0, 300)), draw(st.integers(0, 2**31))


@st.composite
def block_sparse_transfers(draw):
    """An (n, n) transfer or a (K, n, n) stack of parts, n = d^2, and (N, d, d) inputs.

    The transfers are block diagonal on a random partition of the vec
    indices; inside the blocks each part has its own random, non-symmetric
    pattern, some indices have an all-zero row and column, and one group
    at full density is a single dense block.  Transfers and inputs are real
    or complex.
    """
    d = draw(st.integers(2, 6))
    n = d * d
    shape = (n, n) if draw(st.booleans()) else (draw(st.integers(1, 3)), n, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(draw(st.integers(1, n)), size=n)
    empty = rng.random(n) < draw(st.sampled_from([0.0, 0.2]))
    inside = (labels[:, None] == labels) & ~empty[:, None] & ~empty
    mask = inside & (rng.random(shape) < draw(st.sampled_from([0.3, 0.7, 1.0])))
    values = rng.standard_normal(shape)
    if draw(st.booleans()):
        values = values + 1j * rng.standard_normal(shape)
    x = rng.standard_normal((draw(st.integers(1, 5)), d, d))
    if draw(st.booleans()):
        x = x + 1j * rng.standard_normal(x.shape)
    return np.where(mask, values, 0.0), x


@settings(max_examples=80, deadline=None)
@given(case=block_sparse_transfers())
def test_images_on_pattern_components_are_the_dense_product(case):
    transfer, x = case
    got = r._images(r._transfer_blocks(transfer), x)
    want = la.unvec(la.vec(x) @ np.swapaxes(transfer, -1, -2), x.shape[-1])
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.dtype == np.result_type(transfer, x)  # real stays real
    assert np.abs(got - want).max() <= 1e-13 * x.shape[-1] ** 2


@settings(max_examples=40, deadline=None)
@given(case=falsifier_cases())
def test_batched_falsifier_matches_the_per_candidate_loop(case):
    m, budget, seed = case
    found = r.schwarz_falsify(m, budget, seed)
    ref = reference_falsify(m, budget, seed)
    assert (found is None) == (ref is None)
    if ref is not None:
        assert_same_candidate(found, *ref, m.d)


@settings(max_examples=25, deadline=None)
@given(case=falsifier_cases(), pick=st.floats(0.0, 1.0))
def test_batched_falsifier_matches_the_loop_at_any_threshold(case, pick):
    # a threshold just above the pick-th smallest gap minimum moves the first
    # violation anywhere in the scan, the random draws included
    m, budget, seed = case
    cands = list(reference_candidates(m.d, budget, np.random.default_rng(seed)))
    mins = np.array([reference_gap_min(m, x) for x in cands])
    order = np.sort(mins)
    low = order[int(pick * (len(order) - 1))]
    above = order[order > low + 1e-9]
    threshold = (low + above[0]) / 2.0 if above.size else low + 1.0
    k = int(np.argmax(mins < threshold))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(r, "_FALSIFY_THRESHOLD", threshold)
        found = r.schwarz_falsify(m, budget, seed)
    assert_same_candidate(found, k, cands[k], m.d)


@pytest.mark.parametrize("d", range(2, 17))
def test_falsifier_chunks_follow_the_reference_order(d):
    budget = 700  # more than one chunk of draws
    chunks = list(r._falsifier_chunks(d, budget, d))
    assert max(len(c) for c in chunks) <= r._CHUNK
    batched = np.concatenate(chunks)
    ref = np.stack(list(reference_candidates(d, budget, np.random.default_rng(d))))
    n_det = n_deterministic(d)
    assert batched.shape == ref.shape
    assert np.array_equal(batched[:n_det], ref[:n_det])
    assert np.abs(batched[n_det:] - ref[n_det:]).max() <= 1e-15


def test_batched_falsifier_does_not_depend_on_the_chunk_size(monkeypatch):
    cases = [(transposition_map(3), 0), (build_phi_family(MapParams(4, 0.5, 0.1)), 700),
             (semigroup_below_schwarz(5, -0.9), 40), (dy.weyl_mixture_map(6, 0.4), 600)]
    wide = [r.schwarz_falsify(m, budget, 3) for m, budget in cases]
    monkeypatch.setattr(r, "_CHUNK", 1)
    for (m, budget), x in zip(cases, wide):
        one = r.schwarz_falsify(m, budget, 3)
        assert (one is None) == (x is None)
        if x is not None:
            assert np.array_equal(one, x)


@pytest.fixture
def solver_batches(monkeypatch):
    """Matrices in every array passed to the LAPACK Cholesky certificate
    (``linalg._lapack_passes``) and to ``eigvalsh``."""
    batches = {"lapack": [], "eigvalsh": []}

    def recording(solve, sizes):
        def wrapper(a, *args, **kwargs):
            sizes.append(int(np.prod(np.shape(a)[:-2], dtype=int)))
            return solve(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(la, "_lapack_passes", recording(la._lapack_passes, batches["lapack"]))
    monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh, batches["eigvalsh"]))
    return batches


def test_falsifier_chunks_stay_within_the_chunk_bound(solver_batches):
    # a CP point at d = 16 with the default budget scans all 10 000 draws
    d = 16
    assert r.schwarz_falsify(build_phi_family(MapParams(d, 0.5, 0.0))) is None
    assert solver_batches["lapack"]
    assert max(solver_batches["lapack"] + solver_batches["eigvalsh"]) <= r._CHUNK


@pytest.mark.parametrize("d", [2, 3, 16])
def test_falsifier_stops_at_the_first_violating_matrix_unit(d, solver_batches, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a later candidate family was built")

    monkeypatch.setattr(r, "witness_operator", refuse)
    monkeypatch.setattr(r, "positivity_candidates", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    x = r.schwarz_falsify(transposition_map(d))
    assert np.array_equal(x, basis_matrix(0, 1, d))
    assert 0 < sum(solver_batches["lapack"]) <= d * (d - 1)
    assert sum(solver_batches["eigvalsh"]) <= d * (d - 1)


@pytest.mark.parametrize("kind", ["semigroup", "orthogonal", "unitary"])
def test_schwarz_violation_takes_stacks(kind):
    # real symmetric, real non-symmetric and complex transfers, on real and
    # complex X, against one map application per image
    d = 3
    if kind == "semigroup":
        m = semigroup_below_schwarz(d, -0.9)
    else:
        m = rotated(build_phi_family(MapParams(d, 0.6, -0.3)), kind, 2)
    xs = np.stack(list(reference_candidates(d, 5, np.random.default_rng(1))))  # 122 of them
    vals = schwarz_violation(m, xs.reshape(2, -1, d, d))
    assert vals.shape == (2, len(xs) // 2)
    ones = [schwarz_violation(m, x) for x in xs]
    assert all(isinstance(v, float) for v in ones)
    ref = [reference_gap_min(m, x) for x in xs]
    assert np.abs(vals.ravel() - ref).max() <= 1e-12
    assert np.abs(np.array(ones) - ref).max() <= 1e-12
    # the package's gap, on the fixed candidates as the real arrays the
    # falsifier scans and on the complex draws
    blocks = r._transfer_blocks(m.transfer)
    n_det = n_deterministic(d)
    mins = []
    for stack in (xs[:n_det].real.copy(), xs[n_det:]):
        gap = r._schwarz_gap(blocks, stack)
        assert gap.flags.c_contiguous and gap.dtype == np.result_type(m.transfer, stack)
        mins.append(np.linalg.eigvalsh(gap)[:, 0])
    assert np.abs(np.concatenate(mins) - ref).max() <= 1e-12


def test_transposition_violates_schwarz():
    m = transposition_map(2)
    x = m_x = basis_matrix(0, 1, 2)
    assert schwarz_violation(m, x) == pytest.approx(-1.0, abs=1e-12)
    found = r.schwarz_falsify(m, sample_budget=0, seed=5)
    assert found is not None


def test_cp_map_is_never_falsified():
    for d in (2, 3):
        m = build_phi_family(MapParams(d, 0.4, 0.1))
        assert np.linalg.eigvalsh(m.choi)[0] >= -1e-12
        assert r.schwarz_falsify(m, sample_budget=300, seed=6) is None


def test_semigroup_below_threshold_is_falsified_at_small_time():
    from scipy.linalg import expm

    for d in (2, 3):
        nu = schwarz_threshold(d) - 0.1
        gen = build_generator(GenParams(d, 1.0, nu))
        from quditmaps.channels import SuperMap

        m = SuperMap(d, expm(1e-3 * gen.transfer))
        x = r.schwarz_falsify(m, sample_budget=0, seed=7)
        assert x is not None
        assert schwarz_violation(m, x) < -1e-8


def test_schwarz_falsify_requires_unital():
    d = 2
    # X -> A X A^+ with A non-unitary is not unital
    a = np.array([[1.0, 0.3], [0.0, 0.5]], dtype=complex)
    from quditmaps.channels import SuperMap

    with pytest.raises(NotUnital):
        r.schwarz_falsify(SuperMap(d, np.kron(a.conj(), a)), 10, seed=8)


def test_schwarz_boundary_scan_sits_between_cp_and_p():
    for d in (2, 3, 5):
        for alpha, beta in r.schwarz_boundary_scan(d):
            assert -2.0 * alpha / d <= beta <= -alpha / d, (d, alpha, beta)


def _inline_boundary_scan(d, n_alpha=16, sample_budget=200, seed=42):
    """The scan's own bisection loop, as it was before it moved to ``linalg.bisect``."""
    out = []
    for alpha in np.linspace(1e-3, d / (d - 1.0), n_alpha):
        hi = -alpha / d
        lo = -2.0 * alpha / d - 0.1
        while hi - lo > 1e-3 * alpha / d:
            mid = 0.5 * (hi + lo)
            m = build_phi_family(MapParams(d, float(alpha), float(mid)))
            if r.schwarz_falsify(m, sample_budget, seed) is None:
                hi = mid
            else:
                lo = mid
        out.append((float(alpha), float(0.5 * (hi + lo))))
    return out


@pytest.mark.parametrize("d", [2, 3, 5])
def test_schwarz_boundary_scan_is_the_inline_bisection_bit_for_bit(d):
    assert r.schwarz_boundary_scan(d) == _inline_boundary_scan(d)


def test_falsifier_and_boundary_scan_at_d16():
    d = 16
    assert r.schwarz_falsify(build_phi_family(MapParams(d, 0.6, -0.02)), 300, 4) is None
    x = r.schwarz_falsify(build_phi_family(MapParams(d, 0.6, -0.2)), 300, 4)
    assert x is not None and schwarz_violation(build_phi_family(MapParams(d, 0.6, -0.2)),
                                               x) < -1e-8
    scan = r.schwarz_boundary_scan(d, n_alpha=3)
    assert len(scan) == 3
    for alpha, beta in scan:
        assert -2.0 * alpha / d <= beta <= -alpha / d, (alpha, beta)


@pytest.mark.parametrize("nu", [-0.95, -0.5])
def test_trajectory_schwarz_flag_at_d16_matches_the_reference_loop(nu):
    # nu = -0.95 lies below the Schwarz threshold -8/9, nu = -0.5 above it;
    # at small t the semigroup is positive but not CP for both
    d, t = 16, 1e-3
    s = dy.ConstantNu(d, 1.0, nu)
    pt = dy.trajectory_point(s, t, sample_budget=50, seed=9)
    assert pt.verdict.positive and not pt.verdict.completely_positive
    ref = reference_falsify(dy.map_at(s, t), 50, 9)
    assert pt.schwarz_flag == ("unknown" if ref is None else "out")
    assert pt.schwarz_flag == ("out" if nu < schwarz_threshold(d) else "unknown")


# --- CSV exports -------------------------------------------------------------------

def test_polygon_csv_format():
    text = r.polygon_csv(r.region_polygon("EB", 3))
    lines = text.strip().split("\n")
    assert lines[0] == "alpha,beta"
    assert len(lines) == 5  # header + 4 vertices, closing vertex not repeated
    assert lines[1].split(",")[0] == "0"


def test_grid_csv_format():
    text = r.grid_csv(2, np.linspace(0, 2, 3), np.linspace(-1, 1, 3))
    lines = text.strip().split("\n")
    assert lines[0] == "alpha,beta,positive,cp,eb"
    assert len(lines) == 10
    assert set(lines[1].split(",")[2:]) <= {"0", "1"}


def test_grid_csv_makes_no_eigensolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("grid_csv prints closed-form verdicts only")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    text = r.grid_csv(3, np.linspace(-0.2, 1.7, 4), np.linspace(-0.7, 1.7, 5))
    assert len(text.strip().split("\n")) == 21
