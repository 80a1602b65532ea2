import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditmaps import dynamics as dy
from quditmaps import linalg as la
from quditmaps import regions as r
from quditmaps import verify
from quditmaps.channels import MapParams, SuperMap, build_phi_family, named_map
from quditmaps.errors import NotUnital, QuditMapsError, UnknownName
from quditmaps.generators import GenParams, build_generator, schwarz_threshold
from quditmaps.linalg import partial_transpose


def transposition_map(d):
    """X -> X^T; the canonical positive unital map that is not Schwarz."""
    t = np.zeros((d * d, d * d), dtype=complex)
    for row in range(d):
        for col in range(d):
            t[row * d + col, col * d + row] = 1.0  # vec index col*d+row: (c,r) <- (r,c)
    return SuperMap(d, t)


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


@pytest.mark.parametrize("d, n", [(2, 7), (3, 7), (5, 5), (8, 4), (16, 3)])
def test_grid_minima_match_dense_pointwise_solves(d, n):
    # the blockwise, affine oracle against dense solves of each point's own map
    alphas, betas = r.default_grid(d, n)
    grid = r.classify_grid(d, alphas, betas, sample_budget=16, seed=11)
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            m = build_phi_family(MapParams(d, float(a), float(b)))
            choi_min = np.linalg.eigvalsh(m.choi)[0]
            pt_min = np.linalg.eigvalsh(partial_transpose(m.choi, d, 2))[0]
            assert abs(grid["choi_min"][i, j] - choi_min) <= 1e-12
            assert abs(grid["pt_min"][i, j] - pt_min) <= 1e-12
            pos_min = r.sampled_positivity_min(m, sample_budget=16, seed=11)
            assert abs(grid["pos_min"][i, j] - pos_min) <= 1e-12


@pytest.fixture
def eigvalsh_orders(monkeypatch):
    """The order of every matrix passed to ``np.linalg.eigvalsh`` in the test."""
    orders = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        orders.append(np.shape(a)[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return orders


@pytest.mark.parametrize("d", [3, 8, 16])
def test_grid_solves_no_matrix_larger_than_d(d, eigvalsh_orders):
    r.classify_grid(d, *r.default_grid(d, 5), sample_budget=8)
    assert eigvalsh_orders and max(eigvalsh_orders) <= d


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


@pytest.mark.parametrize("d", [3, 8, 16])
def test_single_map_oracles_solve_no_matrix_larger_than_d(d, eigvalsh_orders):
    for name in sorted(dy.SCHEDULES):
        dy.trajectory_point(dy.schedule_from_name(name, d, 0.7, -0.4), 0.6)
    r.classify_numeric(MapParams(d, 0.6, -0.2), sample_budget=8)
    assert eigvalsh_orders and max(eigvalsh_orders) <= d


def test_grid_positivity_batches_stay_within_byte_budget(monkeypatch):
    # at d = 16 with budget 64 one point's outputs take 1.3 MB: 64 points at once
    # would hold 84 MB, more than the budget
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        sizes.append(np.asarray(a).nbytes)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    d = 16
    res = r.classify_grid(d, *r.default_grid(d, 8), sample_budget=64, seed=2)
    assert sizes and max(sizes) <= r._CHUNK_BYTES
    monkeypatch.undo()
    one = r.classify_grid(d, *r.default_grid(d, 8), sample_budget=64, seed=2, chunk=1)
    assert np.abs(res["pos_min"] - one["pos_min"]).max() <= 1e-12


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
                assert r.region_margin(which, MapParams(d, a, b)) >= -1e-12


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

def test_transposition_violates_schwarz():
    m = transposition_map(2)
    x = m_x = la.basis_matrix(0, 1, 2)
    assert r.schwarz_violation(m, x) == pytest.approx(-1.0, abs=1e-12)
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
        assert r.schwarz_violation(m, x) < -1e-8


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
