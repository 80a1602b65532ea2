import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditmaps import channels as ch
from quditmaps import linalg as la
from quditmaps import verify
from quditmaps.errors import BadWeights, DimensionMismatch, QuditMapsError, UnknownName
from reference import basis_matrix as basis
from reference import dense_family_fit, supermap_from_json, supermap_to_json


def identity_map(d: int) -> ch.SuperMap:
    return ch.SuperMap(d, np.eye(d * d, dtype=complex))


def choi_direct(m: ch.SuperMap) -> np.ndarray:
    """Independent Choi oracle: the block sum C = sum_ij E_ij (x) m(E_ij)."""
    d = m.d
    return np.block([[m(basis(i, j, d)) for j in range(d)] for i in range(d)])


# --- dephase -----------------------------------------------------------------

def test_dephase_unital():
    assert np.array_equal(ch.dephase(np.eye(4)), np.eye(4))


def test_dephase_pinches():
    assert np.array_equal(
        ch.dephase(np.array([[1.0, 5.0], [7.0, 2.0]])), np.diag([1.0, 2.0])
    )


def test_dephase_is_projector():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = la.ginibre(4, rng)
        assert np.array_equal(ch.dephase(ch.dephase(x)), ch.dephase(x))


# --- the family --------------------------------------------------------------

def test_family_identity_and_depolarizing():
    d = 4
    assert np.array_equal(
        ch.build_phi_family(ch.MapParams(d, 0.0, 0.0)).transfer, np.eye(d * d)
    )
    tau0 = ch.build_phi_family(ch.MapParams(d, 1.0, 0.0))
    rho = la.random_hermitian(d, np.random.default_rng(1))
    assert np.allclose(tau0(rho), np.eye(d) * np.trace(rho) / d)


def test_family_point_e4_scales_offdiagonals():
    m = ch.build_phi_family(ch.MapParams(3, 1.0, -1.0 / 3.0))
    assert np.allclose(m(basis(0, 1, 3)), basis(0, 1, 3) / 3.0)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
def test_family_transfer_of_arrays_is_build_phi_family_bit_for_bit(d):
    rng = np.random.default_rng(d)
    alpha = rng.uniform(-1.0, 3.0, (2, 4))
    beta = rng.uniform(-2.0, 2.0, (2, 4))
    beta[0, 0] = 0.0
    stack = ch.family_transfer(d, alpha, beta)
    assert stack.shape == (2, 4, d * d, d * d)
    for a, b, t in zip(alpha.ravel(), beta.ravel(), stack.reshape(8, d * d, d * d)):
        assert np.array_equal(t, ch.build_phi_family(ch.MapParams(d, a, b)).transfer)
    choi = ch.choi_from_transfer(stack, d)
    ptr = ch.partial_trace_output(choi, d)
    assert ptr.shape == (2, 4, d, d)
    assert np.array_equal(ptr[1, 2], ch.partial_trace_output(choi[1, 2], d))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 16), alpha=st.floats(-1.0, 3.0), beta=st.floats(-2.0, 2.0))
def test_family_trace_preserving_unital(d, alpha, beta):
    # the battery's grid stops at d = 6
    passed, detail = verify.check_family_tp_unital(0, 0, points=[(d, alpha, beta)])
    assert passed, detail


# --- named maps --------------------------------------------------------------

def test_named_map_coordinate_table():
    d = 3
    expected = {
        "Reduction": (1.5, 0.0),
        "Pinch2": (1.5, -1.0),
        "PhiCP": (0.0, 1.5),
        "E1": (0.0, 1.0),
        "E2": (0.75, 0.5),
        "E3": (1.5, -0.5),
        "E4": (1.0, -1.0 / 3.0),
    }
    for name, (alpha, beta) in expected.items():
        _, p = ch.named_map(name, d)
        assert (p.alpha, p.beta) == pytest.approx((alpha, beta))


@pytest.mark.parametrize("name", ch.NAMED_MAPS)
@pytest.mark.parametrize("d", [2, 3, 5])
def test_named_map_matches_family_coordinates(name, d):
    m, p = ch.named_map(name, d)
    family = ch.build_phi_family(p)
    assert np.abs(m.transfer - family.transfer).max() <= 1e-12


def test_named_map_e1_is_the_pinching():
    for d in (2, 4):
        m, _ = ch.named_map("E1", d)
        x = la.ginibre(d, np.random.default_rng(2))
        assert np.allclose(m(x), ch.dephase(x))


def test_reduction_action():
    m, _ = ch.named_map("Reduction", 3)
    assert np.allclose(m(np.diag([1.0, 0.0, 0.0])), np.diag([0.0, 0.5, 0.5]))


def test_unknown_name():
    with pytest.raises(UnknownName):
        ch.named_map("Werner", 3)


# --- Choi matrices -----------------------------------------------------------

def test_choi_of_identity():
    d = 3
    m = ch.build_phi_family(ch.MapParams(d, 0.0, 0.0))
    assert np.allclose(m.choi, d * la.maximally_entangled_projector(d))


def test_choi_of_depolarizing_and_pinching_by_direct_sum():
    d = 3
    tau0 = ch.build_phi_family(ch.MapParams(d, 1.0, 0.0))
    assert np.allclose(tau0.choi, choi_direct(tau0))
    assert np.allclose(tau0.choi, np.eye(d * d) / d)
    delta, _ = ch.named_map("E1", d)
    dm = sum(np.kron(basis(k, k, d), basis(k, k, d)) for k in range(d))
    assert np.allclose(delta.choi, dm)


def test_choi_matches_direct_sum_on_random_maps():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        m = ch.SuperMap(d, la.ginibre(d * d, rng))
        assert np.allclose(m.choi, choi_direct(m), atol=1e-12)


# --- adjoints ----------------------------------------------------------------

def test_adjoint_of_identity():
    m = identity_map(3)
    assert np.array_equal(ch.hs_adjoint(m).transfer, m.transfer)


def test_family_is_self_adjoint():
    rng = np.random.default_rng(5)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        m = ch.build_phi_family(
            ch.MapParams(d, float(rng.uniform(-1, 2)), float(rng.uniform(-1, 2)))
        )
        assert np.abs(m.transfer - m.transfer.conj().T).max() <= 1e-12


def test_adjoint_of_left_multiplication():
    d = 3
    a = la.ginibre(d, np.random.default_rng(6))
    left = ch.SuperMap(d, np.kron(np.eye(d), a))  # X -> A X
    assert np.allclose(
        ch.hs_adjoint(left).transfer, np.kron(np.eye(d), a).conj().T
    )


def test_adjoint_defining_identity():
    rng = np.random.default_rng(7)
    d = 4
    m = ch.SuperMap(d, la.ginibre(d * d, rng))
    adj = ch.hs_adjoint(m)
    for _ in range(20):
        x, y = la.ginibre(d, rng), la.ginibre(d, rng)
        lhs = np.trace(adj(x).conj().T @ y)
        rhs = np.trace(x.conj().T @ m(y))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_adjoint_swaps_tp_and_unital():
    d = 3
    m = ch.build_phi_family(ch.MapParams(d, 0.7, -0.2))
    adj = ch.hs_adjoint(m)
    assert adj.is_unital() and adj.is_trace_preserving()


# --- algebra -----------------------------------------------------------------

def test_apply_depolarizes():
    d = 3
    tau0 = ch.build_phi_family(ch.MapParams(d, 1.0, 0.0))
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    out = ch.apply(tau0, ch.QuantumState(d, rho))
    assert np.allclose(out.rho, np.eye(d) / d)
    assert ch.validate_state(out)


def test_compose_pinching_idempotent():
    delta, _ = ch.named_map("E1", 3)
    assert np.allclose(ch.compose(delta, delta).transfer, delta.transfer)


def test_mix_is_affine_in_coordinates():
    d = 3
    mixed = ch.mix([0.5, 0.5], [identity_map(d), ch.named_map("E1", d)[0]])
    target = ch.build_phi_family(ch.MapParams(d, 0.0, 0.5))
    assert np.abs(mixed.transfer - target.transfer).max() <= 1e-12


def test_mix_rejects_bad_weights():
    d = 2
    maps = [identity_map(d), identity_map(d)]
    with pytest.raises(BadWeights):
        ch.mix([0.7, 0.2], maps)
    with pytest.raises(BadWeights):
        ch.mix([1.5, -0.5], maps)


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        ch.compose(identity_map(2), identity_map(3))


def test_family_fit_recovers_coordinates():
    m = ch.build_phi_family(ch.MapParams(4, 0.62, -0.11))
    alpha, beta, resid = ch.family_fit(m)
    assert (alpha, beta) == pytest.approx((0.62, -0.11), abs=1e-12)
    assert resid <= 1e-12


@pytest.mark.parametrize("d", range(2, 17))
def test_family_fit_matches_the_dense_lstsq(d):
    # the fit on the support against lstsq over all d^4 entries: a family
    # map, one composed with a diagonal unitary (complex), the Weyl mixture
    # (off the family at composite d) and a random dense map
    from quditmaps.dynamics import weyl_mixture_map

    rng = np.random.default_rng(d)
    u = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, d)))
    family = ch.build_phi_family(ch.MapParams(d, 0.62, -0.11))
    maps = [family, ch.compose(ch.unitary_conjugation(u), family), weyl_mixture_map(d, 0.4),
            ch.SuperMap(d, rng.standard_normal((d * d, d * d))
                        + 1j * rng.standard_normal((d * d, d * d)))]
    for m in maps:
        tol = 64 * np.finfo(float).eps * d * np.abs(m.transfer).max()
        (alpha, beta, resid), dense = ch.family_fit(m), dense_family_fit(m)
        assert abs(alpha - dense[0]) <= tol and abs(beta - dense[1]) <= tol
        assert abs(resid - dense[2]) <= tol * d  # a sum over d^4 entries


# --- serialization -----------------------------------------------------------

def test_supermap_json_roundtrip():
    m = ch.build_phi_family(ch.MapParams(3, 0.4, -0.2))
    blob = json.dumps(supermap_to_json(m))
    back = supermap_from_json(blob)
    assert back.d == 3
    assert np.array_equal(back.transfer, m.transfer)


def test_state_json_roundtrip():
    rho = np.array([[0.6, 0.1j], [-0.1j, 0.4]], dtype=complex)
    s = ch.QuantumState(2, rho)
    back = ch.state_from_json(json.dumps(ch.state_to_json(s)))
    assert np.array_equal(back.rho, rho)


def test_state_validation_accepts_boundary_pure_state():
    v = np.array([1.0, 0.0], dtype=complex)
    assert ch.validate_state(ch.QuantumState(2, np.outer(v, v.conj())))
    assert not ch.validate_state(ch.QuantumState(2, np.diag([1.2, -0.2])))


# --- the dtype rule: real maps stay real ------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 16])
def test_real_data_gives_float64_maps_and_complex_data_complex128(d):
    parts = ch.family_transfer_parts(d)
    assert parts.dtype == float and parts.shape == (3, d * d, d * d)
    assert not parts.flags.writeable
    maps = [ch.build_phi_family(ch.MapParams(d, 0.4, -0.1))]
    maps += [ch.named_map(name, d)[0] for name in ch.NAMED_MAPS]
    maps.append(ch.compose(maps[0], maps[1]))
    maps.append(ch.mix([0.3, 0.7], maps[:2]))
    maps.append(ch.hs_adjoint(maps[1]))
    rng = np.random.default_rng(11)
    x = la.ginibre(d, rng, n=3)
    for m in maps:
        assert m.transfer.dtype == float
        assert m.choi.dtype == float
        assert la.partial_transpose(m.choi, d).dtype == float
        assert ch.partial_trace_output(m.choi, d).dtype == float
        assert m.is_unital() and m.is_trace_preserving()
        # SuperMap.__call__ keeps its product: a real map gives what its complex
        # copy gives (numpy casts the transfer to a C-ordered complex buffer)
        cplx = ch.SuperMap(d, np.ascontiguousarray(m.transfer, dtype=complex))
        assert np.array_equal(m(x), cplx(x))
    assert ch.family_transfer(d, [0.1, 0.2], [0.3, -0.1]).dtype == float

    u = np.linalg.qr(la.ginibre(d, rng))[0]
    conj = ch.unitary_conjugation(u)
    user = ch.SuperMap(d, la.ginibre(d * d, rng).astype(np.complex64))
    mixed = ch.compose(conj, ch.build_phi_family(ch.MapParams(d, 0.4, -0.1)))
    for m in (conj, user, mixed):
        assert m.transfer.dtype == complex and m.choi.dtype == complex
        assert la.partial_transpose(m.choi, d).dtype == complex


def test_integer_input_becomes_float64_and_float64_input_is_frozen_in_place():
    d = 2
    m = ch.SuperMap(d, np.eye(d * d, dtype=int))
    assert m.transfer.dtype == float and np.array_equal(m.transfer, np.eye(d * d))
    assert ch.SuperMap(d, np.eye(d * d, dtype=np.float32)).transfer.dtype == float
    assert ch.SuperMap(d, np.eye(d * d).tolist()).transfer.dtype == float
    assert ch.choi_from_transfer(np.eye(d * d, dtype=int), d).dtype == float
    t = np.eye(d * d)
    kept = ch.SuperMap(d, t)
    assert kept.transfer is t and not t.flags.writeable
    z = np.eye(d * d, dtype=complex)
    assert ch.SuperMap(d, z).transfer is z


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_state_with_a_non_finite_entry_is_rejected(value):
    obj = {"d": 2, "rho": [[value, 0], [0, 0], [0, 0], [0.5, 0]]}
    with pytest.raises(QuditMapsError, match="finite"):
        ch.state_from_json(obj)
    with pytest.raises(QuditMapsError, match="finite"):
        ch.state_from_json(json.dumps(obj))  # json writes NaN and Infinity, and reads them


def test_map_params_reject_coordinates_whose_map_overflows():
    for alpha, beta in [(-1e308, -1e308), (1e308, 1e308), (1.7e308, 0.0), (0.0, 1.7e308),
                        (-5e307, 0.0)]:
        with pytest.raises(DimensionMismatch, match="must be finite"):
            ch.MapParams(3, alpha, beta)
    p = ch.MapParams(16, 1e300, -1e300)  # large, but the map's entries stay finite
    assert (p.alpha, p.beta) == (1e300, -1e300)
