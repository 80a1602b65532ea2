import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditmaps import channels as ch
from quditmaps import linalg as la
from quditmaps import verify
from quditmaps.errors import DimensionMismatch, NonHermitianInput


def basis(i, j, d):
    return la.basis_matrix(i, j, d)


def swap_matrix(d):
    """The d^2 x d^2 operator exchanging the two tensor factors."""
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


# np.kron fixes the bipartite block convention the module docstring states

def test_kron_identity():
    assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_basis_bookkeeping():
    k = np.kron(basis(0, 0, 2), basis(1, 1, 2))
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    assert np.array_equal(k, expected)


def test_kron_diagonal_product():
    z = np.diag([1.0, -1.0])
    assert np.array_equal(np.kron(z, z), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_eig_hermitian_diagonal():
    w, _ = la.eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])


def test_eig_hermitian_symmetric():
    w, v = la.eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(a @ v, v @ np.diag(w))


def test_eig_hermitian_witness_block():
    # 2x2 block [[b, -2dc], [-2dc, b]] with d=3, a=1.8, c=3/1.4; the smallest
    # eigenvalue has the closed form d + 2 - d^2/(d + 2 - 2a)
    d, a = 3, 1.8
    c = d / (d + 2 - 2 * a)
    b = d + 2 + (d + 2 - 2 * a) * c**2
    block = np.array([[b, -2 * d * c], [-2 * d * c, b]])
    w, _ = la.eig_hermitian(block)
    assert w[0] == pytest.approx(d + 2 - d**2 / (d + 2 - 2 * a), abs=1e-12)
    assert w[0] == pytest.approx(-1.4285714285714286, abs=1e-10)


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        la.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_is_psd_examples():
    assert la.is_psd(np.eye(4), tol=1e-10)
    assert not la.is_psd(np.diag([1.0, -1e-3]), tol=1e-10)


def test_min_eig_requires_hermitian():
    with pytest.raises(NonHermitianInput):
        la.min_eig(la.ginibre(3, np.random.default_rng(0)))


def test_partial_transpose_identity():
    eye = np.eye(9, dtype=complex)
    assert np.array_equal(la.partial_transpose(eye, 3, 2), eye)


def test_partial_transpose_maximally_entangled_gives_swap():
    # PT(d P+) is the swap operator: direct 4x4 computation for d=2
    d = 2
    pt = la.partial_transpose(d * la.maximally_entangled_projector(d), d, 2)
    assert np.allclose(pt, swap_matrix(d))
    assert np.allclose(np.linalg.eigvalsh(pt), [-1.0, 1.0, 1.0, 1.0])


def test_partial_transpose_fixes_diagonal_correlations():
    d = 3
    dm = sum(np.kron(basis(k, k, d), basis(k, k, d)) for k in range(d))
    assert np.array_equal(la.partial_transpose(dm, d, 2), dm)


def test_partial_transpose_dimension_check():
    with pytest.raises(DimensionMismatch):
        la.partial_transpose(np.eye(8), 3, 2)


def test_partial_transpose_involution_and_dagger():
    # the battery transposes subsystem 2 only
    passed, detail = verify.check_partial_transpose_involution(7, 0, subsystems=(1, 2))
    assert passed, detail


def test_partial_transpose_preserves_trace():
    rng = np.random.default_rng(3)
    m = la.ginibre(9, rng)
    assert np.trace(la.partial_transpose(m, 3, 2)) == pytest.approx(np.trace(m))


def test_vec_convention_witness():
    # vec(E_12) for d=2 has its 1 in slot col*d + row = 2 (0-indexed)
    v = la.vec(basis(0, 1, 2))
    expected = np.zeros(4, dtype=complex)
    expected[2] = 1.0
    assert np.array_equal(v, expected)


def test_maximally_entangled_projector():
    p3 = la.maximally_entangled_projector(3)
    assert np.trace(p3) == pytest.approx(1.0)
    assert np.linalg.matrix_rank(p3) == 1
    p2 = la.maximally_entangled_projector(2)
    nz = p2[np.abs(p2) > 0]
    assert nz.size == 4 and np.allclose(nz, 0.5)


def test_eigh_reconstruction_property():
    # the battery stops at d = 8
    passed, detail = verify.check_eigh_reconstruction(5, 0, dims=range(2, 17))
    assert passed, detail


def test_dimension_cap():
    with pytest.raises(DimensionMismatch):
        la.check_dimension(17)
    with pytest.raises(DimensionMismatch):
        la.check_dimension(1)


def test_haar_pairs_are_orthonormal():
    rng = np.random.default_rng(13)
    xs, ys = la.haar_orthonormal_pair(5, rng, n=200)
    assert np.allclose(np.linalg.norm(xs, axis=1), 1.0)
    assert np.allclose(np.linalg.norm(ys, axis=1), 1.0)
    assert np.abs(np.einsum("ni,ni->n", xs.conj(), ys)).max() < 1e-12


def test_match_multisets_is_exact():
    # greedy nearest-neighbour pairing takes 0.5 -> 0.6 and strands 1.0 at 0.9
    assert la.match_multisets([0.5, 1.0], [0.1, 0.6], tol=0.45)
    assert not la.match_multisets([0.5, 1.0], [0.1, 0.6], tol=0.39)
    assert not la.match_multisets([0.5, 1.0], [0.5], tol=1.0)


# --- index conventions on batches ---------------------------------------------

BATCH_SHAPES = st.lists(st.integers(1, 3), max_size=2).map(tuple)
CONVENTION_CASES = dict(d=st.integers(2, 16), batch=BATCH_SHAPES,
                        seed=st.integers(0, 2**32 - 1))


def _ginibre(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _stacked(fn, x, core_ndim):
    """fn applied to each core block of x, one call each, in x's batch shape."""
    lead = x.shape[:x.ndim - core_ndim]
    out = np.stack([fn(a) for a in x.reshape(-1, *x.shape[len(lead):])])
    return out.reshape(*lead, *out.shape[1:])


@settings(max_examples=40, deadline=None)
@given(**CONVENTION_CASES)
def test_vec_unvec_batched(d, batch, seed):
    x = _ginibre(seed, batch + (d, d))
    v = la.vec(x)
    assert v.shape == batch + (d * d,)
    assert np.array_equal(v, _stacked(la.vec, x, 2))
    assert np.array_equal(la.unvec(v, d), _stacked(lambda w: la.unvec(w, d), v, 1))
    assert np.array_equal(la.unvec(v, d), x)


@settings(max_examples=25, deadline=None)
@given(sub=st.sampled_from((1, 2)), **CONVENTION_CASES)
def test_partial_transpose_batched(d, batch, seed, sub):
    m = _ginibre(seed, batch + (d * d, d * d))
    pt = la.partial_transpose(m, d, sub)
    assert np.array_equal(pt, _stacked(lambda a: la.partial_transpose(a, d, sub), m, 2))
    assert np.array_equal(la.partial_transpose(pt, d, sub), m)


@settings(max_examples=25, deadline=None)
@given(**CONVENTION_CASES)
def test_choi_reshuffle_batched(d, batch, seed):
    t = _ginibre(seed, batch + (d * d, d * d))
    c = ch.choi_from_transfer(t, d)
    assert np.array_equal(c, _stacked(lambda a: ch.choi_from_transfer(a, d), t, 2))
    assert np.array_equal(ch.choi_from_transfer(c, d), t)


@settings(max_examples=25, deadline=None)
@given(**CONVENTION_CASES)
def test_supermap_call_batched(d, batch, seed):
    m = ch.SuperMap(d, _ginibre(seed, (d * d, d * d)))
    x = _ginibre(seed + 1, batch + (d, d))
    assert np.array_equal(m(x), _stacked(m, x, 2))


def test_batched_conventions_check_dimensions():
    with pytest.raises(DimensionMismatch):
        la.vec(np.zeros((2, 3, 4)))
    with pytest.raises(DimensionMismatch):
        la.unvec(np.zeros((2, 8)), 3)
    with pytest.raises(DimensionMismatch):
        la.partial_transpose(np.zeros((2, 9, 9)), 2)
    with pytest.raises(DimensionMismatch):
        ch.choi_from_transfer(np.zeros((2, 9, 9)), 2)
    with pytest.raises(DimensionMismatch):
        ch.SuperMap(2, np.eye(4))(np.zeros((2, 3, 3)))


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=6),
       n_parts=st.integers(1, 3), n_rows=st.integers(1, 4), real=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_min_eig_affine_matches_dense(sizes, n_parts, n_rows, real, seed):
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    parts = np.zeros((n_parts, n, n), dtype=complex)
    start = 0
    for size in sizes:
        block = la.random_hermitian(size, rng, n=n_parts)
        parts[:, start:start + size, start:start + size] = block.real if real else block
        start += size
    perm = rng.permutation(n)
    parts = parts[:, perm][:, :, perm]  # hide the blocks behind a permutation
    coef = rng.standard_normal((n_rows, n_parts))
    dense = np.linalg.eigvalsh(np.tensordot(coef, parts, axes=1))[:, 0]
    assert np.abs(la.min_eig_affine(parts, coef) - dense).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 12), min_size=1, max_size=5),
       zeros=st.integers(0, 4), n_parts=st.integers(1, 3), n_rows=st.integers(1, 4),
       real=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_min_eig_affine_on_path_blocks_and_zero_rows(sizes, zeros, n_parts, n_rows,
                                                     real, seed):
    # tridiagonal blocks are connected but sparse, so labelling them takes
    # several rounds; the last ``zeros`` rows and columns stay all zero, as in
    # the identity map's Choi matrix
    rng = np.random.default_rng(seed)
    n = sum(sizes) + zeros
    parts = np.zeros((n_parts, n, n), dtype=complex)
    start = 0
    for size in sizes:
        i = np.arange(start, start + size)
        off = rng.standard_normal((n_parts, size - 1))
        if not real:
            off = off + 1j * rng.standard_normal((n_parts, size - 1))
        parts[:, i, i] = rng.standard_normal((n_parts, size))
        parts[:, i[:-1], i[1:]] = off
        parts[:, i[1:], i[:-1]] = off.conj()
        start += size
    perm = rng.permutation(n)
    parts = parts[:, perm][:, :, perm]  # hide the blocks behind a permutation
    coef = rng.standard_normal((n_rows, n_parts))
    dense = np.linalg.eigvalsh(np.tensordot(coef, parts, axes=1))[:, 0]
    assert np.abs(la.min_eig_affine(parts, coef) - dense).max() <= 1e-12


def test_linalg_import_loads_no_csgraph():
    code = "import sys, quditmaps.linalg; print('scipy.sparse.csgraph' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(la.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "False"
