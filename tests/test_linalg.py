import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space as scipy_null_space
from scipy.optimize import linear_sum_assignment

from quditmaps import channels as ch
from quditmaps import linalg as la
from quditmaps import verify
from quditmaps.errors import DimensionMismatch, NonHermitianInput
from reference import basis_matrix as basis


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


def test_eig_hermitian_of_a_stack_checks_every_member():
    rng = np.random.default_rng(4)
    a = la.random_hermitian(4, rng, n=6).reshape(2, 3, 4, 4)
    w, v = la.eig_hermitian(a)
    assert w.shape == (2, 3, 4) and v.shape == (2, 3, 4, 4)
    w1, v1 = la.eig_hermitian(a[1, 2])
    assert np.array_equal(w[1, 2], w1) and np.array_equal(v[1, 2], v1)
    a[1, 1, 0, 3] += 1e-6
    with pytest.raises(NonHermitianInput):
        la.eig_hermitian(a)
    with pytest.raises(DimensionMismatch):
        la.eig_hermitian(np.zeros((2, 3, 4)))


def test_is_psd_examples():
    assert la.is_psd(np.eye(4), tol=1e-10)
    assert not la.is_psd(np.diag([1.0, -1e-3]), tol=1e-10)


def test_is_psd_default_tolerance_is_relative_to_the_norm():
    # tol=None allows a lowest eigenvalue down to -PSD_TOL * (1 + ||A||_F)
    big = np.diag([1e6, -5e-4])  # allowance about 1e-3
    assert la.is_psd(big)
    assert not la.is_psd(big, tol=1e-10)
    assert not la.is_psd(np.diag([1e6, -2e-3]))
    assert la.is_psd(np.diag([1.0, -1e-9]))  # allowance about 2e-9
    assert not la.is_psd(np.diag([1.0, -1e-8]))
    for lowest in (-0.99, -1.01):  # around the allowance of a norm-1e9 matrix
        allowance = la.PSD_TOL * (1.0 + np.hypot(1e9, lowest))
        assert la.is_psd(np.diag([1e9, lowest])) == (lowest >= -allowance)


def test_is_psd_checks_hermiticity_once(monkeypatch):
    calls = []
    original = la._hermiticity_failures

    def counting(m, tol):
        calls.append(m.shape)
        return original(m, tol)

    monkeypatch.setattr(la, "_hermiticity_failures", counting)
    assert la.is_psd(np.eye(3))
    assert calls == [(3, 3)]
    with pytest.raises(NonHermitianInput):
        la.is_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))


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


def qr_haar_pair(d, rng, n):
    """Haar pairs as the Q factor of a Gaussian d x 2 matrix, phases fixed by R's diagonal."""
    g = rng.standard_normal((n, d, 2)) + 1j * rng.standard_normal((n, d, 2))
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (ph / np.abs(ph))[..., None, :].conj()
    return q[..., 0], q[..., 1]


@pytest.mark.parametrize("d", range(2, 17))
def test_haar_pairs_match_the_phase_fixed_qr(d):
    xs, ys = la.haar_orthonormal_pair(d, np.random.default_rng(500 + d), n=2000)
    ref_x, ref_y = qr_haar_pair(d, np.random.default_rng(500 + d), 2000)
    assert np.abs(xs - ref_x).max() <= 1e-13
    assert np.abs(ys - ref_y).max() <= 1e-13
    # one unbatched pair draws the normals of a batch of one
    x, y = la.haar_orthonormal_pair(d, np.random.default_rng(d))
    ref_x, ref_y = qr_haar_pair(d, np.random.default_rng(d), 1)
    assert x.shape == y.shape == (d,)
    assert np.abs(x - ref_x[0]).max() <= 1e-13 and np.abs(y - ref_y[0]).max() <= 1e-13


class NearParallelNormals:
    """Hands out Gaussian (n, d, 2) draws whose second column is the first plus 1e-8 noise."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def standard_normal(self, shape):
        g = self.rng.standard_normal(shape)
        g[..., 1] = g[..., 0] + 1e-8 * self.rng.standard_normal(shape[:-1])
        return g


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
def test_haar_pairs_stay_orthonormal_for_near_parallel_draws(d):
    xs, ys = la.haar_orthonormal_pair(d, NearParallelNormals(d), n=500)
    assert np.abs(np.linalg.norm(xs, axis=1) - 1.0).max() <= 1e-14
    assert np.abs(np.linalg.norm(ys, axis=1) - 1.0).max() <= 1e-14
    assert np.abs(np.einsum("ni,ni->n", xs.conj(), ys)).max() <= 1e-14


def test_match_multisets_is_exact():
    # greedy nearest-neighbour pairing takes 0.5 -> 0.6 and strands 1.0 at 0.9
    assert la.match_multisets([0.5, 1.0], [0.1, 0.6], tol=0.45)
    assert not la.match_multisets([0.5, 1.0], [0.1, 0.6], tol=0.39)
    assert not la.match_multisets([0.5, 1.0], [0.5], tol=1.0)


def assignment_match(xs, ys, tol):
    """The matching test by scipy's assignment on the same 0/1 cost."""
    if len(xs) != len(ys):
        return False
    cost = (np.abs(np.subtract.outer(xs, ys)) > tol).astype(float)
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].sum() == 0.0


# points on a coarse lattice, so many distances tie with each other and with tol
LATTICE = st.builds(complex, st.integers(-3, 3), st.integers(-2, 2))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 36),
       tol=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
       kind=st.sampled_from(["shifted", "drawn", "shorter"]))
def test_match_multisets_agrees_with_the_assignment(data, n, tol, kind):
    # "shifted": b permutes a, moves entries by lattice steps (a perfect
    # matching for a large enough tol, with ties) and up to two entries 10
    # away (then none exists); "drawn": b is drawn on its own; "shorter":
    # b has one entry fewer
    xs = data.draw(st.lists(LATTICE, min_size=n, max_size=n))
    if kind == "shifted":
        perm = data.draw(st.permutations(range(n)))
        steps = data.draw(st.lists(st.sampled_from([0, 1, -1j, 1 + 1j]),
                                   min_size=n, max_size=n))
        far = data.draw(st.sets(st.integers(0, 35), max_size=2))
        ys = [xs[p] + step + 10 * (i in far) for i, (p, step) in enumerate(zip(perm, steps))]
    else:
        size = n if kind == "drawn" else max(n - 1, 0)
        ys = data.draw(st.lists(LATTICE, min_size=size, max_size=size))
    got = la.match_multisets(xs, ys, tol)
    assert got == assignment_match(np.asarray(xs, complex), np.asarray(ys, complex), tol)
    assert got == la.match_multisets(ys, xs, tol)


# --- null_space ----------------------------------------------------------------

@pytest.mark.parametrize("d", range(2, 17))
def test_null_space_of_the_omega_row_is_scipys_bit_for_bit(d):
    # the row generators._omega_complement passes; the same memory layout as
    # well, since a product with the basis rounds by the layout it is read in
    omega = la.maximally_entangled_vector(d).real
    row = omega[np.flatnonzero(omega)][None, :]
    ours, theirs = la.null_space(row), scipy_null_space(row)
    assert np.array_equal(ours, theirs)
    assert ours.strides == theirs.strides


@pytest.mark.parametrize("factor, nullity", [(0.5, 1), (1.0, 1), (1.5, 0)])
def test_null_space_cuts_at_the_larger_side_times_eps(factor, nullity):
    # 3 x 2 with singular values 1 and factor * 3 eps: the cut is 3 eps,
    # a value on it counts as zero
    a = np.zeros((3, 2))
    a[0, 0], a[1, 1] = 1.0, factor * 3 * np.finfo(float).eps
    assert la.null_space(a).shape == (2, nullity)
    assert scipy_null_space(a).shape == (2, nullity)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 6), n=st.integers(1, 6), rank=st.integers(0, 6),
       scale=st.sampled_from((1e-8, 1.0, 1e8)), seed=st.integers(0, 2**32 - 1))
def test_null_space_of_a_random_rank_deficient_matrix(m, n, rank, scale, seed):
    # A = U diag(s) V^dagger with orthonormal U, V and s in [1, 10]: rounding
    # leaves its zero singular values below the cut (at most 0.71 of it over
    # 30 000 such draws)
    rank = min(rank, m, n)
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(_ginibre(rng.integers(2**32), (m, m)))[0][:, :rank]
    v = np.linalg.qr(_ginibre(rng.integers(2**32), (n, n)))[0][:, :rank]
    a = scale * (u * rng.uniform(1.0, 10.0, rank)) @ v.conj().T
    basis = la.null_space(a)
    assert basis.shape == (n, n - rank)
    assert np.abs(basis.conj().T @ basis - np.eye(n - rank)).max(initial=0.0) <= 1e-12
    assert np.linalg.norm(a @ basis) <= 1e-12 * np.linalg.norm(a)
    theirs = scipy_null_space(a)
    assert np.abs(basis @ basis.conj().T - theirs @ theirs.conj().T).max() <= 1e-12


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


# stacks of Hermitian parts with dense blocks of the ``sizes`` and, for each of
# ``twos``, a nearly degenerate 2 x 2 block, hidden behind a permutation
HIDDEN_BLOCK_STACKS = dict(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=6),
    twos=st.lists(st.tuples(st.floats(-3.0, 3.0),
                            st.sampled_from([0.0, 1e-15, 1e-12, 1e-9]),
                            st.sampled_from([0.0, 1e-15, 1e-12, 1e-9]),
                            st.sampled_from([1e-8, 1.0, 1e8])), max_size=3),
    n_parts=st.integers(1, 3), n_rows=st.integers(1, 4), real=st.booleans(),
    seed=st.integers(0, 2**32 - 1))


def hidden_block_stack(sizes, twos, n_parts, real, rng):
    """(parts, added): the (n_parts, n, n) stack and its 2 x 2 blocks.

    ``twos`` adds 2 x 2 blocks [[p, conj(c)], [c, q]] that are nearly
    degenerate in every part, |q - p| and |c| at most ``gap`` and ``mag``
    (1e-9), then scaled by up to 1e8.
    """
    n = sum(sizes) + 2 * len(twos)
    parts = np.zeros((n_parts, n, n), dtype=complex)
    start = 0
    for size in sizes:
        block = la.random_hermitian(size, rng, n=n_parts)
        parts[:, start:start + size, start:start + size] = block.real if real else block
        start += size
    added = []
    for diag, gap, mag, scale in twos:
        block = np.zeros((n_parts, 2, 2), dtype=complex)
        block[:, 0, 0] = diag * rng.uniform(0.5, 1.5, n_parts)
        block[:, 1, 1] = block[:, 0, 0].real + gap * rng.uniform(-1.0, 1.0, n_parts)
        off = mag * rng.uniform(-1.0, 1.0, n_parts)
        block[:, 1, 0] = off if real else off * np.exp(2j * np.pi * rng.random(n_parts))
        block[:, 0, 1] = block[:, 1, 0].conj()
        block *= scale
        parts[:, start:start + 2, start:start + 2] = block
        added.append(block)
        start += 2
    perm = rng.permutation(n)
    return parts[:, perm][:, :, perm], added  # the blocks hidden behind a permutation


@settings(max_examples=60, deadline=None)
@given(**HIDDEN_BLOCK_STACKS)
@example(sizes=[2], twos=[(-3.0, 1e-12, 1e-9, 1e8), (-2.9, 0.0, 1e-15, 1e8)], n_parts=2,
         n_rows=3, real=False, seed=1)
@example(sizes=[3], twos=[(-3.0, 1e-9, 1e-9, 1.0), (2.0, 1e-15, 0.0, 1e-8)], n_parts=3,
         n_rows=2, real=True, seed=2)
def test_min_eig_affine_matches_dense(sizes, twos, n_parts, n_rows, real, seed):
    # the tolerance is relative to the norm of a 2 x 2 block where that
    # exceeds 1, since eigvalsh's own error grows with it
    rng = np.random.default_rng(seed)
    parts, added = hidden_block_stack(sizes, twos, n_parts, real, rng)
    coef = rng.standard_normal((n_rows, n_parts))
    norm = max([1.0] + [np.linalg.norm(np.tensordot(coef, block, axes=1), ord=2,
                                       axis=(1, 2)).max() for block in added])
    dense = np.linalg.eigvalsh(np.tensordot(coef, parts, axes=1))[:, 0]
    assert np.abs(la.min_eig_affine(parts, coef) - dense).max() <= 1e-12 * norm


@settings(max_examples=60, deadline=None)
@given(**HIDDEN_BLOCK_STACKS, batch=st.integers(0, 3))
def test_one_decomposition_serves_every_coefficient_array(sizes, twos, n_parts, n_rows,
                                                          real, seed, batch):
    # a (K, n, n) stack, or a (K, B, n, n) stack of B copies under different
    # permutations; one ``affine_blocks`` reused for two coefficient arrays
    # gives ``min_eig_affine``'s minima bit for bit, and cannot be written
    rng = np.random.default_rng(seed)
    parts, _ = hidden_block_stack(sizes, twos, n_parts, real, rng)
    if batch:
        perms = [rng.permutation(parts.shape[-1]) for _ in range(batch)]
        parts = np.stack([parts[:, p][:, :, p] for p in perms], axis=1)
    blocks = la.affine_blocks(parts)
    assert [size for size, _ in blocks] == sorted({size for size, _ in blocks})
    assert not any(gathered.flags.writeable for _, gathered in blocks)
    for coef in (rng.standard_normal((n_rows, n_parts)), rng.standard_normal((3, n_parts))):
        assert np.array_equal(la.min_eig_blocks(blocks, coef), la.min_eig_affine(parts, coef))


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


@settings(max_examples=80, deadline=None)
@given(blocks=st.lists(st.tuples(st.integers(1, 7), st.sampled_from(["dense", "upper", "zero row"])),
                       min_size=1, max_size=8),
       zeros=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_pattern_components_are_the_hidden_blocks(blocks, zeros, seed):
    # random complex, non-Hermitian blocks: dense, upper triangular (a
    # one-way pattern), or dense with one row zeroed (still joined through
    # its column); ``zeros`` all-zero rows and columns are 1 x 1 components;
    # a random permutation hides them all
    rng = np.random.default_rng(seed)
    n = sum(size for size, _ in blocks) + zeros
    mat = np.zeros((n, n), dtype=complex)
    truth, start = [], 0
    for size, kind in blocks:
        block = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        if kind == "upper":
            block = np.triu(block)
        elif kind == "zero row" and size > 1:
            block[rng.integers(size)] = 0.0
        mat[start:start + size, start:start + size] = block
        truth.append(list(range(start, start + size)))
        start += size
    truth += [[i] for i in range(start, n)]
    perm = rng.permutation(n)  # new index k holds old index perm[k]
    mat = mat[perm][:, perm]
    where = np.argsort(perm)
    expected = {}
    for comp in sorted((sorted(where[comp].tolist()) for comp in truth), key=lambda c: c[0]):
        expected.setdefault(len(comp), []).append(comp)
    got = la.pattern_components(mat != 0)
    assert [size for size, _ in got] == sorted(expected)
    for size, idx in got:
        assert idx.tolist() == expected[size] and not idx.flags.writeable
    rows, cols = np.nonzero(mat)
    assert [(s, i.tolist()) for s, i in la.components(rows, cols, n)] == \
        [(s, i.tolist()) for s, i in got]


@pytest.fixture
def solver_shapes(monkeypatch):
    """Shapes of the arrays passed to ``eigvalsh`` and to the two factorisations,
    by LAPACK (``lapack``) and over components (``components``)."""
    shapes = {"lapack": [], "eigvalsh": [], "components": []}
    owners = {"lapack": (la, "_lapack_passes"), "eigvalsh": (np.linalg, "eigvalsh"),
              "components": (la, "_cholesky_passes")}
    for name, recorded in shapes.items():
        owner, attr = owners[name]
        solve = getattr(owner, attr)

        def recording(a, *args, _solve=solve, _recorded=recorded, **kwargs):
            _recorded.append(np.shape(a))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(owner, attr, recording)
    return shapes


def on_component_path(n, stack):
    return n <= la._COMPONENT_ORDER and stack >= la._COMPONENT_STACK


def random_stack(rng, groups, samples, n, real=False):
    mats = la.random_hermitian(n, rng, n=groups * samples)
    return np.ascontiguousarray(mats.real if real else mats).reshape(groups, samples, n, n)


@pytest.mark.parametrize("n, real", [(3, False), (5, True), (8, True), (16, False)])
def test_min_eig_capped_certifies_a_cap_below_every_eigenvalue(n, real, solver_shapes):
    # 3 x 100 matrices stay below the size crossover, 3 x 700 exceed it: at
    # n <= 5 the two stacks take the two paths of the certificate
    rng = np.random.default_rng(n)
    for samples in (100, 700):
        mats = random_stack(rng, 3, samples, n, real)
        lowest = np.linalg.eigvalsh(mats)[..., 0].min(axis=1)
        for recorded in solver_shapes.values():
            recorded.clear()
        cap = lowest - 1e-3
        assert np.array_equal(la.min_eig_capped(mats, cap), cap)
        assert not solver_shapes["eigvalsh"]
        path, other = ("components", "lapack") if on_component_path(n, 3 * samples) \
            else ("lapack", "components")
        assert solver_shapes[path] and not solver_shapes[other]


@pytest.mark.parametrize("n", [2, 5, 16])
def test_min_eig_capped_solves_the_one_matrix_below_the_cap(n, solver_shapes):
    rng = np.random.default_rng(n)
    mats = random_stack(rng, 1, 3000, n)
    lowest = np.linalg.eigvalsh(mats[0])[:, 0]
    # move one matrix's spectrum to 1 below the stack's minimum
    low = mats[0, 1234] - (lowest[1234] - lowest.min() + 1.0) * np.eye(n)
    mats[0, 1234] = low
    expected = np.linalg.eigvalsh(low)[0]
    solver_shapes["eigvalsh"].clear()
    assert la.min_eig_capped(mats, [lowest.min() - 0.5])[0] == expected
    assert [shape[:-2] for shape in solver_shapes["eigvalsh"]] == [(1,)]


def test_min_eig_capped_bounds_the_batches_it_passes(solver_shapes):
    # 6000 samples at n = 16, every one below its cap: six LAPACK blocks of
    # 1000 fail whole, and one eigvalsh call solves exactly those 6000
    rng = np.random.default_rng(5)
    mats = random_stack(rng, 4, 1500, 16)
    dense = np.linalg.eigvalsh(mats)[..., 0].min(axis=1)
    solver_shapes["eigvalsh"].clear()
    got = la.min_eig_capped(mats, np.full(4, np.inf))
    assert np.array_equal(got, dense)
    counts = {name: [int(np.prod(shape[:-2])) for shape in shapes]
              for name, shapes in solver_shapes.items()}
    assert counts["lapack"] == [1000] * 6  # at most _LAPACK_BLOCK: 4 MB at n = 16
    assert la._LAPACK_BLOCK == 1024 and not counts["components"]
    assert counts["eigvalsh"] == [mats.shape[0] * mats.shape[1]]


def assert_capped_is_plain(mats, cap):
    """``min_eig_capped`` gives ``min(cap, plain eigvalsh minimum)`` per group, or
    raises where that solve raises, and leaves ``mats`` as it was, bit for bit."""
    before = mats.copy()
    try:
        expected = np.minimum(cap, np.linalg.eigvalsh(mats)[..., 0].min(axis=1))
    except np.linalg.LinAlgError:  # eigvalsh may not converge on a NaN entry
        with pytest.raises(np.linalg.LinAlgError):
            la.min_eig_capped(mats, cap)
    else:
        assert np.array_equal(la.min_eig_capped(mats, cap), expected, equal_nan=True)
    assert mats.tobytes() == before.tobytes()


@settings(max_examples=60, deadline=None)
@given(groups=st.integers(1, 4), samples=st.integers(1, 2500), n=st.integers(1, 6),
       real=st.booleans(), seed=st.integers(0, 2**32 - 1),
       offsets=st.lists(st.sampled_from([-1.0, -1e-9, 0.0, 1e-15, 1e-9, 1.0]),
                        min_size=4, max_size=4),
       nan=st.sampled_from([None, "diagonal", "below"]))
@example(groups=4, samples=2500, n=5, real=False, seed=3, offsets=[0.0, 1e-15, -1e-9, 1e-9],
         nan=None)
@example(groups=1, samples=1024, n=3, real=True, seed=4, offsets=[0.0, 0.0, 0.0, 0.0], nan=None)
@example(groups=2, samples=700, n=3, real=False, seed=5, offsets=[1.0, 1.0, 1.0, 1.0],
         nan="below")
@example(groups=2, samples=300, n=3, real=True, seed=6, offsets=[1.0, 1.0, 1.0, 1.0],
         nan="below")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_min_eig_capped_equals_a_plain_solve(groups, samples, n, real, seed, offsets, nan):
    # caps from far below to far above each group's minimum, and exactly at it;
    # stacks of up to 10 000 matrices reach the path over components (at
    # n <= 5 from 1024 matrices on) and split into several of its blocks.  A
    # NaN entry on one matrix's diagonal makes the rounding margin NaN, one
    # below it only that matrix's later pivots: either way the NaN matrix is
    # solved, on both paths
    rng = np.random.default_rng(seed)
    mats = random_stack(rng, groups, samples, n, real)
    cap = np.linalg.eigvalsh(mats)[..., 0].min(axis=1) + np.array(offsets[:groups])
    if nan is not None:
        g, k, i = rng.integers(groups), rng.integers(samples), rng.integers(n)
        j = rng.integers(i) if nan == "below" and i > 0 else i
        mats[g, k, i, j] = mats[g, k, j, i] = np.nan
    assert_capped_is_plain(mats, cap)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("tiles", [1, 600])  # 2 or 1200 matrices: LAPACK or components
@pytest.mark.parametrize("entry", [(2, 2), (1, 0), (2, 0)])
def test_min_eig_capped_solves_a_matrix_with_a_nan(tiles, entry, solver_shapes):
    # LAPACK returns a factor for eye(3) with a NaN at (2, 2) instead of
    # failing; the certificate must not pass it, on either path
    bad = np.eye(3)
    bad[entry] = bad[entry[::-1]] = np.nan
    mats = np.ascontiguousarray(np.tile([np.eye(3), bad], (tiles, 1, 1))[None])
    assert_capped_is_plain(mats, np.array([0.5]))
    assert solver_shapes["components" if on_component_path(3, 2 * tiles) else "lapack"]


@pytest.mark.parametrize("n, samples", [(3, 300), (3, 1200), (8, 1200)])
def test_min_eig_capped_leaves_its_input_unchanged(n, samples, solver_shapes):
    # caps below every eigenvalue (all pass), at the median of the minima and
    # above every eigenvalue (all fail), on both paths of the certificate
    rng = np.random.default_rng(samples + n)
    mats = random_stack(rng, 2, samples // 2, n)
    lowest = np.linalg.eigvalsh(mats)[..., 0]
    for cap in (lowest.min(axis=1) - 1, np.median(lowest, axis=1), np.full(2, np.inf)):
        assert_capped_is_plain(mats, cap)
    assert solver_shapes["components" if on_component_path(n, samples) else "lapack"]


def test_lapack_passes_restores_the_diagonals_when_the_factorisation_raises(monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    rng = np.random.default_rng(9)
    mats = la.random_hermitian(4, rng, n=10)
    before = mats.copy()
    monkeypatch.setattr(la, "_cholesky_lo", interrupted)
    with pytest.raises(KeyboardInterrupt):
        la._lapack_passes(mats, np.ones(10))
    assert mats.tobytes() == before.tobytes()


def factors(m) -> bool:
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 16), batch=st.integers(1, 40), real=st.booleans(),
       rotate=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=3, batch=8, real=False, rotate=False, seed=0)
@example(n=5, batch=8, real=True, rotate=True, seed=1)
def test_lapack_passes_is_a_cholesky_per_matrix(n, batch, real, rotate, seed):
    # spectra in {-1, 0, 1, 2} and shifts in {-0.5, 0, 0.5}: indefinite,
    # singular (exactly so when not rotated) and definite matrices
    rng = np.random.default_rng(seed)
    spectra = rng.choice([-1.0, 0.0, 1.0, 2.0], size=(batch, n), p=[0.1, 0.2, 0.35, 0.35])
    shift = rng.choice([-0.5, 0.0, 0.5], size=batch)
    mats = spectra[:, :, None] * np.eye(n)
    if rotate:
        g = la.ginibre(n, rng, batch)
        q = np.linalg.qr(g.real if real else g)[0]
        mats = q @ mats @ q.conj().swapaxes(-1, -2)
        mats = (mats + mats.conj().swapaxes(-1, -2)) / 2
    mats = np.ascontiguousarray(mats if real else mats.astype(complex))
    before = mats.copy()
    passes = la._lapack_passes(mats, shift)
    assert mats.tobytes() == before.tobytes()
    shifted = mats - shift[:, None, None] * np.eye(n)
    assert passes.tolist() == [factors(m) for m in shifted]
    if n <= la._COMPONENT_ORDER:
        # at an exact zero eigenvalue of a rotated matrix the last pivot is
        # rounding, which the two factorisations may round differently
        clear = np.all(spectra - shift[:, None] != 0, axis=1) | (not rotate)
        assert np.array_equal(passes[clear], la._cholesky_passes(mats, shift)[clear])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cholesky_passes_on_a_real_stack_is_its_complex_copy(n):
    # the real path skips the imaginary updates; the verdicts must be those of
    # the same stack in complex128: definite, indefinite, exactly singular
    # (ties at the shift), NaN and infinite matrices
    rng = np.random.default_rng(n)
    spectra = rng.choice([-1.0, 0.0, 1.0, 2.0], size=(64, n))
    q = np.linalg.qr(rng.standard_normal((64, n, n)))[0]
    rotated = q @ (spectra[:, :, None] * np.eye(n)) @ q.swapaxes(-1, -2)
    rotated = (rotated + rotated.swapaxes(-1, -2)) / 2
    integer = rng.integers(-2, 3, size=(64, n, n)).astype(float)
    integer = integer @ integer.swapaxes(-1, -2)  # singular ones tie at shift 0
    special = np.repeat(np.eye(n)[None], 4, axis=0)
    special[0, -1, -1] = np.nan
    special[1, 0, 0] = np.nan
    special[2, -1, 0] = special[2, 0, -1] = np.inf
    special[3, 0, 0] = np.inf
    mats = np.ascontiguousarray(np.concatenate([rotated, integer, special]))
    for shift in (np.zeros(len(mats)), rng.choice([-0.5, 0.0, 0.5], size=len(mats))):
        real = la._cholesky_passes(mats, shift)
        assert real.tolist() == la._cholesky_passes(mats.astype(complex), shift).tolist()
        assert real.any() and not real.all()
    assert not real[-4:-2].any()  # a NaN pivot fails


def test_linalg_import_loads_no_csgraph():
    code = "import sys, quditmaps.linalg; print('scipy.sparse.csgraph' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(la.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "False"


@settings(max_examples=60, deadline=None)
@given(lo=st.floats(-1e3, 1e3), span=st.floats(1e-300, 1e3), share=st.floats(0.0, 1.0))
@example(lo=-1.0, span=2.0, share=0.5)  # down through the subnormals to 0
def test_bisect_ends_on_adjacent_floats_around_the_threshold(lo, span, share):
    hi = lo + span
    cut = lo + share * (hi - lo)
    holds = lambda x: x >= cut
    assume(lo < hi and not holds(lo))
    a, b = la.bisect(holds, lo, hi)
    assert lo <= a < b <= hi
    assert not holds(a) and holds(b)
    assert np.nextafter(a, np.inf) == b


def test_bisect_stops_at_the_width():
    lo, hi = la.bisect(lambda x: x >= 1 / 3, 0.0, 1.0, width=1e-3)
    assert 0.5e-3 < hi - lo <= 1e-3 and lo < 1 / 3 <= hi
    assert la.bisect(lambda x: True, 0.0, 1.0, width=2.0) == (0.0, 1.0)
