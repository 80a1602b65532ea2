"""Dense linear algebra primitives.

Conventions fixed project-wide:

* Matrices are dense numpy arrays; everything here targets dimensions
  d <= 16, so the largest object is 256 x 256.
* One dtype rule (``real_or_complex``): a transfer matrix, its Choi matrix
  and partial transpose, the family's parts and the generator's blocks are
  ``float64`` when their entries are real by construction, and
  ``complex128`` only when built from complex data (a Hamiltonian, a
  unitary conjugation, a complex user array).  States and vectorised
  matrices (``vec``, ``unvec``) are always ``complex128``.
* ``vec`` uses column stacking: ``vec(X)[c*d + r] = X[r, c]``.  With this
  convention the transfer matrix of ``X -> A X B`` is ``kron(B.T, A)``.
* Bipartite d^2 x d^2 matrices index the first tensor factor by the block
  (row block i, column block j) and the second factor inside the block.
* ``vec``, ``unvec``, ``partial_transpose`` and ``channels.choi_from_transfer``
  own these conventions and accept leading batch axes.

``bisect`` is the package's one bisection: crossing roots and the empirical
Schwarz boundary both shrink their brackets with it.

Block-sparse matrices have one path.  ``pattern_components`` is the one
labelling of a nonzero pattern (an (n, n) pattern or a (B, n, n) stack),
cached by the pattern's bits and shape; ``components`` is its uncached
core.  ``affine_blocks`` gathers a stack of parts on those components, and
``min_eig_gathered`` solves the blocks of one size: ``regions`` combines
the family's parts with it, ``dynamics`` solves the Weyl mixture's Choi
matrix with it, and the generator extraction splits its transfers by
``pattern_components``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
# The gufunc behind np.linalg.cholesky: it factors a stack without raising,
# so each matrix gets its own verdict.
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky_lo

from .errors import DimensionMismatch, NonHermitianInput, QuditMapsError

# All objects handled here are at most 256 x 256; the dense code paths rely on it.
DIM_CAP = 16

# Default PSD tolerance, relative to (1 + Frobenius norm).
PSD_TOL = 1e-9

_HERM_TOL = 1e-12


def check_dimension(d: int) -> int:
    """Validate a qudit dimension: integer with 2 <= d <= DIM_CAP."""
    d = int(d)
    if d < 2:
        raise DimensionMismatch(f"dimension must be >= 2, got {d}")
    if d > DIM_CAP:
        raise DimensionMismatch(f"dimension {d} exceeds the dense cap {DIM_CAP}")
    return d


def real_or_complex(a) -> np.ndarray:
    """``a`` as ``complex128`` when its dtype is complex, else as ``float64``.

    An array that already has that dtype is returned as it is, not copied.
    """
    return np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def null_space(a) -> np.ndarray:
    """Orthonormal basis of the null space of the matrix a, as columns.

    One full ``svd``; singular values at most max(a.shape) * eps * s_max
    count as zero, the default cut of ``scipy.linalg.null_space``.  The
    columns are read from vh in Fortran order, the layout LAPACK gives scipy,
    so products with the basis take scipy's BLAS path and round the same way
    (at d = 2 ``generators._compress`` differs in the last bits otherwise).
    """
    a = np.asarray(a)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    tol = max(a.shape) * np.finfo(s.dtype).eps * np.amax(s, initial=0.0)
    rank = np.count_nonzero(s > tol)
    return np.asfortranarray(vh)[rank:].conj().T


def _hermiticity_failures(m, tol: float) -> np.ndarray:
    """Defects max_ij |A_ij - conj(A_ji)| of the matrices A of a (..., n, n) stack
    that exceed tol * (1 + ||A||_F)."""
    defect = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    return defect[defect > tol * (1.0 + np.linalg.norm(m, axis=(-2, -1)))]


def _require_hermitian(a) -> np.ndarray:
    """``a`` as complex (..., n, n) matrices, each within ``_HERM_TOL`` of Hermitian."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {m.shape}")
    failures = _hermiticity_failures(m, _HERM_TOL)
    if failures.size:
        raise NonHermitianInput(f"matrix is not Hermitian (defect {failures.max():.3e})")
    return m


def eig_hermitian(a):
    """Eigenvalues (ascending, real) and eigenvectors of Hermitian matrices (..., n, n).

    Returns ``(w, v)`` with ``a @ v == v @ diag(w)`` up to numerical residual,
    for each matrix of a stack.  Raises NonHermitianInput when the
    Hermiticity check fails for any of them.
    """
    m = _require_hermitian(a)
    w, v = np.linalg.eigh(m)
    return w, v


def min_eig(a) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    m = _require_hermitian(as_complex_matrix(a))
    return float(np.linalg.eigvalsh(m)[0])


def _component_labels(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Connected components of the graph on ``n`` nodes with edges ``rows[e] -- cols[e]``.

    Component k is the one whose smallest index is the k-th smallest, so
    the numbering follows first appearance.  Each round lowers every label
    to the smallest over its neighbours, in both directions, then jumps
    pointers (a label is always an index of the same component); at the
    fixed point every component carries its smallest index.
    """
    labels = np.arange(n)
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        np.minimum.at(new, cols, labels[rows])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    roots = labels == np.arange(n)
    return (np.cumsum(roots) - 1)[labels]


def components(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple:
    """The connected components of the graph on ``n`` nodes with edges ``rows[e] -- cols[e]``.

    Returns ``(size, idx)`` pairs in ascending size, where ``idx`` is the
    (blocks, size) array of every component of that size: each row holds
    one component's indices ascending, and the rows come in the order of
    their smallest index.  A node without edges is a component of size 1.
    A matrix whose nonzero entries (i, j) are the edges is block diagonal
    on these components, whether or not it is Hermitian.
    """
    labels = _component_labels(rows, cols, n)
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    # the sizes present, ascending; np.unique would import numpy.ma on its
    # first call, about 16 ms of a fresh process
    return tuple((int(size), order[starts[sizes == size][:, None] + np.arange(size)])
                 for size in np.flatnonzero(np.bincount(sizes)))


@lru_cache(maxsize=128)
def _packed_components(packed: bytes, batch: int, n: int) -> tuple:
    pattern = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=batch * n * n)
    # index b * n + i stands for row i of member b, so no edge joins two members
    rows, cols = np.divmod(np.flatnonzero(pattern), n)
    cols += rows - rows % n
    out = components(rows, cols, batch * n)
    for _, idx in out:
        idx.flags.writeable = False
    return out


def pattern_components(pattern) -> tuple:
    """``components`` of the graph whose edges are the true entries of a pattern.

    ``pattern`` is an (n, n) array, or a (B, n, n) stack in which index
    b * n + i stands for row i of member b, so no component spans two
    members.  Cached by the pattern's bits and (B, n) (the last 128
    patterns), so a caller that meets the same pattern again, such as a
    map family at another time, labels it once.  The index arrays are
    read-only.
    """
    pattern = np.asarray(pattern, dtype=bool)
    batch, n = (1, pattern.shape[0]) if pattern.ndim == 2 else pattern.shape[:2]
    return _packed_components(np.packbits(pattern).tobytes(), batch, n)


def affine_blocks(parts) -> tuple:
    """The blocks on which every real combination of ``parts`` is block diagonal,
    as ``(size, blocks)`` pairs.

    ``parts`` is a (K, n, n) stack of Hermitian matrices, or a (K, B, n, n)
    stack of B such stacks.  The blocks are the ``pattern_components`` of
    the B members' joint nonzero patterns over the K parts, so a
    combination's spectrum is the union of its block spectra.  The pairs
    come in ascending size; ``blocks`` holds every component of that size
    gathered from each part: the (K, blocks) diagonal entries for size 1,
    and (K, blocks, size, size) matrices otherwise.  Parts with zero
    imaginary part are gathered as real arrays.  The arrays are read-only,
    so one decomposition can serve any number of combinations, each solved
    by ``min_eig_gathered`` per size; one matrix ``m`` is
    ``affine_blocks(m[None])`` with its blocks read at part 0.
    """
    parts = np.asarray(parts)
    if parts.ndim == 3:
        parts = parts[:, None]
    if np.iscomplexobj(parts) and not parts.imag.any():
        parts = parts.real
    n = parts.shape[2]
    out = []
    for size, idx in pattern_components(np.any(parts != 0, axis=0)):
        b, loc = np.divmod(idx, n)  # a block lies inside one batch member
        if size == 1:
            blocks = parts[:, b[:, 0], loc[:, 0], loc[:, 0]].real
        else:
            blocks = parts[:, b[:, :1, None], loc[:, :, None], loc[:, None, :]]
        blocks.flags.writeable = False
        out.append((size, blocks))
    return tuple(out)


def min_eig_gathered(size: int, mats) -> np.ndarray:
    """Smallest eigenvalue over the last-axis blocks of ``mats``, for every leading index.

    ``mats`` holds (..., B) entries for ``size`` 1 and (..., B, size, size)
    Hermitian blocks otherwise, such as one size of ``affine_blocks`` or a
    combination of those.  1 x 1 blocks are their own minimum, and a
    2 x 2 block [[p, conj(c)], [c, q]] has the smaller root of its
    characteristic polynomial, (p + q)/2 - hypot((p - q)/2, |c|).  That
    formula holds for every Hermitian 2 x 2 matrix, and its error, a few
    machine epsilons of the block's norm, is the size of ``eigvalsh``'s.
    Larger blocks make one batched ``eigvalsh``.
    """
    if size == 1:
        vals = mats
    elif size == 2:
        p, q = mats[..., 0, 0].real, mats[..., 1, 1].real
        vals = (p + q) / 2 - np.hypot((p - q) / 2, np.abs(mats[..., 1, 0]))
    else:
        vals = np.linalg.eigvalsh(mats)[..., 0]
    return vals.min(axis=-1)


# Stacks of at least _COMPONENT_STACK matrices of order n <= _COMPONENT_ORDER
# are factored over components, in blocks of at most _COMPONENT_BLOCK matrices
# (a few hundred kB of components each; larger blocks gain nothing).  Each
# step over components is one numpy operation on the whole stack, with a
# fixed cost per step and O(n^3) steps, so it beats one LAPACK call per
# matrix only on long stacks of small matrices; the README ("Numerical
# notes") gives the measured crossover.  The package's stacks on this path:
# the positivity outputs of ``regions.classify_grid`` at d <= 5, of a single
# map at d <= 5 with a budget of at least 1024, and the Haar forms of
# ``generators.is_dissipative`` at d = 2 with a budget above 8184.  Other
# stacks are factored by LAPACK in blocks of at most _LAPACK_BLOCK matrices
# (4 MB at n = 16; at n = 8, 5408 complex matrices took 2.71 ms as one
# block and 2.55 ms as six, on one BLAS thread of a 2-core Xeon).
_COMPONENT_ORDER = 5
_COMPONENT_STACK = 1024
_COMPONENT_BLOCK = 8192
_LAPACK_BLOCK = 1024


def _cholesky_passes(mats, shift) -> np.ndarray:
    """Whether the Cholesky factorisation of each ``mats[b] - shift[b] I`` succeeds.

    ``mats`` is a (B, n, n) stack and ``shift`` a (B,) array.  The standard
    right-looking algorithm on the lower triangle, run on the real and
    imaginary part of each entry as a (B,) array, so each step is one numpy
    operation over the whole stack: the shift is subtracted from the
    diagonal, then column k is divided by the square root of the pivot, and
    l_ik conj(l_jk) is subtracted from every entry (i, j) with i >= j > k.
    Only the real part of a diagonal entry is read, as LAPACK does.  A real
    stack has no imaginary parts to update, so only the real updates are
    made; they are the complex path's on a copy with zero imaginary parts
    (every imaginary term there is an exact zero, or a NaN in a matrix
    whose factorisation fails anyway), so the verdicts agree.  A matrix
    passes when every pivot is > 0, so a NaN pivot fails it.  Entries are
    read from ``mats`` and never written.
    """
    b, n = mats.shape[:2]
    entries = mats.reshape(b, n * n)
    cplx = np.iscomplexobj(mats)
    re = {(i, j): entries[:, i * n + j].real for i in range(n) for j in range(i + 1)}
    im = {(i, j): entries[:, i * n + j].imag for i in range(n) for j in range(i)} if cplx else {}
    for k in range(n):
        re[k, k] = re[k, k] - shift
    ok = np.ones(b, dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        for k in range(n):
            ok &= re[k, k] > 0
            root = np.sqrt(re[k, k])
            for i in range(k + 1, n):
                re[i, k] = re[i, k] / root
                if cplx:
                    im[i, k] = im[i, k] / root
            for i in range(k + 1, n):
                for j in range(k + 1, i + 1):  # a_ij -= l_ik conj(l_jk)
                    re[i, j] = re[i, j] - re[i, k] * re[j, k]
                    if cplx:
                        re[i, j] = re[i, j] - im[i, k] * im[j, k]
                        if j < i:
                            im[i, j] = im[i, j] - (im[i, k] * re[j, k] - re[i, k] * im[j, k])
    return ok


def _lapack_passes(mats, shift) -> np.ndarray:
    """Whether the Cholesky factorisation of each ``mats[b] - shift[b] I`` succeeds.

    The contract of ``_cholesky_passes``, for a writable C-contiguous
    (B, n, n) stack: the diagonals are shifted in place, the whole stack
    goes through one call of LAPACK's factorisation (the gufunc behind
    ``np.linalg.cholesky``, which returns NaN for a matrix it cannot
    factor instead of raising for the stack), and the diagonals are put
    back, bit for bit, before returning.  A matrix passes when every
    diagonal entry of its factor is > 0, so a NaN pivot fails it whether or
    not LAPACK rejects it.
    """
    b, n = mats.shape[:2]
    diag = mats.reshape(b, n * n, copy=False)[:, ::n + 1]  # a view: writing it writes mats
    saved = diag.copy()
    np.subtract(saved, shift[:, None], out=diag)
    try:
        with np.errstate(invalid="ignore"):
            low = _cholesky_lo(mats, signature="D->D" if mats.dtype.kind == "c" else "d->d")
    finally:
        diag[...] = saved
    return (low.reshape(b, n * n)[:, ::n + 1].real > 0).all(axis=1)


def min_eig_capped(mats, cap) -> np.ndarray:
    """``min(cap[g], smallest eigenvalue of mats[g, s] over s)`` for every g.

    ``mats`` is a writable C-contiguous (G, S, n, n) stack of Hermitian
    matrices; it is unchanged on return.  Each group's matrices are
    shifted by ``-cap[g]`` I, lowered further by a rounding margin.  A
    shifted matrix that has a Cholesky factor has no eigenvalue at or below
    its cap and is not diagonalised; the others go through one ``eigvalsh``
    call, unshifted.  The stack is factored in blocks of equal size, each
    with a verdict per matrix, by one of two factorisations chosen by the
    input's size alone: ``_cholesky_passes`` over components, in blocks of
    up to ``_COMPONENT_BLOCK``, for n <= ``_COMPONENT_ORDER`` and at least
    ``_COMPONENT_STACK`` matrices, and ``_lapack_passes`` in blocks of up
    to ``_LAPACK_BLOCK`` otherwise.

    The margin, 2 (n + 1)^2 machine epsilons of the largest diagonal entry
    and cap in magnitude, exceeds the rounding of the factorisation and of
    ``eigvalsh``.  For the factorisation this is Higham's backward-error
    bound (*Accuracy and Stability of Numerical Algorithms*, Thm 10.3):
    if Cholesky runs to completion in floating point, the factor is exact
    for A + dA with |dA| <= gamma_{n+1} |R^*| |R|, whatever the order in
    which the inner products are evaluated, so LAPACK and the path over
    components share it.  A matrix either path passes could therefore not
    have set the minimum: the result equals a plain ``eigvalsh`` minimum,
    bit for bit, and only the time depends on the certificate.
    """
    g, s, n = mats.shape[:3]
    cap = np.asarray(cap, dtype=float)
    out = cap.copy()
    size = g * s
    if size == 0:
        return out
    flat = mats.reshape(size, n, n, copy=False)
    scale = np.abs(flat.reshape(size, n * n)[:, ::n + 1]).max() + np.abs(cap).max()
    shift = (cap + 2 * (n + 1) ** 2 * np.finfo(float).eps * scale).repeat(s)
    if n <= _COMPONENT_ORDER and size >= _COMPONENT_STACK:
        passes, block = _cholesky_passes, _COMPONENT_BLOCK
    else:
        passes, block = _lapack_passes, _LAPACK_BLOCK
    blocks = -(-size // block)  # of equal size, up to one matrix
    bounds = [i * size // blocks for i in range(blocks + 1)]
    failed = np.concatenate([lo + (~passes(flat[lo:hi], shift[lo:hi])).nonzero()[0]
                             for lo, hi in zip(bounds[:-1], bounds[1:])])
    if failed.size:
        np.minimum.at(out, failed // s, np.linalg.eigvalsh(flat[failed])[:, 0])
    return out


def is_psd(a, tol: float | None = None) -> bool:
    """Positive semidefinite test: min eigenvalue >= -tol.

    With ``tol=None`` the tolerance is PSD_TOL * (1 + ||A||_F).  Boundary
    objects sit exactly at eigenvalue zero, so callers that care about the
    sign of the margin should use ``min_eig`` directly.
    """
    m = as_complex_matrix(a)
    lowest = min_eig(m)  # checks Hermiticity
    if tol is None:
        tol = PSD_TOL * (1.0 + frobenius(m))
    return lowest >= -tol


def vec(a) -> np.ndarray:
    """Column-stacking vectorization: (..., d, d) -> (..., d^2)."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {m.shape}")
    return m.swapaxes(-1, -2).reshape(m.shape[:-2] + (-1,))


def unvec(v, d: int) -> np.ndarray:
    """Inverse of ``vec``: (..., d^2) -> (..., d, d)."""
    w = np.asarray(v, dtype=complex)
    if w.ndim == 0 or w.shape[-1] != d * d:
        raise DimensionMismatch(f"vectors of shape {w.shape} are not d^2 long for d={d}")
    return w.reshape(w.shape[:-1] + (d, d)).swapaxes(-1, -2)


def partial_transpose(m, d: int, subsystem: int = 2) -> np.ndarray:
    """Transpose one tensor factor of d^2 x d^2 bipartite matrices (..., d^2, d^2).

    ``subsystem`` selects the factor (1 or 2).  The operation is an
    involution and preserves trace and Hermiticity.  It is a permutation of
    entries, so a real input gives a real output (``real_or_complex``).
    """
    mat = real_or_complex(m)
    if mat.shape[-2:] != (d * d, d * d):
        raise DimensionMismatch(
            f"expected {d*d} x {d*d} matrices for d={d}, got {mat.shape}"
        )
    if subsystem not in (1, 2):
        raise DimensionMismatch(f"subsystem must be 1 or 2, got {subsystem}")
    m4 = mat.reshape(-1, d, d, d, d)  # [batch, i, a, j, b]
    out = m4.transpose(0, 1, 4, 3, 2) if subsystem == 2 else m4.transpose(0, 3, 2, 1, 4)
    return np.ascontiguousarray(out).reshape(mat.shape)


def maximally_entangled_vector(d: int) -> np.ndarray:
    """(1/sqrt(d)) sum_i |ii>."""
    d = check_dimension(d)
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * d + np.arange(d)] = 1.0
    return v / np.sqrt(d)


def maximally_entangled_projector(d: int) -> np.ndarray:
    """Rank-1, trace-1 projector onto the maximally entangled vector."""
    v = maximally_entangled_vector(d)
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# seeded random ensembles (batched; used by samplers and tests)
# ---------------------------------------------------------------------------

def ginibre(d: int, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Complex Ginibre matrices; shape (d, d) or (n, d, d) when n is given."""
    shape = (d, d) if n is None else (n, d, d)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(d: int, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    g = ginibre(d, rng, n)
    return (g + np.conj(np.swapaxes(g, -1, -2))) / 2.0


def random_traceless(d: int, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Ginibre draws with the trace removed and unit Frobenius norm."""
    g = ginibre(d, rng, n)
    tr = np.trace(g, axis1=-2, axis2=-1)
    eye = np.eye(d)
    g = g - (tr / d)[..., None, None] * eye
    nrm = np.linalg.norm(g, axis=(-2, -1), keepdims=True)
    nrm = np.where(nrm == 0, 1.0, nrm)
    return g / nrm


def haar_orthonormal_pair(d: int, rng: np.random.Generator, n: int | None = None):
    """Haar-random orthonormal pairs (x, y) in C^d, batched when n is given.

    The pair is the first two columns of a Haar unitary: the Q factor of a
    complex Gaussian d x 2 matrix [z1 z2] whose R has a positive diagonal
    (Mezzadri, "How to generate random matrices from the classical compact
    groups", Notices AMS 2007).  For two columns that Q is Gram-Schmidt:
    x = z1 / |z1|, and y is z2 with its x-component removed, normalised.
    The removal is made twice (CGS2), so y stays orthogonal to x to rounding
    even when z2 is nearly parallel to z1.
    """
    shape = (d, 2) if n is None else (n, d, 2)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x, y = g[..., 0], g[..., 1]
    x = x / np.linalg.norm(x, axis=-1, keepdims=True)
    for _ in range(2):
        y = y - x * np.einsum("...i,...i->...", x.conj(), y)[..., None]
    return x, y / np.linalg.norm(y, axis=-1, keepdims=True)


def deterministic_candidates(d: int) -> np.ndarray:
    """The d^2 + 1 deterministic unit vectors of ``positivity_candidates``, shape (d^2 + 1, d).

    The d basis vectors; for each i < j in lexicographic order the
    orthonormal pair (e_i + e_j)/sqrt2, (e_i - e_j)/sqrt2, as rows d + 2k
    and d + 2k + 1; and the uniform superposition.  For the map family,
    basis vectors expose alpha < 0, the two-coordinate superpositions the
    lower boundary beta >= -2 alpha/d, and the uniform superposition the
    upper boundary beta <= d/(d-1) - alpha.  The pairs saturate the pair
    functional sum_k |x_k|^2 |y_k|^2 at 1/2, so ``generators`` reads them
    to pin the conditional-positivity oracle to its exact threshold.
    """
    eye = np.eye(d, dtype=complex)
    i, j = np.triu_indices(d, 1)
    pairs = np.stack([eye[i] + eye[j], eye[i] - eye[j]], axis=1) * (1.0 / np.sqrt(2.0))
    return np.concatenate([eye, pairs.reshape(-1, d), np.ones((1, d), dtype=complex) / np.sqrt(d)])


def positivity_candidates(d: int, sample_budget: int = 0,
                          rng: np.random.Generator | None = None) -> np.ndarray:
    """Unit vectors in C^d probed by the positivity and dissipativity oracles, shape (N, d).

    The d^2 + 1 ``deterministic_candidates`` come first, then
    ``sample_budget`` Haar-random unit vectors drawn from ``rng``, which is
    then required.
    """
    if sample_budget > 0 and rng is None:
        raise QuditMapsError("sample_budget > 0 needs a random generator rng")
    vecs = deterministic_candidates(d)
    if sample_budget > 0:
        g = ginibre(d, rng, n=int(sample_budget))[:, :, 0]
        g = g / np.linalg.norm(g, axis=1, keepdims=True)
        vecs = np.concatenate([vecs, g])
    return vecs


def match_multisets(a, b, tol: float) -> bool:
    """Exact test: some one-to-one pairing of the multisets has every distance <= tol.

    A perfect matching of the bipartite graph that joins the entries of a
    and b not farther apart than tol, grown one entry of a at a time along
    augmenting paths (Kuhn's algorithm): O(n^3) for n entries.
    """
    xs = np.asarray(a, dtype=complex).reshape(-1)
    ys = np.asarray(b, dtype=complex).reshape(-1)
    if xs.size != ys.size:
        return False
    near = [np.flatnonzero(~(np.abs(x - ys) > tol)) for x in xs]
    owner = [-1] * ys.size  # owner[j]: the entry of a that y_j is paired with

    def augment(i, seen) -> bool:
        for j in near[i]:
            if not seen[j]:
                seen[j] = True
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, [False] * ys.size) for i in range(xs.size))


def bisect(holds, lo: float, hi: float, width: float = 0.0):
    """Shrink a bracket [lo, hi] with holds(hi) true and holds(lo) false.

    Halves at 0.5 (lo + hi) while hi - lo > width and a float lies strictly
    between the ends; returns the final (lo, hi).  With width 0 the ends are
    adjacent floats: ``holds`` is false at lo and true at the next float, hi.
    """
    mid = 0.5 * (lo + hi)
    while hi - lo > width and lo < mid < hi:
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
        mid = 0.5 * (lo + hi)
    return lo, hi
