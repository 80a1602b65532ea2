"""Dense complex linear algebra primitives.

Conventions fixed project-wide:

* Matrices are dense ``complex128`` numpy arrays; everything here targets
  dimensions d <= 16, so the largest object is 256 x 256.
* ``vec`` uses column stacking: ``vec(X)[c*d + r] = X[r, c]``.  With this
  convention the transfer matrix of ``X -> A X B`` is ``kron(B.T, A)``.
* Bipartite d^2 x d^2 matrices index the first tensor factor by the block
  (row block i, column block j) and the second factor inside the block.
* ``vec``, ``unvec``, ``partial_transpose`` and ``channels.choi_from_transfer``
  own these conventions and accept leading batch axes.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DimensionMismatch, NonHermitianInput

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


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def hermiticity_defect(a) -> float:
    """max_ij |A_ij - conj(A_ji)|."""
    m = np.asarray(a)
    return float(np.abs(m - m.conj().T).max()) if m.size else 0.0


def is_hermitian(a, tol: float = _HERM_TOL) -> bool:
    m = as_complex_matrix(a)
    return hermiticity_defect(m) <= tol * (1.0 + frobenius(m))


def _require_hermitian(a) -> np.ndarray:
    m = as_complex_matrix(a)
    if not is_hermitian(m):
        raise NonHermitianInput(
            f"matrix is not Hermitian (defect {hermiticity_defect(m):.3e})"
        )
    return m


def eig_hermitian(a):
    """Eigenvalues (ascending, real) and eigenvectors of a Hermitian matrix.

    Returns ``(w, v)`` with ``a @ v == v @ diag(w)`` up to numerical residual.
    Raises NonHermitianInput when the Hermiticity check fails.
    """
    m = _require_hermitian(a)
    w, v = np.linalg.eigh(m)
    return w, v


def min_eig(a) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    m = _require_hermitian(a)
    return float(np.linalg.eigvalsh(m)[0])


def _component_labels(pattern: np.ndarray) -> np.ndarray:
    """Connected components of the graph with adjacency ``pattern`` (n x n bool).

    Component k is the one whose smallest index is the k-th smallest, so
    the numbering follows first appearance.  Each round lowers every label
    to the smallest over its neighbours, in both directions, then jumps
    pointers (a label is always an index of the same component); at the
    fixed point every component carries its smallest index.
    """
    n = pattern.shape[0]
    rows, cols = np.divmod(np.flatnonzero(pattern), n)
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


def min_eig_affine(parts, coef) -> np.ndarray:
    """Smallest eigenvalue of ``sum_k coef[g, k] * parts[k]`` for every row g.

    ``parts`` is a (K, n, n) stack of Hermitian matrices and ``coef`` a real
    (G, K) array; one matrix ``m`` is ``min_eig_affine(m[None], [[1.0]])[0]``.
    The blocks are the connected components of the parts' joint nonzero
    pattern, each with its indices ascending, so every combination is block
    diagonal on them and its spectrum is the union of the block spectra.
    Blocks of equal size make one batched ``eigvalsh``; 1 x 1 blocks are read
    off the diagonal.  Parts with zero imaginary part are solved in real
    arithmetic.
    """
    parts = np.asarray(parts)
    if np.iscomplexobj(parts) and not parts.imag.any():
        parts = parts.real
    coef = np.asarray(coef, dtype=float)
    labels = _component_labels(np.any(parts != 0, axis=0))
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    out = np.full(coef.shape[0], np.inf)
    for size in np.unique(sizes):
        first = starts[sizes == size]
        idx = order[first[:, None] + np.arange(size)]  # (blocks, size) indices
        if size == 1:
            vals = coef @ parts[:, idx[:, 0], idx[:, 0]].real
        else:
            blocks = parts[:, idx[:, :, None], idx[:, None, :]]
            mats = np.tensordot(coef, blocks, axes=1)
            vals = np.linalg.eigvalsh(mats)[..., 0]
        out = np.minimum(out, vals.min(axis=1))
    return out


def is_psd(a, tol: float | None = None) -> bool:
    """Positive semidefinite test: min eigenvalue >= -tol.

    With ``tol=None`` the tolerance is PSD_TOL * (1 + ||A||_F).  Boundary
    objects sit exactly at eigenvalue zero, so callers that care about the
    sign of the margin should use ``min_eig`` directly.
    """
    m = _require_hermitian(a)
    if tol is None:
        tol = PSD_TOL * (1.0 + frobenius(m))
    return min_eig(m) >= -tol


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
    involution and preserves trace and Hermiticity.
    """
    mat = np.asarray(m, dtype=complex)
    if mat.shape[-2:] != (d * d, d * d):
        raise DimensionMismatch(
            f"expected {d*d} x {d*d} matrices for d={d}, got {mat.shape}"
        )
    if subsystem not in (1, 2):
        raise DimensionMismatch(f"subsystem must be 1 or 2, got {subsystem}")
    m4 = mat.reshape(-1, d, d, d, d)  # [batch, i, a, j, b]
    out = m4.transpose(0, 1, 4, 3, 2) if subsystem == 2 else m4.transpose(0, 3, 2, 1, 4)
    return np.ascontiguousarray(out).reshape(mat.shape)


def basis_matrix(i: int, j: int, d: int) -> np.ndarray:
    """Matrix unit |i><j| (0-indexed)."""
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


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
    """Haar-random orthonormal pairs (x, y) in C^d, batched when n is given."""
    g = ginibre(d, rng, n)[..., :, :2] if n is not None else ginibre(d, rng)[:, :2]
    q, r = np.linalg.qr(g)
    # fix the phase so the distribution is Haar
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph = np.where(np.abs(ph) == 0, 1.0, ph / np.abs(ph))
    q = q * ph[..., None, :].conj()
    return q[..., :, 0], q[..., :, 1]


def match_multisets(a, b, tol: float) -> bool:
    """Exact test: some one-to-one pairing of the multisets has every distance <= tol."""
    xs = np.asarray(a, dtype=complex).reshape(-1)
    ys = np.asarray(b, dtype=complex).reshape(-1)
    if xs.size != ys.size:
        return False
    cost = (np.abs(xs[:, None] - ys[None, :]) > tol).astype(float)
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].sum() == 0.0
