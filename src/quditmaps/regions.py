"""Membership tests and geometry for the positivity regions in the (alpha, beta) plane.

Closed forms
------------
For the family Phi_{alpha,beta} on d x d matrices:

* positive          iff 0 <= alpha <= d/(d-1) and -2 alpha/d <= beta <= d/(d-1) - alpha
* completely positive iff 0 <= alpha <= d/(d-1) and -alpha/d <= beta
                        <= d/(d-1) - (d+1) alpha/d
* entanglement breaking iff additionally 1 - alpha - alpha/d <= beta <= 1 - alpha + alpha/d

Each region is convex; its polygon is computed here by intersecting the
defining half-planes, never by hard-coding vertices.

Numeric oracles
---------------
* complete positivity: smallest eigenvalue of the Choi matrix;
* entanglement breaking: Choi PSD and partial transpose of the Choi PSD.
  The PPT test is a faithful EB test for THIS Choi family only (its PPT
  states are separable); it is not a generic EB criterion.
* positivity: a falsifier sampling pure-state inputs.  The deterministic
  candidate set (basis vectors, two-coordinate superpositions, the uniform
  superposition) detects every violation of the closed-form inequalities,
  so on this family the sampled verdict is exact; random draws are kept as
  a safety net.

Both classifiers use only generic structure: the family is affine in
(alpha, beta), so every oracle works on its three parts.
``linalg.affine_blocks``, the package's one block path, decomposes a
stack of parts into the blocks of their joint nonzero pattern.  What depends on d alone is decomposed once
per d and oracle and cached, read-only (``_family_blocks``): the parts'
Choi matrices, their partial transposes, and the parts' images of the
deterministic positivity candidates.  ``family_min_eig`` combines one of
them on a grid of (alpha, beta) and solves the blocks by
``linalg.min_eig_gathered``; ``classify_grid`` calls it on a whole grid,
and ``classify_numeric`` and ``dynamics.trajectory_point`` on one point.
Its entries do not depend on the other points, so a point's minima are
the same floats whichever of them computes it.

The positivity minimum has two exact stages:

1. the d^2 + 1 deterministic candidates are solved blockwise, by
   ``family_min_eig`` on the blocks of their Hermitised images
   (``_pure_images``); their outputs are sparse (2 x 2 blocks, which have
   a closed-form minimum, and scalars for the pairs), so no block reaches
   ``eigvalsh``;
2. the sampled candidates are certified by ``_sampled_min`` with
   ``linalg.min_eig_capped``: the Cholesky factorisation of a sampled
   output minus the stage-1 minimum times I (less a rounding margin)
   succeeds only if its eigenvalues all lie above that minimum.  At d <= 5
   a chunk's outputs are factored over components, all at once; at larger
   d (or on fewer than 1024 outputs) LAPACK factors them in blocks of up
   to 1024.  Either way each output gets its own verdict, and only the
   outputs that fail (a tie, as at the identity, or a sample that sets the
   minimum) are solved by ``eigvalsh``, in one call.  ``classify_grid``
   images its samples under the three parts, ``classify_numeric`` under
   the one transfer matrix of its map (one part with coefficient 1).
   When the parts pass ``linalg.diagonal_covariant``, a symmetry checked
   exactly on the components of their pattern, a sample c is imaged at
   its elementwise modulus |c|, whose output is unitarily similar to c's;
   the family's real parts then give real outputs and a real certificate.

The result never depends on the certificate succeeding, only the time
does.  Nothing here takes anything from the closed forms: no inequality,
and not which part is tau0 or Delta.  The one symmetry used, commuting
with X -> U X U^+ for diagonal unitaries U, is read from the parts'
nonzero pattern, not assumed.  The dense d^2 x d^2 ``eigvalsh``
references live in the tests: ``dense_positivity_min``,
``test_grid_minima_match_dense_pointwise_solves`` and
``test_classify_numeric_margins_match_dense_solves`` in
``tests/test_regions.py``, and ``test_trajectory_min_choi_eig_matches_dense_solve``
in ``tests/test_dynamics.py``.

The Schwarz region has no closed form here; the module exposes only a
falsifier for the operator Schwarz inequality and an empirical boundary
scan built on it.  ``schwarz_falsify`` scans its candidates in a fixed
order (matrix units, witnesses, rank-one probes, random draws): the
first matrix unit alone, then one stack per fixed family and ``_CHUNK``
draws per stack.  The map's transfer matrix is split once per call on
the components of its nonzero pattern (``_transfer_blocks``, by
``linalg.affine_blocks``), and a stack's images are one product per
component size (``_images``), so a family map at d = 16 acts as 240
scalars and one 16 x 16 block.  The units, witnesses and rank-one probes
are real arrays, so under a real map their images, gaps and certificate
are real; only the draws are complex.  ``linalg.min_eig_capped`` decides
by one batched Cholesky, capped at the threshold, whether any of a
stack's gaps m(X^+ X) - m(X)^+ m(X) falls below it, so the verdict is a
plain ``eigvalsh``'s.  The scan stops at the first stack that holds a
violation and returns that stack's first violating X; later stacks are
never built.
The gap has one implementation, ``_schwarz_gap``.  The loop of one map
application and one ``eigvalsh`` per candidate it replaced is the
reference in ``tests/test_regions.py`` (``reference_falsify``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
from math import isqrt

import numpy as np

from .channels import (
    MapParams,
    SuperMap,
    build_phi_family,
    choi_from_transfer,
    family_transfer_parts,
)
from .errors import DegenerateRegion, NotUnital, UnknownName
from .generators import witness_operator
from .linalg import (
    affine_blocks,
    bisect,
    check_dimension,
    deterministic_candidates,
    diagonal_covariant,
    min_eig_capped,
    min_eig_gathered,
    partial_transpose,
    positivity_candidates,
)
# Kept only because perfbench/tracer.py patches ``regions.ginibre``.  Nothing in
# this module calls it: ``schwarz_falsify`` draws its samples a stack at a time
# from ``rng.standard_normal``, so the patched name no longer counts its draws
# (nor does the tracer see its Cholesky certificate).
from .linalg import ginibre  # noqa: F401

REGIONS = ("P", "CP", "EB")

# Oracle-agreement tests exclude points closer to a boundary than this.
MARGIN_FILTER = 1e-6

# The standard grid extends this far beyond [0, d/(d-1)] on both axes.
_GRID_PAD = 0.2

# ``schwarz_falsify`` reports X when the gap m(X^+ X) - m(X)^+ m(X) has an
# eigenvalue below this.
_FALSIFY_THRESHOLD = -1e-8

# ``schwarz_boundary_scan`` stops bisecting when the bracket is narrower than
# this share of the gap alpha/d between the CP and P lower boundaries.
_SCAN_BETA_TOL = 1e-3


@dataclass(frozen=True)
class RegionVerdict:
    """Membership flags plus the signed slack of the binding inequality.

    For closed-form verdicts the margins are inequality slacks; for numeric
    verdicts they are the sampled minimum output eigenvalue, the smallest
    Choi eigenvalue, and min(Choi, partial-transpose) eigenvalue.
    """

    positive: bool
    completely_positive: bool
    entanglement_breaking: bool
    margin_positive: float
    margin_cp: float
    margin_eb: float

    @property
    def margins(self):
        return (self.margin_positive, self.margin_cp, self.margin_eb)


@dataclass(frozen=True)
class RegionPolygon:
    which: str
    d: int
    vertices: tuple  # (alpha, beta) pairs, counterclockwise


@dataclass(frozen=True)
class AreaReport:
    which: str
    d: int
    closed_form: float
    shoelace: float


# ---------------------------------------------------------------------------
# closed-form membership
# ---------------------------------------------------------------------------

def _half_planes(which: str, d: int):
    """Constraints a*alpha + b*beta + c >= 0 defining ``which``, one of REGIONS."""
    h = d / (d - 1.0)
    base = [(1.0, 0.0, 0.0), (-1.0, 0.0, h)]  # 0 <= alpha <= d/(d-1)
    if which == "P":
        return base + [(2.0 / d, 1.0, 0.0), (-1.0, -1.0, h)]
    if which == "CP":
        return base + [(1.0 / d, 1.0, 0.0), (-(d + 1.0) / d, -1.0, h)]
    return base + [  # EB
        (1.0 / d, 1.0, 0.0),
        ((d + 1.0) / d, 1.0, -1.0),      # beta >= 1 - alpha - alpha/d
        (-(d + 1.0) / d, -1.0, h),
        (-(d - 1.0) / d, -1.0, 1.0),     # beta <= 1 - alpha + alpha/d
    ]


def _normalize_region(which: str) -> str:
    key = str(which).upper()
    if key not in REGIONS:
        raise UnknownName(f"unknown region {which!r}; choose from {REGIONS}")
    return key


def _flags(margins, tol: float = 0.0) -> tuple:
    """The P, CP and EB flags of their margins (numbers or arrays): margin >= -tol.

    The one rule of every verdict: the closed forms use tol = 0 on their
    slacks, the oracles their tolerance on the minima.
    """
    return tuple(m >= -tol for m in margins)


def classify_point(p: MapParams) -> RegionVerdict:
    """Closed-form region membership with the binding-inequality slacks."""
    margins = tuple(float(v) for v in _closed_slacks(p.d, p.alpha, p.beta).values())
    return RegionVerdict(*_flags(margins), *margins)


# ---------------------------------------------------------------------------
# numeric oracles
# ---------------------------------------------------------------------------

# Points whose sampled positivity outputs are certified together, and the bytes
# of those outputs and one more array as large held at once: the Cholesky
# factor, or the copy of the outputs that fail the certificate; at d = 16
# with budget 256 a point's take 1 MB (real) or 2 MB (complex), so ``_CHUNK``
# points alone would hold 0.5 or 1 GB.
# ``_CHUNK`` also bounds the Schwarz falsifier's stacks of candidates (2 MB of
# complex gaps at d = 16).
_CHUNK = 512
_CHUNK_BYTES = 64 * 2**20


def _transfer_blocks(transfer) -> tuple:
    """(..., d^2, d^2) transfer matrices on the components of their joint nonzero pattern.

    Every transfer matrix of the stack is block diagonal on the components
    that ``linalg.affine_blocks`` finds in the pattern any of them has
    nonzero, so it maps the entries of X in one component to entries of
    the same component.  Returns ``(diag, pairs)``, from that one
    decomposition.  ``diag`` (..., 1, d^2) holds, in the row-major order of
    X's entries (the ``vec`` index c d + r is X[r, c], row-major index
    r d + c), each transfer's entry on the components of one entry, which
    is all the transfer does there, and zero on the larger components.
    ``pairs`` holds one ``(rows, blocks)`` pair per larger component size
    s: ``rows`` (B, s) lists each component's entries as row-major
    indices, and ``blocks`` (..., B, s, s) the transfer matrices restricted
    to them.  A family map at d = 16 is 240 scalars and one 16 x 16 block,
    a Weyl mixture d blocks of size d, a dense transfer one block of size
    d^2.
    """
    transfer = np.asarray(transfer)
    n = transfer.shape[-1]
    d = isqrt(n)
    flat = np.arange(n).reshape(d, d).T.ravel()  # vec index <-> row-major index, both ways
    lead = transfer.shape[:-2]
    # C order, so that ``_images``'s output (``x * diag``) is C-contiguous
    # and its block products run on contiguous stacks
    diag = np.zeros(lead + (1, n), dtype=transfer.dtype)
    pairs = []
    for size, idx, blocks in affine_blocks(transfer.reshape(-1, n, n)):
        blocks = blocks.reshape(lead + blocks.shape[1:])
        if size == 1:
            diag[..., 0, flat[idx[:, 0]]] = blocks
        else:
            pairs.append((flat[idx], blocks))
    return diag, tuple(pairs)


def _images(blocks, inputs) -> np.ndarray:
    """Images of (N, d, d) ``inputs`` under the transfer matrices of ``_transfer_blocks``:
    (..., N, d, d), C-contiguous.

    The components of one entry are one elementwise product of the inputs
    with the diagonal.  Each larger component size is one batched product
    of its blocks with the inputs' entries in those components, laid out
    one row per entry and one column per input; it overwrites those
    entries.  There is no matrix-vector product per input, and no product
    with the zeros between components.  The dtypes decide the arithmetic:
    a real transfer (``linalg.real_or_complex``) acts on complex inputs'
    real and imaginary parts alike, in real products; real inputs under a
    real transfer stay real; a complex transfer makes complex products.
    """
    diag, pairs = blocks
    n_in, d = inputs.shape[0], inputs.shape[-1]
    # real inputs to a complex transfer are cast first: numpy's matmul of a
    # complex and a real stack is several times slower than of two complex ones
    x = inputs.reshape(n_in, d * d).astype(np.result_type(inputs, diag), copy=False)
    out = x * diag
    split = np.iscomplexobj(x) and not np.iscomplexobj(diag)
    for rows, block in pairs:
        cols = x.T[rows]  # (B, s, N), a new C-contiguous array
        prod = block @ (cols.view(float) if split else cols)
        np.swapaxes(out, -1, -2)[..., rows, :] = prod.view(complex) if split else prod
    return out.reshape(out.shape[:-2] + (n_in, d, d))


def _pure_images(blocks, cand) -> np.ndarray:
    """Images of the pure states |c><c| of the (N, d) rows c of ``cand`` under
    the (K, d^2, d^2) transfer matrices split by ``_transfer_blocks``,
    Hermitised: (K, N, d, d)."""
    images = _images(blocks, np.einsum("ni,nj->nij", cand, cand.conj()))
    # the products carry rounding; real combinations of Hermitian images stay Hermitian
    return (images + np.conj(np.swapaxes(images, -1, -2))) / 2.0


def _sampled_min(d: int, parts, coef, best, sample_budget: int, seed) -> np.ndarray:
    """Stage 2 of the positivity minimum: ``best`` lowered to the sampled outputs' minima.

    ``sample_budget`` > 0 seeded candidates c are drawn once for all the
    maps ``coef @ parts``, one per row of the real (G, K) ``coef``, and
    imaged under the (K, d^2, d^2) ``parts`` by ``_images``; ``best`` holds
    the stage-1 minima, one per row.  When the components of the parts'
    joint pattern pass ``linalg.diagonal_covariant``, every such map
    commutes with X -> U X U^+ for diagonal unitaries U.  Then c = U |c|
    for one of them makes the output at c unitarily similar to the output
    at |c|, the elementwise modulus, so the candidates are imaged at |c|:
    under real parts the outputs, the buffer and the certificate are real.
    Parts that fail the check image c.  The sampled outputs of a chunk of
    maps go to ``linalg.min_eig_capped`` with those minima as caps: it
    certifies them by Cholesky factorisations and solves by ``eigvalsh``
    only the outputs where the certificate fails (ties, or a sample that
    sets the minimum).  A chunk holds at most ``_CHUNK`` maps and, with the
    Cholesky factor or the copy of the failing outputs, ``_CHUNK_BYTES``.
    """
    blocks = _transfer_blocks(parts)
    cand = positivity_candidates(d, sample_budget, np.random.default_rng(seed))[d * d + 1:]
    if diagonal_covariant(d, (rows for rows, _ in blocks[1])):
        cand = np.abs(cand)
    sampled = _pure_images(blocks, cand)
    k, n_samples = sampled.shape[:2]
    # the real coefficients combine the samples' real and imaginary parts alike
    flat = np.ascontiguousarray(sampled).view(float).reshape(k, -1)
    g = coef.shape[0]
    chunk = max(1, min(_CHUNK, g, _CHUNK_BYTES // (2 * sampled[0].nbytes)))
    buf = np.empty((chunk, flat.shape[1]))
    for start in range(0, g, chunk):
        sl = slice(start, min(start + chunk, g))
        rows = buf[:sl.stop - start]
        np.matmul(coef[sl], flat, out=rows)
        best[sl] = min_eig_capped(rows.view(sampled.dtype).reshape(-1, n_samples, d, d),
                                  best[sl])
    return best


# The oracles of ``_family_blocks``: the Choi matrix, its partial transpose,
# and the outputs of the deterministic positivity candidates.
_ORACLES = ("choi", "pt", "candidates")


@lru_cache(maxsize=None)
def _family_blocks(d: int, oracle: str) -> tuple:
    """One oracle's ``affine_blocks`` of the family's three parts, per d, in the
    basis that ``family_min_eig`` combines.

    Read-only and cached per (d, oracle), so a caller builds only the
    oracles it reads: "choi" decomposes the parts' Choi matrices, "pt" the
    partial transposes of those, and "candidates" the parts' Hermitised
    images of the d^2 + 1 deterministic positivity candidates.  Each block
    size is kept as ``(size, shape, base, d_alpha, d_beta)``: the flattened
    blocks of id, tau0 - id and Delta - id, since Phi = (1 - alpha - beta)
    id + alpha tau0 + beta Delta = id + alpha (tau0 - id) + beta (Delta - id).
    Only the gathered blocks are kept, not the d^2 x d^2 stacks.
    """
    parts = family_transfer_parts(d)
    if oracle == "candidates":
        blocks = affine_blocks(_pure_images(_transfer_blocks(parts), deterministic_candidates(d)))
    else:
        choi = choi_from_transfer(parts, d)
        blocks = affine_blocks(partial_transpose(choi, d, 2) if oracle == "pt" else choi)
    out = []
    for size, _, gathered in blocks:
        base, tau0, delta = gathered.reshape(3, -1)
        arrays = (base.copy(), tau0 - base, delta - base)
        for array in arrays:
            array.flags.writeable = False
        out.append((size, gathered.shape[1:]) + arrays)
    return tuple(out)


def family_min_eig(d: int, oracle: str, alphas, betas) -> np.ndarray:
    """One oracle's smallest eigenvalue for the family maps on the grid ``alphas`` x ``betas``.

    ``oracle`` is "choi" (the Choi matrix), "pt" (its partial transpose) or
    "candidates" (the outputs of the d^2 + 1 deterministic positivity
    candidates); ``alphas`` and ``betas`` are numbers or arrays, read flat,
    and the result has shape (len(alphas), len(betas)).  Each block size of
    the cached ``_family_blocks(d, oracle)`` is combined as
    (base + alpha d_alpha) + beta d_beta, entry by entry, and solved by
    ``linalg.min_eig_gathered``.  No entry depends on the other grid
    points, so one point gets the same floats alone as inside a grid.
    """
    a = np.asarray(alphas, dtype=float).reshape(-1, 1, 1)
    b = np.asarray(betas, dtype=float).reshape(1, -1, 1)
    out = np.full((a.shape[0], b.shape[1]), np.inf)
    for size, shape, base, d_alpha, d_beta in _family_blocks(d, oracle):
        mats = ((base + a * d_alpha) + b * d_beta).reshape(out.shape + shape)
        out = np.minimum(out, min_eig_gathered(size, mats))
    return out


def classify_numeric(p: MapParams, sample_budget: int = 256, seed: int = 42,
                     tol: float = 1e-9) -> RegionVerdict:
    """Region membership from eigenvalue oracles, independent of the closed forms.

    CP: Choi PSD.  EB: Choi PSD and PPT of the Choi (faithful for this
    family).  Positive: not falsified by pure-state sampling.  The Choi,
    partial-transpose and deterministic-candidate minima are
    ``family_min_eig`` at the one point, the floats ``classify_grid`` gives
    there.  Only a positive ``sample_budget`` builds the d^2 x d^2 map: its
    sampled candidates are imaged by its transfer matrix, at |c| when it
    passes the diagonal-unitary check of ``_sampled_min`` (a family map
    does), and certified against the deterministic minimum.
    """
    choi_min, pt_min, pos_min = (family_min_eig(p.d, oracle, p.alpha, p.beta)[0]
                                 for oracle in _ORACLES)
    if sample_budget > 0:
        pos_min = _sampled_min(p.d, build_phi_family(p).transfer[None], np.ones((1, 1)),
                               pos_min, sample_budget, seed)
    margins = tuple(float(m[0]) for m in (pos_min, choi_min, np.minimum(choi_min, pt_min)))
    return RegionVerdict(*_flags(margins, tol), *margins)


# ---------------------------------------------------------------------------
# vectorized grid classification
# ---------------------------------------------------------------------------

def default_grid(d: int, n: int = 101):
    """Two n-point axes spanning [-0.2, d/(d-1) + 0.2]; 0.2 is ``_GRID_PAD``."""
    hi = d / (d - 1.0) + _GRID_PAD
    ax = np.linspace(-_GRID_PAD, hi, n)
    return ax, ax.copy()


def _closed_slacks(d: int, aa, bb) -> dict:
    """Binding-inequality slack of each region, elementwise over (alpha, beta) arrays
    or at one point."""
    return {
        which: np.minimum.reduce([pa * aa + pb * bb + pc
                                  for pa, pb, pc in _half_planes(which, d)])
        for which in REGIONS
    }


def classify_grid(d: int, alphas, betas, sample_budget: int = 32,
                  seed: int = 42, tol: float = 1e-9) -> dict:
    """Closed-form and numeric classification over a coordinate grid.

    Returns arrays of shape (len(alphas), len(betas)): closed-form booleans
    and margins, plus numeric booleans with the oracle minima.  Each point's
    map is a real combination of the family's three parts.  The blocks that
    depend on d alone are built by the first call at that d
    (``_family_blocks``); a call then makes the block combinations and the
    small block solves of the Choi, partial-transpose and deterministic
    positivity minima (``family_min_eig``), draws one set of
    ``sample_budget`` candidates for the whole grid, forms their images
    under the three parts (at |c|, since the parts pass the diagonal-unitary
    check of ``_sampled_min``, so the outputs are real), and certifies each
    point's sampled outputs against its deterministic minimum by real
    Cholesky factorisations (over components, all at once, at d <= 5),
    solving by ``eigvalsh`` only where the certificate fails.
    At most 512 points' sampled outputs are held at once, and fewer when
    the outputs and their Cholesky factor would exceed 64 MB.
    """
    d = check_dimension(d)
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    aa, bb = np.meshgrid(alphas, betas, indexing="ij")
    margins = tuple(_closed_slacks(d, aa, bb).values())

    choi_min, pt_min, pos_min = (family_min_eig(d, oracle, alphas, betas)
                                 for oracle in _ORACLES)
    if sample_budget > 0:
        # Phi = (1-a-b) id + a tau0 + b Delta: the samples are imaged under the three parts
        a_flat, b_flat = aa.ravel(), bb.ravel()
        coef = np.stack([1.0 - a_flat - b_flat, a_flat, b_flat], axis=1)
        pos_min = _sampled_min(d, family_transfer_parts(d), coef,
                               pos_min.ravel(), sample_budget, seed).reshape(aa.shape)

    closed = _flags(margins)
    numeric = _flags((pos_min, choi_min, np.minimum(choi_min, pt_min)), tol)
    return {
        "alphas": alphas,
        "betas": betas,
        "closed_positive": closed[0],
        "closed_cp": closed[1],
        "closed_eb": closed[2],
        "margin_positive": margins[0],
        "margin_cp": margins[1],
        "margin_eb": margins[2],
        "numeric_positive": numeric[0],
        "numeric_cp": numeric[1],
        "numeric_eb": numeric[2],
        "choi_min": choi_min,
        "pt_min": pt_min,
        "pos_min": pos_min,
    }


def grid_agreement_report(d: int, n: int = 101, sample_budget: int = 32,
                          seed: int = 42) -> dict:
    """Closed-form vs oracle agreement on the standard grid, margin-filtered.

    Counts disagreements for P, CP and EB among points whose closed-form
    margin exceeds ``MARGIN_FILTER`` in absolute value (boundary points are
    honestly ambiguous at floating-point precision and are excluded).
    Also checks the nesting EB => CP => positive at every grid point and
    that within the CP region the PPT verdict coincides with the closed-form
    EB inequalities.
    """
    ax, bx = default_grid(d, n)
    res = classify_grid(d, ax, bx, sample_budget, seed)
    report = {"d": d, "points": int(ax.size * bx.size)}
    for key, mkey in (("positive", "margin_positive"),
                      ("cp", "margin_cp"),
                      ("eb", "margin_eb")):
        mask = np.abs(res[mkey]) > MARGIN_FILTER
        diff = res[f"closed_{key}"][mask] != res[f"numeric_{key}"][mask]
        report[f"{key}_tested"] = int(mask.sum())
        report[f"{key}_disagreements"] = int(diff.sum())
    nest = (
        (~res["closed_eb"] | res["closed_cp"])
        & (~res["closed_cp"] | res["closed_positive"])
    )
    report["nesting_violations"] = int((~nest).sum())
    # where the Choi matrix passes, the numeric EB verdict is the PPT verdict
    ppt_ok = res["numeric_cp"] & (np.abs(res["margin_eb"]) > MARGIN_FILTER)
    report["ppt_vs_eb_disagreements"] = int(
        (res["numeric_eb"][ppt_ok] != res["closed_eb"][ppt_ok]).sum()
    )
    return report


# ---------------------------------------------------------------------------
# polygons and areas
# ---------------------------------------------------------------------------

def _intersect_lines(p1, p2):
    a1, b1, c1 = p1
    a2, b2, c2 = p2
    det = a1 * b2 - a2 * b1
    if abs(det) < 1e-14:
        return None
    # solve a*alpha + b*beta = -c
    return ((-c1) * b2 - (-c2) * b1) / det, (a1 * (-c2) - a2 * (-c1)) / det


def region_polygon(which: str, d: int) -> RegionPolygon:
    """Vertices of a region, from intersecting its defining half-planes.

    Vertices are returned counterclockwise, starting from the lexicographic
    minimum.  Every vertex satisfies the region's inequalities to 1e-12.
    """
    which = _normalize_region(which)
    d = check_dimension(d)
    planes = _half_planes(which, d)
    pts = []
    for p1, p2 in combinations(planes, 2):
        pt = _intersect_lines(p1, p2)
        if pt is None:
            continue
        if all(a * pt[0] + b * pt[1] + c >= -1e-12 for a, b, c in planes):
            pts.append(pt)
    unique = []
    for pt in pts:
        if not any(abs(pt[0] - q[0]) + abs(pt[1] - q[1]) < 1e-9 for q in unique):
            unique.append(pt)
    if len(unique) < 3:
        raise DegenerateRegion(
            f"region {which} at d={d} has {len(unique)} vertices"
        )
    centroid = np.mean(unique, axis=0)
    unique.sort(key=lambda q: np.arctan2(q[1] - centroid[1], q[0] - centroid[0]))
    start = min(range(len(unique)), key=lambda i: unique[i])
    ordered = unique[start:] + unique[:start]
    poly = RegionPolygon(
        which, d, tuple((float(a) + 0.0, float(b) + 0.0) for a, b in ordered)
    )
    if shoelace_area(poly.vertices) <= 1e-12:
        raise DegenerateRegion(f"region {which} at d={d} has vanishing area")
    return poly


def shoelace_area(vertices) -> float:
    """Polygon area by the shoelace formula (positive for CCW order)."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def region_area_closed_form(which: str, d: int) -> float:
    """Closed-form region areas.

    P and CP follow the quadrilateral/triangle geometry directly.  For EB
    the area of the quadrilateral with vertices (0, 1),
    (d/(2(d-1)), 1/2), (d/(d-1), -1/(d-1)), (1, -1/d) is
    (3d - 2) / (4 (d-1)^2); see the decision notes for the discrepancy with
    the (3d - 2) / (2 d (d-1)) value sometimes quoted for this family.
    """
    which = _normalize_region(which)
    d = check_dimension(d)
    if which == "P":
        return d * (d + 2.0) / (2.0 * (d - 1.0) ** 2)
    if which == "CP":
        return d * d / (2.0 * (d - 1.0) ** 2)
    return (3.0 * d - 2.0) / (4.0 * (d - 1.0) ** 2)


def region_area(which: str, d: int) -> AreaReport:
    """Closed-form area next to the shoelace area of the constructed polygon."""
    which = _normalize_region(which)
    poly = region_polygon(which, d)
    return AreaReport(
        which=which,
        d=d,
        closed_form=region_area_closed_form(which, d),
        shoelace=shoelace_area(poly.vertices),
    )


# ---------------------------------------------------------------------------
# Schwarz falsification (empirical only; absence of a witness proves nothing)
# ---------------------------------------------------------------------------

def _schwarz_gap(blocks, x) -> np.ndarray:
    """m(X^+ X) - m(X)^+ m(X) for a stack X of shape (N, d, d), symmetrised, C-contiguous.

    The images of all the X, and of all the X^+ X, are one ``_images``
    product each under the map's ``_transfer_blocks``; real X under a real
    map give a real gap.
    """
    mx = _images(blocks, x)
    gap = _images(blocks, np.conj(np.swapaxes(x, -1, -2)) @ x)
    gap -= np.conj(np.swapaxes(mx, -1, -2)) @ mx
    gap += np.conj(np.swapaxes(gap, -1, -2))
    gap *= 0.5
    return gap


def _falsifier_chunks(d: int, sample_budget: int, seed):
    """The falsifier's candidates in scan order, as stacks of at most ``_CHUNK``.

    The first matrix unit is a stack of its own, then each fixed family
    (the other units, the witnesses, the rank-one probes) is one stack,
    cut at ``_CHUNK``, which none reaches at d <= 16; the draws come in
    stacks of ``_CHUNK``.  A family is built only when the scan reaches
    it, and random draws only for the stack being scanned; nothing before
    the draws takes from the seeded stream.  The fixed families hold real
    values and are real arrays; only the draws are complex.
    """
    # E_ij (i != j, row-major) has its 1 at flat index i d + j; a family map
    # commutes with basis permutations, so every unit's gap has the first
    # one's spectrum: on the family the first unit alone decides them all
    ones = np.flatnonzero(~np.eye(d, dtype=bool))
    for at in (ones[:1], ones[1:]):
        units = np.zeros((len(at), d * d))
        units[np.arange(len(at)), at] = 1.0
        yield from _cut(units.reshape(-1, d, d))
    yield from _cut(np.stack([witness_operator(d, float(c))
                              for c in np.linspace(-5.0, 5.0, 101)]).real.copy())
    # rank-one operators |e_1><v| whose X^+X are the positivity candidates:
    # a unital map violating positivity on |v><v| violates Schwarz on these
    v = positivity_candidates(d, 0)
    yield from _cut(np.eye(d)[0][:, None] * v[:, None, :])
    # the stream of one ginibre(d, rng) per sample: its real, then its imaginary part
    rng = np.random.default_rng(seed)
    for start in range(0, sample_budget, _CHUNK):
        g = rng.standard_normal((min(_CHUNK, sample_budget - start), 2, d, d))
        z = np.empty(g.shape[:1] + g.shape[2:], dtype=complex)
        z.real, z.imag = g[:, 0], g[:, 1]
        # the bits of dividing by the norm, which numpy does as a complex
        # division: a product with the reciprocal
        z *= 1.0 / np.linalg.norm(z, axis=(1, 2), keepdims=True)
        yield z


def _cut(family: np.ndarray):
    """Consecutive slices of ``family`` of ``_CHUNK`` candidates; the last may be shorter."""
    return (family[start:start + _CHUNK] for start in range(0, len(family), _CHUNK))


def schwarz_falsify(m: SuperMap, sample_budget: int = 10_000, seed: int = 42):
    """Search for X violating the operator Schwarz inequality for a unital map.

    The candidates, in scan order: the d(d-1) matrix units E_ij (i != j,
    row-major), the dissipativity witness family over 101 values of c in
    [-5, 5], the rank-one probes |e_1><v| for the d^2 + 1 deterministic
    positivity candidates v, then ``sample_budget`` Ginibre draws of unit
    Frobenius norm (the stream of one ``linalg.ginibre(d, rng)`` per draw).
    They are scanned in stacks: the first matrix unit alone, then each
    fixed family as one stack, and the draws ``_CHUNK`` at a time.  A
    stack is built only when every earlier one has passed, so a violation
    on the first matrix unit builds no other candidate and draws no
    sample.  On the map family a first violation lies at the first matrix
    unit or among the witnesses, or there is none and every stack is
    scanned, so few stacks pay the fixed cost per stack.

    The transfer matrix is split on its pattern's components once per
    call.  For a stack of k matrices X, m(X) and m(X^+ X) are one
    ``_images`` product each (real where the map and the stack are real),
    and the k gaps m(X^+ X) - m(X)^+ m(X) go to
    ``linalg.min_eig_capped`` capped at ``_FALSIFY_THRESHOLD`` (-1e-8): a
    batched Cholesky factorisation shows, gap by gap, that no eigenvalue
    lies below it, and only the gaps where it fails are solved by
    ``eigvalsh``, so the verdict is a plain ``eigvalsh``'s.  Returns the
    violating X with the lowest scan index (complex), or None; None is NOT
    a proof of the Schwarz property.
    """
    if not m.is_unital():
        raise NotUnital("the operator Schwarz inequality is defined for unital maps")
    blocks = _transfer_blocks(m.transfer)
    for chunk in _falsifier_chunks(m.d, int(sample_budget), seed):
        gap = _schwarz_gap(blocks, chunk)[:, None]
        cap = np.full(len(chunk), _FALSIFY_THRESHOLD)
        hits = np.flatnonzero(min_eig_capped(gap, cap) < _FALSIFY_THRESHOLD)
        if hits.size:
            return chunk[hits[0]].astype(complex)
    return None


def schwarz_boundary_scan(d: int, n_alpha: int = 16, sample_budget: int = 200,
                          seed: int = 42):
    """EMPIRICAL lower Schwarz boundary of the family, by bisection in beta.

    For each alpha, ``linalg.bisect`` shrinks the bracket between a point
    below the positivity boundary (certified non-Schwarz) and the CP lower
    boundary beta = -alpha/d (certified Schwarz), with "the falsifier finds
    no violation" as the test.  It stops when the bracket is narrower than
    1e-3 (``_SCAN_BETA_TOL``) times the gap alpha/d between the CP and P
    boundaries, so the returned midpoint cannot fall below the P boundary
    at small alpha, where an absolute width would exceed the gap.
    The result is an estimate produced by a falsifier with finite budget,
    not ground truth; no closed form for this boundary is known here.
    """
    d = check_dimension(d)

    def schwarz(alpha, beta) -> bool:
        m = build_phi_family(MapParams(d, float(alpha), float(beta)))
        return schwarz_falsify(m, sample_budget, seed) is None

    out = []
    for alpha in np.linspace(1e-3, d / (d - 1.0), n_alpha):
        # from a map that is not positive, hence not Schwarz, to a CP one
        lo, hi = bisect(partial(schwarz, alpha), -2.0 * alpha / d - 0.1, -alpha / d,
                        _SCAN_BETA_TOL * alpha / d)
        out.append((float(alpha), float(0.5 * (hi + lo))))
    return out


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def polygon_csv(poly: RegionPolygon) -> str:
    """``alpha,beta`` rows in vertex order; closing vertex not repeated."""
    lines = ["alpha,beta"]
    lines += [f"{a:.12g},{b:.12g}" for a, b in poly.vertices]
    return "\n".join(lines) + "\n"


def grid_csv(d: int, alphas, betas) -> str:
    """``alpha,beta,positive,cp,eb`` rows with closed-form booleans as 0/1."""
    d = check_dimension(d)
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    aa, bb = np.meshgrid(alphas, betas, indexing="ij")
    inside = {k: v >= 0.0 for k, v in _closed_slacks(d, aa, bb).items()}
    lines = ["alpha,beta,positive,cp,eb"]
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            lines.append(
                f"{a:.12g},{b:.12g},"
                f"{int(inside['P'][i, j])},"
                f"{int(inside['CP'][i, j])},"
                f"{int(inside['EB'][i, j])}"
            )
    return "\n".join(lines) + "\n"
