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

``classify_numeric`` classifies one point: it builds the d^2 x d^2 map and
its Choi matrix, and takes the Choi and partial-transpose minima from
``linalg.min_eig_affine``, which solves the blocks of each matrix's own
nonzero pattern.  ``classify_grid`` also uses only generic structure: the
family is affine in (alpha, beta), so the candidate images under its three
parts are computed once per call, and the minima are solved on the blocks
of the parts' joint nonzero pattern.  Neither takes anything from the
closed forms.  The dense d^2 x d^2 ``eigvalsh`` references live in the
tests: ``test_grid_minima_match_dense_pointwise_solves`` and
``test_classify_numeric_margins_match_dense_solves`` in
``tests/test_regions.py``, and ``test_trajectory_min_choi_eig_matches_dense_solve``
in ``tests/test_dynamics.py``.

The Schwarz region has no closed form here; the module exposes only a
falsifier for the operator Schwarz inequality and an empirical boundary
scan built on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .channels import (
    MapParams,
    SuperMap,
    build_phi_family,
    choi_from_transfer,
    family_transfer_parts,
)
from .errors import DegenerateRegion, NotUnital, QuditMapsError, UnknownName
from .generators import two_coordinate_pairs, witness_operator
from .linalg import (
    check_dimension,
    ginibre,
    min_eig_affine,
    partial_transpose,
    unvec,
    vec,
)

REGIONS = ("P", "CP", "EB")

# Oracle-agreement tests exclude points closer to a boundary than this.
MARGIN_FILTER = 1e-6


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
    """Constraints a*alpha + b*beta + c >= 0 defining each region."""
    h = d / (d - 1.0)
    base = [(1.0, 0.0, 0.0), (-1.0, 0.0, h)]  # 0 <= alpha <= d/(d-1)
    if which == "P":
        return base + [(2.0 / d, 1.0, 0.0), (-1.0, -1.0, h)]
    if which == "CP":
        return base + [(1.0 / d, 1.0, 0.0), (-(d + 1.0) / d, -1.0, h)]
    if which == "EB":
        return base + [
            (1.0 / d, 1.0, 0.0),
            ((d + 1.0) / d, 1.0, -1.0),      # beta >= 1 - alpha - alpha/d
            (-(d + 1.0) / d, -1.0, h),
            (-(d - 1.0) / d, -1.0, 1.0),     # beta <= 1 - alpha + alpha/d
        ]
    raise UnknownName(f"unknown region {which!r}; choose from {REGIONS}")


def _normalize_region(which: str) -> str:
    key = str(which).upper()
    if key not in REGIONS:
        raise UnknownName(f"unknown region {which!r}; choose from {REGIONS}")
    return key


def region_margin(which: str, p: MapParams) -> float:
    """Smallest slack of the region's inequalities at (alpha, beta); signed."""
    which = _normalize_region(which)
    return min(a * p.alpha + b * p.beta + c for a, b, c in _half_planes(which, p.d))


def classify_point(p: MapParams) -> RegionVerdict:
    """Closed-form region membership with the binding-inequality slacks."""
    m_p = region_margin("P", p)
    m_cp = region_margin("CP", p)
    m_eb = region_margin("EB", p)
    return RegionVerdict(
        positive=m_p >= 0.0,
        completely_positive=m_cp >= 0.0,
        entanglement_breaking=m_eb >= 0.0,
        margin_positive=m_p,
        margin_cp=m_cp,
        margin_eb=m_eb,
    )


# ---------------------------------------------------------------------------
# numeric oracles
# ---------------------------------------------------------------------------

def positivity_candidates(d: int, sample_budget: int = 0,
                          rng: np.random.Generator | None = None) -> np.ndarray:
    """Pure-state input candidates for the positivity falsifier, shape (N, d).

    Basis vectors expose alpha < 0, the two-coordinate superpositions expose
    the lower boundary beta >= -2 alpha/d, and the uniform superposition
    exposes the upper boundary beta <= d/(d-1) - alpha.  ``sample_budget``
    random unit vectors are appended, drawn from ``rng``, which is then
    required.
    """
    if sample_budget > 0 and rng is None:
        raise QuditMapsError("sample_budget > 0 needs a random generator rng")
    vecs = list(np.eye(d, dtype=complex))
    for x, y in two_coordinate_pairs(d):
        vecs.extend([x, y])
    vecs.append(np.ones(d, dtype=complex) / np.sqrt(d))
    if sample_budget > 0:
        g = ginibre(d, rng, n=int(sample_budget))[:, :, 0]
        g = g / np.linalg.norm(g, axis=1, keepdims=True)
        vecs.extend(list(g))
    return np.asarray(vecs)


def sampled_positivity_min(m: SuperMap, sample_budget: int = 256,
                           seed: int = 42) -> float:
    """min over candidate pure inputs of the smallest output eigenvalue."""
    rng = np.random.default_rng(seed)
    cand = positivity_candidates(m.d, sample_budget, rng)
    rho = np.einsum("ni,nj->nij", cand, cand.conj())
    # one matrix product for all candidates, where m(rho) would make one each
    out = unvec((m.transfer @ vec(rho).T).T, m.d)
    out = (out + np.conj(np.swapaxes(out, -1, -2))) / 2.0
    return float(np.linalg.eigvalsh(out)[:, 0].min())


def classify_numeric(p: MapParams, sample_budget: int = 256, seed: int = 42,
                     tol: float = 1e-9) -> RegionVerdict:
    """Region membership from eigenvalue oracles, independent of the closed forms.

    CP: Choi PSD.  EB: Choi PSD and PPT of the Choi (faithful for this
    family).  Positive: not falsified by pure-state sampling.  The Choi and
    partial-transpose minima are solved blockwise on each matrix's own
    nonzero pattern by ``linalg.min_eig_affine``.
    """
    m = build_phi_family(p)
    choi_min = float(min_eig_affine(m.choi[None], [[1.0]])[0])
    pt_min = float(min_eig_affine(partial_transpose(m.choi, p.d, 2)[None], [[1.0]])[0])
    pos_min = sampled_positivity_min(m, sample_budget, seed)
    return RegionVerdict(
        positive=pos_min >= -tol,
        completely_positive=choi_min >= -tol,
        entanglement_breaking=(choi_min >= -tol) and (pt_min >= -tol),
        margin_positive=pos_min,
        margin_cp=choi_min,
        margin_eb=min(choi_min, pt_min),
    )


# ---------------------------------------------------------------------------
# vectorized grid classification
# ---------------------------------------------------------------------------

def default_grid(d: int, n: int = 101, pad: float = 0.2):
    """n-point axes spanning [-pad, d/(d-1) + pad] in both coordinates."""
    hi = d / (d - 1.0) + pad
    ax = np.linspace(-pad, hi, n)
    return ax, ax.copy()


def _closed_slacks(d: int, aa, bb) -> dict:
    """Binding-inequality slack of each region, elementwise over (alpha, beta) arrays."""
    return {
        which: np.min(np.stack([pa * aa + pb * bb + pc
                                for pa, pb, pc in _half_planes(which, d)]), axis=0)
        for which in REGIONS
    }


# Bytes of positivity-pass outputs held at once; at d = 16 with 321
# candidates a point's outputs take 1.3 MB, so ``chunk`` alone would hold 0.67 GB.
_CHUNK_BYTES = 64 * 2**20


def classify_grid(d: int, alphas, betas, sample_budget: int = 32,
                  seed: int = 42, tol: float = 1e-9,
                  chunk: int = 512) -> dict:
    """Closed-form and numeric classification over a coordinate grid.

    Returns arrays of shape (len(alphas), len(betas)): closed-form booleans
    and margins, plus numeric booleans with the oracle minima.  The numeric
    pass shares one candidate set across the grid, combines each point's
    outputs from the images under the family's three parts, and solves the
    Choi and partial-transpose minima blockwise; ``chunk`` bounds the points
    whose outputs are held at once, and fewer are held when their outputs
    would exceed 64 MB.
    """
    d = check_dimension(d)
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    aa, bb = np.meshgrid(alphas, betas, indexing="ij")
    a_flat, b_flat = aa.ravel(), bb.ravel()
    shape = aa.shape
    margins = _closed_slacks(d, aa, bb)

    # Phi = (1-a-b) id + a tau0 + b Delta: every oracle works on the three parts
    coef = np.stack([1.0 - a_flat - b_flat, a_flat, b_flat], axis=1)
    parts = np.stack(family_transfer_parts(d))
    choi_parts = choi_from_transfer(parts, d)
    choi_min = min_eig_affine(choi_parts, coef)
    pt_min = min_eig_affine(partial_transpose(choi_parts, d, 2), coef)

    rng = np.random.default_rng(seed)
    cand = positivity_candidates(d, sample_budget, rng)
    inputs = vec(np.einsum("ni,nj->nij", cand, cand.conj()))
    images = unvec(inputs @ np.swapaxes(parts, -1, -2), d)  # (3, N, d, d)
    # the products carry rounding; real combinations of Hermitian images stay Hermitian
    images = (images + np.conj(np.swapaxes(images, -1, -2))) / 2.0
    g = a_flat.size
    chunk = max(1, min(chunk, _CHUNK_BYTES // images[0].nbytes))
    pos_min = np.empty(g)
    for start in range(0, g, chunk):
        sl = slice(start, min(start + chunk, g))
        out = np.tensordot(coef[sl], images, axes=1)
        pos_min[sl] = np.linalg.eigvalsh(out)[:, :, 0].min(axis=1)

    return {
        "alphas": alphas,
        "betas": betas,
        "closed_positive": margins["P"] >= 0.0,
        "closed_cp": margins["CP"] >= 0.0,
        "closed_eb": margins["EB"] >= 0.0,
        "margin_positive": margins["P"],
        "margin_cp": margins["CP"],
        "margin_eb": margins["EB"],
        "numeric_positive": (pos_min >= -tol).reshape(shape),
        "numeric_cp": (choi_min >= -tol).reshape(shape),
        "numeric_eb": ((choi_min >= -tol) & (pt_min >= -tol)).reshape(shape),
        "choi_min": choi_min.reshape(shape),
        "pt_min": pt_min.reshape(shape),
        "pos_min": pos_min.reshape(shape),
    }


def grid_agreement_report(d: int, n: int = 101, pad: float = 0.2,
                          sample_budget: int = 32, seed: int = 42,
                          tol: float = 1e-9,
                          margin_filter: float = MARGIN_FILTER) -> dict:
    """Closed-form vs oracle agreement on the standard grid, margin-filtered.

    Counts disagreements for P, CP and EB among points whose closed-form
    margin exceeds ``margin_filter`` in absolute value (boundary points are
    honestly ambiguous at floating-point precision and are excluded).
    Also checks the nesting EB => CP => positive at every grid point and
    that within the CP region the PPT verdict coincides with the closed-form
    EB inequalities.
    """
    ax, bx = default_grid(d, n, pad)
    res = classify_grid(d, ax, bx, sample_budget, seed, tol)
    report = {"d": d, "points": int(ax.size * bx.size)}
    for key, mkey in (("positive", "margin_positive"),
                      ("cp", "margin_cp"),
                      ("eb", "margin_eb")):
        mask = np.abs(res[mkey]) > margin_filter
        diff = res[f"closed_{key}"][mask] != res[f"numeric_{key}"][mask]
        report[f"{key}_tested"] = int(mask.sum())
        report[f"{key}_disagreements"] = int(diff.sum())
    nest = (
        (~res["closed_eb"] | res["closed_cp"])
        & (~res["closed_cp"] | res["closed_positive"])
    )
    report["nesting_violations"] = int((~nest).sum())
    ppt_ok = res["numeric_cp"] & (np.abs(res["margin_eb"]) > margin_filter)
    ppt = res["pt_min"] >= -tol
    report["ppt_vs_eb_disagreements"] = int(
        (ppt[ppt_ok] != res["closed_eb"][ppt_ok]).sum()
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

def schwarz_violation(m: SuperMap, x: np.ndarray) -> float:
    """Smallest eigenvalue of m(X^+ X) - m(X)^+ m(X); negative = violation."""
    mx = m(x)
    gap = m(x.conj().T @ x) - mx.conj().T @ mx
    gap = (gap + gap.conj().T) / 2.0
    return float(np.linalg.eigvalsh(gap)[0])


def _falsifier_candidates(d: int, sample_budget: int, rng: np.random.Generator):
    for i in range(d):
        for j in range(d):
            if i != j:
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = 1.0
                yield e
    for c in np.linspace(-5.0, 5.0, 101):
        yield witness_operator(d, float(c))
    # rank-one operators whose X^+X are the positivity candidates: a unital
    # map violating positivity on |v><v| violates Schwarz on these
    for v in positivity_candidates(d, 0, rng):
        yield np.outer(np.eye(d, dtype=complex)[0], v.conj())
    for k in range(int(sample_budget)):
        g = ginibre(d, rng)
        yield g / np.linalg.norm(g)


def schwarz_falsify(m: SuperMap, sample_budget: int = 10_000, seed: int = 42,
                    threshold: float = -1e-8):
    """Search for X violating the operator Schwarz inequality for a unital map.

    Scans matrix units, the dissipativity witness family over c in [-5, 5],
    rank-one probes, then ``sample_budget`` random operators.  Returns a
    violating X or None; None is NOT a proof of the Schwarz property.
    """
    if not m.is_unital():
        raise NotUnital("the operator Schwarz inequality is defined for unital maps")
    rng = np.random.default_rng(seed)
    for x in _falsifier_candidates(m.d, sample_budget, rng):
        if schwarz_violation(m, x) < threshold:
            return x
    return None


def schwarz_boundary_scan(d: int, n_alpha: int = 16, sample_budget: int = 200,
                          seed: int = 42, beta_tol: float = 1e-3):
    """EMPIRICAL lower Schwarz boundary of the family, by bisection in beta.

    For each alpha the scan bisects between the CP lower boundary
    beta = -alpha/d (certified Schwarz) and a point below the positivity
    boundary (certified non-Schwarz), using the falsifier as the test.
    ``beta_tol`` is relative: the bisection stops when the bracket is
    narrower than ``beta_tol`` times the gap alpha/d between the CP and P
    boundaries, so the returned midpoint cannot fall below the P boundary
    at small alpha, where an absolute width would exceed the gap.
    The result is an estimate produced by a falsifier with finite budget,
    not ground truth; no closed form for this boundary is known here.
    """
    d = check_dimension(d)
    out = []
    for alpha in np.linspace(1e-3, d / (d - 1.0), n_alpha):
        hi = -alpha / d              # Schwarz holds (map is CP)
        lo = -2.0 * alpha / d - 0.1  # map is not positive, hence not Schwarz
        while hi - lo > beta_tol * alpha / d:
            mid = 0.5 * (hi + lo)
            m = build_phi_family(MapParams(d, float(alpha), float(mid)))
            if schwarz_falsify(m, sample_budget, seed) is None:
                hi = mid
            else:
                lo = mid
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
