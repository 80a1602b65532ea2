"""Reference helpers the tests build expected values from; the package does not use them."""

import json

import numpy as np
from scipy.integrate import quad

from quditmaps.channels import SuperMap, family_transfer_parts
from quditmaps.dynamics import _COND_LIMIT, _EXTRACT_DT
from quditmaps.errors import SingularMap
from quditmaps.generators import dissipation_forms, generator_blocks
from quditmaps.linalg import deterministic_candidates, positivity_candidates, unvec, vec


def basis_matrix(i: int, j: int, d: int) -> np.ndarray:
    """Matrix unit |i><j| (0-indexed)."""
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def phase_unitary(d: int) -> np.ndarray:
    """Z = sum_l exp(2 pi i l / d) E_ll, the diagonal clock unitary."""
    return np.diag(np.exp(2j * np.pi * np.arange(1, d + 1) / d))


def pair_functional(gen, x: np.ndarray, y: np.ndarray) -> float:
    """<y| L(|x><x|) |y> evaluated through the generator's transfer matrix."""
    out = gen(np.outer(x, x.conj()))
    return float(np.real(y.conj() @ out @ y))


def supermap_to_json(m: SuperMap) -> dict:
    """{"d": d, "transfer": [[re, im], ...]} with row-major entries."""
    return {"d": m.d, "transfer": [[float(z.real), float(z.imag)]
                                   for z in m.transfer.reshape(-1)]}


def supermap_from_json(obj) -> SuperMap:
    """The map of a ``supermap_to_json`` object, or of its JSON text."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    d = int(obj["d"])
    arr = np.asarray(obj["transfer"], dtype=float)
    return SuperMap(d, (arr[:, 0] + 1j * arr[:, 1]).reshape(d * d, d * d))


def alpha_beta_by_quadrature(d: int, kappa_fn, nu_fn, t: float, tol: float = 1e-11):
    """(alpha, beta) at time t from adaptive quadrature of the rate integrals.

    alpha = 1 - A and beta = A - B with A = exp(-d Int kappa) and
    B = exp(-Int kappa (d - 1 + nu)); cross-checks the closed-form trajectories.
    """
    int_kappa = quad(kappa_fn, 0.0, t, epsabs=tol, epsrel=tol, limit=500)[0]
    int_kn = quad(lambda u: kappa_fn(u) * (d - 1.0 + nu_fn(u)), 0.0, t,
                  epsabs=tol, epsrel=tol, limit=500)[0]
    a_fac = np.exp(-d * int_kappa)
    b_fac = np.exp(-int_kn)
    return 1.0 - a_fac, a_fac - b_fac


def dense_images(m: SuperMap, x) -> np.ndarray:
    """m applied to the (..., d, d) stack x by one dense product ``vec(x) @ T^T``."""
    return unvec(vec(x) @ m.transfer.T, m.d)


def schwarz_violation(m: SuperMap, x):
    """Smallest eigenvalue of m(X^+ X) - m(X)^+ m(X); negative = violation.

    ``x`` is one d x d matrix (a float is returned) or a (..., d, d) stack.
    The images are ``dense_images``, not the package's blockwise product.
    """
    x = np.asarray(x, dtype=complex)
    adjoint = np.conj(np.swapaxes(x, -1, -2))
    mx = dense_images(m, x)
    gap = dense_images(m, adjoint @ x) - np.conj(np.swapaxes(mx, -1, -2)) @ mx
    vals = np.linalg.eigvalsh((gap + np.conj(np.swapaxes(gap, -1, -2))) / 2.0)[..., 0]
    return float(vals) if vals.ndim == 0 else vals


def sampled_positivity_min(m: SuperMap, sample_budget: int = 256, seed: int = 42) -> float:
    """min over candidate pure inputs of the smallest output eigenvalue, for any map.

    The package's candidates (``linalg.positivity_candidates`` with the
    seeded draws), imaged by ``dense_images`` and solved by one dense
    ``eigvalsh``; no certificate and no blockwise product.
    """
    cand = positivity_candidates(m.d, sample_budget, np.random.default_rng(seed))
    images = dense_images(m, np.einsum("ni,nj->nij", cand, cand.conj()))
    return float(np.linalg.eigvalsh((images + np.conj(np.swapaxes(images, -1, -2))) / 2.0)[:, 0].min())


def dense_representative_minima(d: int, t: float) -> np.ndarray:
    """Smallest eigenvalue of Q_hop + t Q_phase for each orbit representative, by one dense solve.

    The basis, pair and uniform representatives (rows 0, d and d^2 of the
    deterministic candidates), in that order: their dense forms, built at |w|
    by ``generators.dissipation_forms``, go through one ``eigvalsh``.
    """
    ws = deterministic_candidates(d)[[0, d, d * d]]
    hop, phase = dissipation_forms(d, np.abs(ws))
    return np.linalg.eigvalsh(hop + t * phase)[:, 0]


def dense_extraction(map_fn, t: float):
    """(generator transfer, kappa_fit, nu_fit, residual, condition number) by dense algebra.

    The extraction as one d^2 x d^2 problem: ``np.linalg.cond``, ``inv`` and
    a product of the whole transfers, and ``lstsq`` over all d^4 entries.
    Raises SingularMap on the package's condition.
    """
    m0 = map_fn(t)
    d, dt = m0.d, _EXTRACT_DT
    cond = float(np.linalg.cond(m0.transfer))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularMap(f"transfer condition number {cond:.3e} at t={t}")
    if t >= dt:
        deriv = (map_fn(t + dt).transfer - map_fn(t - dt).transfer) / (2.0 * dt)
    else:
        deriv = (map_fn(t + dt).transfer - m0.transfer) / dt
    gen = deriv @ np.linalg.inv(m0.transfer)
    hop, phase = generator_blocks(d)
    basis = np.column_stack([hop.ravel(), phase.ravel()])
    coef, *_ = np.linalg.lstsq(basis, gen.ravel(), rcond=None)
    residual = float(np.linalg.norm(basis @ coef - gen.ravel()))
    kappa = float(coef[0].real)
    return gen, kappa, float(d * coef[1].real / kappa), residual, cond


def dense_family_fit(m: SuperMap):
    """(alpha, beta, residual) of ``channels.family_fit`` by ``lstsq`` over all d^4 entries."""
    t_id, t_tau0, t_delta = family_transfer_parts(m.d)
    cols = np.column_stack([(t_tau0 - t_id).ravel(), (t_delta - t_id).ravel()])
    rhs = (m.transfer - t_id).ravel()
    coef, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
    return float(coef[0].real), float(coef[1].real), float(np.linalg.norm(cols @ coef - rhs))
