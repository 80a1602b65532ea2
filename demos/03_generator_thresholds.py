#!/usr/bin/env python3
"""The three positivity classes of the generator semigroup exp(t L).

The generator family

    L(rho) = -i[H, rho] + kappa [ (sum_{i!=j} E_ij rho E_ji - (d-1) rho)
             + (nu/d) (sum_k Z^k rho Z*^k - (d-1) rho) ]

produces a semigroup of positive maps iff nu >= -1, Schwarz maps iff
nu >= -d/(d+2), and completely positive maps iff nu >= 0 -- independent of
the dimension for the first and last thresholds.  Each closed form is
paired with a numerical oracle:

  * orthonormal-pair functional  <y|L(|x><x|)|y>  for positivity,
  * smallest eigenvalue of the Choi matrix compressed away from the
    maximally entangled vector for complete positivity,
  * the smallest eigenvalue over traceless X of the Hermitian form
    x^+ Q(w) x = w^+ D(X) w, D the dissipation function, minimised over
    fixed output vectors w, for the Schwarz class (the traceless witness
    M(a, X), a = 1 - nu, is printed beside it as a closed-form cross-check).

The script prints the closed-form thresholds, then recovers each one by
bisection using only the oracles.

Usage:
    python demos/03_generator_thresholds.py [d]
"""

import sys

from quditmaps import generators as g

d = int(sys.argv[1]) if len(sys.argv) > 1 else 3
budget = 4000

print(f"Closed-form thresholds for d = {d}:")
print(f"    positive semigroup    nu >= {g.positivity_threshold(d):+.6f}")
print(f"    Schwarz semigroup     nu >= {g.schwarz_threshold(d):+.6f}")
print(f"    CP semigroup          nu >= {g.ccp_threshold(d):+.6f}")

print("\nOracle values straddling each threshold:")
for nu in (-1.05, -1.0, -0.95):
    rep = g.is_conditionally_positive(g.GenParams(d, 1.0, nu), budget, seed=42)
    print(f"    pair oracle      nu = {nu:+.3f}: sampled min = {rep.sampled_min:+.6f}")
th = g.schwarz_threshold(d)
for nu in (th - 0.05, th, th + 0.05):
    rep = g.is_dissipative(g.GenParams(d, 1.0, nu), budget, seed=42)
    print(f"    w-form oracle    nu = {nu:+.3f}: w-oracle min = "
          f"{rep.min_sampled_eig:+.6f} ({rep.argmin_family}), "
          f"witness min = {rep.min_witness_eig:+.6f}")
for nu in (-0.05, 0.0, 0.05):
    rep = g.is_ccp(g.GenParams(d, 1.0, nu))
    print(f"    projected Choi   nu = {nu:+.3f}: min eig = "
          f"{rep.min_eig_projected:+.6f}")


def bisect(is_above, lo, hi, tol=1e-4):
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if is_above(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


print("\nThresholds recovered by oracle-only bisection:")
est_p = bisect(
    lambda nu: g.is_conditionally_positive(
        g.GenParams(d, 1.0, nu), budget, 42).sampled_min >= -1e-9,
    -1.2, -0.8)
est_s = bisect(
    lambda nu: g.is_dissipative(
        g.GenParams(d, 1.0, nu), budget, 42).min_sampled_eig >= -1e-9,
    -1.0, 0.0)
est_c = bisect(
    lambda nu: g.is_ccp(g.GenParams(d, 1.0, nu)).min_eig_projected >= -1e-9,
    -0.2, 0.2)
print(f"    positivity: {est_p:+.5f}   (exact {-1.0:+.5f})")
print(f"    Schwarz:    {est_s:+.5f}   (exact {th:+.5f})")
print(f"    CP:         {est_c:+.5f}   (exact {0.0:+.5f})")

print("\nRelaxation rates and the universal bound Gamma_max <= c_d Gamma:")
for cls in ("positive", "schwarz", "kpositive"):
    nu = {"positive": -1.0, "schwarz": th, "kpositive": 0.0}[cls]
    rep = g.spectrum_rates(g.GenParams(d, 1.0, nu), cls)
    print(f"    class {cls:9s} at nu = {nu:+.4f}: Gamma_max = {rep.gamma_max:.4f},"
          f" c_d Gamma = {rep.c_d * rep.gamma_total:.4f},"
          f" saturated = {rep.bound_saturated}")
print("    (the bound saturates at these nu values only for d = 2)")
