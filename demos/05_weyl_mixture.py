#!/usr/bin/env python3
"""A convex combination of Markovian semigroups that is not Markovian.

The d^2 Weyl unitaries W_{kl} = Z^k X^l (clock Z, shift X) satisfy the
twirl identity sum_{kl} W A W^+ = d I Tr A.  Mixing the d(d-1) semigroups
generated by L_{kl}(A) = W_{kl} A W_{kl}^+ - A (shifting ones, l > 0) with
uniform weights gives a CPTP family

    Phi_t = (1/(d(d-1))) sum_{k, l>0} exp(t L_{kl})

whose Choi matrix is singular for every t: a mixture of perfectly
Markovian evolutions rides the boundary of complete positivity.  At d = 2
its time-local rates are kappa = 1, nu(t) = -tanh(t), the canonical
eternally non-Markovian qubit evolution.  For prime d the mixture stays
inside the (alpha, beta) family; for composite d it leaves it (coherence
is exchanged between off-diagonals with the same cyclic displacement), so
time-local rates are reported only through numerical extraction.

The mixture is built from its spectrum, with no matrix exponential.
Conjugation by a Weyl operator is diagonal on the Weyl operators:
W_kl W_ab W_kl^+ = omega^n W_ab with n = (k b - l a) mod d.  So
exp(t L_kl) scales W_ab by exp(t(omega^n - 1)), and the mixture scales it
by 1 + mu_ab(t), where mu_ab(t) = sum_n counts[ab, n] expm1(t(omega^n - 1))
/ (d(d-1)) and counts[ab, n] counts the (k, l > 0) with phase omega^n.
The transfer is I + V diag(mu) V^+, with V the orthonormal columns
vec(W_ab)/sqrt(d); it is real, and nonzero only between entries (r, c) and
(r', c') with r - c = r' - c'.  Its t -> infinity limit is exact too:
mu_ab = counts[ab, 0]/(d(d-1)) - 1.

Usage:
    python demos/05_weyl_mixture.py [d]
"""

import sys

import numpy as np

from quditmaps import dynamics as dy
from quditmaps.channels import family_fit, named_map

d = int(sys.argv[1]) if len(sys.argv) > 1 else 3

print(f"Weyl operators for d = {d}: W_kl = Z^k X^l")
ops = dy.weyl_ops(d)
rng = np.random.default_rng(42)
a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
twirl = sum(w @ a @ w.conj().T for w in ops)
print(f"    twirl identity defect: "
      f"{np.abs(twirl - d*np.eye(d)*np.trace(a)).max():.2e}")

print("\nMixture of the shifting-Weyl semigroups:")
for t in (0.2, 0.8, 2.0, 5.0):
    m = dy.weyl_mixture_map(d, t)
    ev = np.linalg.eigvalsh(m.choi)
    alpha, beta, resid = family_fit(m)
    print(f"    t = {t:4.1f}: Choi min eig = {ev[0]:+.2e}, family fit "
          f"(alpha, beta) = ({alpha:.4f}, {beta:+.4f}), fit residual = {resid:.2e}")
if d in (2, 3, 5, 7, 11, 13):
    print("    (prime d: the mixture stays in the two-parameter family)")
else:
    print("    (composite d: nonzero residual, the mixture leaves the family)")

print("\nExtracted time-local rates:")
for t in (0.3, 0.8, 1.5, 3.0):
    rep = dy.extract_time_local_generator(lambda u: dy.weyl_mixture_map(d, u), t)
    note = ""
    if d == 2:
        note = f"   [-tanh(t) = {-np.tanh(t):+.6f}]"
    print(f"    t = {t:4.1f}: kappa_fit = {rep.kappa_fit:+.6f}, "
          f"nu_fit = {rep.nu_fit:+.6f}, fit residual = {rep.residual:.1e}{note}")

print("\nLong-time limit (average of the cyclic-group conditional expectations):")
asym = dy.asymptotic_map(dy.WeylMixture(d))
e4, _ = named_map("E4", d)
gap = np.abs(asym.transfer - e4.transfer).max()
print(f"    max transfer deviation from E4: {gap:.2e}"
      + ("  -> equals E4" if gap < 1e-10 else "  -> differs from E4 "
         "(composite d keeps coherence-transfer terms)"))
far = dy.weyl_mixture_map(d, 50.0)
print(f"    deviation from the t = 50 map:  "
      f"{np.abs(asym.transfer - far.transfer).max():.2e}")
