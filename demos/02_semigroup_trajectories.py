#!/usr/bin/env python3
"""Markovian semigroup trajectories in the (alpha, beta) plane.

For the generator with constant rates (kappa, nu) the evolution traces

    alpha(t) = 1 - e^{-kappa d t},
    beta(t)  = e^{-kappa d t} - e^{-kappa (d - 1 + nu) t},

starting at the identity (0, 0) and, for nu > -(d-1), ending at the
completely depolarizing channel (1, 0).  The value of nu controls how the
trajectory meets the region boundaries at t = 0:

    nu = 0         tangent to the CP boundary,
    nu = -1        tangent to the positivity boundary,
    nu = -d/(d+2)  tangent to the Schwarz boundary.

For nu < -1 the map leaves the positivity region and re-enters it at t_P,
enters CP at t_CP > t_P, and becomes entanglement breaking at t_EB > t_CP.

Usage:
    python demos/02_semigroup_trajectories.py [d] [trajectory.csv]
"""

import sys

import numpy as np

from quditmaps import dynamics
from quditmaps.channels import MapParams
from quditmaps.regions import classify_point

d = int(sys.argv[1]) if len(sys.argv) > 1 else 3
kappa = 1.0

print(f"Tangency slopes at t = 0 (d = {d}, kappa = {kappa}):")
for nu in (0.0, -d / (d + 2.0), -1.0, -1.5):
    row = [dynamics.tangency_slope(d, kappa, nu, b) for b in ("P", "CP", "Schwarz")]
    print(f"    nu = {nu:+.4f}:  dP/dt = {row[0]:+.4f}  dCP/dt = {row[1]:+.4f}"
          f"  dSchwarz/dt = {row[2]:+.4f}")

print("\nRegion crossing times (kappa = 1):")
for nu in (0.0, -0.5, -1.2, -1.5, -(d - 1) - 0.5):
    rep = dynamics.crossing_times(d, kappa, nu)
    def show(x):
        return "  none " if x is None else f"{x:7.4f}"
    print(f"    nu = {nu:+.3f}:  t_P = {show(rep.t_p)}  t_CP = {show(rep.t_cp)}"
          f"  t_EB = {show(rep.t_eb)}")

nu_demo = -1.5
rep = dynamics.crossing_times(d, kappa, nu_demo)
print(f"\nVerdicts around the crossings for nu = {nu_demo}:")
sched = dynamics.ConstantNu(d, kappa, nu_demo)
for label, t in (("t_P", rep.t_p), ("t_CP", rep.t_cp), ("t_EB", rep.t_eb)):
    for side, tt in (("-", t - 1e-4), ("+", t + 1e-4)):
        alpha, beta = dynamics.alpha_beta_at(sched, tt)
        v = classify_point(MapParams(d, alpha, beta))
        print(f"    {label}{side}: (alpha, beta) = ({alpha:.5f}, {beta:+.5f})"
              f"  positive={v.positive} cp={v.completely_positive}"
              f" eb={v.entanglement_breaking}")

if len(sys.argv) > 2:
    # the 241 times are one batched call: one Choi-minimum pass, one slack pass
    tr = dynamics.trajectory(sched, np.linspace(0.0, 6.0, 241))
    lines = ["t,alpha,beta,positive,cp,eb,min_choi_eig"]
    for t, alpha, beta, pos, cp, eb, choi_min in zip(
            tr.t, tr.alpha, tr.beta, tr.positive, tr.completely_positive,
            tr.entanglement_breaking, tr.min_choi_eig):
        lines.append(f"{t:.10g},{alpha:.10g},{beta:.10g},"
                     f"{int(pos)},{int(cp)},{int(eb)},{choi_min:.10g}")
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"\nwrote the nu = {nu_demo} trajectory to {sys.argv[2]}")
