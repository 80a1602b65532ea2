"""The runtime invariants battery must pass on a clean build (CI gate).

The battery's checks run over stacks, one batched call per (check, d).  The
per-sample loops they replaced are kept below as references: on every seed
a stacked check and its loop agree on pass/fail, and the checks that draw
nothing print the loop's detail line.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quditmaps import channels, dynamics, generators, linalg, verify
from quditmaps.channels import MapParams, build_phi_family

CHECKS = [check for group in verify.SUITES.values() for check in group]


@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_full_battery_passes(name, check):
    passed, detail = check(42, 10_000)
    assert passed, f"{name}: {detail}"


def test_single_suite_selection():
    results = verify.run_suite("channels", seed=1, budget=100)
    assert {r.name.split(".")[0] for r in results} == {"channels"}
    assert all(r.passed for r in results)


# ---------------------------------------------------------------------------
# the per-sample loops, one library call per sample
# ---------------------------------------------------------------------------

def loop_eigh_reconstruction(seed, budget):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for d in range(2, 9):
        for _ in range(20):
            a = linalg.random_hermitian(d, rng)
            w, v = linalg.eig_hermitian(a)
            resid = linalg.frobenius(v @ np.diag(w) @ v.conj().T - a)
            worst = max(worst, resid / max(linalg.frobenius(a), 1e-300))
    return worst <= 1e-10, f"worst relative residual {worst:.2e}"


def loop_partial_transpose_involution(seed, budget):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 4))
        m = linalg.ginibre(d * d, rng)
        pt = linalg.partial_transpose(m, d, 2)
        worst = max(worst, np.abs(linalg.partial_transpose(pt, d, 2) - m).max())
        worst = max(worst,
                    np.abs(linalg.partial_transpose(m.conj().T, d, 2) - pt.conj().T).max())
    return worst == 0.0, f"max deviation {worst:.2e}"


def loop_vec_roundtrip(seed, budget):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for d in range(2, 9):
        for _ in range(20):
            m = linalg.ginibre(d, rng)
            worst = max(worst, np.abs(linalg.unvec(linalg.vec(m), d) - m).max())
    return worst == 0.0, f"max deviation {worst:.2e}"


def loop_family_tp_unital(seed, budget):
    worst = 0.0
    for d in range(2, 7):
        for alpha in np.linspace(-0.5, d / (d - 1) + 0.5, 7):
            for beta in np.linspace(-1.0, 1.5, 7):
                m = build_phi_family(MapParams(d, float(alpha), float(beta)))
                ptr = channels.partial_trace_output(m.choi, d)
                worst = max(worst, float(np.abs(ptr - np.eye(d)).max()))
                vi = linalg.vec(np.eye(d))
                worst = max(worst, float(np.abs(m.transfer @ vi - vi).max()))
    return worst <= 1e-10, f"worst TP/unital defect {worst:.2e}"


def loop_choi_roundtrip(seed, budget):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 5))
        t = linalg.ginibre(d * d, rng)
        c = channels.choi_from_transfer(t, d)
        worst = max(worst, np.abs(channels.choi_from_transfer(c, d) - t).max())
    return worst <= 1e-12, f"max round-trip deviation {worst:.2e}"


def loop_adjoint_preserves_cp(seed, budget):
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(100):
        d = int(rng.integers(2, 5))
        alpha = float(rng.uniform(-0.3, d / (d - 1) + 0.3))
        beta = float(rng.uniform(-0.8, 1.2))
        m = build_phi_family(MapParams(d, alpha, beta))
        cp_m = float(np.linalg.eigvalsh(m.choi)[0]) >= -1e-9
        cp_adj = float(np.linalg.eigvalsh(channels.hs_adjoint(m).choi)[0]) >= -1e-9
        ok = ok and (cp_m == cp_adj)
    return ok, "CP(choi) iff CP(adjoint choi) on 100 family maps"


def loop_trace_annihilation(seed, budget):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for d, kappa, nu in ((2, 1.0, -0.4), (3, 0.7, -1.2), (4, 2.0, 0.3), (5, 1.0, -0.9)):
        gen = generators.build_generator(
            generators.GenParams(d, kappa, nu, tuple(rng.uniform(-1, 1, d)))
        )
        for _ in range(200):
            x = linalg.ginibre(d, rng)
            worst = max(worst, abs(np.trace(gen(x))) / max(1.0, linalg.frobenius(x)))
    return worst <= 1e-10, f"worst |Tr L(X)| {worst:.2e}"


def loop_saturation_identity(seed, budget):
    from scipy.integrate import quad

    worst = 0.0
    for d in range(2, 7):
        for t in np.linspace(0.2, 5.0, 9):
            n_int = quad(lambda u: dynamics.nu_enm(d, u), 0.0, float(t),
                         epsabs=1e-12, epsrel=1e-12, limit=500)[0]
            lhs = np.exp(-n_int) * d
            rhs = np.exp((d - 1) * t) + (d - 1) * np.exp(-t)
            worst = max(worst, abs(lhs - rhs) / rhs)
    return worst <= 1e-9, f"worst relative saturation defect {worst:.2e}"


def loop_boundary_riding(seed, budget):
    lo, hi = 0.0, -np.inf
    for d in range(2, 7):
        s = dynamics.OptimalENM(d)
        for t in np.linspace(0.0, 20.0, 41):
            ev = float(np.linalg.eigvalsh(dynamics.map_at(s, float(t)).choi)[0])
            lo, hi = min(lo, ev), max(hi, ev)
    return lo >= -1e-10 and hi <= 1e-8, f"Choi min eig in [{lo:.2e}, {hi:.2e}]"


def loop_weyl_mixture_tanh(seed, budget):
    worst = 0.0
    s = dynamics.OptimalENM(2)
    for t in np.linspace(0.0, 5.0, 100):
        diff = np.abs(
            dynamics.weyl_mixture_map(2, float(t)).transfer
            - dynamics.map_at(s, float(t)).transfer
        ).max()
        worst = max(worst, float(diff))
    return worst <= 1e-10, f"max transfer deviation from the tanh schedule {worst:.2e}"


LOOPS = {
    "eigh_reconstruction": (verify.check_eigh_reconstruction, loop_eigh_reconstruction),
    "partial_transpose_involution": (verify.check_partial_transpose_involution,
                                     loop_partial_transpose_involution),
    "vec_roundtrip": (verify.check_vec_roundtrip, loop_vec_roundtrip),
    "family_tp_unital": (verify.check_family_tp_unital, loop_family_tp_unital),
    "choi_roundtrip": (verify.check_choi_roundtrip, loop_choi_roundtrip),
    "adjoint_preserves_cp": (verify.check_adjoint_preserves_cp, loop_adjoint_preserves_cp),
    "trace_annihilation": (verify.check_trace_annihilation, loop_trace_annihilation),
    "saturation_identity": (verify.check_saturation_identity, loop_saturation_identity),
    "boundary_riding": (verify.check_boundary_riding, loop_boundary_riding),
    "weyl_mixture_tanh": (verify.check_weyl_mixture_tanh, loop_weyl_mixture_tanh),
}
DRAW_NOTHING = ("family_tp_unital", "boundary_riding", "weyl_mixture_tanh")
EXACT = ("partial_transpose_involution", "vec_roundtrip", "choi_roundtrip")


@pytest.mark.parametrize("name", sorted(LOOPS))
def test_stacked_check_agrees_with_its_loop(name):
    stacked, loop = LOOPS[name]
    for seed in range(10):
        passed, detail = stacked(seed, 10_000)
        ref_passed, ref_detail = loop(seed, 10_000)
        assert passed == ref_passed, (seed, detail, ref_detail)
        if name in EXACT:
            assert detail.endswith(" 0.00e+00"), (seed, detail)
        if name in DRAW_NOTHING:
            assert detail == ref_detail, seed


def spoil_last(fn):
    """``fn`` with entry (0, 0) of the last matrix of its output moved by 1e-6."""
    def broken(*args, **kwargs):
        out = np.array(fn(*args, **kwargs))
        out[(-1,) * (out.ndim - 2) + (0, 0)] += 1e-6
        return out
    return broken


@pytest.mark.parametrize("owner, name, check", [
    (linalg, "partial_transpose", verify.check_partial_transpose_involution),
    (linalg, "unvec", verify.check_vec_roundtrip),
    (channels, "choi_from_transfer", verify.check_choi_roundtrip),
])
def test_a_broken_primitive_fails_its_stacked_check(monkeypatch, owner, name, check):
    # one wrong matrix in the stack must show, so no check compares a stack with itself
    assert check(3, 0)[0]
    monkeypatch.setattr(owner, name, spoil_last(getattr(owner, name)))
    passed, detail = check(3, 0)
    assert not passed, detail


def test_doubling_the_saturation_nodes_moves_no_integral():
    d, t, once = verify._enm_rate_integrals(verify._SATURATION_NODES)
    _, _, twice = verify._enm_rate_integrals(2 * verify._SATURATION_NODES)
    assert once.shape == twice.shape == (d.size, t.size) == (5, 9)
    assert (np.abs(once - twice) <= 1e-12 * np.abs(twice)).all()


def test_dynamics_suite_loads_no_scipy_integrate():
    code = ("import sys; from quditmaps import verify; "
            "assert all(r.passed for r in verify.run_suite('dynamics')); "
            "print('scipy.integrate' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(verify.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "False"
