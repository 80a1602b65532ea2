"""The runtime invariants battery must pass on a clean build (CI gate)."""

import pytest

from quditmaps import verify

CHECKS = [check for group in verify.SUITES.values() for check in group]


@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_full_battery_passes(name, check):
    passed, detail = check(42, 10_000)
    assert passed, f"{name}: {detail}"


def test_single_suite_selection():
    results = verify.run_suite("channels", seed=1, budget=100)
    assert {r.name.split(".")[0] for r in results} == {"channels"}
    assert all(r.passed for r in results)
