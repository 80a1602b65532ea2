"""The names the benchmark's tracer patches must stay on the package.

``perfbench/tracer.py`` wraps functions on the module attribute their
caller looks them up by (``generators.random_traceless``,
``generators.null_space``, ``dynamics.expm``, ...).  Deleting such a name
breaks ``perfbench/run.py --trace 1`` at ``Tracer.install`` with an
``AttributeError``, even when the program behaves the same; this test
fails the same way.
"""

import importlib.util
from pathlib import Path

from quditmaps import generators as g

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_tracer_installs_on_the_package_and_restores_it():
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        patched = tracer.patched
        assert patched
        assert all(current(owner, attr) is not orig for owner, attr, orig in patched)
        g._sample_parts.clear()  # so the probe draws its Haar vectors
        with tracer.call(0, "probe", 3):
            g.is_dissipative(g.GenParams(3, 1.0, -0.5), 50, 1)
    finally:
        tracer.restore()
        g._sample_parts.clear()
    assert all(current(owner, attr) is orig for owner, attr, orig in patched)
    names = {span[0] for span in tracer.spans}
    assert {"generators.dissipativity_oracle", "linalg.sample"} <= names


def test_tracer_records_the_schwarz_falsifier_and_restores_its_names():
    # the tracer patches regions.ginibre and regions.positivity_candidates,
    # which the batched falsifier no longer calls one candidate at a time
    from quditmaps import regions as r
    from quditmaps.channels import MapParams, build_phi_family

    names = ("schwarz_falsify", "ginibre", "positivity_candidates")
    before = {name: getattr(r, name) for name in names}
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        patched = tracer.patched
        with tracer.call(0, "probe", 3):
            r.schwarz_falsify(build_phi_family(MapParams(3, 0.4, 0.1)), 50, 1)
    finally:
        tracer.restore()
    assert all(current(owner, attr) is orig for owner, attr, orig in patched)
    assert all(getattr(r, name) is fn for name, fn in before.items())
    spans = {span[0] for span in tracer.spans}
    assert {"regions.schwarz_falsify", "regions.positivity_candidates"} <= spans
