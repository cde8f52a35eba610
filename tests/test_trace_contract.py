"""The benchmark's trace contract, checked without running the benchmark.

`perfbench/worker.py::wrap_layers` wraps functions and kernel methods of
the package by name.  A traced run whose target went missing reports it as
absent and loses its per-layer metric, and a wrapper left in place after
`Tracer.remove` would time every later call.  So every target must exist,
calls made inside the package must go through the wrappers, and removing
them must restore the original objects everywhere they were bound.
"""

import sys
from pathlib import Path

import pytest

from riemmean import manifolds
from riemmean.frechet import Configuration

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import worker

    return tracer, worker


def bindings() -> dict:
    """Every name bound in a package module or on a manifold class."""
    owners = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "riemmean"]
    owners += [c for c in vars(manifolds).values()
               if isinstance(c, type) and issubclass(c, manifolds.Manifold)]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_every_traced_layer_exists_and_unwraps(perfbench):
    tracer, worker = perfbench
    from riemmean import frechet

    before = bindings()
    karcher = frechet.karcher_descent
    tr = tracer.Tracer(root_parent="lab.run_experiment")
    worker.wrap_layers(tr)
    try:
        assert tr.absent == set()
        assert frechet.karcher_descent is not karcher
        # calls made inside the package reach the wrappers: one multistart
        # mean on S^2 is 5 data seeds plus 20 quasi-random ones
        sphere = manifolds.Sphere(2)
        pts = tuple(sphere.point(v) for v in
                    ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                     [0.6, 0.8, 0.0], [0.0, 0.6, 0.8]))
        frechet.frechet_mean(Configuration(sphere, pts))
        assert tr.spans["frechet.frechet_mean"].calls == 1
        assert tr.spans["frechet.karcher_descent"].calls == 25
        assert tr.spans["frechet.descent_state"].calls > 25
    finally:
        tr.remove()
    assert frechet.karcher_descent is karcher
    after = bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
