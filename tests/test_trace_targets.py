"""The benchmark tracer's contract with the package.

`perfbench/tracing.py` wraps each `(module, name)` in its `TARGETS` by
`getattr`/`setattr`, so the package must keep every one of those names,
and its callers must resolve them at the module attribute the tracer
replaces.  A simplification that deletes a traced name or calls around it
fails here rather than breaking `perfbench/run.py --trace 1`.  The tracer
module is read and executed here; nothing under `perfbench/` is written.
"""

import json
import os
import types

import pytest

from spectral_ellipse import cli

TRACING_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")

# the layers a traced op of each kind records with calls > 0
TRIAL_LAYERS = {
    "cli.self", "decompose", "ellipse.build", "ensembles.generate", "hull.contains_ellipse",
    "hull.convex_hull", "hull.sweep_margins", "matrix.char_poly", "numerics.find_roots",
    "spectrum.eigenvalues_self",
}
ANALYZE_LAYERS = {
    "cli.self", "decompose", "ellipse.build", "ellipse.trace_only_bound", "hull.contains_ellipse",
    "hull.convex_hull", "matrix.char_poly", "matrixio.load_matrix", "numerics.find_roots",
    "report.canonical_json", "spectrum.eigenvalues_self", "svgplot.render_svg",
}


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("tracing")
    with open(TRACING_PY, encoding="utf-8") as fh:
        exec(compile(fh.read(), TRACING_PY, "exec"), module.__dict__)
    return module


@pytest.fixture
def tracer(tracing):
    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def layers_called(tracer, op) -> set:
    trace = tracer.begin()
    op()
    tracer.end(1.0)
    return {layer for layer, calls in trace.calls.items() if calls > 0}


def test_every_target_resolves(tracing):
    for module, name, layer in tracing.TARGETS:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name} ({layer})"


def test_trial_records_its_layers(tracer):
    called = layers_called(tracer, lambda: cli.run_trial("Ginibre", 8, 12345, cli.PipelineSettings()))
    assert TRIAL_LAYERS <= called


def test_analyze_records_its_layers(tracer, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "entries": [[1, 0], [0.25, -0.5], [0, 0.125], [3, 0]]}))
    argv = ["analyze", str(path), "--svg", str(tmp_path / "m.svg")]
    called = layers_called(tracer, lambda: cli.main(argv))
    capsys.readouterr()
    assert ANALYZE_LAYERS <= called

