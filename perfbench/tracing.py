"""Per-layer spans recorded from outside the package.

A traced op replaces each layer's public function, at the name its caller
resolves, with a wrapper that times the call.  A layer's self time is its
span minus the spans of the layer calls made inside it; whatever the op
spends outside every named layer is ``cli.self``.  Spans are folded into one
``OpTrace`` per op, in memory, as they close.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from spectral_ellipse import cli, ellipse, hull, matrix, spectrum

CLI_SELF = "cli.self"

# (module, attribute the caller resolves, layer).  Every ellipse-building
# step shares one layer; shifted_ellipse calls the others.
TARGETS = (
    (cli, "generate", "ensembles.generate"),
    (matrix, "condition_estimate", "matrix.condition_estimate"),
    (matrix, "similarity", "matrix.similarity"),
    (matrix, "char_poly", "matrix.char_poly"),
    (spectrum, "find_roots", "numerics.find_roots"),
    (spectrum, "eigenvalues", "spectrum.eigenvalues_self"),
    (ellipse, "normalize_mu", "ellipse.build"),
    (ellipse, "axis_sums", "ellipse.build"),
    (ellipse, "ellipse_from_normalized", "ellipse.build"),
    (ellipse, "shifted_ellipse", "ellipse.build"),
    (ellipse, "trace_only_bound", "ellipse.trace_only_bound"),
    (hull, "convex_hull", "hull.convex_hull"),
    (hull, "contains_ellipse", "hull.contains_ellipse"),
    (hull, "sweep_margins", "hull.sweep_margins"),
    (cli, "load_matrix", "matrixio.load_matrix"),
    (cli, "canonical_json", "report.canonical_json"),
    (cli, "csv_row", "report.csv"),
    (cli, "render_svg", "svgplot.render_svg"),
    (matrix, "decompose", "decompose"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS)) + (CLI_SELF,)

# The layers grouped into the stages every op of every workload passes
# through, so that each stage has a nonzero time on every workload: the
# matrix comes from ``generate`` (campaign) or ``load_matrix`` (analyze,
# bound); ``compute`` is the eigensolve, ellipse and hull on campaign and
# analyze and only ``trace_only_bound`` on bound; ``output`` is the CSV row
# or the JSON report and SVG.
STAGES = {
    "input": ("ensembles.generate", "matrix.condition_estimate", "matrix.similarity", "matrixio.load_matrix"),
    "compute": (
        "matrix.char_poly", "numerics.find_roots", "spectrum.eigenvalues_self", "ellipse.build",
        "ellipse.trace_only_bound", "hull.convex_hull", "hull.contains_ellipse", "hull.sweep_margins",
    ),
    "output": ("report.canonical_json", "report.csv", "svgplot.render_svg"),
    "decompose": ("decompose",),
    CLI_SELF: (CLI_SELF,),
}
assert sorted(sum(STAGES.values(), ())) == sorted(LAYERS)


class OpTrace:
    """What one traced op did: self seconds and calls per layer, plus the
    raw material for the numerical-health counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.verdicts = defaultdict(int)
        self.spectra = []  # (matrix, tol, Spectrum or MomentMismatch)
        self.loaded = []  # (path, seconds)
        self.report_bytes = 0


class Tracer:
    """Installs the wrappers between ``install`` and ``uninstall`` and
    attributes each wrapped call to the op opened by ``begin``."""

    def __init__(self):
        self.op: OpTrace | None = None
        self._stack: list[list[float]] = []
        self._saved = []

    def install(self) -> None:
        for module, name, layer in TARGETS:
            fn = getattr(module, name)
            self._saved.append((module, name, fn))
            setattr(module, name, self._wrap(layer, name, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def begin(self) -> OpTrace:
        self.op = OpTrace()
        self._stack = [[0.0]]
        return self.op

    def end(self, op_seconds: float) -> None:
        """Close the op: the time no layer span covers is cli.self."""
        op = self.op
        op.self_s[CLI_SELF] += op_seconds - self._stack[0][0]
        op.calls[CLI_SELF] += 1
        self.op = None

    def _wrap(self, layer, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            children = [0.0]
            tracer._stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except spectrum.MomentMismatch as exc:
                op.spectra.append((args[0], _tol(args, kwargs), exc))
                raise
            finally:
                span = time.perf_counter() - t0
                tracer._stack.pop()
                tracer._stack[-1][0] += span
                op.self_s[layer] += span - children[0]
                op.calls[layer] += 1
            if name == "eigenvalues":
                op.spectra.append((args[0], _tol(args, kwargs), result))
            elif name == "contains_ellipse":
                op.verdicts[result.verdict] += 1
            elif name == "load_matrix":
                op.loaded.append((args[0], span))
            elif name in ("canonical_json", "csv_row"):
                op.report_bytes += len(result)
            return result

        return traced


def _tol(args, kwargs) -> float:
    if len(args) > 1:
        return args[1]
    return kwargs.get("tol", spectrum.DEFAULT_MOMENT_TOL)
