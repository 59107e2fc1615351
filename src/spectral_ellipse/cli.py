"""Command line surface: analyze a matrix file, run seeded verification
campaigns, print the tightness table, and compute eigensolver-free bounds.

Exit codes: 0 success, 1 ParseError, 2 NonSquare, 3 NonConvergence,
4 MomentMismatch, 5 NonFinite (numeric overflow: a quantity derived from
the input left the float range), each on exactly one stderr line.  `verify`
exits 0 iff its CSV contains no Violated row.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import astuple, dataclass

import numpy as np

from . import ellipse as el
from . import hull as hl
from . import matrix as mx
from . import spectrum as sp
from .ensembles import KINDS, EnsembleSpec, counter_value, generate
from .matrixio import NonSquare, ParseError, load_matrix
from .numerics import NonConvergence, NonFinite
from .report import SCHEMA, canonical_json, complex_obj, csv_row, fmt_float
from .spectrum import MomentMismatch
from .svgplot import render_svg

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NONSQUARE = 2
EXIT_NONCONVERGENCE = 3
EXIT_MOMENT = 4
EXIT_OVERFLOW = 5

CSV_HEADER = "seed,n,q_abs,a,b,min_margin,sweep_min,verdict"


@dataclass(frozen=True)
class PipelineSettings:
    """Knobs shared by the analysis pipeline and verification campaigns."""

    moment_tol: float = 1e-8
    slack_scale: float = 1e-8
    sweep_k: int = 720

    def slack(self, values) -> float:
        """slack_scale * (1 + max|v|), of the traceless values at A0's unit scale in `analyze`."""
        return self.slack_scale * (1.0 + max(abs(v) for v in values))


def _scaled(z, e: int):
    """z * 2^e for a float or a complex z; NonFinite where a part leaves the float range."""
    try:
        if isinstance(z, complex):
            return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))
        return math.ldexp(z, e)
    except OverflowError:
        raise NonFinite(f"a reported value times 2^{e} exceeds the float range") from None


@dataclass(frozen=True)
class Analysis:
    """Everything the pipeline computes for one matrix A, each part once: the
    decomposition and bound at A's unit scale, A * 2^-exponent; the rest in
    the traceless frame, A0 * 2^-traceless_exponent, with its eigenvalues'
    mean trace_residual taken out.  The methods take traceless values back to
    the input.  The last four fields are None when n = 1 (no ellipse)."""

    decomposition: mx.Decomposition
    spectrum: sp.Spectrum
    hull: hl.HullPolygon
    exponent: int
    traceless_exponent: int
    trace_residual: complex
    normalized: el.NormalizedSpectrum | None
    ellipse: el.SpectralEllipse | None
    containment: hl.ContainmentReport | None
    bound: float | None

    def _unit_point(self, z: complex) -> complex:
        return self.decomposition.gamma + _scaled(z + self.trace_residual, self.traceless_exponent)

    def point(self, z: complex) -> complex:
        """gamma + (z + trace_residual) * 2^traceless_exponent, at scale 2^exponent."""
        return _scaled(self._unit_point(z), self.exponent)

    def length(self, x: float) -> float:
        return _scaled(x, self.exponent + self.traceless_exponent)

    def square(self, q: float) -> float:
        return _scaled(q, 2 * (self.exponent + self.traceless_exponent))


def analyze(a, settings: PipelineSettings = PipelineSettings()) -> Analysis:
    """The pipeline, on A at unit scale: decompose; eigensolve the traceless
    part A0 at its own unit scale (no gamma cluster, no underflow of its norm)
    and center its eigenvalues on their mean; hull, normalize, ellipse centered
    at 0 and containment there, each tolerance relative to A0; bound of A."""
    n = a.shape[0]
    unit, e = mx.power_of_two_scale(a)
    d = mx.decompose(unit)
    a0, e0 = mx.power_of_two_scale(d.traceless_part)
    mu = sp.eigenvalues(a0, settings.moment_tol)
    delta = complex(math.fsum(a0.diagonal().real), math.fsum(a0.diagonal().imag)) / n
    spectrum = sp.Spectrum(tuple(v - delta for v in mu.values), mu.sum_residual, mu.q_residual)
    hull = hl.convex_hull(spectrum.values)
    if n < 2:
        return Analysis(d, spectrum, hull, e, e0, delta, None, None, None, None)
    ns = el.normalize_mu(spectrum.values)
    shape = el.ellipse_from_normalized(ns, n)
    containment = hl.contains_ellipse(hull, shape, settings.slack(spectrum.values))
    _, bound = el.trace_only_bound(d)
    return Analysis(d, spectrum, hull, e, e0, delta, ns, shape, containment, bound)


def analysis_report(an: Analysis) -> dict:
    """The JSON report of `analyze`, in A's frame and at the scale of the input."""
    d, shape, containment, e = an.decomposition, an.ellipse, an.containment, an.exponent
    report = {
        "schema": SCHEMA,
        "n": d.n,
        "gamma": complex_obj(_scaled(d.gamma, e)),
        "q_total": complex_obj(_scaled(d.q_total, 2 * e)),
        "q_traceless": complex_obj(_scaled(d.q_traceless, 2 * e)),
        "eigenvalues": [complex_obj(an.point(v)) for v in an.spectrum.values],
        "ellipse": None if shape is None else {
            "center": complex_obj(an.point(0j)),
            "semimajor": an.length(shape.semimajor),
            "semiminor": an.length(shape.semiminor),
            "major_dir_angle_rad": math.atan2(shape.major_dir.imag, shape.major_dir.real),
            "foci": [complex_obj(an.point(f)) for f in shape.foci],
        },
        "hull_vertices": [complex_obj(an.point(v)) for v in an.hull.vertices],
        "containment": None if containment is None else {
            "verdict": containment.verdict,
            "min_margin": an.length(containment.min_margin),
            "worst_direction_angle_rad": math.atan2(
                containment.worst_direction.imag, containment.worst_direction.real
            ),
        },
        "bounds": {
            "trace_only_lower": None if an.bound is None else _scaled(an.bound, e),
            "observed_spectral_radius": _scaled(max(abs(an._unit_point(v)) for v in an.spectrum.values), e),
        },
    }
    if shape is None:
        report["note"] = "dimension < 2"
    return report


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    n: int
    q_abs: float | None
    semimajor: float | None
    semiminor: float | None
    min_margin: float | None
    sweep_min: float | None
    verdict: str

    def csv(self) -> str:
        return csv_row(astuple(self))


def run_trial(kind: str, n: int, trial_seed: int, settings: PipelineSettings) -> TrialRecord:
    """One verification trial: generate, analyze, and sweep the directional
    oracle over the normalized spectrum.  MomentMismatch and NonConvergence
    are recorded, not raised."""
    a = generate(EnsembleSpec(kind=kind, n=n, seed=trial_seed))
    try:
        an = analyze(a, settings)
    except (MomentMismatch, NonConvergence) as exc:
        return TrialRecord(trial_seed, n, None, None, None, None, None, type(exc).__name__)
    ns, shape, containment = an.normalized, an.ellipse, an.containment
    sweep = hl.sweep_margins(ns, el.axis_sums(ns), n, settings.sweep_k)
    lengths = (an.length(x) for x in (shape.semimajor, shape.semiminor, containment.min_margin, sweep.min()))
    return TrialRecord(trial_seed, n, an.square(ns.q_abs), *lengths, containment.verdict)


def run_verify(kind: str, n: int, trials: int, seed: int, settings: PipelineSettings):
    """Seeded campaign; trial t uses the derived seed counter_value(seed, t)."""
    return [run_trial(kind, n, counter_value(seed, t), settings) for t in range(trials)]


def _summarize(records) -> str:
    contained = sum(1 for r in records if r.verdict == hl.CONTAINED)
    mismatched = sum(1 for r in records if r.verdict == "MomentMismatch")
    unconverged = sum(1 for r in records if r.verdict == "NonConvergence")
    evaluated = len(records) - mismatched - unconverged
    margins = [r.min_margin for r in records if r.min_margin is not None]
    worst = fmt_float(min(margins)) if margins else "n/a"
    skipped = f"{mismatched} moment-mismatch skipped, "
    if unconverged:
        skipped += f"{unconverged} non-convergence skipped, "
    return f"{contained}/{evaluated} contained, {skipped}worst margin {worst}"


def tightness_rows(n_max: int):
    """Rows of the extremal-family table: spectrum of n-1 eigenvalues -1 and
    one eigenvalue n-1 has sqrt(Q) = sqrt(n(n-1)), hull [-1, n-1], and its
    ellipse degenerates to a segment of half-length sqrt(n/(2(n-1))) <= 1."""
    if n_max < 2:
        raise ValueError(f"table needs n_max >= 2, got {n_max}")
    rows = []
    for n in range(2, n_max + 1):
        sqrt_q = math.sqrt(n * (n - 1))
        semimajor = math.sqrt(n / (2.0 * (n - 1)))
        rows.append(
            {
                "n": n,
                "sqrt_q": sqrt_q,
                "semimajor": semimajor,
                "hull": (-1.0, float(n - 1)),
                "left_margin": 1.0 - semimajor,
            }
        )
    return rows


def _format_tightness_table(rows) -> str:
    lines = [f"{'n':>4}  {'sqrt_Q':>22}  {'semimajor_a':>22}  {'hull':>16}  {'left_margin':>22}"]
    for r in rows:
        hull_txt = f"[-1, {int(r['hull'][1])}]"
        lines.append(
            f"{r['n']:>4}  {fmt_float(r['sqrt_q']):>22}  {fmt_float(r['semimajor']):>22}  "
            f"{hull_txt:>16}  {fmt_float(r['left_margin']):>22}"
        )
    lines.append(f"limit: semimajor -> 1/sqrt(2) = {fmt_float(1.0 / math.sqrt(2.0))}")
    return "\n".join(lines) + "\n"


def bound_report(a) -> dict:
    """Eigensolver-free report: gamma, Q of the traceless part, the two foci,
    and the spectral radius lower bound, computed at unit scale as in `analyze`."""
    n = a.shape[0]
    unit, e = mx.power_of_two_scale(a)
    d = mx.decompose(unit)
    report = {
        "schema": SCHEMA,
        "n": n,
        "gamma": complex_obj(_scaled(d.gamma, e)),
        "q_traceless": complex_obj(_scaled(d.q_traceless, 2 * e)),
    }
    if n < 2:
        report["foci"] = None
        report["trace_only_lower"] = None
        report["note"] = "dimension < 2"
        return report
    foci, bound = el.trace_only_bound(d)
    report["foci"] = [complex_obj(_scaled(f, e)) for f in foci]
    report["trace_only_lower"] = _scaled(bound, e)
    return report


def _at_least(minimum, convert=int):
    """argparse type: a finite value >= minimum, else a usage error (a NaN
    --tol would pass every moment check, an inf --slack certify anything)."""

    def parse(text: str):
        value = convert(text)
        if not minimum <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be >= {minimum} and finite, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in "invalid int value"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-ellipse",
        description=(
            "Inscribed spectral ellipses: per-matrix analysis, bulk verification, "
            "the extremal tightness table, and trace-only spectral radius bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full pipeline report for one matrix file")
    pa.add_argument("path")
    pa.add_argument("--format", choices=("mtx", "json"), default=None)
    pa.add_argument("--tol", type=_at_least(0.0, float), default=1e-8, help="moment tolerance scale")
    pa.add_argument("--slack", type=_at_least(0.0, float), default=1e-8, help="containment slack scale")
    pa.add_argument("--json", dest="json_path", default=None, help="also write the report here")
    pa.add_argument("--svg", dest="svg_path", default=None, help="write an SVG plot here")

    pv = sub.add_parser("verify", help="seeded ensemble verification campaign")
    pv.add_argument("--ensemble", choices=KINDS, required=True)
    pv.add_argument("-n", "--dimension", dest="n", type=_at_least(2), required=True)
    pv.add_argument("--trials", type=_at_least(1), default=100)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--tol", type=_at_least(0.0, float), default=1e-8)
    pv.add_argument("--slack", type=_at_least(0.0, float), default=1e-8)
    pv.add_argument("--sweep-k", type=_at_least(4), default=720)
    pv.add_argument("--csv", dest="csv_path", default=None, help="write the trial CSV here")

    pt = sub.add_parser("tightness", help="extremal family table for n = 2..n_max")
    pt.add_argument("n_max", type=_at_least(2))

    pb = sub.add_parser("bound", help="trace-only spectral radius lower bound")
    pb.add_argument("path")
    pb.add_argument("--format", choices=("mtx", "json"), default=None)
    pb.add_argument("--json", dest="json_path", default=None)

    return parser


def _cmd_analyze(args) -> int:
    a = load_matrix(args.path, args.format)
    settings = PipelineSettings(moment_tol=args.tol, slack_scale=args.slack)
    an = analyze(a, settings)
    text = canonical_json(analysis_report(an))
    sys.stdout.write(text)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.svg_path:
        svg = render_svg(an)
        with open(args.svg_path, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return EXIT_OK


def _cmd_verify(args) -> int:
    settings = PipelineSettings(
        moment_tol=args.tol, slack_scale=args.slack, sweep_k=args.sweep_k
    )
    records = run_verify(args.ensemble, args.n, args.trials, args.seed, settings)
    csv_text = CSV_HEADER + "\n" + "".join(r.csv() + "\n" for r in records)
    if args.csv_path:
        with open(args.csv_path, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        sys.stdout.write(_summarize(records) + "\n")
    else:
        sys.stdout.write(csv_text)
        sys.stderr.write(_summarize(records) + "\n")
    violated = any(r.verdict == hl.VIOLATED for r in records)
    return EXIT_PARSE if violated else EXIT_OK


def _cmd_tightness(args) -> int:
    rows = tightness_rows(args.n_max)
    sys.stdout.write(_format_tightness_table(rows))
    return EXIT_OK


def _cmd_bound(args) -> int:
    a = load_matrix(args.path, args.format)
    text = canonical_json(bound_report(a))
    sys.stdout.write(text)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "verify": _cmd_verify,
        "tightness": _cmd_tightness,
        "bound": _cmd_bound,
    }
    try:
        # overflow surfaces as NonFinite below, not as numpy warnings
        # ahead of the one-line message
        with np.errstate(over="ignore", invalid="ignore"):
            return handlers[args.command](args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except NonSquare as exc:
        sys.stderr.write(f"not square: {exc}\n")
        return EXIT_NONSQUARE
    except NonConvergence as exc:
        sys.stderr.write(f"eigensolver did not converge: {exc}\n")
        return EXIT_NONCONVERGENCE
    except MomentMismatch as exc:
        sys.stderr.write(f"moment validation failed: {exc}\n")
        return EXIT_MOMENT
    except NonFinite as exc:
        sys.stderr.write(f"numeric overflow: {exc}\n")
        return EXIT_OVERFLOW


if __name__ == "__main__":
    sys.exit(main())
