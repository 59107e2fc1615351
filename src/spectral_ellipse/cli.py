"""Command line surface: analyze a matrix file, run seeded verification
campaigns, print the tightness table, and compute eigensolver-free bounds.

Exit codes, from FAILURES: 0 success, 1 ParseError, 2 NonSquare,
3 NonConvergence, 4 MomentMismatch, 5 NonFinite (numeric overflow: a
quantity derived from the input left the float range), 6 OSError (an output
file cannot be written), each on exactly one stderr line.  `verify` exits 7
if its CSV contains a Violated row.  argparse's usage error is also 2.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import astuple, dataclass

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
EXIT_OUTPUT = 6
EXIT_VIOLATED = 7

FAILURES = {
    ParseError: (EXIT_PARSE, "parse error"),
    NonSquare: (EXIT_NONSQUARE, "not square"),
    NonConvergence: (EXIT_NONCONVERGENCE, "eigensolver did not converge"),
    MomentMismatch: (EXIT_MOMENT, "moment validation failed"),
    NonFinite: (EXIT_OVERFLOW, "numeric overflow"),
    OSError: (EXIT_OUTPUT, "cannot write"),  # an unreadable input is a ParseError
}

CSV_HEADER = "seed,n,q_abs,a,b,min_margin,sweep_min,verdict"


class PipelineSettings:
    """Fieldless, and ignored by `run_trial`: kept only because
    perfbench/workloads.py builds `cli.PipelineSettings()` in its class body
    and passes it to `run_trial`."""

    __slots__ = ()


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
    hull: tuple[complex, ...]
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


def analyze(a) -> Analysis:
    """The pipeline, on A at unit scale: decompose; eigensolve the traceless
    part A0 at its own unit scale (no gamma cluster, no underflow of its norm)
    and center its eigenvalues on their mean; hull, normalize, ellipse centered
    at 0 and containment there, each tolerance relative to A0; bound of A."""
    n = a.shape[0]
    unit, e = mx.power_of_two_scale(a)
    d = mx.decompose(unit)
    a0, e0 = mx.power_of_two_scale(d.traceless_part)
    mu = sp.eigenvalues(a0)
    delta = complex(math.fsum(a0.diagonal().real), math.fsum(a0.diagonal().imag)) / n
    spectrum = sp.Spectrum(tuple(v - delta for v in mu.values), mu.sum_residual, mu.q_residual)
    hull = hl.convex_hull(spectrum.values)
    if n < 2:
        return Analysis(d, spectrum, hull, e, e0, delta, None, None, None, None)
    ns = el.normalize_mu(spectrum.values)
    shape = el.ellipse_from_normalized(ns)
    containment = hl.contains_ellipse(hull, shape, hl.containment_slack(spectrum.values))
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
        "hull_vertices": [complex_obj(an.point(v)) for v in an.hull],
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


def run_trial(kind: str, n: int, trial_seed: int, _settings=None) -> TrialRecord:
    """One verification trial: generate, analyze, and sweep the directional
    oracle at the cone directions of the hull.  MomentMismatch and
    NonConvergence are recorded, not raised; n < 2 raises DimensionTooSmall
    before generate."""
    if n < 2:
        raise el.DimensionTooSmall(f"a trial needs n >= 2, got {n}")
    a = generate(EnsembleSpec(kind=kind, n=n, seed=trial_seed))
    try:
        an = analyze(a)
    except (MomentMismatch, NonConvergence) as exc:
        return TrialRecord(trial_seed, n, None, None, None, None, None, type(exc).__name__)
    ns, shape, containment = an.normalized, an.ellipse, an.containment
    sweep_min = min(hl.sweep_margins(ns))
    lengths = (an.length(x) for x in (shape.semimajor, shape.semiminor, containment.min_margin, sweep_min))
    return TrialRecord(trial_seed, n, an.square(ns.q_abs), *lengths, containment.verdict)


def run_verify(kind: str, n: int, trials: int, seed: int):
    """Seeded campaign; trial t uses the derived seed counter_value(seed, t)."""
    return [run_trial(kind, n, counter_value(seed, t)) for t in range(trials)]


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


def _tightness_lines(n_max: int):
    """The extremal-family table for n = 2..n_max, one line at a time, so a
    long table is never held: the spectrum of n-1 eigenvalues -1 and one
    eigenvalue n-1 has sqrt(Q) = sqrt(n(n-1)), hull [-1, n-1], and its
    ellipse degenerates to a segment of half-length sqrt(n/(2(n-1))) <= 1."""
    yield f"{'n':>4}  {'sqrt_Q':>22}  {'semimajor_a':>22}  {'hull':>16}  {'left_margin':>22}\n"
    for n in range(2, n_max + 1):
        semimajor = math.sqrt(n / (2.0 * (n - 1)))
        hull = f"[-1, {n - 1}]"
        yield (
            f"{n:>4}  {fmt_float(math.sqrt(n * (n - 1))):>22}  {fmt_float(semimajor):>22}  "
            f"{hull:>16}  {fmt_float(1.0 - semimajor):>22}\n"
        )
    yield f"limit: semimajor -> 1/sqrt(2) = {fmt_float(1.0 / math.sqrt(2.0))}\n"


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


def _at_least(minimum: int):
    """argparse type: an int >= minimum, else a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one:
    parse_args leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="spectral-ellipse",
        description=(
            "Inscribed spectral ellipses: per-matrix analysis, bulk verification, "
            "the extremal tightness table, and trace-only spectral radius bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full pipeline report for one matrix file")
    pa.set_defaults(run=_cmd_analyze)
    pa.add_argument("path")
    pa.add_argument("--json", dest="json_path", default=None, help="also write the report here")
    pa.add_argument("--svg", dest="svg_path", default=None, help="write an SVG plot here")

    pv = sub.add_parser("verify", help="seeded ensemble verification campaign")
    pv.set_defaults(run=_cmd_verify)
    pv.add_argument("--ensemble", choices=KINDS, required=True)
    pv.add_argument("-n", "--dimension", dest="n", type=_at_least(2), required=True)
    pv.add_argument("--trials", type=_at_least(1), default=100)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--csv", dest="csv_path", default=None, help="write the trial CSV here")

    pt = sub.add_parser("tightness", help="extremal family table for n = 2..n_max")
    pt.set_defaults(run=_cmd_tightness)
    pt.add_argument("n_max", type=_at_least(2))

    pb = sub.add_parser("bound", help="trace-only spectral radius lower bound")
    pb.set_defaults(run=_cmd_bound)
    pb.add_argument("path")
    pb.add_argument("--json", dest="json_path", default=None)

    return parser


def _save(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _check_writable(*paths) -> None:
    """OSError unless every path given (None: no file) can be saved: it is
    not empty, its directory is a writable directory, and the path is neither
    a directory nor an existing file that cannot be written.  A command calls
    it before it reads or computes anything, so such a path fails the run
    before any of its files is saved."""
    for path in paths:
        if path is None:
            continue
        if not path:
            raise OSError("an empty path names no file")
        folder = os.path.dirname(path) or "."
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise OSError(f"{path}: {folder} is not a writable directory")
        if os.path.isdir(path):
            raise OSError(f"{path} is a directory")
        if os.path.exists(path) and not os.access(path, os.W_OK):
            raise OSError(f"{path} is a file that cannot be written")


def _cmd_analyze(args) -> int:
    _check_writable(args.json_path, args.svg_path)
    an = analyze(load_matrix(args.path))
    text = canonical_json(analysis_report(an))
    svg = render_svg(an) if args.svg_path else None
    if args.json_path:
        _save(args.json_path, text)
    if svg is not None:
        _save(args.svg_path, svg)
    sys.stdout.write(text)  # last, so that a failed exit prints no report
    return EXIT_OK


def _cmd_verify(args) -> int:
    _check_writable(args.csv_path)
    records = run_verify(args.ensemble, args.n, args.trials, args.seed)
    csv_text = CSV_HEADER + "\n" + "".join(r.csv() + "\n" for r in records)
    if args.csv_path:
        _save(args.csv_path, csv_text)
        sys.stdout.write(_summarize(records) + "\n")
    else:
        sys.stdout.write(csv_text)
        sys.stderr.write(_summarize(records) + "\n")
    return EXIT_VIOLATED if any(r.verdict == hl.VIOLATED for r in records) else EXIT_OK


def _cmd_tightness(args) -> int:
    sys.stdout.writelines(_tightness_lines(args.n_max))
    return EXIT_OK


def _cmd_bound(args) -> int:
    _check_writable(args.json_path)
    text = canonical_json(bound_report(load_matrix(args.path)))
    if args.json_path:
        _save(args.json_path, text)
    sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] when argv is None) on the parser
    built once per process; return its exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except tuple(FAILURES) as exc:
        code, prefix = next(entry for cls, entry in FAILURES.items() if isinstance(exc, cls))
        sys.stderr.write(f"{prefix}: {exc}\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
