"""The three workloads: what one op is, how inputs are made from the seed,
and how each output is checked against the oracle.

Every op goes through the package's public surface (``cli.run_trial``,
``cli.main``) exactly as a user would call it.  A round runs every input of
the workload once, in an order shuffled from the seed, so each run weighs
the inputs alike however many rounds fit in it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field

import numpy as np

import oracle
from spectral_ellipse import cli, ensembles
from spectral_ellipse.ensembles import EnsembleSpec, counter_value

VERDICTS = ("Contained", "Degenerate", "Violated")


class OpFailed(Exception):
    """An op ended without a result; the message is its cause."""


@dataclass(slots=True)
class Op:
    kind: str
    n: int
    seed: int = 0
    path: str = ""
    exponent: int = 0
    band: str = ""

    @property
    def fmt(self) -> str:
        return os.path.splitext(self.path)[1][1:]


@dataclass
class Checked:
    """The oracle's verdict on one output."""

    wrong: bool
    error: float  # deviation from the reference, over ||A||_F
    input_class: str
    malformed: bool = False
    reference: tuple = ()  # reference spectrum, for spectrum.ref_err_max
    fro: float = 0.0


@dataclass
class InputRef:
    ellipse: oracle.RefEllipse | None
    bound: oracle.RefBound | None
    spectrum: tuple
    fro: float
    input_class: str
    outputs: dict = field(default_factory=dict)  # output text -> Checked


def _main(argv) -> str:
    """cli.main with stdout and stderr captured; a nonzero exit is a failure."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"exit {rc}")
    return out.getvalue()


def _shuffled(items, seed: int, round_index: int):
    items = list(items)
    random.Random(f"{seed}/{round_index}").shuffle(items)
    return items


def write_mtx(path: str, a: np.ndarray) -> None:
    """Matrix Market array format: complex general, column-major."""
    n = a.shape[0]
    body = "\n".join(f"{z.real!r} {z.imag!r}" for z in a.T.ravel().tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"%%MatrixMarket matrix array complex general\n{n} {n}\n{body}\n")


def write_json(path: str, a: np.ndarray) -> None:
    """The package's dense JSON format, row-major [re, im] pairs."""
    body = ",".join(f"[{z.real!r},{z.imag!r}]" for z in a.ravel().tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"n": {a.shape[0]}, "entries": [{body}]}}\n')


def _reference_spectrum(spec: EnsembleSpec, a: np.ndarray) -> tuple:
    ref = ensembles.reference_spectrum(spec)
    if ref is None:
        ref = np.linalg.eigvals(a)
    return tuple(complex(v) for v in ref)


def _parse_report(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None  # e.g. the package printed inf or nan, which JSON lacks


class Campaign:
    """One op is ``cli.run_trial`` plus ``TrialRecord.csv`` for one
    (ensemble, n) cell, with a fresh trial seed derived from the workload
    seed.  A round visits all six ensembles at every n."""

    name = "campaign"
    tail_pct = 95.0
    SIZES = (2, 4, 8, 16, 32)
    SETTINGS = cli.PipelineSettings()

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.cells = [(kind, n) for kind in ensembles.KINDS for n in self.SIZES]

    def prepare(self, lap) -> None:
        """Nothing to write: run_trial generates its own matrix."""

    def warmup_op(self) -> Op:
        return Op("Ginibre", 8, seed=counter_value(self.seed, 1 << 40))

    def round(self, r: int) -> list[Op]:
        base = r * len(self.cells)
        ops = [Op(k, n, seed=counter_value(self.seed, base + i)) for i, (k, n) in enumerate(self.cells)]
        return _shuffled(ops, self.seed, r)

    def run(self, op: Op) -> str:
        """The CSV row is the output: it is what the verify user sees, its
        floats round-trip exactly, and a run holds one per op."""
        record = cli.run_trial(op.kind, op.n, op.seed, self.SETTINGS)
        row = record.csv()
        if record.verdict == "MomentMismatch":
            raise OpFailed("MomentMismatch")
        return row

    @staticmethod
    def cell(op: Op) -> str:
        return f"{op.kind}/n={op.n}"

    layer_cell = cell

    def references(self) -> None:
        """Trial matrices are regenerated per op inside ``check``."""

    def check(self, op: Op, row: str) -> Checked:
        spec = EnsembleSpec(op.kind, op.n, op.seed)
        a = ensembles.generate(spec)
        fro = float(np.linalg.norm(a))
        ref = _reference_spectrum(spec, a)
        klass = oracle.input_class(ref, fro)
        fields = row.split(",")
        malformed = (
            len(fields) != 8
            or fields[:2] != [str(op.seed), str(op.n)]
            or fields[7] not in VERDICTS
            or not fields[3]
            or not fields[4]
        )
        if malformed:
            return Checked(True, float("inf"), klass, malformed=True, reference=ref, fro=fro)
        err = oracle.ellipse_error(None, float(fields[3]), float(fields[4]), oracle.ellipse_of(ref))
        return Checked(err > oracle.REL_TOL * fro, _over(err, fro), klass, reference=ref, fro=fro)


class _FileWorkload:
    """Shared by analyze and bound: inputs are files written at set-up,
    each checked against a reference computed once per file.  ``prepare``
    calls ``lap`` after each step of the writing, so that each step is
    scaled for machine speed on its own (``speed.Stopwatch``)."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.inputs: list[Op] = []
        self.matrices: dict[str, np.ndarray] = {}
        self.specs: dict[str, EnsembleSpec] = {}
        self.refs: dict[str, InputRef] = {}

    def _write(self, op: Op, spec: EnsembleSpec, base: np.ndarray, fmt: str) -> None:
        op.path = os.path.join(self.workdir, f"{len(self.inputs):03d}-{op.kind}-{op.n}.{fmt}")
        (write_mtx if fmt == "mtx" else write_json)(op.path, base * 2.0**op.exponent)
        self.inputs.append(op)
        self.matrices[op.path] = base
        self.specs[op.path] = spec

    def warmup_op(self) -> Op:
        return self.inputs[0]

    def check(self, op: Op, text: str) -> Checked:
        ref = self.refs[op.path]
        cached = ref.outputs.get(text)
        if cached is None:
            cached = self._check_text(ref, op, text)
            ref.outputs[text] = cached
        return cached

    def nondeterministic_inputs(self) -> int:
        """Inputs whose repeated ops did not print identical bytes."""
        return sum(1 for r in self.refs.values() if len(r.outputs) > 1)


class Analyze(_FileWorkload):
    """One op is ``analyze PATH --json OUT --svg OUT``.  Every base matrix
    is written at scale 1 and rescaled by 2**k in a small and a large band;
    every other kind also gets an underflow-end copy, and two fixed bases an
    overflow-end copy.  The seed draws the matrices and each k within its
    band; which inputs exist is fixed, so runs weigh the bands alike.  There
    are SETS such input sets, drawn independently, and round r runs set
    r % SETS: a run then sees several draws of every cell, which keeps one
    unlucky matrix from setting a run's numbers.  Scrambled kinds stop at
    n=32 because ``generate`` hangs for them at n >= 46."""

    name = "analyze"
    tail_pct = 95.0
    BASES = tuple((k, n) for n in (2, 8, 16, 32) for k in ensembles.KINDS) + (
        ("Ginibre", 64),
        ("RealGaussian", 64),
    )
    BANDS = {"unit": (0, 0), "small": (-500, -30), "large": (30, 500), "underflow": (-1000, -540), "overflow": (520, 1000)}
    OVERFLOW_BASES = (("PrescribedSpectrum", 8), ("RealGaussian", 32))
    SETS = 4

    def prepare(self, lap) -> None:
        self.sets = [self._prepare_set(s, lap) for s in range(self.SETS)]
        self.out_json = os.path.join(self.workdir, "report.json")
        self.out_svg = os.path.join(self.workdir, "plot.svg")

    def _prepare_set(self, s: int, lap) -> list[Op]:
        first = len(self.inputs)
        rng = random.Random(f"{self.seed}/{s}/scales")
        for i, (kind, n) in enumerate(self.BASES):
            spec = EnsembleSpec(kind, n, counter_value(self.seed, s * len(self.BASES) + i))
            base = ensembles.generate(spec)
            bands = ["unit", "small", "large"]
            if ensembles.KINDS.index(kind) % 2 == 0:
                bands.append("underflow")
            if (kind, n) in self.OVERFLOW_BASES:
                bands.append("overflow")
            for j, band in enumerate(bands):
                op = Op(kind, n, exponent=rng.randint(*self.BANDS[band]), band=band)
                self._write(op, spec, base, "mtx" if (i + j) % 2 else "json")
            lap()
        return self.inputs[first:]

    def round(self, r: int) -> list[Op]:
        return _shuffled(self.sets[r % self.SETS], self.seed, r)

    def run(self, op: Op) -> str:
        return _main(["analyze", op.path, "--json", self.out_json, "--svg", self.out_svg])

    @staticmethod
    def cell(op: Op) -> str:
        return f"{op.kind}/n={op.n}"

    @staticmethod
    def layer_cell(op: Op) -> str:
        return f"n={op.n}"

    def references(self) -> None:
        for op in self.inputs:
            base = self.matrices[op.path]
            spectrum = _reference_spectrum(self.specs[op.path], base)
            factor = 2.0**op.exponent
            fro = float(np.linalg.norm(base)) * factor
            scaled = tuple(v * factor for v in spectrum)
            self.refs[op.path] = InputRef(
                ellipse=oracle.ellipse_of(spectrum).scaled(factor),
                bound=oracle.bound_of(base).scaled(factor),
                spectrum=scaled,
                fro=fro,
                input_class=oracle.input_class(spectrum, fro),
            )

    def _check_text(self, ref: InputRef, op: Op, text: str) -> Checked:
        report = _parse_report(text)
        try:
            shape = report["ellipse"]
            err = max(
                oracle.ellipse_error(
                    oracle.complex_of(shape["center"]), shape["semimajor"], shape["semiminor"], ref.ellipse
                ),
                abs(report["bounds"]["trace_only_lower"] - ref.bound.lower),
            )
        except (TypeError, KeyError):
            return Checked(True, float("inf"), ref.input_class, malformed=report is not None,
                           reference=ref.spectrum, fro=ref.fro)
        return Checked(err > oracle.REL_TOL * ref.fro, _over(err, ref.fro), ref.input_class,
                       reference=ref.spectrum, fro=ref.fro)


class Bound(_FileWorkload):
    """One op is ``bound PATH`` on a large Ginibre matrix.  A round is six
    ops: n = 128 in both formats, n = 256 mtx twice and json once, and
    n = 512 in mtx or json, alternating.  The ops' times then fall in five
    groups (128 mtx, 128 json, 256 mtx, 256 json, 512), and the median and p75 land in
    the middle of one group, not on the edge between two."""

    name = "bound"
    tail_pct = 75.0
    SIZES = (128, 256, 512)

    def prepare(self, lap) -> None:
        for n in self.SIZES:
            spec = EnsembleSpec("Ginibre", n, counter_value(self.seed, n))
            base = ensembles.generate(spec)
            lap()
            for fmt in ("mtx", "json"):
                self._write(Op("Ginibre", n), spec, base, fmt)
                lap()

    def round(self, r: int) -> list[Op]:
        skip = "json" if r % 2 == 0 else "mtx"
        ops = [op for op in self.inputs if not (op.n == 512 and op.fmt == skip)]
        ops += [op for op in self.inputs if op.n == 256 and op.fmt == "mtx"]
        return _shuffled(ops, self.seed, r)

    def run(self, op: Op) -> str:
        return _main(["bound", op.path])

    @staticmethod
    def cell(op: Op) -> str:
        return f"{op.fmt}/n={op.n}"

    @staticmethod
    def layer_cell(op: Op) -> str:
        return f"n={op.n}"

    def references(self) -> None:
        for op in self.inputs:
            a = self.matrices[op.path]
            fro = float(np.linalg.norm(a))
            self.refs[op.path] = InputRef(
                ellipse=None, bound=oracle.bound_of(a), spectrum=(), fro=fro, input_class=oracle.PLAIN
            )

    def _check_text(self, ref: InputRef, op: Op, text: str) -> Checked:
        report = _parse_report(text)
        try:
            foci = tuple(oracle.complex_of(f) for f in report["foci"])
            err = oracle.bound_error(foci, report["trace_only_lower"], ref.bound)
        except (TypeError, KeyError, ValueError):
            return Checked(True, float("inf"), ref.input_class, malformed=True, fro=ref.fro)
        return Checked(err > oracle.REL_TOL * ref.fro, _over(err, ref.fro), ref.input_class, fro=ref.fro)


def _over(err: float, fro: float) -> float:
    if fro > 0.0:
        return err / fro
    return 0.0 if err == 0.0 else float("inf")


WORKLOADS = {w.name: w for w in (Campaign, Analyze, Bound)}
