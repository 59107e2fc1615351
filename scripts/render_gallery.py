#!/usr/bin/env python3
"""Render an SVG gallery: one matrix per ensemble, hull + spectrum + ellipse.

Writes <out>/<ensemble>_n<dim>.svg and a matching .json report for each kind,
plus a one-line summary per figure.  Handy for eyeballing how the inscribed
ellipse sits inside the spectral hull across very different spectra.
The dimension -n must be at least 2, since an ellipse needs two
eigenvalues; a smaller one is a usage error (exit 2).

A kind whose analysis fails (MomentMismatch, NonConvergence or NonFinite)
gets one line naming the kind and the error instead of a figure, and the
gallery goes on to the next kind.  Exits 0 when every figure was written,
else 1; an <out> or a file in it that cannot be written ends the gallery
with one stderr line and the command line's exit code 6.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from spectral_ellipse import cli
from spectral_ellipse.ensembles import KINDS, EnsembleSpec, generate
from spectral_ellipse.report import canonical_json
from spectral_ellipse.svgplot import render_svg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="gallery")
    parser.add_argument("-n", "--dimension", type=cli._at_least(2), default=8)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    skipped = 0
    try:
        os.makedirs(args.out, exist_ok=True)
        for kind in KINDS:
            a = generate(EnsembleSpec(kind=kind, n=args.dimension, seed=args.seed))
            try:
                an = cli.analyze(a)
            except tuple(cli.FAILURES) as exc:
                print(f"{kind:>20}: skipped, {type(exc).__name__}: {exc}")
                skipped += 1
                continue
            stem = os.path.join(args.out, f"{kind.lower()}_n{args.dimension}")
            cli._save(stem + ".svg", render_svg(an))
            report = cli.analysis_report(an)
            cli._save(stem + ".json", canonical_json(report))
            c, e = report["containment"], report["ellipse"]
            print(f"{kind:>20}: verdict {c['verdict']:>9}, a = {e['semimajor']:.4f}, "
                  f"b = {e['semiminor']:.4f}, margin = {c['min_margin']:.3e} -> {stem}.svg")
    except OSError as exc:
        code, prefix = cli.FAILURES[OSError]
        sys.stderr.write(f"{prefix}: {exc}\n")
        return code
    return 1 if skipped else 0


if __name__ == "__main__":
    sys.exit(main())
