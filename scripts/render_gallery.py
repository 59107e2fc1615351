#!/usr/bin/env python3
"""Render an SVG gallery: one matrix per ensemble, hull + spectrum + ellipse.

Writes <out>/<ensemble>_n<dim>.svg and a matching .json report for each kind,
plus a one-line summary per figure.  Handy for eyeballing how the inscribed
ellipse sits inside the spectral hull across very different spectra.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from spectral_ellipse.cli import analysis_report, analyze
from spectral_ellipse.ensembles import KINDS, EnsembleSpec, generate
from spectral_ellipse.report import canonical_json
from spectral_ellipse.svgplot import render_svg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="gallery")
    parser.add_argument("-n", "--dimension", type=int, default=8)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    for kind in KINDS:
        a = generate(EnsembleSpec(kind=kind, n=args.dimension, seed=args.seed))
        an = analyze(a)
        stem = os.path.join(args.out, f"{kind.lower()}_n{args.dimension}")
        with open(stem + ".svg", "w", encoding="utf-8") as fh:
            fh.write(render_svg(an))
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            fh.write(canonical_json(analysis_report(an)))
        c, e = an.containment, an.ellipse
        print(f"{kind:>20}: verdict {c.verdict:>9}, a = {e.semimajor:.4f}, "
              f"b = {e.semiminor:.4f}, margin = {c.min_margin:.3e} -> {stem}.svg")
    return 0


if __name__ == "__main__":
    sys.exit(main())
