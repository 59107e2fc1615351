#!/usr/bin/env python3
"""Run the containment verification campaign across every ensemble and size.

Prints one row per (ensemble, n): trials contained, trials skipped for
MomentMismatch and for NonConvergence, the worst hull margin and the worst
sweep margin (the directional margin at the cone directions of the hull).
A clean run is one where every trial of every row is Contained; the script
then exits 0, else 1.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from spectral_ellipse import hull as hl
from spectral_ellipse.cli import _at_least, run_verify
from spectral_ellipse.ensembles import KINDS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=_at_least(1), default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sizes", type=_at_least(2), nargs="+", default=[2, 3, 4, 8, 16])
    args = parser.parse_args()

    print(f"{'ensemble':>20} {'n':>3} {'contained':>10} {'mismatch':>9} {'nonconv':>8} "
          f"{'worst_margin':>13} {'worst_sweep':>12}")
    t0 = time.time()
    clean = True
    for kind in KINDS:
        for n in args.sizes:
            records = run_verify(kind, n, args.trials, args.seed)
            contained = sum(1 for r in records if r.verdict == hl.CONTAINED)
            mismatch = sum(1 for r in records if r.verdict == "MomentMismatch")
            nonconv = sum(1 for r in records if r.verdict == "NonConvergence")
            margins = [r.min_margin for r in records if r.min_margin is not None]
            sweeps = [r.sweep_min for r in records if r.sweep_min is not None]
            worst_m = min(margins) if margins else float("nan")
            worst_s = min(sweeps) if sweeps else float("nan")
            clean = clean and contained == len(records)
            print(f"{kind:>20} {n:>3} {contained:>7}/{args.trials:<3} {mismatch:>9} {nonconv:>8} "
                  f"{worst_m:>13.3e} {worst_s:>12.3e}")
    print(f"total {time.time() - t0:.1f}s; campaign {'clean' if clean else 'HAS FAILURES'}")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
