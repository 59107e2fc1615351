"""Reference answers for the benchmark's correctness check.

Every reference is computed here from the benchmark's own inputs with numpy
alone, never through the package's pipeline:

- scrambled ensembles: ``ensembles.reference_spectrum``, the spectrum the
  generator was asked to build, times the input's rescaling factor;
- Gaussian ensembles: ``numpy.linalg.eigvals`` of the unscaled matrix, times
  the rescaling factor (a power of two, so the scaling is exact);
- ``bound``: tr A and tr A^2 recomputed from the generated array.

An output is *wrong* when its ellipse (center, semiaxes) or its trace-only
bound differs from the reference by more than ``REL_TOL * ||A||_F``.  The
tolerance is relative to ||A||_F, not to 1 + ||A||_F: the absolute form would
hide the package's tiny-scale defect.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-8

# Input classes on which the package is known to miss the reference today.
# They only label wrong and failed ops in the report; they exempt nothing.
REPEATED = "repeated-eigenvalue"  # polynomial root route: eps**(1/k) error
TINY = "tiny-scale"  # absolute moment and q0 thresholds
HUGE = "overflow-scale"  # tr(A^2) overflows
PLAIN = "plain"
TINY_FRO = 2.0**-10
HUGE_FRO = 2.0**500


@dataclass(frozen=True)
class RefEllipse:
    center: complex
    semimajor: float
    semiminor: float

    def scaled(self, factor: float) -> "RefEllipse":
        return RefEllipse(self.center * factor, self.semimajor * factor, self.semiminor * factor)


@dataclass(frozen=True)
class RefBound:
    gamma: complex
    foci: tuple[complex, complex]
    lower: float

    def scaled(self, factor: float) -> "RefBound":
        f0, f1 = self.foci
        return RefBound(self.gamma * factor, (f0 * factor, f1 * factor), self.lower * factor)


def ellipse_of(spectrum) -> RefEllipse:
    """The inscribed ellipse of a multiset, from its two moment identities:
    a^2 + b^2 = sum|mu|^2 / (2(n-1)^2) and a^2 - b^2 = |sum mu^2| / (2(n-1)^2),
    with mu the eigenvalues minus their mean."""
    lam = np.asarray(spectrum, dtype=complex)
    n = lam.size
    center = complex(lam.mean())
    mu = lam - center
    q0 = abs(complex(np.sum(mu * mu)))
    power = float(np.sum(np.abs(mu) ** 2))
    denom = 4.0 * (n - 1) ** 2
    return RefEllipse(
        center=center,
        semimajor=math.sqrt((power + q0) / denom),
        semiminor=math.sqrt(max(power - q0, 0.0) / denom),
    )


def bound_of(a: np.ndarray) -> RefBound:
    """gamma, foci and trace-only lower bound from tr A and tr A^2 =
    sum_ij A_ij A_ji."""
    n = a.shape[0]
    gamma = complex(np.trace(a)) / n
    q0 = complex(np.sum(a * a.T)) - n * gamma * gamma
    f = cmath.sqrt(q0) / (math.sqrt(2.0) * (n - 1))
    return RefBound(gamma=gamma, foci=(gamma + f, gamma - f), lower=max(abs(gamma + f), abs(gamma - f)))


def ellipse_error(center, semimajor: float, semiminor: float, ref: RefEllipse) -> float:
    """Largest deviation of a reported ellipse from the reference.  A missing
    center (campaign CSV rows carry none) is not compared."""
    err = max(abs(semimajor - ref.semimajor), abs(semiminor - ref.semiminor))
    if center is not None:
        err = max(err, abs(center - ref.center))
    return err


def bound_error(foci, lower: float, ref: RefBound) -> float:
    """Largest deviation of reported foci (as a set) and bound from the reference."""
    f0, f1 = foci
    r0, r1 = ref.foci
    foci_err = min(max(abs(f0 - r0), abs(f1 - r1)), max(abs(f0 - r1), abs(f1 - r0)))
    return max(foci_err, abs(lower - ref.lower))


def spectrum_error(computed, reference) -> float:
    """Hausdorff distance between two eigenvalue multisets: every computed
    value is this close to some reference value and vice versa."""
    c = np.asarray(computed, dtype=complex)
    r = np.asarray(reference, dtype=complex)
    d = np.abs(c[:, None] - r[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def input_class(reference, fro: float) -> str:
    """Which known-defect class, if any, an input falls in."""
    if not fro < HUGE_FRO:
        return HUGE
    if fro < TINY_FRO:
        return TINY
    values = [complex(v) for v in reference]
    if len(set(values)) < len(values):
        return REPEATED
    return PLAIN


def complex_of(obj) -> complex:
    return complex(obj["re"], obj["im"])
