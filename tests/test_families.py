"""The theorem as the oracle: structured families through `cli.analyze`.

The paper's ellipse lies in the hull of the spectrum of every matrix, so
outside the six `verify` ensembles any verdict but `Contained` is a defect.
Each family is shifted by c*I with |c| a fixed multiple of ||A0||_F and a
random phase, and A, iA and conj(A) must reach the same verdict (both maps
are exact in floating point and carry the ellipse onto the ellipse of the
image).  The verdict must also say something: the containment slack stays
far below the semimajor, at every shift, because the hull, ellipse and
slack are measured against A0.  The normal families are built as
U diag(lambda) U* and return their lambda, which the reported eigenvalues
must match.  Family draws are seeded, so a failure names a reproducible
input.
"""

import cmath
import math

import numpy as np
import pytest

from spectral_ellipse import cli
from spectral_ellipse.hull import CONTAINED
from spectral_ellipse.matrix import as_matrix

SIZES = (2, 3, 4, 8)
DRAWS = 4  # per family and size; a Jordan block gets one (see family_band)
EPS = np.finfo(float).eps


def _gaussian(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _normal(rng, n, lam):
    """(U diag(lambda) U*, lambda) for a Haar unitary U."""
    q, r = np.linalg.qr(_gaussian(rng, n))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return u @ np.diag(lam) @ u.conj().T, lam


def _phase(rng):
    return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


# Each family returns (A, lambda), lambda None where it is not built in.


def hermitian(rng, n):
    return _normal(rng, n, rng.standard_normal(n) + 0j)


def skew_hermitian(rng, n):
    g = _gaussian(rng, n)
    return g - g.conj().T, None


def real_skew(rng, n):
    g = rng.standard_normal((n, n))
    return g - g.T, None


def unitary(rng, n):
    return _normal(rng, n, np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n)))


def normal_on_line(rng, n):
    z0, d = complex(*rng.standard_normal(2)), _phase(rng)
    return _normal(rng, n, z0 + d * rng.standard_normal(n))


def normal_on_circle(rng, n):
    z0, r = complex(*rng.standard_normal(2)), rng.uniform(0.5, 2.0)
    return _normal(rng, n, z0 + r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n)))


def normal_at_point(rng, n):
    return _normal(rng, n, np.full(n, complex(*rng.standard_normal(2))))


def rotated_hermitian(rng, n):
    g = _gaussian(rng, n)
    return _phase(rng) * (g + g.conj().T), None


def jordan_block(rng, n):
    return complex(*rng.standard_normal(2)) * np.eye(n) + np.eye(n, k=1), None


FAMILIES = (
    hermitian,
    skew_hermitian,
    real_skew,
    unitary,
    normal_on_line,
    normal_on_circle,
    normal_at_point,
    rotated_hermitian,
    jordan_block,
)


def family_band(family, shift):
    """(A, lambda) for every matrix of one family at |c| = shift * ||A0||_F,
    lambda shifted with A (None where the family does not build it)."""
    rng = np.random.default_rng(FAMILIES.index(family))  # the same draws in every band
    # Jordan draws differ only in lambda, and each one costs the polynomial
    # root finder about 100 ms, so one per size
    draws = 1 if family is jordan_block else DRAWS
    for n in SIZES:
        for _ in range(draws):
            a, lam = family(rng, n)
            a0 = a - np.trace(a) / n * np.eye(n)
            c = shift * np.linalg.norm(a0) * _phase(rng)
            yield a + c * np.eye(n), None if lam is None else lam + c


def matched_distance(got, want):
    """Largest distance between the two multisets, each value of `want`
    matched greedily to its nearest unmatched value of `got`."""
    remaining, worst = list(got), 0.0
    for w in want:
        j = min(range(len(remaining)), key=lambda i: abs(remaining[i] - w))
        worst = max(worst, abs(remaining.pop(j) - w))
    return worst


@pytest.mark.parametrize("shift", (0.0, 1.0, 1e2, 1e4, 1e6, 1e8, 1e12))
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
def test_family_is_contained_under_i_and_conj(family, shift):
    slack = cli.PipelineSettings().slack
    for a, lam in family_band(family, shift):
        analyses = [cli.analyze(as_matrix(m)) for m in (a, 1j * a, np.conj(a))]
        assert [an.containment.verdict for an in analyses] == [CONTAINED] * 3, a
        if family is not jordan_block:
            # A0 = N is nilpotent there, and its semimajor root-finder noise
            for an in analyses:
                assert slack(an.spectrum.values) <= 1e-6 * an.ellipse.semimajor, a
        if lam is not None:
            fro = np.linalg.norm(a)
            # 1e3 eps ||A||_F is the cost of the characteristic-polynomial
            # route (worst about 350, a normal matrix on a line at n = 8); the
            # bound tightens once the eigensolve is LAPACK's (ROADMAP item 2)
            for an, image in zip(analyses, (lam, 1j * lam, np.conj(lam))):
                got = [an.point(v) for v in an.spectrum.values]
                assert matched_distance(got, image) <= 1e3 * EPS * fro, a
            for axis in ("semimajor", "semiminor"):
                lengths = [an.length(getattr(an.ellipse, axis)) for an in analyses]
                assert max(lengths) - min(lengths) <= 8 * EPS * fro, a
