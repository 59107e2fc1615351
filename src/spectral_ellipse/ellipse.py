"""Construction of the inscribed spectral ellipse.

Pipeline: rotate a traceless eigenvalue multiset by the unit phase u with
u^2 = |q0|/q0 so its second power sum becomes the nonnegative real |q0|
(identity when q0 = 0), form the root-sum-square axis sums R and I, and
scale by 1/(sqrt(2)(n-1)).  The result is an ellipse with foci at
+-sqrt(q0)/(sqrt(2)(n-1)) about 0 that is guaranteed to lie inside the
convex hull of the multiset.  Also provides the support function and the
eigensolver-free spectral radius lower bound from gamma and Q(A0) alone.

The sign of u is not observable: both branches give the same ellipse as a
point set, and major_dir is canonicalized (nonnegative real part, ties
toward nonnegative imaginary part) so reports are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .matrix import Decomposition
from .numerics import NonFinite, principal_sqrt
from .spectrum import Spectrum


class DimensionTooSmall(ValueError):
    """Ellipse construction needs n >= 2; the 1/(n-1) factor vanishes below."""


@dataclass(frozen=True)
class NormalizedSpectrum:
    """Traceless eigenvalues rotated so the second power sum is |q0|."""

    mu: tuple[complex, ...]
    phase_factor: complex
    q_abs: float


@dataclass(frozen=True)
class SpectralEllipse:
    """Closed ellipse of a traceless spectrum, centered at 0 (the reports add
    gamma): semiaxes a >= b, unit major-axis direction, foci +-c*major_dir
    with c = sqrt(|q0|)/(sqrt(2)(n-1)).  Flat shapes (segment b=0,
    point a=b=0) are first-class values."""

    semimajor: float
    semiminor: float
    major_dir: complex
    foci: tuple[complex, complex]


def _sum_of_squares(xs) -> float:
    """sum(x**2); NonFinite where a square leaves the float range (Python's
    float power raises OverflowError there instead of returning inf)."""
    try:
        return sum(x**2 for x in xs)
    except OverflowError as exc:
        raise NonFinite(f"sum of squares overflows: {exc}") from None


def normalize_mu(lambdas) -> NormalizedSpectrum:
    """Rotate the multiset by the unit u with u^2 = |q0|/q0 (principal branch),
    q0 = sum(lambda^2).  Where |q0| <= (n + 1) 2^-52 sum|lambda|^2, the rounding
    bound of the computed q0, the values pass through unchanged with
    phase_factor 1.  Either branch gives the theorem's ellipse to within
    `hull.containment_slack` (README, "Rounding bounds")."""
    lam = tuple(complex(v) for v in lambdas)
    q0 = complex(sum(v * v for v in lam))
    power = _sum_of_squares(abs(v) for v in lam)
    if abs(q0) <= (len(lam) + 1) * 2.0**-52 * power:
        return NormalizedSpectrum(mu=lam, phase_factor=1.0 + 0.0j, q_abs=abs(q0))
    u = principal_sqrt(q0.conjugate() / abs(q0))
    return NormalizedSpectrum(
        mu=tuple(v * u for v in lam), phase_factor=u, q_abs=abs(q0)
    )


def axis_sums(ns: NormalizedSpectrum) -> tuple[float, float]:
    """(R, I): root-sum-squares of the real and imaginary parts of the mu values."""
    r = math.sqrt(_sum_of_squares(v.real for v in ns.mu))
    i_ = math.sqrt(_sum_of_squares(v.imag for v in ns.mu))
    return r, i_


def _canonical_dir(d: complex) -> complex:
    d = d / abs(d)
    if d.real < 0.0 or (d.real == 0.0 and d.imag < 0.0):
        d = -d
    return d


def ellipse_from_normalized(ns: NormalizedSpectrum) -> SpectralEllipse:
    """Build the ellipse of an already normalized spectrum of n = len(ns.mu) values."""
    n = len(ns.mu)
    if n < 2:
        raise DimensionTooSmall(f"ellipse needs dimension >= 2, got {n}")
    r, i_ = axis_sums(ns)
    k = 1.0 / (math.sqrt(2.0) * (n - 1))
    a = r * k
    b = i_ * k
    direction = ns.phase_factor.conjugate()
    if a < b:
        # only reachable through rounding near q0 = 0, where R ~ I;
        # the true major axis is then the perpendicular one
        a, b = b, a
        direction *= 1j
    direction = _canonical_dir(direction)
    focus = math.sqrt(ns.q_abs) * k * direction
    return SpectralEllipse(
        semimajor=a,
        semiminor=b,
        major_dir=direction,
        foci=(focus, -focus),
    )


def shifted_ellipse(spec: Spectrum) -> SpectralEllipse:
    """Ellipse of A centered at 0 (add gamma to place it), from the spectrum of its traceless part."""
    return ellipse_from_normalized(normalize_mu(spec.values))


def support(e: SpectralEllipse, u: complex) -> float:
    """Support function max over the closed ellipse (centered at 0) of Re(conj(u) z); 0 at u = 0."""
    along = (u.conjugate() * e.major_dir).real
    across = (u.conjugate() * (1j * e.major_dir)).real
    return math.hypot(e.semimajor * along, e.semiminor * across)


def trace_only_bound(d: Decomposition) -> tuple[tuple[complex, complex], float]:
    """Eigensolver-free spectral radius lower bound: the foci
    gamma +- sqrt(Q(A0))/(sqrt(2)(n-1)), with Q(A0) = tr(A0^2) of the
    traceless part, and the modulus of the farther one."""
    if d.n < 2:
        raise DimensionTooSmall(f"bound needs dimension >= 2, got {d.n}")
    f = principal_sqrt(d.q_traceless) / (math.sqrt(2.0) * (d.n - 1))
    foci = (d.gamma + f, d.gamma - f)
    return foci, max(abs(foci[0]), abs(foci[1]))
