"""Convex hull of a spectrum and certified ellipse containment.

The hull is exactly the hull of the points it is given: Andrew's monotone
chain over the distinct points, popping on the exact sign of a cross product
(`_cross`), with no duplicate, segment or orientation threshold
(`convex_hull`).

Containment compares support functions: a convex set lies inside a convex
polygon iff its support is dominated on every outward edge normal.  Segment
and point hulls take the same margins on fewer directions, and a segment
also asks that the ellipse stay on its line (`_cone_directions`).  One rule
gives one of two verdicts (`contains_ellipse`): the theorem puts the ellipse
inside the hull, so it is Contained up to rounding, or Violated: the run failed.
`directional_margin(ns, u)` is the independent second witness: it checks
the directional inequality

    max_i(alpha*Re mu_i + beta*Im mu_i) >= sqrt(alpha^2 R^2 + beta^2 I^2) / (sqrt(2)(n-1))

for a unit direction u = alpha + i*beta directly on the normalized spectrum
(n = len(ns.mu), (R, I) = `ellipse.axis_sums(ns)`), without constructing the
ellipse; `sweep_margins(ns)` checks it at the same directions for the hull
of ns.mu, where its least value, if >= 0, is the least over all directions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from . import ellipse as el  # axis_sums is called as el.axis_sums, where a tracer can wrap it
from .ellipse import DimensionTooSmall, NormalizedSpectrum, SpectralEllipse, support

CONTAINED = "Contained"
VIOLATED = "Violated"


@dataclass(frozen=True)
class ContainmentReport:
    verdict: str
    min_margin: float
    worst_direction: complex


def _cross(o: complex, a: complex, b: complex) -> float | Fraction:
    """(a - o) x (b - o), with the sign of the exact value.

    The float value c is returned where |c| > 4 eps (|x1 y2| + |y1 x2|)
    + 2^-1000, eps = 2^-53: Shewchuk's orient2d bound on the error of c is
    (3 + 16 eps) eps (...), and the floor covers products that underflowed.
    Otherwise, also where a difference or product overflowed (inf or NaN
    fails the test), the exact value is formed from the input coordinates."""
    x1, y1, x2, y2 = a.real - o.real, a.imag - o.imag, b.real - o.real, b.imag - o.imag
    left, right = x1 * y2, y1 * x2
    c = left - right
    if abs(c) > 2.0**-51 * (abs(left) + abs(right)) + 2.0**-1000:
        return c
    ox, oy = Fraction(o.real), Fraction(o.imag)
    return (Fraction(a.real) - ox) * (Fraction(b.imag) - oy) - (Fraction(a.imag) - oy) * (Fraction(b.real) - ox)


def convex_hull(points) -> tuple[complex, ...]:
    """The strict extreme points of a finite point set, counterclockwise, by
    Andrew's monotone chain: a polygon, a segment (2 vertices, in (re, im)
    order) when the points are exactly collinear, or a single point when
    they are all equal.

    The chains run over the distinct points in (re, im) order and pop a
    point when the exact cross product is <= 0, so the vertices are exactly
    the strict extreme points of the input: a point collinear only up to
    rounding stays a vertex of a thin polygon, and only exactly collinear or
    exactly equal points give a segment or a point.  Every finite input has
    a hull; an empty or non-finite one raises ValueError."""
    pts = [complex(p) for p in points]
    if not pts:
        raise ValueError("convex hull needs at least one point")
    if not all(map(cmath.isfinite, pts)):
        raise ValueError("hull points must be finite")
    uniq = sorted(set(pts), key=attrgetter("real", "imag"))
    if len(uniq) == 1:
        return (uniq[0],)

    def build(seq):
        chain: list[complex] = []
        for p in seq:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0.0:
                chain.pop()
            chain.append(p)
        return chain

    # a chain never pops its first point, so hull starts at uniq[0] and
    # holds uniq[-1]: a two-vertex hull is already in (re, im) order
    return tuple(build(uniq)[:-1] + build(reversed(uniq))[:-1])


def _dot(u: complex, v: complex) -> float:
    return u.real * v.real + u.imag * v.imag


def _step(v0: complex, v1: complex) -> complex:
    """v1 - v0, or, where its length overflows, half of it as
    0.5 v1 - 0.5 v0 part by part, which is exact that far above the
    subnormal range; both give one direction d/|d|."""
    d = v1 - v0
    if math.isfinite(abs(d)):
        return d
    return complex(0.5 * v1.real - 0.5 * v0.real, 0.5 * v1.imag - 0.5 * v0.imag)


def containment_slack(mu) -> float:
    """Bound on how far rounding moves a margin of `contains_ellipse` past the
    theorem's 0, for the n >= 2 values mu: 2|sum mu|/n for their centering,
    (28 + 2.1 sqrt(n)) 2^-52 max|mu| for the arithmetic from q0 to the margin,
    and n 2^-500, at most 4 max|mu|, for underflow (README, "Rounding bounds")."""
    n, m = len(mu), max(map(abs, mu))
    s = complex(math.fsum(v.real for v in mu), math.fsum(v.imag for v in mu))
    return 2.0 * abs(s) / n + (28.0 + 2.1 * math.sqrt(n)) * 2.0**-52 * m + min(4.0 * m, n * 2.0**-500)


def _cone_directions(verts: tuple[complex, ...]) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """The outward unit directions that bound the normal cones of the hull
    `verts` (as from `convex_hull`), each cone less than pi wide, and the
    vertex each is anchored at: a polygon its edge normals, each at the
    edge's start vertex; a segment v0 -> v1 of direction s, -s at v0 and s
    at v1, then its flatness directions is and -is at v0; a point the four
    cardinal directions."""
    m = len(verts)
    if m >= 3:
        edges = (_step(verts[k], verts[(k + 1) % m]) for k in range(m))
        return tuple(complex(d.imag, -d.real) / abs(d) for d in edges), verts
    if m == 2:
        d = _step(*verts)
        s = d / abs(d)
        return (-s, s, 1j * s, -1j * s), verts + verts[:1] * 2
    # written out: -1j would be complex(-0.0, -1.0)
    return (complex(1.0, 0.0), complex(-1.0, 0.0), complex(0.0, 1.0), complex(0.0, -1.0)), verts * 4


def contains_ellipse(verts: tuple[complex, ...], e: SpectralEllipse, slack: float) -> ContainmentReport:
    """Certify that the ellipse lies inside the hull `verts` (as from
    `convex_hull`), up to slack; with `containment_slack` as the slack, a
    Violated verdict says that the theorem fails beyond rounding.

    The margins are <u, v> - support(e, u) at the `_cone_directions` u and
    their anchors v.  The one rule: Contained if every margin is >= -slack,
    else Violated.  The report keeps the first minimum, leaving out a
    segment's flatness directions: their margins only fail, by more than
    slack, when the ellipse leaves the segment's line on that side.
    """
    dirs, anchors = _cone_directions(verts)
    margins = [_dot(u, v) - support(e, u) for u, v in zip(dirs, anchors)]
    reported = 2 if len(verts) == 2 else len(margins)
    worst = min(range(reported), key=margins.__getitem__)
    verdict = CONTAINED if all(x >= -slack for x in margins) else VIOLATED
    return ContainmentReport(verdict=verdict, min_margin=margins[worst], worst_direction=dirs[worst])


def _margin(mu, u: complex, r: float, i_: float) -> float:
    """The directional inequality's slack at u, with (R, I) = (r, i_)."""
    return max(_dot(u, v) for v in mu) - math.hypot(u.real * r, u.imag * i_) / (math.sqrt(2.0) * (len(mu) - 1))


def directional_margin(ns: NormalizedSpectrum, u: complex) -> float:
    """Slack in the directional inequality at u (0 at u = 0): >= 0 in every direction
    whenever the mu values sum to zero, an ellipse-free containment witness."""
    n = len(ns.mu)
    if n < 2:
        raise DimensionTooSmall(f"directional margin needs n >= 2, got {n}")
    return _margin(ns.mu, u, *el.axis_sums(ns))


def sweep_margins(ns: NormalizedSpectrum) -> list[float]:
    """directional_margin at the `_cone_directions` of the hull of ns.mu, in their order."""
    n = len(ns.mu)
    if n < 2:
        raise DimensionTooSmall(f"sweep needs n >= 2, got {n}")
    r, i_ = el.axis_sums(ns)
    dirs, _ = _cone_directions(convex_hull(ns.mu))
    return [_margin(ns.mu, u, r, i_) for u in dirs]
