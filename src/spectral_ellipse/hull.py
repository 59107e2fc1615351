"""Convex hull of a spectrum and certified ellipse containment.

The hull is Andrew's monotone chain with an orientation test that has no
tolerance; only the duplicate and segment thresholds remain (`convex_hull`).

Containment compares support functions: a convex set lies inside a convex
polygon iff its support is dominated on every outward edge normal.  Segment
and point hulls take the same margins on fewer directions, plus a flatness
condition on the ellipse, under one verdict rule (`contains_ellipse`).
`directional_margin` is the independent second witness: it checks the
directional inequality

    max_i(alpha*Re mu_i + beta*Im mu_i) >= sqrt(alpha^2 R^2 + beta^2 I^2) / (sqrt(2)(n-1))

for a unit direction u = alpha + i*beta directly on the normalized
spectrum, without constructing the ellipse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ellipse import (
    AxisSums,
    DimensionTooSmall,
    NormalizedSpectrum,
    SpectralEllipse,
    ZeroDirection,
    support,
)

DUPLICATE_REL_TOL = 1e-14
SEGMENT_REL_TOL = 1e-10
_NORMAL_MIN = 2.0**-1022

CONTAINED = "Contained"
VIOLATED = "Violated"
DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class HullPolygon:
    """Hull vertices in counterclockwise order; may degenerate to a segment
    (2 vertices) or a single point."""

    vertices: tuple[complex, ...]


@dataclass(frozen=True)
class ContainmentReport:
    verdict: str
    min_margin: float
    worst_direction: complex


def _cross(o: complex, a: complex, b: complex) -> float | Fraction:
    """(a - o) x (b - o), exact where a float product of nonzero factors may
    have underflowed and taken the sign with it (below the normal range)."""
    x1, y1, x2, y2 = a.real - o.real, a.imag - o.imag, b.real - o.real, b.imag - o.imag
    c = x1 * y2 - y1 * x2
    if abs(c) >= _NORMAL_MIN or not (x1 and y2 or y1 and x2):
        return c
    return Fraction(x1) * Fraction(y2) - Fraction(y1) * Fraction(x2)


def _dedupe(points: list[complex]) -> list[complex]:
    tol = DUPLICATE_REL_TOL * (1.0 + max(abs(p) for p in points))
    kept: list[complex] = []
    for p in sorted(points, key=lambda z: (z.real, z.imag)):
        if all(abs(p - q) > tol for q in kept):
            kept.append(p)
    return kept


def convex_hull(points) -> HullPolygon:
    """Counterclockwise hull by Andrew's monotone chain.

    The chains pop a point on the sign of the cross product alone, with no
    tolerance, so a point leaves the hull only when it lies inside it or
    within rounding of one of its edges.  Two thresholds remain: points within
    DUPLICATE_REL_TOL * (1 + max|p|) of a kept point merge into it, and a
    hull whose vertices all lie within SEGMENT_REL_TOL * diameter of the
    line through its farthest pair becomes that segment.  Points collinear
    only up to rounding may stay as vertices; the hull is the same set
    either way."""
    pts = [complex(p) for p in points]
    if not pts:
        raise ValueError("convex hull needs at least one point")
    uniq = _dedupe(pts)
    if len(uniq) == 1:
        return HullPolygon(vertices=(uniq[0],))

    def build(seq):
        chain: list[complex] = []
        for p in seq:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0.0:
                chain.pop()
            chain.append(p)
        return chain

    # a chain never pops its first point, so hull starts at uniq[0] and
    # holds uniq[-1]: a two-vertex hull is already in (re, im) order
    hull = build(uniq)[:-1] + build(reversed(uniq))[:-1]

    far_p, far_q = max(
        ((p, q) for p in hull for q in hull),
        key=lambda pq: (abs(pq[0] - pq[1]), (pq[0].real, pq[0].imag, pq[1].real, pq[1].imag)),
    )
    diameter = abs(far_p - far_q)

    # collapse to a segment when every vertex hugs the extreme-pair line
    if len(hull) > 2:
        axis = (far_q - far_p) / diameter
        off_line = max(abs(((v - far_p) * axis.conjugate()).imag) for v in hull)
        if off_line <= SEGMENT_REL_TOL * diameter:
            ends = sorted((far_p, far_q), key=lambda z: (z.real, z.imag))
            return HullPolygon(vertices=tuple(ends))

    return HullPolygon(vertices=tuple(hull))


def _dot(u: complex, v: complex) -> float:
    return u.real * v.real + u.imag * v.imag


def contains_ellipse(h: HullPolygon, e: SpectralEllipse, slack: float) -> ContainmentReport:
    """Certify that the ellipse lies inside the hull, up to slack.

    Each hull shape gives outward unit directions u, the vertex v each is
    anchored at, and whether the ellipse is flat enough for it: a polygon
    its edge normals, each at the edge's start vertex (always flat); a
    segment v0 -> v1 of direction s, -s at v0 and s at v1 (flat when the
    ellipse leaves the segment's line by at most slack on either side); a
    point the four cardinal directions (flat when the semimajor is at most
    slack).  The margins are <u, v> - support(e, u), and the report keeps
    the first minimum.  A segment that is not flat is Degenerate before its
    margins are read.  Otherwise every margin >= -slack is Contained, and
    else the verdict is Violated if flat and Degenerate if not: a fat
    ellipse against a lower-dimensional hull is ill-posed, not a signed miss.
    """
    verts = h.vertices
    m = len(verts)
    if m >= 3:
        edges = (verts[(k + 1) % m] - verts[k] for k in range(m))
        dirs = [complex(d.imag, -d.real) / abs(d) for d in edges]
        anchors, flat = verts, True
    elif m == 2:
        v0, v1 = verts
        s = (v1 - v0) / abs(v1 - v0)
        dirs, anchors = (-s, s), verts
        flat = all(support(e, u) - _dot(u, v0) <= slack for u in (1j * s, -1j * s))
    else:
        # written out: -1j would be complex(-0.0, -1.0)
        dirs = (complex(1.0, 0.0), complex(-1.0, 0.0), complex(0.0, 1.0), complex(0.0, -1.0))
        anchors, flat = verts * 4, e.semimajor <= slack

    margins = [_dot(u, v) - support(e, u) for u, v in zip(dirs, anchors)]
    worst = min(range(len(margins)), key=margins.__getitem__)
    if m == 2 and not flat:
        verdict = DEGENERATE
    elif margins[worst] >= -slack:
        verdict = CONTAINED
    else:
        verdict = VIOLATED if flat else DEGENERATE
    return ContainmentReport(verdict=verdict, min_margin=margins[worst], worst_direction=dirs[worst])


def directional_margin(ns: NormalizedSpectrum, ax: AxisSums, n: int, u: complex) -> float:
    """Slack in the directional inequality for one direction; it is >= 0 in
    every direction whenever the mu values sum to zero, giving an
    ellipse-free containment witness."""
    if n < 2:
        raise DimensionTooSmall(f"directional margin needs n >= 2, got {n}")
    if u == 0:
        raise ZeroDirection("direction 0 has no margin")
    if len(ns.mu) != n:
        raise ValueError(f"expected {n} normalized values, got {len(ns.mu)}")
    best = max(u.real * v.real + u.imag * v.imag for v in ns.mu)
    rhs = math.hypot(u.real * ax.r, u.imag * ax.i_) / (math.sqrt(2.0) * (n - 1))
    return best - rhs


def sweep_margins(ns: NormalizedSpectrum, ax: AxisSums, n: int, k: int) -> np.ndarray:
    """directional_margin at the k directions (cos(2 pi j / k), sin(2 pi j / k)), as an array."""
    if k < 4:
        raise ValueError(f"sweep needs k >= 4 directions, got {k}")
    if n < 2:
        raise DimensionTooSmall(f"sweep needs n >= 2, got {n}")
    if len(ns.mu) != n:
        raise ValueError(f"expected {n} normalized values, got {len(ns.mu)}")
    theta = 2.0 * math.pi * np.arange(k) / k
    alpha = np.cos(theta)
    beta = np.sin(theta)
    mu = np.asarray(ns.mu, dtype=complex)
    best = np.max(np.outer(alpha, mu.real) + np.outer(beta, mu.imag), axis=1)
    rhs = np.hypot(alpha * ax.r, beta * ax.i_) / (math.sqrt(2.0) * (n - 1))
    return best - rhs
