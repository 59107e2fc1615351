"""Convex hull of a spectrum and certified ellipse containment.

Containment is decided by support-function comparison on the hull's edge
normals, which is exact for polygon targets: a convex set lies inside a
convex polygon iff its support is dominated on every outward edge normal.
`directional_margin` is the independent second witness: it checks the
directional inequality

    max_i(alpha*Re mu_i + beta*Im mu_i) >= sqrt(alpha^2 R^2 + beta^2 I^2) / (sqrt(2)(n-1))

for a unit direction u = alpha + i*beta directly on the normalized
spectrum, without constructing the ellipse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
COLLINEAR_REL_TOL = 1e-12
SEGMENT_REL_TOL = 1e-10

CONTAINED = "Contained"
VIOLATED = "Violated"
DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class HullPolygon:
    """Hull vertices in counterclockwise order; may degenerate to a segment
    (2 vertices) or a single point."""

    vertices: tuple[complex, ...]
    diameter: float


@dataclass(frozen=True)
class ContainmentReport:
    verdict: str
    min_margin: float
    worst_direction: complex
    per_edge_margins: tuple[float, ...]


def _cross(o: complex, a: complex, b: complex) -> float:
    return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)


def _dedupe(points: list[complex]) -> list[complex]:
    tol = DUPLICATE_REL_TOL * (1.0 + max(abs(p) for p in points))
    kept: list[complex] = []
    for p in sorted(points, key=lambda z: (z.real, z.imag)):
        if all(abs(p - q) > tol for q in kept):
            kept.append(p)
    return kept


def convex_hull(points) -> HullPolygon:
    """Counterclockwise hull by monotone chain; interior and collinear points
    removed, near-duplicates collapsed, nearly-collinear hulls reduced to the
    segment through their extreme pair."""
    pts = [complex(p) for p in points]
    if not pts:
        raise ValueError("convex hull needs at least one point")
    uniq = _dedupe(pts)
    if len(uniq) == 1:
        return HullPolygon(vertices=(uniq[0],), diameter=0.0)

    # bounding-box diagonal as the scale for collinearity during construction
    res = [p.real for p in uniq]
    ims = [p.imag for p in uniq]
    bbox_diag = math.hypot(max(res) - min(res), max(ims) - min(ims))
    dist_tol = COLLINEAR_REL_TOL * bbox_diag

    def build(seq):
        chain: list[complex] = []
        for p in seq:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= dist_tol * abs(
                p - chain[-2]
            ):
                chain.pop()
            chain.append(p)
        return chain

    lower = build(uniq)
    upper = build(reversed(uniq))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:
        hull = [uniq[0], uniq[-1]]

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
            return HullPolygon(vertices=tuple(ends), diameter=diameter)

    if len(hull) == 2:
        hull = sorted(hull, key=lambda z: (z.real, z.imag))
    return HullPolygon(vertices=tuple(hull), diameter=diameter)


def _dot(u: complex, v: complex) -> float:
    return u.real * v.real + u.imag * v.imag


def contains_ellipse(h: HullPolygon, e: SpectralEllipse, slack: float) -> ContainmentReport:
    """Certify that the ellipse lies inside the hull, up to slack.

    Polygon hulls compare supports on every outward edge normal, which is an
    exact characterization.  A segment hull is one-dimensional: the ellipse
    must itself be flat (perpendicular extent within slack on both sides) and
    its projected interval must fit between the endpoints; the end margins
    are the reported margins.  A point hull requires the ellipse to be that
    point.  When a fat ellipse meets a lower-dimensional hull the comparison
    is ill-posed and the verdict is Degenerate rather than a signed margin.
    """
    verts = h.vertices
    m = len(verts)

    if m >= 3:
        edges = [verts[(k + 1) % m] - verts[k] for k in range(m)]
        dirs = [complex(d.imag, -d.real) / abs(d) for d in edges]
        margins = [_dot(u, v) - support(e, u) for u, v in zip(dirs, verts)]
        worst = min(range(m), key=lambda i: margins[i])
        verdict = CONTAINED if margins[worst] >= -slack else VIOLATED
        return ContainmentReport(
            verdict=verdict,
            min_margin=margins[worst],
            worst_direction=dirs[worst],
            per_edge_margins=tuple(margins),
        )

    if m == 2:
        v0, v1 = verts
        s = (v1 - v0) / abs(v1 - v0)
        margin_lo = _dot(-s, v0) - support(e, -s)
        margin_hi = _dot(s, v1) - support(e, s)
        normal = 1j * s
        dev = max(
            support(e, normal) - _dot(normal, v0),
            support(e, -normal) - _dot(-normal, v0),
        )
        margins = (margin_lo, margin_hi)
        worst = 0 if margin_lo <= margin_hi else 1
        if dev > slack:
            verdict = DEGENERATE
        elif margins[worst] >= -slack:
            verdict = CONTAINED
        else:
            verdict = VIOLATED
        return ContainmentReport(
            verdict=verdict,
            min_margin=margins[worst],
            worst_direction=(-s, s)[worst],
            per_edge_margins=margins,
        )

    v = verts[0]
    # written out: -1j would be complex(-0.0, -1.0)
    cardinal = (complex(1.0, 0.0), complex(-1.0, 0.0), complex(0.0, 1.0), complex(0.0, -1.0))
    margins = tuple(_dot(u, v) - support(e, u) for u in cardinal)
    worst = min(range(4), key=lambda i: margins[i])
    if margins[worst] >= -slack:
        verdict = CONTAINED
    elif e.semimajor <= slack:
        verdict = VIOLATED  # two genuine points that simply differ
    else:
        verdict = DEGENERATE  # extended ellipse against a zero-dimensional hull
    return ContainmentReport(
        verdict=verdict,
        min_margin=margins[worst],
        worst_direction=cardinal[worst],
        per_edge_margins=margins,
    )


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
