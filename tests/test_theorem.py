"""The paper's theorem in exact arithmetic, and the rounding bound of every
float margin checked against it.

For values mu_1..mu_n with q0 = sum mu^2 and P = sum |mu|^2, the support of
their ellipse in a direction nu != 0 is

    h(nu)^2 = (P |nu|^2 + Re(conj(nu)^2 q0)) / (4 (n-1)^2),

in which |q0|, the phase u and the axis sums R and I all cancel.  A float is
a dyadic rational, so on a hull edge v0 -> v1 with outward normal
nu = -i (v1 - v0) the theorem is the rational inequality

    4 (n-1)^2 <nu, v0>^2 >= P |nu|^2 + Re(conj(nu)^2 q0),  <nu, v0> >= 0,

which `Fraction` decides with no square root and no threshold.  The float
`min_margin` of `contains_ellipse` must lie within `containment_slack` of the
exact margin, whose square roots mpmath takes at 60 digits.  The goldens are
checked the same way, from their own printed eigenvalues, so the check does
not depend on the machine that recorded them.
"""

import glob
import json
import math
import os
from fractions import Fraction

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_ellipse.ellipse import SpectralEllipse, ellipse_from_normalized, normalize_mu
from spectral_ellipse.hull import CONTAINED, VIOLATED, containment_slack, contains_ellipse, convex_hull

GOLDEN_ANALYZE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "analyze")
WIDER = 1 + Fraction(1, 2**40)


def exact(z):
    return Fraction(z.real), Fraction(z.imag)


def power_sums(mu):
    """(P, Re q0, Im q0) of exact (re, im) pairs."""
    p = sum(x * x + y * y for x, y in mu)
    return p, sum(x * x - y * y for x, y in mu), sum(2 * x * y for x, y in mu)


def directions(verts):
    """(nu, anchor) pairs, exact and unnormalized, of the directions that
    `contains_ellipse` takes for the hull `verts`: edge normals of a polygon,
    the two ends of a segment, the cardinal directions of a point."""
    v = [exact(z) for z in verts]
    if len(v) >= 3:
        return [((y1 - y0, x0 - x1), (x0, y0)) for (x0, y0), (x1, y1) in zip(v, v[1:] + v[:1])]
    if len(v) == 2:
        (x0, y0), (x1, y1) = v
        return [((x0 - x1, y0 - y1), v[0]), ((x1 - x0, y1 - y0), v[1])]
    return [(nu, v[0]) for nu in ((1, 0), (-1, 0), (0, 1), (0, -1))]


def reach(n, sums, nu, anchor, center=(0, 0)):
    """(4 (n-1)^2 <nu, v - c>^2, <nu, v - c>, h(nu)^2 4 (n-1)^2), exactly."""
    (x, y), (p, qr, qi) = nu, sums
    dot = x * (anchor[0] - center[0]) + y * (anchor[1] - center[1])
    return 4 * (n - 1) ** 2 * dot * dot, dot, p * (x * x + y * y) + (x * x - y * y) * qr + 2 * x * y * qi


def holds(n, sums, nu, anchor, scale=1):
    """The theorem on one direction, for the ellipse scaled by `scale`."""
    lhs, dot, rhs = reach(n, sums, nu, anchor)
    return dot >= 0 and lhs >= scale * scale * rhs


def mp(q):
    q = Fraction(q)
    return mpmath.mpf(q.numerator) / q.denominator


def exact_margin(n, sums, verts, center=(0, 0)):
    """min over the directions of <nu, v - c>/|nu| - h(nu)/|nu|, to 60 digits."""
    with mpmath.workdps(60):
        margins = []
        for nu, anchor in directions(verts):
            _, dot, rhs = reach(n, sums, nu, anchor, center)
            margins.append((mp(dot) - mpmath.sqrt(mp(rhs)) / (2 * (n - 1))) / mpmath.sqrt(mp(nu[0] ** 2 + nu[1] ** 2)))
        return min(margins)


def scaled(parts, e):
    return [complex(math.ldexp(x, e), math.ldexp(y, e)) for x, y in parts]


@st.composite
def centered_multisets(draw, sizes=st.integers(2, 8)):
    """n <= 8 dyadic values that sum exactly to zero: in the plane, on a line
    through 0, drawn from a pool of at most three values, or the tightness
    family (n - 1 values -1 and one n - 1) turned by a Gaussian integer."""
    n = draw(sizes)
    kind = draw(st.sampled_from(("plane", "line", "repeated", "tightness")))
    part = st.integers(-(2**20), 2**20)
    if kind == "plane":
        head = [(draw(part), draw(part)) for _ in range(n - 1)]
    elif kind == "line":
        dx, dy = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
        head = [(t * dx, t * dy) for t in (draw(part) for _ in range(n - 1))]
    elif kind == "repeated":
        pool = draw(st.lists(st.tuples(part, part), min_size=1, max_size=3))
        head = [draw(st.sampled_from(pool)) for _ in range(n - 1)]
    else:
        dx, dy = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
        head = [(-dx, -dy)] * (n - 1)
    tail = (-sum(x for x, _ in head), -sum(y for _, y in head))
    return scaled(head + [tail], draw(st.integers(-60, 60)))


@given(centered_multisets())
@example(scaled([(-1, 0), (1, 0)], 0))
@example(scaled([(-1, 0)] * 4 + [(4, 0)], 0))
@example(scaled([(0, 0)] * 3, 0))
@settings(max_examples=150, deadline=None)
def test_theorem_holds_on_every_hull_edge(mu):
    n, sums, verts = len(mu), power_sums([exact(v) for v in mu]), convex_hull(mu)
    for nu, anchor in directions(verts):
        assert holds(n, sums, nu, anchor)
    if len(verts) == 2:
        # the ellipse is flat: across the segment the two sides are equal,
        # and at n = 2 it is the segment, so its ends are equal too
        (x0, y0), (x1, y1) = exact(verts[0]), exact(verts[1])
        across = [((y1 - y0, x0 - x1), (x0, y0)), ((y0 - y1, x1 - x0), (x0, y0))]
        for nu, anchor in across + (directions(verts) if n == 2 else []):
            lhs, _, rhs = reach(n, sums, nu, anchor)
            assert lhs == rhs


@given(centered_multisets(st.just(2)).filter(any))
@settings(max_examples=40, deadline=None)
def test_a_slightly_wider_ellipse_fails_at_n_2(mu):
    # the theorem's n = 2 ellipse is the segment itself, so any wider one
    # leaves the hull: exactly, and by more than the float slack
    sums, verts = power_sums([exact(v) for v in mu]), convex_hull(mu)
    assert not all(holds(2, sums, nu, anchor, WIDER) for nu, anchor in directions(verts))
    e = ellipse_from_normalized(normalize_mu(mu))
    wide = SpectralEllipse(e.semimajor * float(WIDER), e.semiminor, e.major_dir, e.foci)
    assert contains_ellipse(verts, wide, containment_slack(mu)).verdict == VIOLATED


@given(centered_multisets())
@example(scaled([(-1, 0)] * 7 + [(7, 0)], 0))
@settings(max_examples=150, deadline=None)
def test_float_margin_is_within_the_derived_slack_of_the_exact_one(mu):
    n, verts = len(mu), convex_hull(mu)
    slack = containment_slack(mu)
    rep = contains_ellipse(verts, ellipse_from_normalized(normalize_mu(mu)), slack)
    assert rep.verdict == CONTAINED
    assert abs(mp(rep.min_margin) - exact_margin(n, power_sums([exact(v) for v in mu]), verts)) <= slack


def golden_reports():
    for path in sorted(glob.glob(os.path.join(GOLDEN_ANALYZE, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        if report["n"] >= 2:
            yield os.path.basename(path), report


def test_goldens_match_their_printed_eigenvalues_exactly():
    # a, b and the margin of the printed eigenvalues about the printed
    # center, exactly, against the printed values: within the derived slack
    # in A's frame, plus the rounding of each reported point
    checked = 0
    for name, report in golden_reports():
        n = report["n"]
        points = [complex(z["re"], z["im"]) for z in report["eigenvalues"]]
        center = complex(report["ellipse"]["center"]["re"], report["ellipse"]["center"]["im"])
        c = exact(center)
        mu = [(x - c[0], y - c[1]) for x, y in map(exact, points)]
        p, qr, qi = sums = power_sums(mu)
        with mpmath.workdps(60):
            q_abs = mpmath.sqrt(mp(qr * qr + qi * qi))
            a = mpmath.sqrt((mp(p) + q_abs) / (4 * (n - 1) ** 2))
            b = mpmath.sqrt((mp(p) - q_abs) / (4 * (n - 1) ** 2))
        # the slack at A0's unit scale, where its underflow floor is nil
        values = [complex(float(x), float(y)) for x, y in mu]
        e = math.frexp(max(map(abs, values)))[1]
        slack = math.ldexp(containment_slack([v * 2.0**-e for v in values]), e)
        rounding = max(math.ulp(abs(z.real)) + math.ulp(abs(z.imag)) for z in points + [center])
        ellipse, margin = report["ellipse"], report["containment"]["min_margin"]
        assert abs(mp(ellipse["semimajor"]) - a) <= slack + rounding, name
        assert abs(mp(ellipse["semiminor"]) - b) <= slack + rounding, name
        assert abs(mp(margin) - exact_margin(n, sums, convex_hull(points), c)) <= slack + 2 * rounding, name
        checked += 1
    assert checked == 5
