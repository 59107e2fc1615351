import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_ellipse.ellipse import (
    DimensionTooSmall,
    SpectralEllipse,
    ellipse_from_normalized,
    normalize_mu,
)
from spectral_ellipse.hull import (
    CONTAINED,
    VIOLATED,
    _cone_directions,
    _cross,
    containment_slack,
    contains_ellipse,
    convex_hull,
    directional_margin,
    sweep_margins,
)
from spectral_ellipse.matrix import as_matrix, decompose
from spectral_ellipse.spectrum import eigenvalues

RNG = np.random.default_rng(31337)
EPS = 2.0**-52

TRANSFORMS = (lambda z: 1j * z, lambda z: z.conjugate(), lambda z: -z)


@st.composite
def near_collinear_points(draw):
    """Points c + t*d on a line whose direction may be within 1e-22 of an
    axis, so rounding decides their (re, im) order, plus up to two points
    off the line."""
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    tiny = st.sampled_from((0.0, 1e-22, -1e-22, 1e-16, -1e-12))
    dx, dy = draw(st.one_of(st.tuples(unit, unit), st.tuples(tiny, unit), st.tuples(unit, tiny)))
    d = complex(dx, dy)
    c = complex(draw(unit), draw(unit)) * draw(st.sampled_from((0.0, 1.0, 1e3)))
    ts = draw(st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=8))
    off = draw(st.lists(st.tuples(unit, unit), max_size=2))
    return [c + t * d for t in ts] + [complex(x, y) for x, y in off]


def by_coordinates(z):
    return (z.real, z.imag)


def exact_cross(o, a, b):
    """(a - o) x (b - o) in exact rational arithmetic on the float inputs."""
    ox, oy = Fraction(o.real), Fraction(o.imag)
    return (Fraction(a.real) - ox) * (Fraction(b.imag) - oy) - (Fraction(a.imag) - oy) * (Fraction(b.real) - ox)


def sign(x):
    return (x > 0) - (x < 0)


def assert_exact_hull(pts, vertices):
    """The vertices are input points in strictly convex counterclockwise
    order (exactly collinear or equal inputs: a segment or a point), and
    every input lies on or inside every edge, by the exact orientation."""
    assert set(vertices) <= set(pts)
    assert len(set(vertices)) == len(vertices)
    m = len(vertices)
    if m == 1:
        assert set(pts) == set(vertices)
    elif m == 2:
        v0, v1 = vertices
        assert by_coordinates(v0) < by_coordinates(v1)
        for p in pts:
            assert exact_cross(v0, v1, p) == 0
            assert by_coordinates(v0) <= by_coordinates(p) <= by_coordinates(v1)
    else:
        for k in range(m):
            v0, v1 = vertices[k], vertices[(k + 1) % m]
            assert exact_cross(v0, v1, vertices[(k + 2) % m]) > 0
            for p in pts:
                assert exact_cross(v0, v1, p) >= 0


MAX = 1.7976931348623157e308
EXTREME = (0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022), 1.0, -1.0, MAX, -MAX)
coordinates = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1.0, 1.0),
    st.sampled_from(EXTREME),
)
points = st.builds(complex, coordinates, coordinates)


@st.composite
def collinear_triples(draw):
    """Three points that are exactly collinear before any rounding, then maybe
    one coordinate moved by an ulp: integer steps o + t d scaled by a power
    of two per axis (rounded where the scale is subnormal), or one point z
    scaled by three powers of two, through 0."""
    nudge = draw(st.sampled_from((None, 0, 1, 2, 3, 4, 5)))
    if draw(st.booleans()):
        ints = st.integers(-(2**20), 2**20)
        ox, oy, dx, dy = (draw(ints) for _ in range(4))
        ex, ey = (draw(st.integers(-1100, 960)) for _ in range(2))
        coords = []
        for _ in range(3):
            t = draw(ints)
            coords += [math.ldexp(ox + t * dx, ex), math.ldexp(oy + t * dy, ey)]
    else:
        z = draw(points)
        top = 1024 - math.frexp(max(abs(z.real), abs(z.imag)))[1]  # no overflow
        coords = []
        for _ in range(3):
            j = draw(st.integers(-60, min(60, top)))
            coords += [math.ldexp(z.real, j), math.ldexp(z.imag, j)]
    if nudge is not None:
        moved = math.nextafter(coords[nudge], draw(st.sampled_from((math.inf, -math.inf))))
        coords[nudge] = moved if math.isfinite(moved) else math.nextafter(moved, 0.0)
    return tuple(complex(coords[k], coords[k + 1]) for k in (0, 2, 4))


@st.composite
def extreme_point_sets(draw):
    """Up to eight points from the full float range (subnormals up to
    +-1.8e308) or a near-collinear line, maybe with a collinear triple."""
    pts = draw(st.one_of(st.lists(points, min_size=1, max_size=8), near_collinear_points()))
    if draw(st.booleans()):
        pts += draw(collinear_triples())
    return pts


def point_ellipse():
    """The point ellipse of a double eigenvalue {z, z} in the traceless
    frame, where it sits at 0 and the hull is translated by -z."""
    return ellipse_from_normalized(normalize_mu((0, 0)))


class TestConvexHull:
    def test_interior_point_dropped(self):
        h = convex_hull((0, 1, 1j, 0.2 + 0.2j))
        assert h == (0, 1, 1j)

    def test_two_points_segment(self):
        h = convex_hull((1, -1))
        assert h == (-1, 1)

    def test_extremal_family_collapses_to_segment(self):
        h = convex_hull((-1, -1, 2))
        assert h == (-1, 2)

    def test_single_point(self):
        h = convex_hull((3 + 4j, 3 + 4j))
        assert h == (3 + 4j,)

    def test_only_exact_duplicates_merge(self):
        assert convex_hull((3, 3)) == (3,)
        assert convex_hull((3, 3 + 3e-14)) == (3, 3 + 3e-14)
        # the exact eigenvalues of [[1, 2^600], [0, -1]] at A0's unit scale
        tiny = 2.0**-601
        assert convex_hull((tiny, -tiny)) == (-tiny, tiny)

    def test_counterclockwise_square(self):
        h = convex_hull((1, 1j, -1, -1j))
        assert h == (-1, -1j, 1, 1j)

    def test_only_exact_collinearity_gives_a_segment(self):
        assert convex_hull((0, 1, 0.5 + 1e-12j)) == (0, 1, 0.5 + 1e-12j)
        assert convex_hull((0, 1, 0.5)) == (0, 1)

    def test_near_vertical_line_keeps_both_ends(self):
        # the (re, im) sort follows the 1e-22 offsets, not the line; a 1e-12
        # relative tolerance in the orientation test drops the end at 1j, and
        # the exact test keeps the middle point 2e-22 off the line as well
        h = convex_hull([1e-22, -1e-22 - 1j, 1j])
        assert h == (-1e-22 - 1j, 1e-22, 1j)

    @pytest.mark.parametrize(
        "pts, ends",
        [([0, 5e-324 - 1j, 5e-324 - 0.75j], (0, 5e-324 - 1j)), ([0, 5e-324 + 1e-12j, 0.5j], (0, 0.5j))],
    )
    def test_underflowing_cross_products_keep_the_far_end(self, pts, ends):
        # every float cross product here underflows to 0, which popped the
        # far end (both found by hypothesis); the exact sign keeps both ends,
        # and the third point, 5e-324 off their line, makes the hull the thin
        # counterclockwise triangle of all three
        h = convex_hull(pts)
        assert set(ends) <= set(h)
        assert h == tuple(pts)

    def test_total_on_finite_input(self):
        # differences of 2e308 overflow; the exact orientation still holds
        big = [1e308 + 1e308j, -1e308 - 1e308j, 1e308 - 1e308j]
        assert convex_hull(big) == (-1e308 - 1e308j, 1e308 - 1e308j, 1e308 + 1e308j)
        for bad in ([0, 1, math.nan], [0, 1, math.inf], [0, 1, complex(0.0, -math.inf)]):
            with pytest.raises(ValueError, match="finite"):
                convex_hull(bad)

    def test_inputs_inside_hull(self):
        for _ in range(200):
            pts = tuple(
                complex(a, b)
                for a, b in RNG.uniform(-2, 2, size=(int(RNG.integers(1, 25)), 2))
            )
            assert_exact_hull(pts, convex_hull(pts))

    @given(extreme_point_sets())
    @settings(max_examples=300, deadline=None)
    def test_vertices_are_exactly_the_extreme_points(self, pts):
        assert_exact_hull(pts, convex_hull(pts))

    @given(
        st.permutations(
            [0, 1, 1j, -1, -1j, 0.5 + 0.5j, 0.25 - 0.125j, -0.7 + 0.2j, 0.9 + 0.01j]
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, pts):
        base = convex_hull([0, 1, 1j, -1, -1j, 0.5 + 0.5j, 0.25 - 0.125j, -0.7 + 0.2j, 0.9 + 0.01j])
        assert convex_hull(pts) == base

    @given(
        near_collinear_points(),
        st.sampled_from(TRANSFORMS),
        st.floats(0.0, 10.0),
        st.sampled_from((0.0, 1e-12, 0.5, 1.0)),
        st.floats(0.0, 2.0 * math.pi),
    )
    @example([0, -1e-12, -2e-12, 1e-14j], TRANSFORMS[0], 1.0, 0.0, 1.0)
    @example([0, 1e-22], TRANSFORMS[2], 1e-8, 0.0, 0.0)
    @example([4 + 1.2525610998326338j, 0.5 + 0.15657013747907922j, 0], TRANSFORMS[1], 1.0, 0.0, 0.5)
    @settings(max_examples=300, deadline=None)
    def test_exact_maps_commute_with_the_hull(self, pts, transform, semimajor, ratio, angle):
        # i*P, conj(P) and -P are exact in floating point, and the hull holds
        # exactly the extreme points, so the hull of the image is the image
        # of the hull, vertex for vertex
        h = convex_hull(pts)
        h_image = convex_hull([transform(p) for p in pts])
        image = sorted(h_image, key=by_coordinates)
        assert image == sorted(map(transform, h), key=by_coordinates)

        # and containment commutes, with the ellipse's axis mapped alongside
        def ellipse(d):
            return SpectralEllipse(semimajor=semimajor, semiminor=ratio * semimajor, major_dir=d, foci=(0j, 0j))

        d = cmath.exp(1j * angle)
        slack = 1e-8 * (1.0 + max(abs(p) for p in pts))
        rep = contains_ellipse(h, ellipse(d), slack)
        rep_image = contains_ellipse(h_image, ellipse(transform(d)), slack)
        assert rep_image.verdict == rep.verdict
        # the edge directions map exactly, but conj reverses the vertex
        # order and anchors each edge at its other end: the two ends'
        # projections on its normal agree up to a few roundings of the points
        assert abs(rep_image.min_margin - rep.min_margin) <= 2.0**-48 * max(abs(p) for p in pts)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            convex_hull(())


class TestCross:
    @given(st.one_of(st.tuples(points, points, points), collinear_triples()))
    @example((2.22e-16j, 1 + 1.0000000000000002j, 3 + 3j))
    @example((4 + 1.2525610998326338j, 0.5 + 0.15657013747907922j, 0j))
    @settings(max_examples=2000, deadline=None)
    def test_sign_is_exact(self, triple):
        assert sign(_cross(*triple)) == sign(exact_cross(*triple))


class TestContainsEllipse:
    def test_extremal_family_segment(self):
        h = convex_hull((-1, -1, 2))
        e = ellipse_from_normalized(normalize_mu((-1, -1, 2)))
        rep = contains_ellipse(h, e, 1e-11)
        assert rep.verdict == CONTAINED
        # worst margin 1 - sqrt(3)/2 at the left end, pointing down the axis
        assert abs(rep.min_margin - (1 - math.sqrt(3) / 2)) < 1e-12
        assert rep.worst_direction == -1

    def test_square_hull_circle(self):
        h = convex_hull((1, 1j, -1, -1j))
        e = ellipse_from_normalized(normalize_mu((1, 1j, -1, -1j)))
        rep = contains_ellipse(h, e, 1e-11)
        assert rep.verdict == CONTAINED
        assert abs(rep.min_margin - (1 / math.sqrt(2) - 1 / 3)) < 1e-12
        # the four margins are one float; the first edge, -1 -> -1j, is reported
        assert rep.worst_direction == (-1 - 1j) / abs(1 - 1j)

    def test_tight_two_point_case(self):
        h = convex_hull((1, -1))
        e = ellipse_from_normalized(normalize_mu((1, -1)))
        rep = contains_ellipse(h, e, 1e-11)
        assert rep.verdict == CONTAINED
        assert abs(rep.min_margin) < 1e-13
        assert (rep.min_margin, rep.worst_direction) == (0.0, -1)  # a tie: the first end

    def test_point_hull_point_ellipse(self):
        h = convex_hull((0, 0))
        e = point_ellipse()
        rep = contains_ellipse(h, e, 1e-11)
        assert rep.verdict == CONTAINED
        assert abs(rep.min_margin) < 1e-13
        assert (rep.min_margin, rep.worst_direction) == (0.0, 1)  # a tie: the first direction

    def test_point_hull_displaced_point_is_violated(self):
        h = convex_hull((-2,))
        e = point_ellipse()
        rep = contains_ellipse(h, e, 1e-9)
        assert rep.verdict == VIOLATED

    def test_point_hull_fat_ellipse_is_violated(self):
        h = convex_hull((0,))
        e = ellipse_from_normalized(normalize_mu((1, -1)))
        rep = contains_ellipse(h, e, 1e-9)
        assert rep.verdict == VIOLATED

    def test_segment_hull_fat_ellipse_is_violated(self):
        # the circle's margins along the segment are >= 0, but it leaves the
        # segment's line by 1/3 on either side
        h = convex_hull((1, -1))
        e = ellipse_from_normalized(normalize_mu((1, 1j, -1, -1j)))  # circle radius 1/3
        rep = contains_ellipse(h, e, 1e-9)
        assert rep.verdict == VIOLATED
        assert rep.min_margin >= 0.0

    def test_segment_hull_long_ellipse_is_violated(self):
        h = convex_hull((0.5, -0.5))
        e = ellipse_from_normalized(normalize_mu((1, -1)))  # segment [-1, 1]
        rep = contains_ellipse(h, e, 1e-9)
        assert rep.verdict == VIOLATED

    def test_point_hull_reads_margins_before_flatness(self):
        # a diagonal segment ellipse of semimajor 1.2e-9 reaches 1.2e-9/sqrt(2)
        # along each axis: inside the 1e-9 slack, though its semimajor is not;
        # a point hull reads only its margins
        h = convex_hull((0,))
        e = SpectralEllipse(semimajor=1.2e-9, semiminor=0.0, major_dir=cmath.exp(1j * math.pi / 4), foci=(0j, 0j))
        rep = contains_ellipse(h, e, 1e-9)
        assert rep.verdict == CONTAINED
        assert rep.min_margin == pytest.approx(-1.2e-9 / math.sqrt(2), rel=1e-12)

    def test_overflowing_edges_give_finite_margins(self):
        # each edge spans 2e308 along both axes, which overflows as v1 - v0
        e = SpectralEllipse(semimajor=1.0, semiminor=0.5, major_dir=1 + 0j, foci=(0j, 0j))
        triangle = convex_hull([1e308 + 1e308j, -1e308 - 1e308j, 1e308 - 1e308j])
        segment = convex_hull([1e308 + 1e308j, -1e308 - 1e308j])
        for h in (triangle, segment):
            rep = contains_ellipse(h, e, 1e-8)
            assert rep.verdict == VIOLATED
            assert math.isfinite(rep.min_margin) and cmath.isfinite(rep.worst_direction)
        # the triangle's long edge runs through the ellipse's center
        rep = contains_ellipse(triangle, e, 1e-8)
        assert rep.min_margin == pytest.approx(-math.sqrt(0.625), rel=1e-12)

    def test_subnormal_edges_give_unit_directions(self):
        # half of a 5e-324 step rounds to zero, so the edge itself is used
        e = SpectralEllipse(semimajor=0.0, semiminor=0.0, major_dir=1 + 0j, foci=(0j, 0j))
        for pts in ([5e-324j, 0j], [0j, 5e-324 + 0j, 5e-324j]):
            rep = contains_ellipse(convex_hull(pts), e, 0.0)
            assert abs(rep.worst_direction) == 1.0
            assert math.isfinite(rep.min_margin)

    def test_polygon_too_small_is_violated(self):
        h = convex_hull((0.01, 0.01j, -0.01, -0.01j))
        e = ellipse_from_normalized(normalize_mu((1, 1j, -1, -1j)))
        rep = contains_ellipse(h, e, 1e-9)
        assert rep.verdict == VIOLATED
        assert rep.min_margin < -0.3


class TestDirectionalMargin:
    def test_tight_pair_along_axis(self):
        assert abs(directional_margin(normalize_mu((1, -1)), 1 + 0j)) < 1e-14

    def test_tight_pair_flat_direction(self):
        assert abs(directional_margin(normalize_mu((1, -1)), 1j)) < 1e-14

    def test_extremal_family(self):
        got = directional_margin(normalize_mu((-1, -1, 2)), 1 + 0j)
        assert abs(got - (2 - math.sqrt(3) / 2)) < 1e-14

    def test_zero_direction(self):
        # both sides of the inequality vanish at u = 0
        assert directional_margin(normalize_mu((1, -1)), 0j) == 0.0
        assert directional_margin(normalize_mu((-1, -1, 2)), 0) == 0.0

    def test_dimension(self):
        with pytest.raises(DimensionTooSmall, match="^directional margin needs n >= 2, got 1$"):
            directional_margin(normalize_mu((0.0,)), 1 + 0j)


@st.composite
def zero_sum_spectra(draw):
    """Up to 10 values that sum exactly to zero, times 2^e: in the plane; on
    a line through 0, or on it but for one point and the one balancing the
    sum; repeating one value; or clustered, each part within 2^-30 of one
    value's."""
    ints = st.integers(-(2**10), 2**10)
    kind = draw(st.sampled_from(("plane", "line", "equal", "cluster")))
    k = draw(st.integers(1, 7))
    extra = [complex(draw(ints), draw(ints)) for _ in range(draw(st.integers(0, 2)))]
    p = complex(draw(ints), draw(ints))
    if kind == "line":
        pts = [draw(ints) * p for _ in range(k)] + extra[:1]
    elif kind == "equal":
        pts = [p] * k + extra
    elif kind == "cluster":
        pts = [p + complex(draw(ints), draw(ints)) * 2.0**-40 for _ in range(k)] + extra
    else:
        pts = [p] + [complex(draw(ints), draw(ints)) for _ in range(k)]
    pts.append(-sum(pts))  # every partial sum is exact, so the values sum to 0
    scale = 2.0 ** draw(st.integers(-30, 30))
    return [v * scale for v in pts]


GRID_720 = [cmath.exp(2j * math.pi * j / 720) for j in range(720)]


class TestSweepMargins:
    def test_tight_pair_all_zero(self):
        sw = sweep_margins(normalize_mu((1, -1)))
        assert len(sw) == 4
        assert min(sw) >= -1e-12

    def test_extremal_family_segment_margins(self):
        # the hull is the segment [-1, 2]: the direction facing the
        # clustered eigenvalue keeps the 1 - sqrt(3)/2 hull margin, the one
        # facing 2 keeps 2 - sqrt(3)/2, and the two directions perpendicular
        # to the real axis are exactly tight (both sides vanish)
        ns = normalize_mu((-1, -1, 2))
        sw = sweep_margins(ns)
        want = (1 - math.sqrt(3) / 2, 2 - math.sqrt(3) / 2, 0.0, 0.0)
        assert len(sw) == 4 and sw[2:] == [0.0, 0.0]
        assert all(abs(got - x) <= 4 * EPS * 2 for got, x in zip(sw, want))  # max|mu| = 2

    def test_matches_pointwise(self):
        lam = tuple(complex(a, b) for a, b in RNG.uniform(-1, 1, size=(5, 2)))
        lam = tuple(v - sum(lam) / 5 for v in lam)
        ns = normalize_mu(lam)
        sw = sweep_margins(ns)
        dirs, _ = _cone_directions(convex_hull(ns.mu))
        assert sw == [directional_margin(ns, u) for u in dirs]

    def test_shape_contract(self):
        # one margin per edge of a polygon hull, four for a segment or a
        # point; points inside the hull or on its edges add none
        cases = {
            (0, 0): 4,
            (1, -1): 4,
            (1, -1, 0): 4,
            (1, 1j, -1 - 1j): 3,
            (1, 1j, -1, -1j): 4,
            (1, 1j, -1, -1j, 0, 0.5 + 0.5j): 4,
        }
        for mu, k in cases.items():
            assert len(sweep_margins(normalize_mu(mu))) == k, mu

    def test_dimension(self):
        with pytest.raises(DimensionTooSmall, match="^sweep needs n >= 2, got 1$"):
            sweep_margins(normalize_mu((0.0,)))

    @given(zero_sum_spectra())
    @settings(max_examples=200, deadline=None)
    def test_exact_minimum_against_a_720_direction_grid(self, mu):
        # on each normal cone the margin is concave and positively
        # homogeneous and the cone is under pi wide, so no direction between
        # the cone directions goes below the smaller end value when it is >= 0
        ns = normalize_mu(mu)
        tol = 4 * EPS * max(map(abs, ns.mu))
        least = min(sweep_margins(ns))
        grid = [directional_margin(ns, u) for u in GRID_720]
        assert least <= min(grid) + tol
        if least >= 0:
            assert all(x >= least - tol for x in grid)


class TestWitnessAgreement:
    def test_thousand_random_matrices(self):
        # the hull-edge certificate and the directional oracle at the cone
        # directions must reach the same verdict on matrices where
        # containment is guaranteed
        for trial in range(1000):
            n = int(RNG.integers(2, 7))
            g = (RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))) / np.sqrt(2 * n)
            a = as_matrix(g)
            s = eigenvalues(decompose(a).traceless_part)
            ns = normalize_mu(s.values)
            e = ellipse_from_normalized(ns)
            h = convex_hull(s.values)
            # the derived slack bounds the rounding of both witnesses: the
            # sweep does the margin's arithmetic on the rotated values
            slack = containment_slack(s.values)
            rep = contains_ellipse(h, e, slack)
            sweep_ok = min(sweep_margins(ns)) >= -slack
            assert (rep.verdict == CONTAINED) == sweep_ok
            assert rep.verdict == CONTAINED
