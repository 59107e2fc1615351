import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_ellipse.ellipse import (
    DimensionTooSmall,
    ZeroDirection,
    axis_sums,
    ellipse_from_normalized,
    inscribed_ellipse,
    normalize_mu,
)
from spectral_ellipse.hull import (
    CONTAINED,
    DEGENERATE,
    VIOLATED,
    contains_ellipse,
    convex_hull,
    directional_margin,
    sweep_margins,
)
from spectral_ellipse.matrix import as_matrix, decompose
from spectral_ellipse.spectrum import eigenvalues

RNG = np.random.default_rng(31337)


def point_ellipse():
    """The point ellipse of a double eigenvalue {z, z} in the traceless
    frame, where it sits at 0 and the hull is translated by -z."""
    return ellipse_from_normalized(normalize_mu((0, 0)), 2)


class TestConvexHull:
    def test_interior_point_dropped(self):
        h = convex_hull((0, 1, 1j, 0.2 + 0.2j))
        assert h.vertices == (0, 1, 1j)

    def test_two_points_segment(self):
        h = convex_hull((1, -1))
        assert h.vertices == (-1, 1)
        assert h.diameter == 2

    def test_extremal_family_collapses_to_segment(self):
        h = convex_hull((-1, -1, 2))
        assert h.vertices == (-1, 2)

    def test_single_point(self):
        h = convex_hull((3 + 4j, 3 + 4j))
        assert h.vertices == (3 + 4j,)
        assert h.diameter == 0

    def test_duplicate_threshold_grows_with_the_points(self):
        # 1e-14 * (1 + max|p|): 3e-14 apart is one point at 3, two at 0
        assert convex_hull((3, 3 + 3e-14)).vertices == (3,)
        assert len(convex_hull((0, 3e-14)).vertices) == 2

    def test_counterclockwise_square(self):
        h = convex_hull((1, 1j, -1, -1j))
        assert h.vertices == (-1, -1j, 1, 1j)

    def test_near_collinear_collapses(self):
        pts = (0, 1, 0.5 + 1e-12j)
        h = convex_hull(pts)
        assert h.vertices == (0, 1)

    def test_inputs_inside_hull(self):
        for _ in range(200):
            pts = tuple(
                complex(a, b)
                for a, b in RNG.uniform(-2, 2, size=(int(RNG.integers(1, 25)), 2))
            )
            h = convex_hull(pts)
            if len(h.vertices) < 3:
                continue
            m = len(h.vertices)
            for p in pts:
                # support margin on every edge normal must cover the point
                for k in range(m):
                    v0 = h.vertices[k]
                    v1 = h.vertices[(k + 1) % m]
                    edge = v1 - v0
                    n_hat = complex(edge.imag, -edge.real) / abs(edge)
                    proj = n_hat.real * p.real + n_hat.imag * p.imag
                    hsup = n_hat.real * v0.real + n_hat.imag * v0.imag
                    assert proj <= hsup + 1e-12 * max(h.diameter, 1e-30)

    @given(
        st.permutations(
            [0, 1, 1j, -1, -1j, 0.5 + 0.5j, 0.25 - 0.125j, -0.7 + 0.2j, 0.9 + 0.01j]
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, pts):
        base = convex_hull([0, 1, 1j, -1, -1j, 0.5 + 0.5j, 0.25 - 0.125j, -0.7 + 0.2j, 0.9 + 0.01j])
        assert convex_hull(pts).vertices == base.vertices

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            convex_hull(())


class TestContainsEllipse:
    def test_extremal_family_segment(self):
        h = convex_hull((-1, -1, 2))
        e = inscribed_ellipse((-1, -1, 2), 3)
        rep = contains_ellipse(h, e, 1e-11)
        assert rep.verdict == CONTAINED
        # worst margin 1 - sqrt(3)/2 at the left end, pointing down the axis
        assert abs(rep.min_margin - (1 - math.sqrt(3) / 2)) < 1e-12
        assert rep.worst_direction == -1

    def test_square_hull_circle(self):
        h = convex_hull((1, 1j, -1, -1j))
        e = inscribed_ellipse((1, 1j, -1, -1j), 4)
        rep = contains_ellipse(h, e, 1e-11)
        assert rep.verdict == CONTAINED
        assert abs(rep.min_margin - (1 / math.sqrt(2) - 1 / 3)) < 1e-12
        assert len(rep.per_edge_margins) == 4

    def test_tight_two_point_case(self):
        h = convex_hull((1, -1))
        e = inscribed_ellipse((1, -1), 2)
        rep = contains_ellipse(h, e, 1e-11)
        assert rep.verdict == CONTAINED
        assert abs(rep.min_margin) < 1e-13

    def test_point_hull_point_ellipse(self):
        h = convex_hull((0, 0))
        e = point_ellipse()
        rep = contains_ellipse(h, e, 1e-11)
        assert rep.verdict == CONTAINED
        assert abs(rep.min_margin) < 1e-13

    def test_point_hull_displaced_point_is_violated(self):
        h = convex_hull((-2,))
        e = point_ellipse()
        rep = contains_ellipse(h, e, 1e-9)
        assert rep.verdict == VIOLATED

    def test_point_hull_fat_ellipse_is_degenerate(self):
        h = convex_hull((0,))
        e = inscribed_ellipse((1, -1), 2)
        rep = contains_ellipse(h, e, 1e-9)
        assert rep.verdict == DEGENERATE

    def test_segment_hull_fat_ellipse_is_degenerate(self):
        h = convex_hull((1, -1))
        e = inscribed_ellipse((1, 1j, -1, -1j), 4)  # circle radius 1/3
        rep = contains_ellipse(h, e, 1e-9)
        assert rep.verdict == DEGENERATE

    def test_segment_hull_long_ellipse_is_violated(self):
        h = convex_hull((0.5, -0.5))
        e = inscribed_ellipse((1, -1), 2)  # segment [-1, 1]
        rep = contains_ellipse(h, e, 1e-9)
        assert rep.verdict == VIOLATED

    def test_polygon_too_small_is_violated(self):
        h = convex_hull((0.01, 0.01j, -0.01, -0.01j))
        e = inscribed_ellipse((1, 1j, -1, -1j), 4)
        rep = contains_ellipse(h, e, 1e-9)
        assert rep.verdict == VIOLATED
        assert rep.min_margin < -0.3


class TestDirectionalMargin:
    def test_tight_pair_along_axis(self):
        ns = normalize_mu((1, -1))
        ax = axis_sums(ns)
        assert abs(directional_margin(ns, ax, 2, 1 + 0j)) < 1e-14

    def test_tight_pair_flat_direction(self):
        ns = normalize_mu((1, -1))
        ax = axis_sums(ns)
        assert abs(directional_margin(ns, ax, 2, 1j)) < 1e-14

    def test_extremal_family(self):
        ns = normalize_mu((-1, -1, 2))
        ax = axis_sums(ns)
        got = directional_margin(ns, ax, 3, 1 + 0j)
        assert abs(got - (2 - math.sqrt(3) / 2)) < 1e-14

    def test_zero_direction(self):
        ns = normalize_mu((1, -1))
        with pytest.raises(ZeroDirection):
            directional_margin(ns, axis_sums(ns), 2, 0j)

    def test_dimension(self):
        ns = normalize_mu((0.0,))
        with pytest.raises(DimensionTooSmall):
            directional_margin(ns, axis_sums(ns), 1, 1 + 0j)


class TestSweepMargins:
    def test_tight_pair_all_zero(self):
        ns = normalize_mu((1, -1))
        sw = sweep_margins(ns, axis_sums(ns), 2, 4)
        assert len(sw) == 4
        assert min(sw) >= -1e-12

    def test_extremal_family_k360(self):
        # every margin is nonnegative; the directions perpendicular to the
        # real axis are exactly tight (both sides vanish), while the direction
        # facing the clustered eigenvalue keeps the 1 - sqrt(3)/2 hull margin
        # analogue 2 - sqrt(3)/2 here
        ns = normalize_mu((-1, -1, 2))
        sw = sweep_margins(ns, axis_sums(ns), 3, 360)
        assert min(sw) >= -1e-15
        # direction facing the clustered eigenvalue: hull margin analogue
        assert abs(sw[180] - (1 - math.sqrt(3) / 2)) < 1e-13
        assert sw[90] < 1e-13 and sw[270] < 1e-13

    def test_matches_pointwise(self):
        lam = tuple(complex(a, b) for a, b in RNG.uniform(-1, 1, size=(5, 2)))
        lam = tuple(v - sum(lam) / 5 for v in lam)
        ns = normalize_mu(lam)
        ax = axis_sums(ns)
        sw = sweep_margins(ns, ax, 5, 16)
        for j in range(16):
            theta = 2 * math.pi * j / 16
            d = complex(math.cos(theta), math.sin(theta))
            assert abs(sw[j] - directional_margin(ns, ax, 5, d)) < 1e-13

    def test_shape_contract(self):
        ns = normalize_mu((1, -1))
        assert len(sweep_margins(ns, axis_sums(ns), 2, 7)) == 7

    def test_k_too_small(self):
        ns = normalize_mu((1, -1))
        with pytest.raises(ValueError):
            sweep_margins(ns, axis_sums(ns), 2, 3)


class TestWitnessAgreement:
    def test_thousand_random_matrices(self):
        # the hull-edge certificate and the sampled directional oracle must
        # reach the same verdict on matrices where containment is guaranteed
        for trial in range(1000):
            n = int(RNG.integers(2, 7))
            g = (RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))) / np.sqrt(2 * n)
            a = as_matrix(g)
            s = eigenvalues(decompose(a).traceless_part)
            ns = normalize_mu(s.values)
            ax = axis_sums(ns)
            e = ellipse_from_normalized(ns, n)
            h = convex_hull(s.values)
            scale = 1 + max(abs(v) for v in s.values)
            rep = contains_ellipse(h, e, 1e-8 * scale)
            mu_scale = 1 + max(abs(v) for v in ns.mu)
            sweep_ok = min(sweep_margins(ns, ax, n, 180)) >= -1e-8 * mu_scale
            assert (rep.verdict == CONTAINED) == sweep_ok
            assert rep.verdict == CONTAINED
