import math

import numpy as np
import pytest

from spectral_ellipse.ellipse import (
    AxisSums,
    DimensionTooSmall,
    NormalizedSpectrum,
    SpectralEllipse,
    ZeroDirection,
    axis_sums,
    ellipse_from_normalized,
    inscribed_ellipse,
    normalize_mu,
    shifted_ellipse,
    support,
    trace_only_bound,
)
from spectral_ellipse.matrix import as_matrix, decompose
from spectral_ellipse.numerics import NonFinite, principal_sqrt
from spectral_ellipse.spectrum import eigenvalues

RNG = np.random.default_rng(171717)


def traceless_multiset(m, scale=1.0):
    vals = scale * (RNG.uniform(-1, 1, m) + 1j * RNG.uniform(-1, 1, m))
    vals = vals - vals.mean()
    lam = tuple(complex(v) for v in vals)
    q0 = sum(v * v for v in lam)
    return lam, q0


def unit(theta):
    return complex(math.cos(theta), math.sin(theta))


class TestNormalizeMu:
    def test_already_real_positive(self):
        ns = normalize_mu((1, -1))
        assert ns.phase_factor == 1
        assert ns.mu == (1, -1)
        assert ns.q_abs == 2

    def test_negative_q_rotates_by_i(self):
        # u^2 = |q|/q = 2/(-2) = -1, principal u = i; mu = {i*i, -i*i} = {-1, 1}
        ns = normalize_mu((1j, -1j))
        assert abs(ns.phase_factor - 1j) < 1e-15
        assert abs(ns.mu[0] + 1) < 1e-15 and abs(ns.mu[1] - 1) < 1e-15
        assert abs(sum(v * v for v in ns.mu) - 2) < 1e-14

    def test_zero_q_branch_passthrough(self):
        lam = (1, 1j, -1, -1j)
        ns = normalize_mu(lam)
        assert ns.phase_factor == 1
        assert ns.mu == lam

    def test_invariants_random(self):
        for _ in range(500):
            lam, q0 = traceless_multiset(int(RNG.integers(2, 11)))
            ns = normalize_mu(lam)
            # q0 is derived from the multiset itself, as sum(lambda^2)
            assert ns.q_abs == abs(q0)
            top = max(abs(v) for v in ns.mu)
            assert abs(sum(ns.mu)) <= 1e-10 * (1 + top)
            assert abs(sum(v * v for v in ns.mu) - ns.q_abs) <= 1e-9 * (1 + ns.q_abs)
            assert abs(abs(ns.phase_factor) - 1) <= 1e-14


class TestAxisSums:
    def test_real_pair(self):
        ax = axis_sums(normalize_mu((1, -1)))
        assert abs(ax.r - math.sqrt(2)) < 1e-15 and ax.i_ == 0

    def test_fourth_roots(self):
        ax = axis_sums(normalize_mu((1, 1j, -1, -1j)))
        assert abs(ax.r - math.sqrt(2)) < 1e-15
        assert abs(ax.i_ - math.sqrt(2)) < 1e-15

    def test_extremal_family(self):
        ax = axis_sums(normalize_mu((-1, -1, 2)))
        assert abs(ax.r - math.sqrt(6)) < 1e-14 and ax.i_ == 0

    def test_difference_identity_random(self):
        for _ in range(500):
            lam, _ = traceless_multiset(int(RNG.integers(2, 11)))
            ns = normalize_mu(lam)
            ax = axis_sums(ns)
            assert abs(ax.r**2 - ax.i_**2 - ns.q_abs) <= 1e-9 * (1 + ns.q_abs)


class TestSquaresBeyondTheFloatRange:
    # Python's float power raises OverflowError where numpy returns inf
    def test_normalize_mu(self):
        with pytest.raises(NonFinite):
            normalize_mu((2.0**600, -(2.0**600)))

    def test_axis_sums(self):
        ns = NormalizedSpectrum(mu=(2.0**600 + 0j, -(2.0**600) + 0j), phase_factor=1 + 0j, q_abs=math.inf)
        with pytest.raises(NonFinite):
            axis_sums(ns)


class TestInscribedEllipse:
    def test_two_point_segment_is_tight(self):
        e = inscribed_ellipse((1, -1), 2)
        assert abs(e.semimajor - 1) < 1e-14
        assert e.semiminor < 1e-14
        assert e.foci[1] == -e.foci[0]
        assert sorted((f.real for f in e.foci)) == pytest.approx([-1, 1], abs=1e-14)

    def test_extremal_family_n3(self):
        # semimajor sqrt(6)/(2 sqrt(2)) = sqrt(3)/2, a flat segment
        e = inscribed_ellipse((-1, -1, 2), 3)
        assert abs(e.semimajor - math.sqrt(3) / 2) < 1e-14
        assert e.semiminor == 0
        assert {round(f.real, 12) for f in e.foci} == {
            round(math.sqrt(3) / 2, 12),
            round(-math.sqrt(3) / 2, 12),
        }

    def test_fourth_roots_circle(self):
        e = inscribed_ellipse((1, 1j, -1, -1j), 4)
        assert abs(e.semimajor - 1 / 3) < 1e-15
        assert abs(e.semiminor - 1 / 3) < 1e-15

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmall):
            inscribed_ellipse((1,), 1)

    def test_cardinality_mismatch(self):
        with pytest.raises(ValueError):
            inscribed_ellipse((1, -1), 3)

    def test_branch_independence(self):
        # flipping the square-root branch negates mu and the axis direction but
        # leaves the ellipse, as a point set, untouched
        lam, _ = traceless_multiset(6)
        ns = normalize_mu(lam)
        flipped = NormalizedSpectrum(
            mu=tuple(-v for v in ns.mu),
            phase_factor=-ns.phase_factor,
            q_abs=ns.q_abs,
        )
        e1 = ellipse_from_normalized(ns, 6)
        e2 = ellipse_from_normalized(flipped, 6)
        for _ in range(64):
            theta = RNG.uniform(0, 2 * math.pi)
            d = unit(theta)
            assert abs(support(e1, d) - support(e2, d)) <= 1e-12

    def test_focus_and_semiaxis_identities(self):
        for _ in range(300):
            n = int(RNG.integers(2, 11))
            lam, q0 = traceless_multiset(n, scale=float(RNG.uniform(0.2, 4)))
            e = inscribed_ellipse(lam, n)
            denom = 2.0 * (n - 1) ** 2
            c2 = e.semimajor**2 - e.semiminor**2
            assert abs(c2 - abs(q0) / denom) <= 1e-9 * (1 + abs(q0))
            power = sum(abs(v) ** 2 for v in lam)
            s2 = e.semimajor**2 + e.semiminor**2
            assert abs(s2 - power / denom) <= 1e-9 * (1 + power)

    def test_invariant_shape(self):
        for _ in range(300):
            n = int(RNG.integers(2, 11))
            lam, q0 = traceless_multiset(n)
            e = inscribed_ellipse(lam, n)
            assert e.semimajor >= e.semiminor >= 0
            assert abs(abs(e.major_dir) - 1) <= 1e-14
            # canonical direction: right half plane, ties upward
            assert e.major_dir.real > 0 or (
                e.major_dir.real == 0 and e.major_dir.imag >= 0
            )
            # foci at +-c along the major axis, c^2 = a^2 - b^2
            c = abs(e.foci[0])
            assert abs(e.foci[0] - c * e.major_dir) <= 1e-12 and e.foci[1] == -e.foci[0]
            assert abs(c * c - (e.semimajor**2 - e.semiminor**2)) <= 1e-12 * (1 + e.semimajor**2)
            # foci agree with +-sqrt(q0)/(sqrt(2)(n-1)) as a pair
            f = principal_sqrt(q0) / (math.sqrt(2) * (n - 1))
            got = sorted(e.foci, key=lambda z: (z.real, z.imag))
            want = sorted((f, -f), key=lambda z: (z.real, z.imag))
            assert all(abs(g - w) <= 1e-9 * (1 + abs(f)) for g, w in zip(got, want))

    def test_scaling_equivariance(self):
        lam, _ = traceless_multiset(5)
        e1 = inscribed_ellipse(lam, 5)
        for t in (0.5, 2.0, 7.25):
            e2 = inscribed_ellipse(tuple(t * v for v in lam), 5)
            for k in range(16):
                theta = 2 * math.pi * k / 16
                d = unit(theta)
                s1, s2 = support(e1, d), support(e2, d)
                assert abs(s2 - t * s1) <= 1e-10 * (1 + abs(s1))


def traceless_frame(a):
    """The decomposition of a and the spectrum of its traceless part, the
    two inputs of `shifted_ellipse`."""
    d = decompose(as_matrix(a))
    return d, eigenvalues(d.traceless_part)


class TestShiftedEllipse:
    """The ellipse of A in the traceless frame: centered at 0, and at gamma
    once gamma is added back."""

    def test_diag_example(self):
        d, s = traceless_frame(np.diag([1, 3]))
        e = shifted_ellipse(d, s)
        assert d.gamma == 2
        assert abs(e.semimajor - 1) < 1e-9
        assert e.semiminor < 1e-9
        foci = sorted((d.gamma + f for f in e.foci), key=lambda z: z.real)
        assert abs(foci[0] - 1) < 1e-9 and abs(foci[1] - 3) < 1e-9

    def test_identity_point(self):
        # the traceless part of I is the zero matrix, whose spectrum is
        # exact, so the ellipse is exactly the point gamma = 1
        d, s = traceless_frame(np.eye(3))
        e = shifted_ellipse(d, s)
        assert d.gamma == 1
        assert e.semimajor == e.semiminor == 0
        assert e.foci == (0, 0)

    def test_nilpotent_point(self):
        d, s = traceless_frame([[0, 1], [0, 0]])
        e = shifted_ellipse(d, s)
        assert d.gamma == 0
        assert e.semimajor < 1e-5

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmall):
            shifted_ellipse(*traceless_frame([[5]]))

    def test_two_by_two_is_the_eigenvalue_segment(self):
        # at n = 2 the certificate is exact: the ellipse collapses onto the
        # segment joining the eigenvalues
        for _ in range(100):
            d, s = traceless_frame(RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2)))
            e = shifted_ellipse(d, s)
            lam = [d.gamma + v for v in s.values]
            scale = 1e-9 * (1 + max(abs(v) for v in lam))
            assert abs(e.semimajor - abs(lam[0] - lam[1]) / 2) <= scale
            assert e.semiminor <= scale
            got = sorted((d.gamma + f for f in e.foci), key=lambda z: (z.real, z.imag))
            want = sorted(lam, key=lambda z: (z.real, z.imag))
            assert all(abs(g - w) <= scale for g, w in zip(got, want))


class TestSupport:
    def test_disk(self):
        disk = SpectralEllipse(
            semimajor=1.0,
            semiminor=1.0,
            major_dir=1 + 0j,
            foci=(0j, 0j),
        )
        assert abs(support(disk, complex(3, 4)) - 5) < 1e-12

    def test_segment_along(self):
        seg = ellipse_from_normalized(normalize_mu((1, -1)), 2)
        assert abs(support(seg, 1 + 0j) - 1) < 1e-14

    def test_segment_flat_direction(self):
        seg = ellipse_from_normalized(normalize_mu((1, -1)), 2)
        assert abs(support(seg, 1j)) < 1e-14

    def test_zero_direction(self):
        seg = ellipse_from_normalized(normalize_mu((1, -1)), 2)
        with pytest.raises(ZeroDirection):
            support(seg, 0j)


def diag_bound(values):
    return trace_only_bound(decompose(np.diag(np.asarray(values, dtype=complex))))


class TestTraceOnlyBound:
    def test_nilpotent_data(self):
        assert trace_only_bound(decompose(np.array([[0, 1], [0, 0]], dtype=complex))) == ((0, 0), 0)

    def test_diag_two_values(self):
        # gamma = 2, Q(A0) = 2, focus shift 1: foci 3 and 1, bound 3
        assert diag_bound((1, 3)) == ((3, 1), 3)

    def test_extremal_n3(self):
        # gamma = 0, Q(A0) = 6
        foci, bound = diag_bound((-1, -1, 2))
        assert abs(bound - math.sqrt(3) / 2) < 1e-14
        assert bound == max(abs(f) for f in foci)

    def test_dimension(self):
        with pytest.raises(DimensionTooSmall):
            trace_only_bound(decompose(np.array([[1]], dtype=complex)))

    def test_never_exceeds_observed_radius(self):
        for _ in range(200):
            n = int(RNG.integers(2, 9))
            lam, _ = traceless_multiset(n, scale=2.0)
            shift = complex(RNG.uniform(-1, 1), RNG.uniform(-1, 1))
            full = tuple(v + shift for v in lam)
            rho = max(abs(v) for v in full)
            _, bound = diag_bound(full)
            assert bound <= rho + 1e-8 * (1 + rho)
