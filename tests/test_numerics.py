import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_ellipse import cli, numerics
from spectral_ellipse.ensembles import EnsembleSpec, generate
from spectral_ellipse.numerics import (
    NonConvergence,
    NonFinite,
    _comp_horner_all,
    _horner_all,
    find_roots,
    principal_sqrt,
)

component = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestPrincipalSqrt:
    def test_positive_real(self):
        assert principal_sqrt(4) == 2

    def test_branch_on_negative_axis(self):
        # arg(-1) = pi halves to pi/2, never -pi/2
        assert principal_sqrt(-1) == 1j
        assert principal_sqrt(complex(-1.0, -0.0)) == 1j
        assert principal_sqrt(complex(-9.0, 0.0)) == 3j

    def test_first_quadrant(self):
        # (1+i)^2 = 1 + 2i + i^2 = 2i, checked by hand
        w = principal_sqrt(2j)
        assert abs(w - (1 + 1j)) < 1e-15

    def test_zero(self):
        assert principal_sqrt(0) == 0

    def test_rejects_non_finite(self):
        with pytest.raises(NonFinite):
            principal_sqrt(complex(float("nan"), 0))
        with pytest.raises(NonFinite):
            principal_sqrt(complex(1, float("inf")))

    @given(re=component, im=component)
    @example(re=-1.0, im=-5e-324)  # the real part of the root underflows
    def test_square_recovers_input(self, re, im):
        z = complex(re, im)
        w = principal_sqrt(z)
        assert abs(w * w - z) <= 1e-14 * max(1e-300, abs(z))
        assert w.real > 0 or (w.real == 0 and w.imag >= 0)

    def test_bulk_random_square_recovers(self):
        rng = np.random.default_rng(20240817)
        zs = rng.uniform(-50, 50, size=(10_000, 2))
        for re, im in zs:
            z = complex(re, im)
            w = principal_sqrt(z)
            assert abs(w * w - z) <= 1e-14 * abs(z)


def poly(*coefficients):
    """Ascending coefficient array, the form find_roots takes."""
    return np.array(coefficients, dtype=complex)


def from_roots(roots):
    """Monic ascending coefficients with the given roots (numpy's reference)."""
    return np.poly(np.asarray(roots, dtype=complex))[::-1].astype(complex)


def evaluate(p, z):
    """p(z) by numpy's reference Horner evaluation."""
    return complex(np.polyval(p[::-1], z))


class TestPolynomial:
    """The polynomial is its ascending coefficient array; find_roots checks it."""

    def test_degree(self):
        assert len(find_roots(poly(1, 2, 3))) == 2

    def test_normalized_is_exactly_monic(self):
        # dividing by the leading -2 is exact here, so both give the same bits
        assert find_roots(poly(2, 4, -2)) == find_roots(poly(-1, -2, 1))

    def test_normalize_rejects_zero_leading(self):
        with pytest.raises(ValueError, match="leading coefficient is zero"):
            find_roots(poly(1, 0))

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError, match="degree >= 1"):
            find_roots(poly())
        with pytest.raises(ValueError, match="degree >= 1"):
            find_roots(np.ones((2, 2), dtype=complex))
        with pytest.raises(NonFinite):
            find_roots(poly(float("nan"), 1))


class TestEvaluate:
    """The plain and compensated Horner evaluations find_roots iterates with."""

    @staticmethod
    def values(p, z):
        z = np.array([complex(z)])
        return [complex(f(p, z)[0][0]) for f in (_horner_all, _comp_horner_all)]

    def test_quadratic(self):
        assert self.values(poly(-1, 0, 1), 2) == [3, 3]

    def test_cubic_at_zero(self):
        assert self.values(poly(0, 0, 0, 1), 0) == [0, 0]

    def test_root_of_x2_plus_1(self):
        assert all(abs(v) < 1e-15 for v in self.values(poly(1, 0, 1), 1j))

    def test_degree_zero_exact(self):
        assert self.values(poly(3.25), 1e300) == [3.25, 3.25]


class TestEvaluationCount:
    """Each sweep of find_roots evaluates its iterate once and moves every
    root by the full Aberth correction; a phase stops as soon as every
    residual is at its noise floor, and the residual check runs, evaluating
    the last iterate once more, only when the polish ran out of sweeps."""

    POLYNOMIALS = {
        "random-16": np.append(np.random.default_rng(23).uniform(-3, 3, size=(16, 2)) @ np.array([1, 1j]), 1.0),
        "remark-extremal": from_roots([-1.0] * 7 + [7.0]),
        "jordan": poly(0, 0, 0, 0, 0, 1),
    }

    @pytest.mark.parametrize("name", POLYNOMIALS)
    def test_no_array_is_evaluated_twice(self, monkeypatch, name):
        calls = {"_horner_all": [], "_comp_horner_all": []}
        for evaluator, seen in calls.items():

            def counted(coeffs, z, original=getattr(numerics, evaluator), seen=seen):
                seen.append(z)  # held, so no two live arrays share an id
                return original(coeffs, z)

            monkeypatch.setattr(numerics, evaluator, counted)
        find_roots(self.POLYNOMIALS[name])
        for evaluator, seen in calls.items():
            assert seen, evaluator
            repeats = sum(a is b for a, b in zip(seen, seen[1:]))
            assert repeats == 0, f"{evaluator} evaluated the array it had just evaluated {repeats} times"
            assert len({id(a) for a in seen}) == len(seen), evaluator

    @pytest.mark.parametrize("name", ["random-16", "remark-extremal"])
    def test_unsettled_phases_evaluate_once_per_sweep(self, monkeypatch, name):
        # neither phase settles in k sweeps, so each runs its whole budget of
        # k sweeps and the residual check evaluates the last iterate once more
        k = 3
        monkeypatch.setattr(numerics, "DEFAULT_MAX_ITER", k)
        counts = dict.fromkeys(("_horner_all", "_comp_horner_all"), 0)
        for evaluator in counts:

            def counted(coeffs, z, original=getattr(numerics, evaluator), evaluator=evaluator):
                counts[evaluator] += 1
                return original(coeffs, z)

            monkeypatch.setattr(numerics, evaluator, counted)
        with pytest.raises(NonConvergence):
            find_roots(self.POLYNOMIALS[name])
        assert counts == {"_horner_all": k, "_comp_horner_all": k + 1}
        assert sum(counts.values()) <= 2 * k + 1


class TestFindRoots:
    def test_quadratic_real(self):
        roots = find_roots(poly(-1, 0, 1))
        assert len(roots) == 2
        assert abs(roots[0] + 1) < 1e-12 and abs(roots[1] - 1) < 1e-12

    def test_quadratic_imaginary(self):
        roots = find_roots(poly(1, 0, 1))
        assert abs(roots[0] + 1j) < 1e-12 and abs(roots[1] - 1j) < 1e-12

    def test_triple_root_clusters_at_zero(self):
        # a residual |r|^3 <= tol*(1+1) allows |r| up to (2e-13)^(1/3) ~ 5.9e-5;
        # z^3 meets both bounds exactly: its start circle has radius 0, and
        # the roots come back as three exact zeros (TestStartCircle)
        roots = find_roots(poly(0, 0, 0, 1))
        assert len(roots) == 3
        assert max(abs(r) for r in roots) < 1e-4
        assert abs(sum(roots)) < 1e-9

    def test_linear(self):
        assert find_roots(poly(-5, 1)) == (5,)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            find_roots(poly(1))

    def test_non_monic_normalized_internally(self):
        roots = find_roots(poly(-2, 0, 2))
        assert abs(roots[0] + 1) < 1e-12 and abs(roots[1] - 1) < 1e-12

    def test_nan_coefficients_rejected(self):
        with pytest.raises(NonFinite):
            find_roots(poly(float("nan"), 0, 1))
        with pytest.raises(NonFinite):
            find_roots(poly(1, complex(0, float("inf")), 1))

    def test_monic_input_is_not_divided(self):
        # dividing -0.0 - 0.0j by 1 + 0j gives -0.0 + 0.0j; a monic array must
        # reach the iteration with its zeros' signs untouched, so the linear
        # root is exactly -c0
        root = find_roots(poly(complex(-0.0, -0.0), 1))[0]
        assert math.copysign(1.0, root.real) == 1.0 and math.copysign(1.0, root.imag) == 1.0

    def test_non_convergence_reports_residuals(self, monkeypatch):
        # two plain sweeps and two polishing sweeps leave (z + 1)^2 (z - 2),
        # with its double root at -1, far from converged
        monkeypatch.setattr(numerics, "DEFAULT_MAX_ITER", 2)
        with pytest.raises(NonConvergence) as info:
            find_roots(poly(-2, -3, 0, 1))
        assert len(info.value.residuals) == 3
        assert all(r > 0 for r in info.value.residuals)
        assert "after up to 2 plain and 2 polishing sweeps" in str(info.value)

    @pytest.mark.parametrize("compensated", [False, True])
    def test_coincident_iterates_are_pulled_apart(self, compensated):
        # find_roots' own iterates were never seen to coincide (2,003
        # polynomials, 1,260 verify trials, 20,000 hypothesis draws), so the
        # sweep starts on an equal pair, which the collision nudge must split
        z = np.array([0.5, 0.5, 4.0 + 1j])
        z, settled = numerics._sweep_phase(from_roots([1.0, 2.0, 3.0]), z, compensated)
        assert settled
        assert np.abs(np.sort_complex(z) - [1.0, 2.0, 3.0]).max() < 1e-12

    def test_deterministic_and_sorted(self):
        p = poly(1.5 - 2j, 0.25, -3j, 1)
        first = find_roots(p)
        second = find_roots(p)
        assert first == second
        assert list(first) == sorted(first, key=lambda z: (z.real, z.imag))

    def test_reconstruction_random_polynomials(self):
        # returned roots must reproduce the input coefficients when multiplied
        # back out: the independent check that the multiset is right
        rng = np.random.default_rng(555)
        for _ in range(200):
            deg = int(rng.integers(1, 17))
            coeffs = rng.uniform(-10, 10, size=(deg, 2)) @ np.array([1, 1j])
            p = np.append(coeffs, 1.0 + 0.0j)
            roots = find_roots(p)
            rebuilt = from_roots(roots)
            worst = max(abs(a - b) for a, b in zip(rebuilt, p))
            scale = max(1.0, max(abs(c) for c in p))
            assert worst <= 1e-8 * scale

    def test_residual_contract(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            deg = int(rng.integers(2, 13))
            coeffs = rng.uniform(-3, 3, size=(deg, 2)) @ np.array([1, 1j])
            p = np.append(coeffs, 1.0 + 0.0j)
            scale = 1.0 + max(abs(c) for c in p)
            for r in find_roots(p):
                # allow the documented evaluation-noise floor at r
                floor = np.finfo(float).eps * sum(
                    abs(c) * abs(r) ** k for k, c in enumerate(p)
                )
                assert abs(evaluate(p, r)) <= max(1e-13 * scale, 4 * floor)

    @given(st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_roots_of_known_products(self, roots):
        p = from_roots(roots)
        found = find_roots(p)
        assert len(found) == len(roots)
        # power sums are stable even for clustered roots
        assert abs(sum(found) - sum(roots)) <= 1e-6 * (1 + max(abs(r) for r in roots))

    @pytest.mark.xfail(strict=True, reason="exact roots of multiplicity 3 and more do not settle")
    def test_quadruple_root_power_sum(self):
        # (z - 1 - i)^4 has exact coefficients.  Its polish runs out of 200
        # sweeps with every |p| under the residual limit, and the roots' sum
        # is 5.0e-6 off 4 + 4i, past the bound of test_roots_of_known_products
        found = find_roots(from_roots([(1 + 1j)] * 4))
        assert abs(sum(found) - (4 + 4j)) <= 1e-6 * (1 + abs(1 + 1j))


def first_plain_evaluation(monkeypatch, solve, *args):
    """The point and values of the first `_horner_all` call that
    `solve(*args)` makes, and what it returns."""
    calls = []

    def recorded(coeffs, z, original=numerics._horner_all):
        out = original(coeffs, z)
        calls.append((z, out[0]))
        return out

    monkeypatch.setattr(numerics, "_horner_all", recorded)
    result = solve(*args)
    return calls[0], result


def regression_roots(rng, count):
    """Root sets of degree 2-24 and modulus up to 10, a third each random,
    clustered (within 1e-3 of one center) and with roots of multiplicity 2-4."""

    def polar(m):
        return rng.uniform(0, 10, m) * np.exp(2j * np.pi * rng.uniform(0, 1, m))

    sets = []
    for i in range(count):
        deg = int(rng.integers(2, 25))
        if i % 3 == 0:
            roots = polar(deg)
        elif i % 3 == 1:
            roots = polar(1) * 0.999 + 1e-3 * polar(deg) / 10
        else:
            distinct = polar(deg)
            roots = np.repeat(distinct, rng.integers(2, 5, deg))[:deg]
        sets.append(roots)
    return sets


# regression-set polynomials whose roots find_roots returns unsettled
UNSETTLED_CLUSTERS = (61,)


class TestStartCircle:
    """find_roots starts on Fujiwara's circle, which encloses every root and
    stays near the spectrum where 1 + max|c_k| overflows Horner evaluation."""

    def test_first_evaluation_encloses_every_root(self, monkeypatch):
        rng = np.random.default_rng(27)
        for roots in regression_roots(rng, 60):
            (z, _), _ = first_plain_evaluation(monkeypatch, find_roots, from_roots(roots))
            radius = np.abs(z)
            assert np.ptp(radius) <= 4 * np.finfo(float).eps * radius.max()
            assert radius.min() >= np.abs(roots).max()

    def test_remark_extremal_n64_first_evaluation_is_finite(self, monkeypatch):
        # the characteristic polynomial the pipeline solves for RemarkExtremal
        # n = 64: from the circle 1 + max|c_k| ~ 5e34 its first evaluation
        # was NaN and the solve ended in NonConvergence
        a = generate(EnsembleSpec("RemarkExtremal", 64, 0))
        (z, pz), analysis = first_plain_evaluation(monkeypatch, cli.analyze, a)
        assert np.isfinite(z).all() and np.isfinite(pz).all()
        assert len(analysis.spectrum.values) == 64

    @pytest.mark.parametrize("n", range(2, 9))
    def test_z_to_the_n_is_n_exact_zeros(self, n):
        # every lower coefficient is 0, so the circle has radius 0 and the
        # first sweep stops at the noise floor
        assert find_roots(poly(*[0] * n, 1)) == (0j,) * n

    def test_regression_set_converges(self):
        # 300 random, clustered and repeated-root polynomials: from the old
        # circle 1 + max|c_k|, 60 of them ended in NonConvergence
        rng = np.random.default_rng(2027)
        for i, roots in enumerate(regression_roots(rng, 300)):
            p = from_roots(roots)
            found = np.array(find_roots(p))
            assert len(found) == len(roots)
            if i not in UNSETTLED_CLUSTERS:
                assert power_sum_errors(p, found) <= 1e-12 * (1 + np.abs(p).max())

    @pytest.mark.parametrize(
        "seed, index",
        [
            # polynomial 61 of the regression set: 21 roots within 9.3e-4 of
            # one center.  Near such a cluster |p| is below the residual limit
            # 1e-13 (1 + max|c_k|) over a disc of radius about 0.3, so the
            # polish runs out of its 200 sweeps short of the compensated floor
            # and find_roots accepts the iterates with their sum 8e-4 off
            # -c_{n-1}
            pytest.param(
                2027,
                UNSETTLED_CLUSTERS[0],
                marks=pytest.mark.xfail(strict=True, reason="tight clusters of degree 21-24 do not settle"),
            ),
            # 23 roots within 8.3e-4 of a center of modulus 3.6, from 2,000
            # polynomials drawn as in the regression set
            (20261020, 817),
        ],
    )
    def test_tight_cluster_power_sums(self, seed, index):
        rng = np.random.default_rng(seed)
        p = from_roots(regression_roots(rng, index + 1)[index])
        assert power_sum_errors(p, np.array(find_roots(p))) <= 1e-12 * (1 + np.abs(p).max())


def power_sum_errors(p, roots):
    """Largest gap of the first two power sums of `roots` from Newton's
    identities on the monic p: s1 = -c_{n-1}, s2 = c_{n-1}^2 - 2 c_{n-2}."""
    return max(abs(roots.sum() + p[-2]), abs((roots**2).sum() - (p[-2] ** 2 - 2 * p[-3])))
