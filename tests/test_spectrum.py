import math

import numpy as np
import pytest

from spectral_ellipse import spectrum
from spectral_ellipse.matrix import as_matrix, condition_estimate, q_form, similarity
from spectral_ellipse.numerics import NonFinite
from spectral_ellipse.spectrum import MomentMismatch, eigenvalues, moment, moment_tol

# a numpy warning in the numeric core is a defect, not noise
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

RNG = np.random.default_rng(424242)


def ginibre(n):
    g = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
    return as_matrix(g / np.sqrt(2 * n))


def greedy_match_distance(found, reference):
    remaining = list(reference)
    worst = 0.0
    for v in found:
        j = min(range(len(remaining)), key=lambda i: abs(v - remaining[i]))
        worst = max(worst, abs(v - remaining[j]))
        remaining.pop(j)
    return worst


class TestMoment:
    def test_first(self):
        assert moment((1, -1), 1) == 0

    def test_second(self):
        assert moment((1, -1), 2) == 2

    def test_second_imaginary(self):
        assert moment((1j, -1j), 2) == -2

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            moment((1,), 3)


class TestEigenvalues:
    def test_swap_matrix(self):
        s = eigenvalues(as_matrix([[0, 1], [1, 0]]))
        assert greedy_match_distance(s.values, (-1, 1)) < 1e-12

    def test_nilpotent_jordan_cluster(self):
        # triple root of x^3: every lower coefficient (a trace) is exactly 0,
        # so the root finder's start circle has radius 0 and the values come
        # back as three exact zeros
        s = eigenvalues(as_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
        assert len(s.values) == 3
        assert max(abs(v) for v in s.values) < 1e-4
        assert s.sum_residual <= moment_tol(as_matrix(np.zeros((3, 3))))

    def test_companion_of_hand_factored_cubic(self):
        # x^3 - 2x^2 - x + 2 = (x-1)(x+1)(x-2), so the companion matrix of
        # (2, -1, -2, 1) must have spectrum {1, -1, 2}
        c = as_matrix([[0, 0, -2], [1, 0, 1], [0, 1, 2]])
        s = eigenvalues(c)
        assert greedy_match_distance(s.values, (1, -1, 2)) < 1e-10

    @pytest.mark.parametrize("n", range(2, 9))
    def test_zero_matrix_is_n_exact_zeros(self, n, monkeypatch):
        # z^n has no unit scale, and the root finder returned junk near
        # 1e-124 for it, so the zero matrix must not reach the root finder
        def no_solve(coeffs):
            raise AssertionError("root finder called on the zero matrix")

        monkeypatch.setattr(spectrum, "find_roots", no_solve)
        for zero in (np.zeros((n, n)), np.full((n, n), complex(-0.0, -0.0))):
            s = eigenvalues(as_matrix(zero))
            assert s.values == (0j,) * n
            assert s.sum_residual == 0.0 and s.q_residual == 0.0

    def test_one_by_one(self):
        s = eigenvalues(as_matrix([[5]]))
        assert s.values == (5,)
        assert s.sum_residual == 0 and s.q_residual == 0

    def test_values_sorted_lexicographically(self):
        s = eigenvalues(ginibre(8))
        assert list(s.values) == sorted(s.values, key=lambda z: (z.real, z.imag))

    def test_moments_match_matrix(self):
        for n in (2, 3, 5, 8, 13):
            a = ginibre(n)
            s = eigenvalues(a)
            limit = moment_tol(a)
            assert abs(moment(s.values, 1) - complex(np.trace(a))) <= limit
            assert abs(moment(s.values, 2) - q_form(a)) <= limit
            assert s.sum_residual <= limit and s.q_residual <= limit

    def test_moment_mismatch_is_hard_error(self, monkeypatch):
        # residuals are tiny but nonzero for this matrix; a limit of 0 must reject
        a = as_matrix([[0, 1], [1, 1]])
        monkeypatch.setattr(spectrum, "moment_tol", lambda a: 0.0)
        with pytest.raises(MomentMismatch) as info:
            eigenvalues(a)
        assert info.value.sum_residual > 0 or info.value.q_residual > 0
        assert info.value.tol == 0.0

    @pytest.mark.parametrize(
        "entries",
        [
            # ||A||_F and the eigenvalues +-2^1023 sqrt(2) exceed the float range
            [[2.0**1023, 2.0**1023], [2.0**1023, -(2.0**1023)]],
            # finite eigenvalues whose squares, so tr(A^2), overflow
            [[2.0**1000, 2.0**1001], [3 * 2.0**1000, -(2.0**1000)]],
        ],
    )
    def test_non_finite_spectrum_is_an_error(self, entries):
        # a NaN residual compares False with the limit, so it needs its own check
        with pytest.raises(NonFinite):
            eigenvalues(as_matrix(entries))

    def test_moment_tol_does_not_raise_where_the_square_overflows(self):
        # (1 + f)**2 raises OverflowError beyond f = 2^512; tol*f*f does not
        assert moment_tol(as_matrix([[2.0**515, 0], [0, 1]])) == 1e-8 * 2.0**515 * 2.0**515
        # an infinite limit still admits only finite residuals: eigenvalues
        # rejects the others first
        assert moment_tol(as_matrix([[2.0**1000, 0], [0, 1]])) == math.inf

    def test_matches_lapack_on_random(self):
        for n in (2, 4, 8):
            a = ginibre(n)
            s = eigenvalues(a)
            ref = tuple(np.linalg.eigvals(np.asarray(a)))
            scale = 1 + max(abs(v) for v in ref)
            assert greedy_match_distance(s.values, ref) <= 1e-8 * scale


class TestSimilarityInvariance:
    def test_spectra_match_under_similarity(self):
        for _ in range(50):
            n = int(RNG.integers(2, 9))
            a = ginibre(n)
            while True:
                g = (RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))) / np.sqrt(2 * n)
                t = np.eye(n) + 0.3 * g
                if condition_estimate(t) <= 50:
                    break
            b = similarity(a, t)
            sa = eigenvalues(a)
            sb = eigenvalues(b)
            scale = 1 + max(abs(v) for v in sa.values)
            assert greedy_match_distance(sb.values, sa.values) <= 1e-6 * scale
