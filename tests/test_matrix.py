import math
from fractions import Fraction

import numpy as np
import pytest

from spectral_ellipse.matrix import (
    as_matrix,
    char_poly,
    condition_estimate,
    decompose,
    q_form,
    similarity,
)

RNG = np.random.default_rng(90125)


def random_complex(n, scale=1.0):
    return as_matrix(
        scale * (RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n)))
    )


def well_conditioned_transform(n):
    while True:
        g = (RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))) / np.sqrt(2 * n)
        t = np.eye(n) + 0.3 * g
        if condition_estimate(t) <= 50:
            return t


class TestBasics:
    def test_as_matrix_rejects_non_square(self):
        with pytest.raises(ValueError):
            as_matrix([[1, 2, 3], [4, 5, 6]])

    def test_as_matrix_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0], [0, 1]])

    def test_as_matrix_is_read_only(self):
        a = as_matrix([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            a[0, 0] = 5

    def test_as_matrix_takes_over_only_c_ordered_complex(self):
        owned = np.zeros((3, 3), dtype=complex)
        assert as_matrix(owned) is owned and not owned.flags.writeable
        for other in (np.zeros((3, 3)), np.zeros((3, 3), dtype=complex, order="F")):
            a = as_matrix(other)
            assert not np.shares_memory(a, other) and other.flags.writeable
            assert a.flags.c_contiguous and a.dtype == complex


class TestQForm:
    def test_nilpotent(self):
        assert q_form(as_matrix([[0, 1], [0, 0]])) == 0

    def test_diag(self):
        assert q_form(as_matrix(np.diag([1, 2, 3]))) == 14

    def test_swap(self):
        assert q_form(as_matrix([[0, 1], [1, 0]])) == 2

    def test_matches_explicit_product(self):
        for _ in range(200):
            a = random_complex(int(RNG.integers(1, 9)))
            direct = q_form(a)
            via_product = complex(np.trace(a @ a))
            assert abs(direct - via_product) <= 1e-12 * (1 + abs(direct))


class TestDecompose:
    def test_diag_example(self):
        d = decompose(as_matrix(np.diag([1, 3])))
        assert d.gamma == 2
        assert np.allclose(d.traceless_part, np.diag([-1, 1]))
        assert d.q_total == 10
        assert d.q_traceless == 2

    def test_identity(self):
        d = decompose(as_matrix(np.eye(3)))
        assert d.gamma == 1
        assert np.allclose(d.traceless_part, 0)
        assert d.q_traceless == 0

    def test_nilpotent(self):
        a = as_matrix([[0, 1], [0, 0]])
        d = decompose(a)
        assert d.gamma == 0
        assert np.array_equal(d.traceless_part, a)
        assert d.q_traceless == 0

    @pytest.mark.parametrize("gamma_signs", [(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0)])
    def test_traceless_part_has_the_bits_of_subtracting_gamma_times_the_identity(self, gamma_signs):
        # every entry of A0 as a - gamma * eye(n) rounds it, the signed
        # zeros of a zero part included, for gamma in each quadrant
        n = 5
        zeros = np.array([0.0, -0.0])
        a = np.empty((n, n), dtype=complex)
        a.real, a.imag = RNG.choice(zeros, (n, n)), RNG.choice(zeros, (n, n))  # 1j * -0.0 would read +0.0
        a[1, 3] = complex(-2.5, 0.75)
        a[0, 0] = complex(-0.0, 1e-300)
        re, im = gamma_signs
        a[2, 2] = complex(3.0 * n * re if re else -0.0, 2.0 * n * im if im else -0.0)
        d = decompose(as_matrix(a))
        expected = a - d.gamma * np.eye(n, dtype=complex)
        assert d.traceless_part.tobytes() == expected.tobytes()
        assert not d.traceless_part.flags.writeable

    def test_invariants_bulk(self):
        # traceless-ness, the q split identity, and the inner-product
        # orthogonality of the two parts, over 10^4 random matrices
        for _ in range(10_000):
            n = int(RNG.integers(1, 7))
            a = random_complex(n, scale=float(RNG.uniform(0.1, 3.0)))
            d = decompose(a)
            norm = np.linalg.norm(a)
            assert abs(complex(np.trace(d.traceless_part))) <= 1e-12 * (1 + norm)
            residual = d.q_total - (n * d.gamma**2 + d.q_traceless)
            assert abs(residual) <= 1e-10 * (1 + abs(d.q_total))
            ortho = complex(np.trace(d.traceless_part * d.gamma))  # tr(A0 * gamma 1) scaled form
            assert abs(ortho) <= 1e-12 * (1 + norm) ** 2


class TestSimilarity:
    def test_identity_transform(self):
        a = random_complex(4)
        assert np.allclose(similarity(a, np.eye(4)), a, rtol=0, atol=1e-14)

    def test_permutation(self):
        out = similarity(as_matrix(np.diag([1, 2])), as_matrix([[0, 1], [1, 0]]))
        assert np.allclose(out, np.diag([2, 1]), rtol=0, atol=1e-14)

    def test_condition_estimate_reaches_the_singular_bound(self):
        # the transforms the sampler's cap rejects: an exactly singular T has
        # an infinite estimate, a numerically singular one at least 1e12
        assert condition_estimate(as_matrix([[1, 1], [1, 1]])) == math.inf
        assert condition_estimate(as_matrix([[1, 0], [0, 1e-20]])) >= 1e12

    def test_scale_free_at_both_float_ends(self):
        t = well_conditioned_transform(4)
        a = random_complex(4)
        cond = condition_estimate(t)
        for k in (-990, -600, 600, 1000):
            assert condition_estimate(t * 2.0**k) == cond
            assert np.array_equal(similarity(a, t * 2.0**k), similarity(a, t))

    def test_q_form_invariance(self):
        # the quadratic form must survive any well-conditioned similarity
        for _ in range(100):
            n = int(RNG.integers(2, 17))
            a = random_complex(n, scale=0.5)
            t = well_conditioned_transform(n)
            b = similarity(a, t)
            assert abs(q_form(b) - q_form(a)) <= 1e-9 * (1 + abs(q_form(a)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            similarity(random_complex(3), np.eye(2))

    def test_solve_matches_exact_arithmetic(self):
        # T^-1 A T in rationals, by Gauss-Jordan on T X = A T, for a small
        # integer T and a Gaussian-integer A (real and imaginary parts apart)
        t = [[2, 1, 0], [-1, 3, 1], [1, 0, 4]]
        a = [[1 + 2j, -3, 0], [4j, 2 - 1j, 5], [-1, 1j, 3 + 3j]]

        def exact(part):
            rows = [
                [Fraction(v) for v in t[i]] + [sum(Fraction(part[i][k]) * t[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)
            ]
            for c in range(3):
                p = next(r for r in range(c, 3) if rows[r][c] != 0)
                rows[c], rows[p] = rows[p], rows[c]
                rows[c] = [v / rows[c][c] for v in rows[c]]
                for r in range(3):
                    if r != c:
                        rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
            return np.array([[float(v) for v in row[3:]] for row in rows])

        want = exact([[v.real for v in row] for row in a]) + 1j * exact([[v.imag for v in row] for row in a])
        got = similarity(as_matrix(a), as_matrix(t))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.linalg.norm(want)


class TestCharPoly:
    def test_swap_matrix(self):
        p = char_poly(as_matrix([[0, 1], [1, 0]]))
        assert np.allclose(p, (-1, 0, 1), atol=1e-15)

    def test_diag(self):
        p = char_poly(as_matrix(np.diag([1, 2])))
        assert np.allclose(p, (2, -3, 1), atol=1e-14)

    def test_nilpotent_jordan(self):
        p = char_poly(as_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
        assert p.tolist() == [0, 0, 0, 1]

    def test_monic_and_trace_coefficient(self):
        for _ in range(50):
            n = int(RNG.integers(1, 10))
            a = random_complex(n)
            p = char_poly(a)
            assert p.shape == (n + 1,)
            assert p[-1] == 1
            tr = complex(np.trace(a))
            assert abs(p[-2] + tr) <= 1e-13 * (1 + abs(tr))

    def test_matches_numpy_roots(self):
        # characteristic polynomial evaluated at LAPACK eigenvalues vanishes
        for _ in range(20):
            a = random_complex(6, scale=0.5)
            p = char_poly(a)
            for lam in np.linalg.eigvals(a):
                value = sum(c * lam**k for k, c in enumerate(p))
                assert abs(value) <= 1e-9 * (1 + max(abs(c) for c in p))
