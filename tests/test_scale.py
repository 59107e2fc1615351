"""Scale: a matrix's power-of-two scale changes neither the cost nor the
answer of the Frobenius norm and the eigensolve.

Scaling by 2^k is exact in floating point wherever the values stay normal,
so `frobenius` and `eigenvalues` must commute with it bit for bit there.
The matrices below have normal entries whose parts lie in [2^-20, 2^21) or
are zero, so 2^k A stays normal for every k in [-1000, 1000].  Near the top
of that range the eigensolve's moment check (tr(A^2), the squares of the
eigenvalues) may overflow, which `eigenvalues` reports as NonFinite.
"""

import contextlib
import io
import json
import math
import sys

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_ellipse import cli, spectrum
from spectral_ellipse.ensembles import EnsembleSpec, generate
from spectral_ellipse.matrix import frobenius
from spectral_ellipse.numerics import NonConvergence, NonFinite
from spectral_ellipse.spectrum import MomentMismatch, eigenvalues

SCALES = st.integers(-1000, 1000)

part = st.one_of(
    st.just(0.0),
    st.builds(
        lambda sign, mantissa, exp: sign * math.ldexp(mantissa, exp),
        st.sampled_from((1.0, -1.0)),
        st.floats(1.0, 2.0, exclude_max=True),
        st.integers(-20, 20),
    ),
)


@st.composite
def normal_matrices(draw):
    n = draw(st.integers(2, 8))
    parts = draw(st.lists(part, min_size=2 * n * n, max_size=2 * n * n))
    a = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    return a.reshape(n, n)


def scales_exactly(x: float, k: int) -> bool:
    """x and x * 2^k are both zero or both normal floats."""
    return x == 0.0 or all(sys.float_info.min <= abs(y) <= sys.float_info.max for y in (x, x * 2.0**k))


class TestFrobenius:
    @settings(max_examples=100, deadline=None)
    @given(normal_matrices(), SCALES)
    def test_commutes_with_powers_of_two(self, a, k):
        assert frobenius(a * 2.0**k) == math.ldexp(frobenius(a), k)

    @settings(max_examples=100, deadline=None)
    @given(normal_matrices(), SCALES)
    def test_is_numpy_norm_in_plain_range(self, a, k):
        # parts span at most 2^41 here, so within [2^-450, 2^450] no square
        # of a part underflows or overflows
        scaled = a * 2.0**k
        m = max(np.max(np.abs(scaled.real)), np.max(np.abs(scaled.imag)))
        assume(2.0**-450 <= m <= 2.0**450)
        assert frobenius(scaled) == float(np.linalg.norm(scaled, "fro"))

    def test_is_numpy_norm_on_unit_scale_gaussians(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 8, 16, 33, 64):
            for _ in range(20):
                a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                assert frobenius(a) == float(np.linalg.norm(a, "fro"))

    @settings(max_examples=100, deadline=None)
    @given(normal_matrices(), SCALES)
    def test_matches_scale_safe_hypot(self, a, k):
        scaled = a * 2.0**k
        ref = math.hypot(*scaled.real.ravel(), *scaled.imag.ravel())
        assert abs(frobenius(scaled) - ref) <= 1e-14 * ref

    def test_far_ends(self):
        tiny = np.array([[5e-324, 0.0], [1e-320, 0.0]])
        assert frobenius(tiny) == math.hypot(5e-324, 1e-320) > 0.0
        big = 2.0**1000 * np.array([[1.0, 2.0], [3.0, -1.0]])
        assert frobenius(big) == math.ldexp(math.sqrt(15.0), 1000)
        assert frobenius(2.0**1023 * np.ones((2, 2))) == math.inf
        assert frobenius(np.zeros((3, 3))) == 0.0


class TestEigenvalues:
    @settings(max_examples=60, deadline=None)
    @given(normal_matrices(), SCALES)
    def test_commute_with_powers_of_two(self, a, k):
        try:
            unit = eigenvalues(a).values
        except (MomentMismatch, NonConvergence):
            assume(False)
        assume(all(scales_exactly(v.real, k) and scales_exactly(v.imag, k) for v in unit))
        expected = tuple(v * 2.0**k for v in unit)
        try:
            values = eigenvalues(a * 2.0**k).values
        except NonFinite:
            # the moment check squares the eigenvalues and the entries:
            # that may leave the float range only near its top
            parts = [x for v in (*expected, *(a * 2.0**k).ravel()) for x in (v.real, v.imag)]
            assert max(map(abs, parts)) > 2.0**500
        else:
            assert values == expected

    def test_subnormal_matrix_is_solved_exactly(self):
        # numpy's complex division by a subnormal scale would overflow
        assert eigenvalues(np.diag([1e-320, 0.0])).values == (0j, 1e-320 + 0j)
        assert eigenvalues(np.diag([-5e-324, 5e-324])).values == (-5e-324 + 0j, 5e-324 + 0j)

    def test_underflow_band_does_the_unit_scale_work(self, monkeypatch):
        # the root finder's work is a function of its input polynomial, so
        # equal polynomials mean an equal cost at 2^-800 and at unit scale
        polynomials = []

        def recording_find_roots(coeffs):
            polynomials.append(coeffs)
            return spectrum_find_roots(coeffs)

        spectrum_find_roots = spectrum.find_roots
        monkeypatch.setattr(spectrum, "find_roots", recording_find_roots)
        a = generate(EnsembleSpec("Ginibre", 32, 5))
        unit = eigenvalues(a).values
        tiny = eigenvalues(a * 2.0**-800).values
        assert np.array_equal(polynomials[0], polynomials[1])
        assert tiny == tuple(v * 2.0**-800 for v in unit)


class TestSubnormalInputs:
    """Matrices whose nonzero parts are all subnormal (2^-1074..2^-1022)
    end in a report or a documented exit code, with at most one stderr
    line, never a traceback."""

    subnormal = st.builds(
        lambda sign, x: sign * x,
        st.sampled_from((1.0, -1.0)),
        st.floats(5e-324, sys.float_info.min, exclude_max=True, allow_subnormal=True),
    )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_result_or_documented_exit(self, tmp_path_factory, n, data):
        parts = data.draw(
            st.lists(st.one_of(st.just(0.0), self.subnormal), min_size=2 * n * n, max_size=2 * n * n)
        )
        path = tmp_path_factory.mktemp("subnormal") / "a.json"
        path.write_text(json.dumps({"n": n, "entries": [parts[i : i + 2] for i in range(0, 2 * n * n, 2)]}))
        for command in ("analyze", "bound"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main([command, str(path)])
            assert rc in (cli.EXIT_OK, cli.EXIT_NONCONVERGENCE, cli.EXIT_MOMENT, cli.EXIT_OVERFLOW)
            if rc == cli.EXIT_OK:
                assert json.loads(out.getvalue())["n"] == n and err.getvalue() == ""
            else:
                assert out.getvalue() == "" and err.getvalue().count("\n") == 1
