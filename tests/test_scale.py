"""Scale: a matrix's power-of-two scale changes neither the cost nor the
answer of the eigensolve and the `analyze` and `bound` reports.

Scaling by 2^k is exact in floating point wherever the values stay normal,
so the reports must commute with it bit for bit there.  The matrices below
have normal entries whose parts lie in [2^-20, 2^21) or are zero, so 2^k A
stays normal for every k in [-1000, 1000].  Near the top of that range a
reported value (a q value first) may leave the float range, which the
reports raise as NonFinite.
"""

import contextlib
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_ellipse import cli, spectrum
from spectral_ellipse.ensembles import EnsembleSpec, generate
from spectral_ellipse.numerics import NonConvergence, NonFinite
from spectral_ellipse.spectrum import MomentMismatch

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


Q_KEYS = ("q_total", "q_traceless")


def scaled_report(report, k: int):
    """The report of 2^k A from the report of A: every length times 2^k and
    every q value times 4^k by ldexp, angles and all other fields as they
    are.  OverflowError where a value leaves the float range."""

    def walk(obj, power):
        if isinstance(obj, dict):
            return {
                key: walk(value, 0 if key.endswith("_rad") else 2 * k if key in Q_KEYS else power)
                for key, value in obj.items()
            }
        if isinstance(obj, list):
            return [walk(value, power) for value in obj]
        return math.ldexp(obj, power) if isinstance(obj, float) else obj

    return walk(report, k)


def report_floats(report):
    if isinstance(report, dict):
        return [x for value in report.values() for x in report_floats(value)]
    if isinstance(report, list):
        return [x for value in report for x in report_floats(value)]
    return [report] if isinstance(report, float) else []


def hex_floats(report):
    return [x.hex() for x in report_floats(report)]


class TestAnalyze:
    """The scale is chosen once, in `cli`: the reports of 2^k A are those of
    A with every length times 2^k and every q value times 4^k, bit for bit,
    and the verdict does not change."""

    @settings(max_examples=60, deadline=None)
    @given(normal_matrices(), SCALES)
    def test_reports_commute_with_powers_of_two(self, a, k):
        try:
            unit = cli.analysis_report(cli.analyze(a))
        except (MomentMismatch, NonConvergence) as exc:
            # the pipeline sees the same unit-scale matrix at every k
            with pytest.raises(type(exc)):
                cli.analyze(a * 2.0**k)
            return
        reports = (
            (unit, lambda b: cli.analysis_report(cli.analyze(b))),
            (cli.bound_report(a), cli.bound_report),
        )
        for report, make in reports:
            # a value of A's report that is subnormal was rounded once already
            assume(all(x == 0.0 or abs(x) >= sys.float_info.min for x in report_floats(report)))
            try:
                expected = scaled_report(report, k)
            except OverflowError:
                with pytest.raises(NonFinite):
                    make(a * 2.0**k)
            else:
                got = make(a * 2.0**k)
                assert got == expected and hex_floats(got) == hex_floats(expected)

    def test_subnormal_matrix_is_solved_exactly(self):
        def eigenvalues(entries):
            report = cli.analysis_report(cli.analyze(np.array(entries, dtype=complex)))
            return [complex(v["re"], v["im"]) for v in report["eigenvalues"]]

        assert eigenvalues(np.diag([1e-320, 0.0])) == [0j, 1e-320 + 0j]
        assert eigenvalues(np.diag([-5e-324, 5e-324])) == [-5e-324 + 0j, 5e-324 + 0j]


class TestEigenvalues:
    def test_underflow_band_does_the_unit_scale_work(self, monkeypatch):
        # the root finder's work is a function of its input polynomial, so
        # equal polynomials mean an equal cost at 2^-800 and at unit scale;
        # the eigensolve expects unit scale, which `cli.analyze` chooses
        polynomials = []

        def recording_find_roots(coeffs):
            polynomials.append(coeffs)
            return spectrum_find_roots(coeffs)

        spectrum_find_roots = spectrum.find_roots
        monkeypatch.setattr(spectrum, "find_roots", recording_find_roots)
        a = generate(EnsembleSpec("Ginibre", 32, 5))
        unit = cli.analysis_report(cli.analyze(a))["eigenvalues"]
        tiny = cli.analysis_report(cli.analyze(a * 2.0**-800))["eigenvalues"]
        assert np.array_equal(polynomials[0], polynomials[1])
        assert tiny == [{"re": v["re"] * 2.0**-800, "im": v["im"] * 2.0**-800} for v in unit]


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
