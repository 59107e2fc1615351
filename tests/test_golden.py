"""Golden bytes: the default output of `analyze`, `verify`, `bound` and
`tightness`.

Acceptance criterion 8 compares two runs of the same code; these files pin
the bytes across changes to the code.  Every expected file under
`tests/golden/` is what the CLI printed for the input beside it, recorded
once with numpy 2.4.6:

    python -m spectral_ellipse analyze inputs/n2.json --svg analyze/n2.svg > analyze/n2.json
    python -m spectral_ellipse bound inputs/n2.json > bound/n2.json
    python -m spectral_ellipse verify --ensemble QZero -n 4 --trials 6 --seed 9 \\
        > verify/qzero_n4_seed9.csv 2> verify/qzero_n4_seed9.stderr
    python -m spectral_ellipse tightness 32 > tightness/n32.txt

The files:

    inputs/     n1.json n2.json prescribed_n8.mtx prescribed_n8_scaled.json
                prescribed_n8_tiny.json coordinate_dup.mtx
    analyze/    <input stem>.json and <input stem>.svg for each input
    bound/      <input stem>.json for each input
    verify/     qzero_n4_seed9.csv, .stderr; remarkextremal_n8_seed0.csv, .stderr
    tightness/  n2.txt n32.txt (`tightness 2` and `tightness 32`)

A byte that moves is a change of behaviour to explain; the goldens are not
re-recorded to make a refactor pass.  The `analyze` reports of
`prescribed_n8` (all three scales) and `coordinate_dup`, and
`verify/remarkextremal_n8_seed0`, were last re-recorded when the root
finder's start moved to Fujiwara's circle.  `verify/qzero_n4_seed9.csv` was
last re-recorded when the root finder dropped its step-halving damping and
took the full Aberth correction on every sweep.  Both were changes of the
root finder's iterates, not refactors, and moved only the last digits of
some eigenvalues; every verdict stayed `Contained`.  The `sweep_min` column
of both `verify` CSVs, and nothing else, was last re-recorded when the
sweep moved from 720 sampled directions to the cone directions of the hull,
where its minimum is exact: `remarkextremal_n8_seed0` now reads its
`min_margin` to within 2 ulps, and both `.stderr` files stayed the same.

Some of these bytes pin the recording host's OpenBLAS kernel.  They were
recorded on x86_64 with AVX-512 (`numpy.show_runtime()` finds X86_V4,
AVX512_ICL and AVX512_SPR), numpy 2.4.6 and OpenBLAS 0.3.31, whose
DYNAMIC_ARCH build runs its SkylakeX kernels there.  `matrix.char_poly`
multiplies with an OpenBLAS `zgemm`, and `generate` scrambles the
`RemarkExtremal` and `QZero` matrices through `matrix.similarity`
(`a @ t`, then `np.linalg.solve`).  So on another kernel:

- the `analyze` JSON of `prescribed_n8`, `prescribed_n8_scaled`,
  `prescribed_n8_tiny` and `coordinate_dup` moves in the 16th-17th digit of
  its eigenvalues (and so fails twice each: on stdout, and again from the
  extensionless copy or standard input);
- both `verify` goldens move, since their input matrices do;
- every SVG, the `n1` and `n2` `analyze` JSON, every `bound` report and
  both `tightness` tables stay byte-identical.

A simulated AVX2 host shows this.  Both variables act only on the process
that reads them:

    OPENBLAS_CORETYPE=Haswell NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" \\
        python -m pytest tests/test_golden.py tests/test_families.py

fails those 10 golden tests, plus one families test whose bound was set on
the recording host (`test_family_is_contained_under_i_and_conj[normal_on_line-0.0]`).

Each input also reads from a copy with no extension and from standard
input, and prints the same bytes.

Inputs: a 1x1 and a 2x2 JSON matrix, a scrambled PrescribedSpectrum n=8
matrix as `array` Matrix Market, the same matrix scaled by 2^-40 and by
2^-1000 as JSON, and a `coordinate` file with a duplicate entry.  The
pipeline runs on the unit-scale matrix, so the reports of the two scaled
copies are the unscaled ones with every length times 2^k and every q value
times 4^k (which underflows to 0 at 2^-1000), and their SVGs are the
unscaled SVG.
"""

import json
import os
import shutil

import mpmath
import pytest
from test_cli import run_cli
from test_scale import scaled_report

from spectral_ellipse import cli
from spectral_ellipse.matrixio import load_matrix

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
INPUTS = (
    "n1.json",
    "n2.json",
    "prescribed_n8.mtx",
    "prescribed_n8_scaled.json",
    "prescribed_n8_tiny.json",
    "coordinate_dup.mtx",
)

VERIFY_RUNS = {
    "qzero_n4_seed9": ["--ensemble", "QZero", "-n", "4", "--trials", "6", "--seed", "9"],
    "remarkextremal_n8_seed0": ["--ensemble", "RemarkExtremal", "-n", "8", "--trials", "6", "--seed", "0"],
}

# the closed-form table of the extremal family: its shortest and the one
# acceptance criterion 3 reads
TIGHTNESS = (2, 32)


def golden(*parts) -> str:
    with open(os.path.join(GOLDEN, *parts), encoding="utf-8", newline="") as fh:
        return fh.read()


def stem(name: str) -> str:
    return os.path.splitext(name)[0]


@pytest.mark.parametrize("name", INPUTS)
def test_analyze_stdout_and_svg(name, tmp_path, capsys):
    svg_path = tmp_path / "plot.svg"
    rc = cli.main(["analyze", os.path.join(GOLDEN, "inputs", name), "--svg", str(svg_path)])
    out, err = capsys.readouterr()
    assert rc == cli.EXIT_OK
    assert err == ""
    assert out == golden("analyze", stem(name) + ".json")
    assert svg_path.read_text(encoding="utf-8") == golden("analyze", stem(name) + ".svg")


@pytest.mark.parametrize("name", INPUTS)
def test_bound_stdout(name, capsys):
    rc = cli.main(["bound", os.path.join(GOLDEN, "inputs", name)])
    out, err = capsys.readouterr()
    assert rc == cli.EXIT_OK
    assert err == ""
    assert out == golden("bound", stem(name) + ".json")


@pytest.mark.parametrize("command", ["analyze", "bound"])
@pytest.mark.parametrize("name", INPUTS)
def test_input_without_extension_or_through_stdin(name, command, tmp_path, capsys):
    # the file names its own format: a copy with no extension, and the same
    # bytes on standard input in a fresh process, print the golden report
    copy = tmp_path / "matrix"
    shutil.copyfile(os.path.join(GOLDEN, "inputs", name), copy)
    expected = golden(command, stem(name) + ".json")
    assert cli.main([command, str(copy)]) == cli.EXIT_OK
    assert capsys.readouterr() == (expected, "")
    with open(copy, "rb") as stdin:
        proc = run_cli([command, "/dev/stdin"], stdin=stdin)
    assert (proc.returncode, proc.stdout, proc.stderr) == (cli.EXIT_OK, expected, "")


@pytest.mark.parametrize("n_max", TIGHTNESS)
def test_tightness_table(n_max, capsys):
    rc = cli.main(["tightness", str(n_max)])
    assert rc == cli.EXIT_OK
    assert capsys.readouterr() == (golden("tightness", f"n{n_max}.txt"), "")


@pytest.mark.parametrize("run", sorted(VERIFY_RUNS))
def test_verify_csv_and_summary(run, capsys):
    rc = cli.main(["verify", *VERIFY_RUNS[run]])
    out, err = capsys.readouterr()
    assert rc == cli.EXIT_OK
    assert out == golden("verify", run + ".csv")
    assert err == golden("verify", run + ".stderr")


def test_tiny_eigenvalues_are_the_unscaled_ones_times_two_to_minus_1000():
    # whole reports, eigenvalues included, and the 2^-40 copy as well
    for command in ("analyze", "bound"):
        unit = json.loads(golden(command, "prescribed_n8.json"))
        for name, k in (("prescribed_n8_scaled.json", -40), ("prescribed_n8_tiny.json", -1000)):
            scaled = json.loads(golden(command, name))
            assert scaled == scaled_report(unit, k)


# The largest eigenvalue error of each `analyze` golden re-recorded when the
# pipeline moved to the traceless frame, in units of eps*||A||_F, as the
# goldens recorded it before (eigensolve of A, then lambda - gamma): the
# `eigenvalue_error` below, run on those goldens at commit 6d4b828.
PARENT_ERROR = {
    "n2.json": 0.362,
    "prescribed_n8.mtx": 0.422,
    "prescribed_n8_scaled.json": 0.422,
    "prescribed_n8_tiny.json": 0.422,
    "coordinate_dup.mtx": 0.336,
}


def eigenvalue_error(name: str) -> float:
    """Largest distance of the golden's eigenvalues from 50-digit
    `mpmath.eig` of its input, each matched to its nearest reference, over
    eps*||A||_F."""
    a = load_matrix(os.path.join(GOLDEN, "inputs", name))
    report = json.loads(golden("analyze", stem(name) + ".json"))
    with mpmath.workdps(50):
        exact = mpmath.eig(mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in a]), left=False, right=False)
        fro = mpmath.sqrt(sum(abs(mpmath.mpc(complex(x))) ** 2 for x in a.ravel()))
        worst = mpmath.mpf(0)
        for v in report["eigenvalues"]:
            got = mpmath.mpc(v["re"], v["im"])
            j = min(range(len(exact)), key=lambda i: abs(got - exact[i]))
            worst = max(worst, abs(got - exact.pop(j)))
        return float(worst / (fro * mpmath.mpf(2) ** -52))


def test_re_recorded_eigenvalues_are_within_a_few_eps_of_exact():
    errors = {name: eigenvalue_error(name) for name in PARENT_ERROR}
    assert all(err <= 4.0 for err in errors.values()), errors
    # no farther from exact than before, up to a rounding allowance of
    # 0.05 eps*||A||_F for every golden alike: coordinate_dup moved from
    # 0.336 to 0.342, the root finder's own error on A0 with the shift's
    # rounding, the others from 0.36-0.42 to 0.26-0.29
    assert all(errors[name] <= PARENT_ERROR[name] + 0.05 for name in errors), errors
