"""Golden bytes: the default output of `analyze`, `verify` and `bound`.

Acceptance criterion 8 compares two runs of the same code; these files pin
the bytes across changes to the code.  Every expected file under
`tests/golden/` is what the CLI printed for the input beside it, recorded
once with numpy 2.4.6:

    python -m spectral_ellipse analyze inputs/n2.json --svg analyze/n2.svg > analyze/n2.json
    python -m spectral_ellipse bound inputs/n2.json > bound/n2.json
    python -m spectral_ellipse verify --ensemble QZero -n 4 --trials 6 --seed 9 \\
        > verify/qzero_n4_seed9.csv 2> verify/qzero_n4_seed9.stderr

A byte that moves is a change of behaviour to explain; the goldens are not
re-recorded to make a refactor pass.

Inputs: a 1x1 and a 2x2 JSON matrix, a scrambled PrescribedSpectrum n=8
matrix as `array` Matrix Market, the same matrix scaled by 2^-40 as JSON,
and a `coordinate` file with a duplicate entry.
"""

import os

import pytest

from spectral_ellipse import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
INPUTS = ("n1.json", "n2.json", "prescribed_n8.mtx", "prescribed_n8_scaled.json", "coordinate_dup.mtx")

VERIFY_RUNS = {
    "qzero_n4_seed9": ["--ensemble", "QZero", "-n", "4", "--trials", "6", "--seed", "9"],
    "remarkextremal_n8_seed0": ["--ensemble", "RemarkExtremal", "-n", "8", "--trials", "6", "--seed", "0"],
}


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


@pytest.mark.parametrize("run", sorted(VERIFY_RUNS))
def test_verify_csv_and_summary(run, capsys):
    rc = cli.main(["verify", *VERIFY_RUNS[run]])
    out, err = capsys.readouterr()
    assert rc == cli.EXIT_OK
    assert out == golden("verify", run + ".csv")
    assert err == golden("verify", run + ".stderr")
