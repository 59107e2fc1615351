"""A committed fuzz corpus: wide-exponent JSON matrices through `analyze`
and `bound`.

`wide_exponent_parts(seed)` draws one input from `random.Random(seed)`: n
uniform in 1..8, one base exponent uniform in [-1074, 1023] and a width in
{0, 4, 40, 2100}; each of the 2n^2 parts is 0 with probability 0.3, else
+-[1, 2) * 2^(base + width * U[-1, 1]), the exponent clamped to the float
range.  Seeds 0..5999 give exit 0 or 5 (numeric overflow) but for three
5 x 5 inputs whose parts span 2^-1074..2^1024: their eigensolve loses the
spectrum, and moment validation catches it (exit 4).  Those inputs are
committed under `tests/golden/fuzz/` as `wide_<seed>.json`, and
`expected.json` holds each command's exit and its one stderr line.  The
moment residuals in that line come from the eigensolve's last bits, which
may follow the CPU's OpenBLAS kernel as some `analyze` goldens do (see
tests/test_golden.py); on a simulated AVX2 host they stayed the same.

A new input whose exit is a defect joins the corpus in the change that
fixes it.  To search a range of seeds for inputs that end in neither 0
nor 5:

    PYTHONPATH=src python tests/test_corpus.py FIRST_SEED END_SEED
"""

import contextlib
import io
import json
import math
import os
import random
import sys
import warnings

import pytest

from spectral_ellipse import cli

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "fuzz")
SAMPLE_SEEDS = range(500)  # both commands on all 500 take about 2 s on a 2-core Xeon


def wide_exponent_parts(seed: int) -> tuple[int, list[float]]:
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    base = rng.randint(-1074, 1023)
    width = rng.choice((0, 4, 40, 2100))
    parts = []
    for _ in range(2 * n * n):
        if rng.random() < 0.3:
            parts.append(0.0)
        else:
            e = min(max(base + round(width * rng.uniform(-1.0, 1.0)), -1074), 1023)
            parts.append(rng.choice((1.0, -1.0)) * math.ldexp(rng.uniform(1.0, 2.0), e))
    return n, parts


def json_text(n: int, parts: list[float]) -> str:
    return json.dumps({"n": n, "entries": [parts[i : i + 2] for i in range(0, len(parts), 2)]}) + "\n"


def run(command: str, path: str) -> tuple[int, str, str]:
    """cli.main on one file: exit, stdout and stderr; a warning would be a
    second stderr line, so it raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([command, path])
    return rc, out.getvalue(), err.getvalue()


def expected() -> dict:
    with open(os.path.join(CORPUS, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_every_corpus_file_has_its_expectations():
    inputs = sorted(name for name in os.listdir(CORPUS) if name != "expected.json")
    assert inputs == sorted(expected())


@pytest.mark.parametrize("name", sorted(expected()))
def test_corpus_file_is_what_its_seed_draws(name):
    seed = int(name.removeprefix("wide_").removesuffix(".json"))
    with open(os.path.join(CORPUS, name), encoding="utf-8") as fh:
        assert fh.read() == json_text(*wide_exponent_parts(seed))


@pytest.mark.parametrize("command", ["analyze", "bound"])
@pytest.mark.parametrize("name", sorted(expected()))
def test_corpus_input_ends_in_its_documented_exit(name, command):
    want = expected()[name][command]
    rc, out, err = run(command, os.path.join(CORPUS, name))
    assert (rc, err) == (want["exit"], want["stderr"])
    assert err.count("\n") == (rc != cli.EXIT_OK) and "Traceback" not in err
    assert (out == "") == (rc != cli.EXIT_OK)


def test_seeded_sample_ends_in_documented_exits(tmp_path):
    path = str(tmp_path / "a.json")
    for seed in SAMPLE_SEEDS:
        n, parts = wide_exponent_parts(seed)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json_text(n, parts))
        for command in ("analyze", "bound"):
            rc, out, err = run(command, path)
            assert rc in range(6), (seed, command, rc)
            if rc == cli.EXIT_OK:
                assert json.loads(out)["n"] == n and err == "", seed
            else:
                assert out == "" and err.count("\n") == 1 and "Traceback" not in err, seed


if __name__ == "__main__":
    first, end = map(int, sys.argv[1:3])
    scratch = os.path.join(os.getcwd(), "corpus_search.json")
    try:
        for seed in range(first, end):
            with open(scratch, "w", encoding="utf-8") as fh:
                fh.write(json_text(*wide_exponent_parts(seed)))
            rc, _, err = run("analyze", scratch)
            if rc not in (cli.EXIT_OK, cli.EXIT_OVERFLOW):
                print(seed, rc, err, end="")
    finally:
        os.remove(scratch)
