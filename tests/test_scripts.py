"""Smoke tests for the command line scripts under scripts/, each run in its
own interpreter as a user would run it."""

import os
import subprocess
import sys

import pytest

from spectral_ellipse.cli import EXIT_OUTPUT

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run_script(name, *args, cwd=None, flags=()):
    return subprocess.run(
        [sys.executable, *flags, os.path.join(SCRIPTS, name), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


def test_bulk_verify_small_campaign():
    proc = run_script("bulk_verify.py", "--trials", "1", "--sizes", "2", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["ensemble", "n", "contained", "mismatch", "nonconv", "worst_margin", "worst_sweep"]
    assert len(lines) == 1 + 6 * 2 + 1
    assert lines[-1].endswith("campaign clean")


def test_render_gallery_writes_one_figure_per_ensemble(tmp_path):
    proc = run_script("render_gallery.py", "-n", "3", "--out", "tmp", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    names = sorted(os.listdir(tmp_path / "tmp"))
    assert len([f for f in names if f.endswith("_n3.svg")]) == 6
    assert len([f for f in names if f.endswith("_n3.json")]) == 6
    assert len(names) == 12


def test_render_gallery_skips_a_failed_figure_without_warnings(tmp_path):
    # RemarkExtremal's 63-fold eigenvalue does not converge at n = 64; the
    # other kinds are drawn, and numpy's overflow in that solve stays silent
    proc = run_script("render_gallery.py", "-n", "64", "--out", "tmp", cwd=tmp_path, flags=("-W", "error::RuntimeWarning"))
    assert proc.returncode == 1
    assert proc.stderr == ""
    skips = [line.split() for line in proc.stdout.splitlines() if "skipped" in line]
    assert len(skips) == 1 and skips[0][:3] == ["RemarkExtremal:", "skipped,", "NonConvergence:"]
    names = sorted(os.listdir(tmp_path / "tmp"))
    assert len([f for f in names if f.endswith("_n64.svg")]) == 5
    assert "remarkextremal_n64.svg" not in names


def test_render_gallery_rejects_dimension_below_two(tmp_path):
    for n in ("1", "0"):
        proc = run_script("render_gallery.py", "-n", n, "--out", "tmp", cwd=tmp_path)
        assert proc.returncode == 2
        assert "usage:" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "tmp").exists()


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_render_gallery_unwritable_out_is_one_line(tmp_path, out):
    # --out names a file, or a directory under one: the command line's exit 6
    (tmp_path / "taken").write_text("kept")
    proc = run_script("render_gallery.py", "-n", "3", "--out", out, cwd=tmp_path)
    assert proc.returncode == EXIT_OUTPUT == 6
    assert proc.stdout == ""
    assert proc.stderr.startswith("cannot write: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert (tmp_path / "taken").read_text() == "kept"


# --sweep-k is not a flag: the sweep size is the constant cli.SWEEP_K
BAD_BULK_ARGUMENTS = {
    ("--sizes", "1"): "argument --sizes: must be >= 2, got 1",
    ("--sweep-k", "2"): "unrecognized arguments: --sweep-k 2",
    ("--trials", "0"): "argument --trials: must be >= 1, got 0",
}


@pytest.mark.parametrize("args", list(BAD_BULK_ARGUMENTS))
def test_bulk_verify_rejects_bad_arguments(args):
    proc = run_script("bulk_verify.py", *args)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr and "Traceback" not in proc.stderr
    assert BAD_BULK_ARGUMENTS[args] in proc.stderr
    assert proc.stdout == ""
