"""Smoke tests for the command line scripts under scripts/, each run in its
own interpreter as a user would run it; a test that makes one step of a
script fail loads the script in-process instead."""

import importlib.util
import os
import subprocess
import sys
import warnings

import pytest

from spectral_ellipse import cli
from spectral_ellipse.cli import EXIT_OUTPUT
from spectral_ellipse.ensembles import KINDS
from spectral_ellipse.numerics import NonConvergence

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


def test_render_gallery_draws_every_figure_at_n64(tmp_path):
    # RemarkExtremal's 63-fold eigenvalue converges from Fujiwara's circle,
    # and nothing in any of the six solves overflows
    proc = run_script("render_gallery.py", "-n", "64", "--out", "tmp", cwd=tmp_path, flags=("-W", "error::RuntimeWarning"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "skipped" not in proc.stdout
    names = sorted(os.listdir(tmp_path / "tmp"))
    assert len([f for f in names if f.endswith("_n64.svg")]) == 6


def test_render_gallery_skips_a_failed_figure_without_warnings(tmp_path, monkeypatch, capsys):
    # in-process, with analyze failing for one kind: that kind gets one line
    # instead of a figure, the other kinds are drawn, and the exit is 1
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src
    spec = importlib.util.spec_from_file_location("render_gallery", os.path.join(SCRIPTS, "render_gallery.py"))
    gallery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gallery)
    analyze, calls = cli.analyze, []

    def failing(a):
        calls.append(a)
        if len(calls) == 1 + KINDS.index("RemarkExtremal"):
            raise NonConvergence("residuals not below 1e-13", (1.0,))
        return analyze(a)

    monkeypatch.setattr(cli, "analyze", failing)
    monkeypatch.setattr(sys, "argv", ["render_gallery.py", "-n", "3", "--out", str(tmp_path / "tmp")])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert gallery.main() == 1
    out, err = capsys.readouterr()
    assert err == "" and "Traceback" not in out
    skips = [line.split() for line in out.splitlines() if "skipped" in line]
    assert len(skips) == 1 and skips[0][:3] == ["RemarkExtremal:", "skipped,", "NonConvergence:"]
    names = sorted(os.listdir(tmp_path / "tmp"))
    assert len([f for f in names if f.endswith("_n3.svg")]) == 5
    assert "remarkextremal_n3.svg" not in names


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


# --sweep-k is not a flag: each trial sweeps the cone directions of its hull
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
