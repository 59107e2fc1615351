"""Acceptance suite: every contract criterion, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they print.
The bulk campaign (criterion 1) feeds criteria 4, 6, and 7, so it runs once
as a module fixture; expect the whole module to take on the order of a
minute.
"""

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

from spectral_ellipse import cli
from spectral_ellipse import ellipse as el
from spectral_ellipse import hull as hl
from spectral_ellipse import matrix as mx
from spectral_ellipse import spectrum as sp
from spectral_ellipse.ensembles import (
    CounterRng,
    EnsembleSpec,
    _sample_transform,
    counter_value,
    generate,
)

ENSEMBLES = ("Ginibre", "RealGaussian", "PrescribedSpectrum", "QZero", "Nilpotent", "RemarkExtremal")
SIZES = (2, 3, 4, 8, 16)
TRIALS = 200
CAMPAIGN_SEED = 20240601

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{label}]: {status}{suffix}")


@dataclass(frozen=True)
class Trial:
    kind: str
    n: int
    seed: int
    frob: float
    mismatch: bool
    q_total: complex = 0j
    q_traceless: complex = 0j
    dec1_residual: float = 0.0
    sum_residual: float = 0.0
    q_residual: float = 0.0
    rho: float = 0.0
    shifted_power: float = 0.0
    slack: float = 0.0
    semimajor: float = 0.0
    semiminor: float = 0.0
    verdict: str = ""
    min_margin: float = 0.0
    sweep_min: float = 0.0
    bound: float = 0.0


def run_campaign_trial(kind: str, n: int, seed: int) -> Trial:
    a = generate(EnsembleSpec(kind=kind, n=n, seed=seed))
    frob = float(np.linalg.norm(a))
    try:
        an = cli.analyze(a)
    except sp.MomentMismatch:
        return Trial(kind=kind, n=n, seed=seed, frob=frob, mismatch=True)
    # the decomposition and bound are of A at unit scale, the rest in the
    # traceless frame; every field below is taken back to A's frame and
    # scale, where frob and each criterion's threshold are
    d, ns = an.decomposition, an.normalized
    q_exponent = 2 * an.exponent  # a q value of A scales by 4^exponent
    center = an.point(0j)
    values = [an.point(v) for v in an.spectrum.values]
    return Trial(
        kind=kind,
        n=n,
        seed=seed,
        frob=frob,
        mismatch=False,
        q_total=cli._scaled(d.q_total, q_exponent),
        q_traceless=cli._scaled(d.q_traceless, q_exponent),
        dec1_residual=cli._scaled(abs(d.q_total - (n * d.gamma**2 + d.q_traceless)), q_exponent),
        sum_residual=abs(sp.moment(values, 1) - complex(np.trace(a))),
        q_residual=abs(sp.moment(values, 2) - mx.q_form(a)),
        rho=max(abs(v) for v in values),
        shifted_power=sum(abs(v - center) ** 2 for v in values),
        slack=an.length(hl.containment_slack(an.spectrum.values)),
        semimajor=an.length(an.ellipse.semimajor),
        semiminor=an.length(an.ellipse.semiminor),
        verdict=an.containment.verdict,
        min_margin=an.length(an.containment.min_margin),
        sweep_min=an.length(min(hl.sweep_margins(ns))),
        bound=cli._scaled(an.bound, an.exponent),
    )


@pytest.fixture(scope="module")
def campaign():
    start = time.time()
    trials = []
    for kind_index, kind in enumerate(ENSEMBLES):
        for n in SIZES:
            base = counter_value(counter_value(CAMPAIGN_SEED, kind_index), n)
            for t in range(TRIALS):
                trials.append(run_campaign_trial(kind, n, counter_value(base, t)))
    elapsed = time.time() - start
    print(f"campaign: {len(trials)} trials in {elapsed:.1f}s")
    return trials


def test_criterion_1_bulk_containment(campaign):
    failures = []
    mismatched = 0
    for tr in campaign:
        if tr.mismatch:
            mismatched += 1
            continue
        if tr.verdict != hl.CONTAINED:
            failures.append(f"{tr.kind} n={tr.n} seed={tr.seed}: verdict {tr.verdict}")
        # the sweep's arithmetic is bounded as the first witness's is
        # (README, "Rounding bounds"), so the same slack holds for both
        if tr.sweep_min < -tr.slack:
            failures.append(f"{tr.kind} n={tr.n} seed={tr.seed}: sweep {tr.sweep_min:.3e}")
    evaluated = len(campaign) - mismatched
    ok = not failures and evaluated > 0
    report(
        1,
        "bulk containment",
        ok,
        f"{evaluated}/{len(campaign)} trials contained, {mismatched} moment-mismatch",
    )
    assert not failures, failures[:10]
    assert len(campaign) == len(ENSEMBLES) * len(SIZES) * TRIALS


def test_criterion_2_two_by_two_tightness():
    failures = []
    for t in range(500):
        seed = counter_value(CAMPAIGN_SEED + 1, t)
        an = cli.analyze(generate(EnsembleSpec(kind="Ginibre", n=2, seed=seed)))
        # back from the traceless frame to the matrix's, where the thresholds are
        values = [an.point(v) for v in an.spectrum.values]
        scale = 1e-9 * (1.0 + max(abs(v) for v in values))
        remaining = list(values)
        worst = 0.0
        for f in (an.point(f) for f in an.ellipse.foci):
            j = min(range(len(remaining)), key=lambda i: abs(f - remaining[i]))
            worst = max(worst, abs(f - remaining[j]))
            remaining.pop(j)
        if worst > scale:
            failures.append(f"seed {seed}: foci off by {worst:.3e}")
        margin = an.length(an.containment.min_margin)
        if margin > 1e-9:
            failures.append(f"seed {seed}: margin {margin:.3e} not tight")
        if an.containment.verdict != hl.CONTAINED:
            failures.append(f"seed {seed}: verdict {an.containment.verdict}")
    report(2, "n=2 tightness", not failures, "500 matrices, foci = eigenvalues")
    assert not failures, failures[:10]


def test_criterion_3_tightness_table(capsys):
    # the table as `tightness 32` prints it; its 17-significant-digit floats
    # read back to the very doubles that were formatted
    assert cli.main(["tightness", "32"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["n", "sqrt_Q", "semimajor_a", "hull", "left_margin"]
    rows = []
    for line in lines[1:-1]:
        n, sqrt_q, semimajor, lo, hi, left_margin = line.split()
        rows.append((int(n), float(sqrt_q), float(semimajor), f"{lo} {hi}", float(left_margin)))
    failures = []
    if [row[0] for row in rows] != list(range(2, 33)):
        failures.append("rows are not n = 2..32")
    previous = None
    for n, sqrt_q, semimajor, hull, _ in rows:
        if sqrt_q != math.sqrt(n * (n - 1)):
            failures.append(f"n={n}: sqrt_q mismatch")
        if hull != f"[-1, {n - 1}]":
            failures.append(f"n={n}: hull {hull} is not [-1, n-1]")
        want_a = math.sqrt(n / (2.0 * (n - 1)))
        if abs(semimajor - want_a) > 1e-12:
            failures.append(f"n={n}: semimajor {semimajor} != {want_a}")
        if not semimajor <= 1.0:
            failures.append(f"n={n}: semimajor exceeds 1")
        if semimajor <= 1.0 / math.sqrt(2.0):
            failures.append(f"n={n}: semimajor not above the 1/sqrt(2) limit")
        # exact limit identity a(n)^2 - 1/2 = 1/(2(n-1))
        if abs(semimajor ** 2 - 0.5 - 1.0 / (2.0 * (n - 1))) > 1e-12:
            failures.append(f"n={n}: limit identity off")
        if previous is not None and not semimajor < previous:
            failures.append(f"n={n}: not strictly decreasing")
        previous = semimajor
    if rows[0][2] != 1.0 or rows[0][4] != 0.0:
        failures.append("n=2 row is not the tight case")
    if float(lines[-1].removeprefix("limit: semimajor -> 1/sqrt(2) = ")) != 1.0 / math.sqrt(2.0):
        failures.append(f"limit line is not 1/sqrt(2): {lines[-1]}")
    report(3, "extremal table", not failures, "n = 2..32, a down to "
           f"{rows[-1][2]:.6f}")
    assert not failures, failures


def test_criterion_4_moment_identities(campaign):
    failures = []
    for tr in campaign:
        limit = 1e-8 * (1.0 + tr.frob) ** 2
        if tr.mismatch:
            failures.append(f"{tr.kind} n={tr.n} seed={tr.seed}: moment validation failed")
            continue
        if tr.sum_residual > limit or tr.q_residual > limit:
            failures.append(
                f"{tr.kind} n={tr.n} seed={tr.seed}: residuals "
                f"{tr.sum_residual:.3e}/{tr.q_residual:.3e} > {limit:.3e}"
            )
        if tr.dec1_residual > 1e-10 * (1.0 + abs(tr.q_total)):
            failures.append(f"{tr.kind} n={tr.n} seed={tr.seed}: dec1 {tr.dec1_residual:.3e}")
    worst = max(
        max(tr.sum_residual, tr.q_residual) / (1e-8 * (1.0 + tr.frob) ** 2)
        for tr in campaign
        if not tr.mismatch
    )
    report(4, "moment identities", not failures, f"worst residual/tolerance ratio {worst:.2e}")
    assert not failures, failures[:10]


def ellipse_at_input_scale(a):
    """Center, semiaxes and major direction of the ellipse of `analyze`,
    taken back from the traceless frame to the scale of a: A and T^-1 A T
    may have different unit scales."""
    an = cli.analyze(mx.as_matrix(a))
    e = an.ellipse
    return an.point(0j), an.length(e.semimajor), an.length(e.semiminor), e.major_dir


def test_criterion_5_similarity_invariance():
    failures = []
    for t in range(200):
        n = 2 + (t % 7)
        seed = counter_value(CAMPAIGN_SEED + 2, t)
        a = generate(EnsembleSpec(kind="Ginibre", n=n, seed=seed))
        transform = _sample_transform(CounterRng(seed ^ 0xA5A5A5A5), n)
        b = mx.similarity(a, transform)
        qa, qb = mx.q_form(a), mx.q_form(b)
        if abs(qb - qa) > 1e-9 * (1.0 + abs(qa)):
            failures.append(f"t={t}: q_form drift {abs(qb - qa):.3e}")
            continue
        ea, eb = ellipse_at_input_scale(a), ellipse_at_input_scale(b)
        deviations = tuple(abs(x - y) for x, y in zip(ea, eb))
        if max(deviations) > 1e-6:
            failures.append(f"t={t} n={n}: ellipse deviation {max(deviations):.3e}")
    report(5, "similarity invariance", not failures, "200 pairs, cond(T) <= 50")
    assert not failures, failures[:10]


def test_criterion_6_semiaxis_identities(campaign):
    failures = []
    for tr in campaign:
        if tr.mismatch:
            continue
        denom = 2.0 * (tr.n - 1) ** 2
        q_abs = abs(tr.q_traceless)
        c2 = tr.semimajor**2 - tr.semiminor**2
        if abs(c2 - q_abs / denom) > 1e-9 * (1.0 + q_abs):
            failures.append(f"{tr.kind} n={tr.n} seed={tr.seed}: focus identity {c2:.3e}")
        s2 = tr.semimajor**2 + tr.semiminor**2
        if abs(s2 - tr.shifted_power / denom) > 1e-9 * (1.0 + tr.shifted_power):
            failures.append(f"{tr.kind} n={tr.n} seed={tr.seed}: power identity {s2:.3e}")
    report(6, "semiaxis identities", not failures, "a^2 +- b^2 against Q(A0) and sum |lambda|^2")
    assert not failures, failures[:10]


def test_criterion_7_trace_only_bound(campaign):
    failures = []
    for tr in campaign:
        if tr.mismatch:
            continue
        if tr.bound > tr.rho + 1e-8 * (1.0 + tr.rho):
            failures.append(
                f"{tr.kind} n={tr.n} seed={tr.seed}: bound {tr.bound:.6f} > rho {tr.rho:.6f}"
            )
    _, exact = el.trace_only_bound(mx.decompose(np.diag([1.0, 3.0])))
    if abs(exact - 3.0) > 1e-12:
        failures.append(f"diag(1,3) bound {exact!r} != 3")
    report(7, "trace-only bound", not failures, "lower bound below observed spectral radius")
    assert not failures, failures[:10]


def test_criterion_8_determinism(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")

    def run(args):
        proc = subprocess.run(
            [sys.executable, "-m", "spectral_ellipse", *args],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    matrix_path = tmp_path / "m.json"
    matrix_path.write_text(
        json.dumps({"n": 2, "entries": [[1, 0], [0.25, -0.5], [0, 0.125], [3, 0]]})
    )
    out1 = run(["analyze", str(matrix_path)])
    out2 = run(["analyze", str(matrix_path)])
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    run(["verify", "--ensemble", "QZero", "-n", "4", "--trials", "6", "--seed", "9",
         "--csv", str(csv1)])
    run(["verify", "--ensemble", "QZero", "-n", "4", "--trials", "6", "--seed", "9",
         "--csv", str(csv2)])
    ok = out1 == out2 and csv1.read_text() == csv2.read_text() and len(out1) > 100
    report(8, "byte determinism", ok, "repeated analyze and verify runs")
    assert ok
