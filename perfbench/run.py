"""Correctness-checked benchmark of the spectral-ellipse package.

    python3 perfbench/run.py --workload campaign|analyze|bound --seed N \
        --seconds S --trace 0|1 [--report PATH]

Run from the root of a checkout; the package is imported from its ``src``.
One client runs ops in a closed loop, each op starting when the previous one
ends, in whole rounds until ``--seconds`` have passed.  Every output is then
checked against a reference computed by the benchmark (``oracle.py``); the
oracle's time is kept out of every metric.

The report goes to stdout and its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones.  With ``--trace 1`` the rounds come in
pairs that run the same ops, untraced and then traced: the metrics are the
per-layer ones from the traced rounds, and the gap between the two kinds of
round is the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

OP_DEADLINE_S = 10  # a hung op fails after this long and the run goes on
SETUP_DEADLINE_S = 60
SETUP_REPEATS = (3, 9)  # at least 3 set-ups, and up to 9 while they take under 2 s in all
SETUP_BUDGET_S = 2.0
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import spectral_ellipse.cli; dt = time.perf_counter() - t; "
    "sys.path.insert(0, sys.argv[2]); import speed; speed.sample(); "
    "print(dt, sorted(speed.sample() for _ in range(3))[1])"
)


class Deadline(BaseException):
    """Raised by SIGALRM inside an op that outlived its deadline.  A
    BaseException, so no handler in the package can swallow it."""


def _on_alarm(signum, frame):
    raise Deadline()


@dataclass(slots=True)  # slots: a run holds thousands, and they count in peak_rss_mb
class Record:
    op: object
    seconds: float  # raw wall time of the op
    output: object
    cause: str | None  # why the op produced no result, or None
    traced: bool
    trace: object = None
    kernel_s: float = 0.0  # calibration kernel time just before the op
    kernel_after_s: float = 0.0  # and just after it
    checked: object = None

    @property
    def scale(self) -> float:
        """Speed factor from the kernel times around the op."""
        return speed.factor(self.kernel_s, self.kernel_after_s)

    @property
    def ms(self) -> float:
        """Scaled op time; a failed op counts as taking the whole deadline."""
        return self.seconds * self.scale * 1e3 if self.cause is None else OP_DEADLINE_S * 1e3


def import_package():
    """Import the package from this checkout's src, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "spectral_ellipse", "cli.py")):
        raise SystemExit(f"perfbench: no package at {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import spectral_ellipse

    if os.path.dirname(os.path.dirname(os.path.abspath(spectral_ellipse.__file__))) != SRC:
        raise SystemExit(f"perfbench: spectral_ellipse imported from {spectral_ellipse.__file__}, not {SRC}")


def import_seconds() -> tuple[float, float]:
    """Import time of the package in a fresh interpreter, raw and scaled by
    the kernel time that interpreter reads right after the import."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC, os.path.dirname(os.path.abspath(__file__))],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, kernel_s = (float(x) for x in done.stdout.split())
    return seconds, seconds * speed.import_factor(kernel_s)


def run_op(w, op, tracer) -> Record:
    kernel_s = speed.sample()
    trace = tracer.begin() if tracer else None
    output, cause = None, None
    t0 = time.perf_counter()
    try:
        signal.alarm(OP_DEADLINE_S)
        try:
            output = w.run(op)
        finally:
            signal.alarm(0)
    except Deadline:
        cause = "deadline"
    except workloads.OpFailed as exc:
        cause = str(exc)
    except Exception as exc:  # an uncaught exception is a failed op, not a failed run
        cause = f"{type(exc).__name__}: {str(exc)[:60]}"
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.end(seconds)
    return Record(op, seconds, output, cause, tracer is not None, trace, kernel_s, speed.sample())


def set_up(cls, seed: int, workdir: str):
    """Import, input generation and file writing, and one warm-up op, done
    several times (SETUP_REPEATS); returns the last workload and every
    set-up time, raw and scaled step by step (``speed.Stopwatch``)."""
    samples, raw = [], []
    least, most = SETUP_REPEATS
    while len(raw) < least or (len(raw) < most and sum(raw) < SETUP_BUDGET_S):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        imported, imported_scaled = import_seconds()
        watch = speed.Stopwatch()
        signal.alarm(SETUP_DEADLINE_S)
        try:
            w = cls(seed, workdir)
            w.prepare(watch.lap)
            watch.lap()
            w.run(w.warmup_op())
            watch.lap()
        finally:
            signal.alarm(0)
        raw.append(imported + watch.raw)
        samples.append(imported_scaled + watch.scaled)
    return w, samples, raw


def measure(w, seconds: float, tracer):
    """Whole rounds until `seconds` pass.  With a tracer, rounds come in
    pairs that run the same ops, first untraced and then traced, so their
    gap is the tracing overhead.  Returns the records and the wall time of
    each kind of round."""
    records = []
    walls = {False: 0.0, True: 0.0}
    hard_stop = 2.0 * seconds + 5.0
    start = time.perf_counter()
    r = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= hard_stop or (elapsed >= seconds and (tracer is None or (r >= 2 and r % 2 == 0))):
            break
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            for op in w.round(r // 2 if tracer else r):
                records.append(run_op(w, op, tracer if traced else None))
                if time.perf_counter() - start >= hard_stop:
                    break
        finally:
            if traced:
                tracer.uninstall()
        walls[traced] += time.perf_counter() - t0
        r += 1
    return records, walls


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty list."""
    s = sorted(values)
    pos = (len(s) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def latency(records, tail_pct: float) -> dict:
    """Median and tail of the scaled op times in ms."""
    ms = [r.ms for r in records]
    return {
        "p50": percentile(ms, 50.0),
        "tail": percentile(ms, tail_pct),
        "tail_pct": tail_pct,
        "samples": len(ms),
        "beyond_tail": round(len(ms) * (100.0 - tail_pct) / 100.0, 1),
    }


def correctness(records) -> dict:
    attempted = len(records)
    failed = sum(1 for r in records if r.cause is not None)
    checked = attempted - failed
    wrong = sum(1 for r in records if r.checked is not None and r.checked.wrong)
    return {
        "attempted": attempted,
        "failed": failed,
        "checked": checked,
        "wrong": wrong,
        "failed_frac": failed / attempted,
        "wrong_frac": wrong / checked if checked else 0.0,
        "right_frac": (checked - wrong) / attempted,
    }


def end_to_end(records, wall: float, setup: tuple, tail_pct: float, peak_mb: float) -> dict:
    c = correctness(records)
    lat = latency(records, tail_pct)
    scaled, raw = setup
    completed = c["attempted"] - c["failed"]
    op_s = sum(r.seconds * r.scale for r in records)
    raw_p50 = statistics.median(r.seconds * 1e3 for r in records)
    return {
        "setup_s": (statistics.median(scaled), "s", f"median of {len(scaled)} set-ups, raw {statistics.median(raw):.4f} s"),
        "ops_per_s": (completed / op_s, "1/s", f"{completed} completed in {op_s:.2f} s of op time, raw {completed / wall:.3f}/s wall"),
        "op_ms_p50": (lat["p50"], "ms", f"{lat['samples']} ops, raw {raw_p50:.4f} ms"),
        "op_ms_tail": (lat["tail"], "ms", f"p{lat['tail_pct']:g} of {lat['samples']} ops, {lat['beyond_tail']:g} beyond"),
        "failed_frac": (c["failed_frac"], "1", f"{c['failed']} of {c['attempted']} attempted"),
        "wrong_frac": (c["wrong_frac"], "1", f"{c['wrong']} of {c['checked']} checked"),
        "right_frac": (c["right_frac"], "1", f"{c['checked'] - c['wrong']} right of {c['attempted']} attempted"),
        "peak_rss_mb": (peak_mb, "MB", "benchmark process, before the oracle runs"),
    }


def per_cell(w, records) -> dict:
    """Outcomes and op times per cell: (ensemble, n) or (format, n)."""
    cells = defaultdict(list)
    for r in records:
        cells[w.cell(r.op)].append(r)
    out = {}
    for cell, recs in sorted(cells.items(), key=lambda kv: (kv[1][0].op.n, kv[0])):
        c = correctness(recs)
        lat = latency(recs, w.tail_pct)
        out[cell] = {
            "attempted": c["attempted"],
            "failed": dict(Counter(r.cause for r in recs if r.cause)),
            "wrong": dict(Counter(r.checked.input_class for r in recs if r.checked and r.checked.wrong)),
            "err_max": max((r.checked.error for r in recs if r.checked), default=None),
            "op_ms_p50": lat["p50"],
            "op_ms_tail": lat["tail"],
        }
    return out


def _layer_table(recs) -> dict:
    table = {}
    for layer in tracing.LAYERS:
        ms = [r.trace.self_s[layer] * r.scale * 1e3 for r in recs if r.trace.calls[layer]]
        if ms:
            table[f"{layer}_ms"] = {
                "p50": statistics.median(ms),
                "tail": percentile(ms, 95.0),
                "samples": len(ms),
            }
    return table


def per_layer(w, records) -> tuple[dict, dict, dict]:
    """Per-layer numbers from the traced ops: the metrics for the JSON line
    and the per-layer detail of the report (both name -> (value, unit,
    detail)), and the full tables for the report.  The JSON line carries
    only numbers that are above 0 on every workload: the stages of
    ``tracing.STAGES``, the report bytes and the tracing overhead and
    coverage.  The detail has every layer and counter, 0 where a workload
    never calls the layer."""
    plain = [r for r in records if not r.traced]
    traced = [r for r in records if r.traced]
    if not traced:
        raise SystemExit("perfbench: the run stopped before a traced round")
    total_s = sum(r.seconds * r.scale for r in traced)
    ops = len(traced)

    def calls(layer):
        return sum(r.trace.calls[layer] for r in traced)

    def share(layers):
        return 100.0 * sum(r.trace.self_s[layer] * r.scale for r in traced for layer in layers) / total_s

    untraced_p50 = latency(plain, w.tail_pct)["p50"]
    traced_p50 = latency(traced, w.tail_pct)["p50"]
    out_bytes = sum(r.trace.report_bytes for r in traced)

    line = {}
    for stage, layers in tracing.STAGES.items():
        line[f"{stage}_pct"] = (share(layers), "%", f"self time of {', '.join(layers)} over traced op time")
    for stage, layers in tracing.STAGES.items():
        ms = [sum(r.trace.self_s[layer] for layer in layers) * r.scale * 1e3 for r in traced]
        line[f"{stage}_ms"] = (statistics.median(ms), "ms", f"median of {ops} traced ops")
    line["report.bytes"] = (out_bytes / ops, "B/op", f"{out_bytes} bytes in {ops} ops")
    line["trace.overhead_ratio"] = (traced_p50 / untraced_p50, "ratio", f"traced p50 {traced_p50:.3f} / untraced p50 {untraced_p50:.3f}")
    line["trace.coverage_pct"] = (100.0 - share([tracing.CLI_SELF]), "%", "op time inside named layers")

    detail = {}
    for layer in tracing.LAYERS:
        detail[f"{layer}_pct"] = (share([layer]), "%", f"{layer} self time over traced op time")

    cond, sim = calls("matrix.condition_estimate"), calls("matrix.similarity")
    detail["matrix.condition_estimate_calls"] = (cond / ops, "count/op", f"{cond} calls in {ops} ops")
    detail["ensembles.transform_accept_ratio"] = (sim / cond if cond else 0.0, "ratio", f"{sim} accepted of {cond} drawn")
    roots = calls("numerics.find_roots")
    detail["numerics.find_roots_calls"] = (roots / ops, "count/op", f"{roots} calls in {ops} ops")

    health = spectrum_health(traced)
    eig = calls("spectrum.eigenvalues_self")
    detail["spectrum.moment_mismatch"] = (health["mismatch"] / eig if eig else 0.0, "ratio", f"{health['mismatch']} of {eig} eigensolves")
    detail["spectrum.moment_headroom"] = (health["headroom"], "ratio", "worst moment residual over its tolerance")
    detail["spectrum.ref_err_max"] = (health["ref_err"], "ratio", "worst eigenvalue error over ||A||_F, ||A||_F > 0")

    contains = calls("hull.contains_ellipse")
    for verdict in workloads.VERDICTS:
        k = sum(r.trace.verdicts[verdict] for r in traced)
        detail[f"hull.verdicts.{verdict}"] = (k / contains if contains else 0.0, "ratio", f"{k} of {contains} containment checks")

    loaded = [(path, s * r.scale) for r in traced for path, s in r.trace.loaded]
    load_s = sum(s for _, s in loaded)
    mb = sum(os.path.getsize(path) for path, _ in loaded) / 1e6
    detail["matrixio.mb_per_s"] = (mb / load_s if load_s else 0.0, "MB/s", f"{mb:.1f} MB parsed")
    detail["trace.overhead_ms"] = (traced_p50 - untraced_p50, "ms", f"traced p50 {traced_p50:.3f} - untraced p50 {untraced_p50:.3f}")
    detail["trace.overhead_pct"] = (100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%", "of the untraced p50")

    cells = defaultdict(list)
    for r in traced:
        cells[w.layer_cell(r.op)].append(r)
    tables = {
        "all": _layer_table(traced),
        "cells": {cell: _layer_table(recs) for cell, recs in sorted(cells.items(), key=lambda kv: kv[1][0].op.n)},
        "ref_err_max": health["ref_err_by_cell"],
    }
    return line, detail, tables


def spectrum_health(traced) -> dict:
    """Moment headroom and eigenvalue error against the reference, from the
    spectra the traced eigensolves returned."""
    out = {"mismatch": 0, "headroom": 0.0, "ref_err": 0.0, "ref_err_by_cell": {}}
    by_cell = defaultdict(float)
    for r in traced:
        for a, tol, result in r.trace.spectra:
            if isinstance(result, spectrum.MomentMismatch):
                out["mismatch"] += 1
                out["headroom"] = max(out["headroom"], max(result.sum_residual, result.q_residual) / result.tol)
                continue
            limit = spectrum.moment_tol(a, tol)
            out["headroom"] = max(out["headroom"], max(result.sum_residual, result.q_residual) / limit)
            ref = r.checked.reference if r.checked else ()
            fro = r.checked.fro if r.checked else 0.0
            err = oracle.spectrum_error(result.values, ref) / fro if ref and fro > 0.0 else math.inf
            if math.isfinite(err):
                out["ref_err"] = max(out["ref_err"], err)
                cell = f"{r.op.kind}/n={r.op.n}"
                by_cell[cell] = max(by_cell[cell], err)
    out["ref_err_by_cell"] = dict(sorted(by_cell.items(), key=lambda kv: (int(kv[0].split("=")[1]), kv[0])))
    return out


def kernel_summary(records) -> dict:
    ms = [r.kernel_s * 1e3 for r in records]
    return {"p5": percentile(ms, 5.0), "p50": percentile(ms, 50.0), "p95": percentile(ms, 95.0), "samples": len(ms)}


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(numpy),
        "machine": platform.machine(),
    }


def blas_threads(numpy):
    """Threads the bundled OpenBLAS will use, or None when it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_report(rep: dict) -> None:
    print(f"perfbench {rep['workload']} seed={rep['seed']} seconds={rep['seconds']:g} trace={rep['trace']}")
    print("machine " + " ".join(f"{k}={v}" for k, v in rep["machine"].items()))
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in rep['setup_samples'])}  oracle_s: {rep['oracle_s']:.3f}")
    k = rep["kernel_ms"]
    print(f"speed kernel ms: p5 {k['p5']:.4f} p50 {k['p50']:.4f} p95 {k['p95']:.4f} over {k['samples']} ops")
    for title, e2e in rep["end_to_end"].items():
        print(f"end-to-end ({title} rounds):")
        for name, (value, unit, detail) in e2e.items():
            print(f"  {name:<14} {_fmt(value):>12} {unit:<4} {detail}")
    print(f"correct={rep['correct']}  " + "  ".join(f"{k}={v}" for k, v in rep["checks"].items()))
    print(f"failed by cause: {rep['failed_by_cause'] or 0}  wrong by input class: {rep['wrong_by_class'] or 0}")
    print("per cell: attempted, failed by cause, wrong by input class, worst error/||A||_F, op ms p50, tail:")
    for cell, c in rep["cells"].items():
        err = "-" if c["err_max"] is None else f"{c['err_max']:.2e}"
        print(f"  {cell:<26} {c['attempted']:>5} failed={c['failed'] or 0} wrong={c['wrong'] or 0} "
              f"err={err} p50={c['op_ms_p50']:.3f} tail={c['op_ms_tail']:.3f}")
    if "layers" not in rep:
        return
    for title, metrics in (("per-layer metrics", rep["per_layer"]), ("per-layer detail", rep["layer_detail"])):
        print(f"{title} (traced rounds):")
        for name, (value, unit, detail) in metrics.items():
            print(f"  {name:<34} {_fmt(value):>12} {unit:<8} {detail}")
    for title, table in [("all ops", rep["layers"]["all"])] + list(rep["layers"]["cells"].items()):
        print(f"layer self ms, {title}: " + "; ".join(
            f"{name} {t['p50']:.4g}/{t['tail']:.4g} (n={t['samples']})" for name, t in table.items()))
    print("spectrum.ref_err_max by cell: " + "; ".join(
        f"{cell} {v:.3g}" for cell, v in rep["layers"]["ref_err_max"].items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("campaign", "analyze", "bound"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", default=None, help="also write the full report here as JSON")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        rep, records = benchmark(args, workdir)
        print_report(rep)
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                json.dump(rep, fh, indent=1, default=str)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    chosen = rep["per_layer"] if args.trace else rep["end_to_end"]["untraced"]
    names = METRICS["per_layer" if args.trace else "end_to_end"]
    c = correctness(records)
    print(json.dumps({
        "correct": rep["correct"],
        "attempted": c["attempted"],
        "failed": c["failed"],
        "metrics": {name: {"value": chosen[name][0], "unit": chosen[name][1]} for name in names},
    }))
    return 0


def benchmark(args, workdir: str):
    """Set up, measure, check every output; returns the report and the records."""
    w, *setup = set_up(workloads.WORKLOADS[args.workload], args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None
    records, walls = measure(w, args.seconds, tracer)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t0 = time.perf_counter()
    w.references()
    for r in records:
        if r.cause is None:
            r.checked = w.check(r.op, r.output)
    oracle_s = time.perf_counter() - t0
    checks = {
        "malformed": sum(1 for r in records if r.checked and r.checked.malformed),
        "nondeterministic_inputs": w.nondeterministic_inputs() if hasattr(w, "nondeterministic_inputs") else 0,
        "wrong_bounds": sum(1 for r in records if r.checked and r.checked.wrong) if w.name == "bound" else 0,
    }
    plain = [r for r in records if not r.traced]
    rep = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "setup_samples": setup[0],
        "kernel_ms": kernel_summary(records),
        "oracle_s": oracle_s,
        "end_to_end": {"untraced": end_to_end(plain, walls[False], setup, w.tail_pct, peak_mb)},
        "correct": bool(records) and not any(checks.values()),
        "checks": checks,
        "failed_by_cause": dict(Counter(r.cause for r in records if r.cause)),
        "wrong_by_class": dict(Counter(r.checked.input_class for r in records if r.checked and r.checked.wrong)),
        "cells": per_cell(w, records),
    }
    if tracer:
        traced = [r for r in records if r.traced]
        rep["end_to_end"]["traced"] = end_to_end(traced, walls[True], setup, w.tail_pct, peak_mb)
        rep["per_layer"], rep["layer_detail"], rep["layers"] = per_layer(w, records)
    return rep, records


def _declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: [m["name"] for m in spec[kind]] for kind in ("end_to_end", "per_layer")}


if __name__ == "__main__":
    import_package()
    import oracle
    import speed
    import tracing
    import workloads
    from spectral_ellipse import spectrum

    METRICS = _declared_metrics()
    sys.exit(main())
