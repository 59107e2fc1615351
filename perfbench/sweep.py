"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --workload campaign --seeds 1-10 [--trace 0|1] [--out PATH]

Runs the command of BENCHMARK.json once per seed, one after another, for
`run_seconds`.  For every metric it prints the median over the seeds and the
interquartile range (``statistics.quantiles(values, n=4)``) as a share of
that median, next to the metric's bound.  With --out the summary and every
run's JSON line and full report are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    """One run: its JSON line, plus its full report under "report"."""
    os.makedirs(WORK, exist_ok=True)
    report = os.path.join(WORK, f"sweep-{os.getpid()}-{workload}-{seed}.json")
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace), "--report", report,
    ]
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        with open(report, encoding="utf-8") as fh:
            result["report"] = json.load(fh)
    finally:
        if os.path.exists(report):
            os.remove(report)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    return result


def summarize(spec: dict, results: list[dict], trace: int) -> dict:
    declared = spec["per_layer" if trace else "end_to_end"]
    out = {}
    for m in declared:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[m["name"]] = {
            "median": med,
            "iqr_share": (q3 - q1) / abs(med) if med else None,
            "bound": m.get("bound"),
            "values": values,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    results = []
    for seed in seeds_of(args.seeds):
        res = run_once(spec, args.workload, seed, args.trace)
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}", flush=True)
    summary = summarize(spec, results, args.trace)
    for name, s in summary.items():
        spread = "n/a" if s["iqr_share"] is None else f"{s['iqr_share']:.4f}"
        bound = "" if s["bound"] is None else f" bound {s['bound']}"
        print(f"{name:<34} median {s['median']:.6g}  iqr/median {spread}{bound}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "trace": args.trace, "results": results, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
