"""Build ``baseline.json`` from the outputs of ``sweep.py``.

    for W in campaign analyze bound; do
        python3 perfbench/sweep.py --workload $W --seeds 1-10 --out DIR/$W-e2e.json
        python3 perfbench/sweep.py --workload $W --seeds 1-10 --out DIR/$W-e2e2.json
        python3 perfbench/sweep.py --workload $W --seeds 1-3 --trace 1 --out DIR/$W-trace.json
    done
    python3 perfbench/baseline.py --dir DIR --date YYYY-MM-DD > perfbench/baseline.json

The first 10-seed set gives the baseline; the second set, of the same seeds
run again, shows how far two sets of the same code drift apart.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import Counter, defaultdict

WORKLOADS = ("campaign", "analyze", "bound")


def load(directory: str, workload: str, kind: str) -> dict:
    with open(os.path.join(directory, f"{workload}-{kind}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / abs(med) if med else None}


def summed(dicts) -> dict:
    total = Counter()
    for d in dicts:
        total.update(d)
    return dict(sorted(total.items()))


def of_reports(reports, section: str) -> dict:
    """name -> median over the runs of a (value, unit, detail) section."""
    names = reports[0][section]
    return {
        name: {"median": statistics.median(r[section][name][0] for r in reports), "unit": unit}
        for name, (_, unit, _) in names.items()
    }


def per_cell(reports) -> dict:
    cells = defaultdict(list)
    for r in reports:
        for cell, c in r["cells"].items():
            cells[cell].append(c)
    out = {}
    for cell, cs in cells.items():
        errs = [c["err_max"] for c in cs if c["err_max"] is not None]
        out[cell] = {
            "attempted": sum(c["attempted"] for c in cs),
            "failed": summed(c["failed"] for c in cs),
            "wrong_by_class": summed(c["wrong"] for c in cs),
            "err_max_over_fro": max(errs) if errs else None,
            "op_ms_p50_median": statistics.median(c["op_ms_p50"] for c in cs),
            "op_ms_tail_median": statistics.median(c["op_ms_tail"] for c in cs),
        }
    return out


def workload(directory: str, name: str) -> tuple[dict, dict]:
    e2e, traced = load(directory, name, "e2e"), load(directory, name, "trace")
    reports = [r["report"] for r in e2e["results"]]
    traced_reports = [r["report"] for r in traced["results"]]
    units = {m: v[1] for m, v in reports[0]["end_to_end"]["untraced"].items()}
    end_to_end = {
        m: {**quartiles([r["end_to_end"]["untraced"][m][0] for r in reports]), "unit": unit}
        for m, unit in units.items()
    }
    ref_err = defaultdict(float)
    for r in traced_reports:
        for cell, v in r["layers"]["ref_err_max"].items():
            ref_err[cell] = max(ref_err[cell], v)
    layer_ms = defaultdict(lambda: {"p50": [], "tail": []})
    for r in traced_reports:
        for layer, t in r["layers"]["all"].items():
            layer_ms[layer]["p50"].append(t["p50"])
            layer_ms[layer]["tail"].append(t["tail"])
    out = {
        "seeds": [r["seed"] for r in reports],
        "traced_seeds": [r["seed"] for r in traced_reports],
        "end_to_end": end_to_end,
        "attempted": sum(r["attempted"] for r in e2e["results"]),
        "failed_by_cause": summed(r["failed_by_cause"] for r in reports),
        "wrong_by_class": summed(r["wrong_by_class"] for r in reports),
        "correct_every_run": all(r["correct"] for r in e2e["results"] + traced["results"]),
        "per_cell": per_cell(reports),
        "per_layer": of_reports(traced_reports, "per_layer"),
        "layer_detail": of_reports(traced_reports, "layer_detail"),
        "layer_self_ms": {
            layer: {"p50": statistics.median(t["p50"]), "p95": statistics.median(t["tail"])}
            for layer, t in layer_ms.items()
        },
        "spectrum.ref_err_max_by_cell": dict(ref_err),
    }
    return out, reports[0]["machine"]


def second_set(directory: str, name: str, first: dict, spec: dict) -> dict:
    """The second set's medians and spreads, and how much worse each median
    is than the first set's, as a share of the first."""
    reports = [r["report"] for r in load(directory, name, "e2e2")["results"]]
    out = {}
    for m in spec["end_to_end"]:
        q = quartiles([r["end_to_end"]["untraced"][m["name"]][0] for r in reports])
        before = first[m["name"]]["median"]
        change = (q["median"] - before) / before
        out[m["name"]] = {
            "median": q["median"],
            "iqr_share": q["iqr_share"],
            "worse_than_first": change if m["better"] == "lower" else -change,
            "bound": m["bound"],
        }
    return out


def known_defects(w: dict) -> dict:
    campaign, analyze, bound = (w[k] for k in WORKLOADS)
    remark = {
        cell.split("=")[1]: v
        for cell, v in campaign["spectrum.ref_err_max_by_cell"].items()
        if cell.startswith("RemarkExtremal/")
    }
    qzero = campaign["per_cell"]["QZero/n=2"]
    return {
        "campaign spectrum.ref_err_max, RemarkExtremal": remark,
        "campaign QZero n=2 op ms (p50, tail)": [qzero["op_ms_p50_median"], qzero["op_ms_tail_median"]],
        "campaign other n=2 op ms p50": {
            cell: c["op_ms_p50_median"]
            for cell, c in sorted(campaign["per_cell"].items())
            if cell.endswith("/n=2") and not cell.startswith("QZero/")
        },
        "bound share of op time in matrixio.load_matrix (%)": bound["layer_detail"]["matrixio.load_matrix_pct"]["median"],
        "campaign wrong_frac": campaign["end_to_end"]["wrong_frac"]["median"],
        "analyze wrong_frac": analyze["end_to_end"]["wrong_frac"]["median"],
        "analyze failed_frac": analyze["end_to_end"]["failed_frac"]["median"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dir", required=True, help="directory of the sweep outputs")
    parser.add_argument("--date", required=True, help="the day the sweeps ran")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)

    workloads, machine = {}, None
    for name in WORKLOADS:
        workloads[name], machine = workload(args.dir, name)
    baseline = {
        "recorded": args.date,
        "how": "python3 perfbench/baseline.py, from sweep.py outputs: 10 untraced seeds per workload, "
               "the same 10 again as the second set, and 3 traced seeds; run_seconds from BENCHMARK.json",
        "note": "Times are scaled by the speed kernel (speed.py): ms on a machine where the kernel takes 1 ms. "
                "Medians and quartiles are over the seeds; iqr_share is (q3 - q1) / median.",
        "workloads": workloads,
        "machine": machine,
        "second_set": {
            "how": "the same 10 seeds run again, after the first set",
            "workloads": {
                name: second_set(args.dir, name, workloads[name]["end_to_end"], spec) for name in WORKLOADS
            },
        },
        "known_defects": known_defects(workloads),
    }
    json.dump(baseline, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
