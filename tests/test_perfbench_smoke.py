"""Smoke test of the benchmark harness, run as `BENCHMARK.json` runs it.

`perfbench/workloads.py` builds `cli.PipelineSettings()` in a class body and
passes it to `cli.run_trial` (`campaign`), and calls `cli.main` with
`analyze` and `bound` argv, so a change to any of these that breaks the
harness fails here.  The harness runs in its own interpreter; nothing under
`perfbench/` is written.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# an analyze round feeds 2^k-rescaled copies past the float range on
# purpose; those exit 5 and count as failed ops, so only campaign and bound
# run with none
@pytest.mark.parametrize("workload", ["campaign", "analyze", "bound"])
def test_workload_runs_and_checks_out(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True
    assert summary["attempted"] > 0
    if workload != "analyze":
        assert summary["failed"] == 0
