"""Smoke test of the benchmark harness, run as `BENCHMARK.json` runs it.

`perfbench/workloads.py` builds `cli.PipelineSettings()` in a class body and
passes it to `cli.run_trial`, so a change to either that breaks the harness
fails here.  The harness runs in its own interpreter; nothing under
`perfbench/` is written.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_campaign_runs_with_no_failed_op():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", "campaign", "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["failed"] == 0
    assert summary["attempted"] > 0
