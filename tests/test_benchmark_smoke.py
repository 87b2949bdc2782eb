"""Smoke test of the benchmark's traced crawl-preset run.

The traced run wraps the program's names from outside: it subclasses
EstimatorState's record_crawl and push_logs, wraps params_snapshot,
value_rates and the solver, and reads each snapshot with dict().  A change
to those names, or to what they take and return, breaks the benchmark
before any benchmark timing shows it; this test shows it in the test suite.
The run takes about 10 s.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Every count the crawl-preset round exercises.
EXERCISED = (
    "optimizer.solve.calls",
    "estimators.fit.calls",
    "estimators.push_logs.calls",
    "policies.decide.calls",
    "simulator.slots",
    "policies.productive_recrawl_ratio",
)


def test_traced_crawl_preset_round_is_correct_and_counted():
    command = [
        sys.executable, str(ROOT / "benchmark" / "run.py"),
        "--workload", "crawl-preset", "--seed", "1", "--seconds", "0", "--trace", "1",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-4000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr[-4000:]
    assert result["failed"] == 0
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert {name: metrics[name] for name in EXERCISED if not metrics[name] > 0} == {}
