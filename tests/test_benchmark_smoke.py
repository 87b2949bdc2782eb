"""Smoke tests of the benchmark's traced crawl-preset, crawl-wide and
offline-batch runs.

The traced run wraps the program's names from outside: it subclasses
EstimatorState's record_crawl and push_logs, wraps params_snapshot,
value_rates and the solver, and reads each snapshot with dict().  It wraps
each policy's decide on the instance, after make_policy and before the
crawl loop binds it.  On the offline path it wraps fileio's readers and
writers by name, each with the file's path as its first argument.  A
change to those names, or to what they take and return, breaks the
benchmark before any benchmark timing shows it; these tests show it in the
test suite.  Each run takes 10 to 20 s.
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

# The file traffic, solves and cover picks of the offline-batch round.
EXERCISED_OFFLINE = (
    "fileio.read.bytes",
    "fileio.write.bytes",
    "optimizer.solve.calls",
    "discovery.cover.picks",
)


def traced_round(workload: str) -> "dict[str, float]":
    """The metrics of a traced round of ``workload`` on seed 1, which must
    check correct with no failed operation."""
    command = [
        sys.executable, str(ROOT / "benchmark" / "run.py"),
        "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-4000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr[-4000:]
    assert result["failed"] == 0
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_traced_crawl_preset_round_is_correct_and_counted():
    metrics = traced_round("crawl-preset")
    assert {name: metrics[name] for name in EXERCISED if not metrics[name] > 0} == {}


def test_traced_offline_batch_round_is_correct_and_counted():
    metrics = traced_round("offline-batch")
    assert {name: metrics[name] for name in EXERCISED_OFFLINE if not metrics[name] > 0} == {}


def test_traced_crawl_wide_round_is_correct_and_counted():
    # the crawl loop binds its callees once per run: every decision must
    # still pass through the instance-level decide wrapper, and every
    # recrawl through the traced EstimatorState's record_crawl
    metrics = traced_round("crawl-wide")
    assert metrics["policies.decide.calls"] == metrics["simulator.slots"] > 0
    assert metrics["policies.productive_recrawl_ratio"] > 0
