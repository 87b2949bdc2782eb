#!/usr/bin/env python3
"""Run a workload once per seed and summarise each metric's spread.

    python3 benchmark/spread.py --workload crawl-wide --seeds 1-10 [--seconds 10]

Runs ``benchmark/run.py`` in a fresh process per seed, one after another,
and prints, per metric (and, in parentheses, per figure printed only for
reading), the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median.  Also checks that every run was
correct and that the share of failed operations was the same in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> "list[int]":
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    values: "dict[str, list[float]]" = {}
    shares = set()
    correct = True
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines[:-1]:  # the figures printed for reading only
            name, eq, rest = line.strip().partition(" = ")
            if eq and not name.startswith("op ") and name not in result["metrics"]:
                values.setdefault(f"({name})", []).append(float(rest.split()[0]))
        correct &= result["correct"]
        shares.add((result["failed"] / result["attempted"]))
        line = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {line}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        print(f"{name:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.2%}")
    print(f"all correct: {correct}; failed shares seen: {sorted(shares)}")
    return 0 if correct and len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
