#!/usr/bin/env python3
"""Remake data/found1_params.csv: the solver input that trips the flat tail.

    python3 benchmark/make_found1_params.py

Simulates preset:main, scenario seed 0, under echo-schedule at budget
0.003681, records the parameter snapshot handed to the interval solver at
simulated hour 32.5 (t = 117000 s, the 66th reschedule), and writes it with
the program's params writer.  Solving it puts numpy floats into the
schedule (source 11 gets an interval of about 3.3e17 s), so
``echocrawl schedule`` writes a file that ``read_schedule`` rejects.
"""

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import dataclasses  # noqa: E402

from echocrawl import fileio, simulator  # noqa: E402

import workloads  # noqa: E402

CAPTURE_TIME = 117_000.0  # simulated hour 32.5
RESCHEDULE_PERIOD = 1800.0


def capture() -> dict:
    preset = workloads.load_preset()
    scenario = simulator.generate_scenario(dataclasses.replace(preset.scenario, seed=0))
    config = preset.make_run_config("echo-schedule", workloads.FOUND1_BUDGET)
    if config.reschedule_period != RESCHEDULE_PERIOD:
        raise SystemExit(f"preset reschedules every {config.reschedule_period} s, not 1800 s")
    calls = []
    solve = simulator.solve_schedule

    def recording_solve(params, budget, solver_config=None):
        calls.append(dict(params))
        return solve(params, budget, solver_config)

    simulator.solve_schedule = recording_solve
    try:
        simulator.run(scenario, config)
    finally:
        simulator.solve_schedule = solve
    return calls[int(CAPTURE_TIME / RESCHEDULE_PERIOD)]


def main() -> None:
    params = capture()
    rows = (fileio.ParamsRow(sid, sp) for sid, sp in sorted(params.items()))
    meta = {
        "scenario": "preset:main",
        "seed": 0,
        "policy": "echo-schedule",
        "budget": workloads.FOUND1_BUDGET,
        "t": CAPTURE_TIME,
    }
    fileio.write_params(workloads.FOUND1_PARAMS, rows, meta)
    print(f"wrote {workloads.FOUND1_PARAMS}: {len(params)} sources")


if __name__ == "__main__":
    main()
