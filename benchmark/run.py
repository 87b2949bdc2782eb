#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload crawl-preset --seed 1 --seconds 20 --trace 0

Untraced (``--trace 0``): set up the workload's inputs, run whole rounds of
its fixed operations until ``--seconds`` have passed (at least one round),
check the outputs, and print the end-to-end metrics.  Traced
(``--trace 1``): set up with the program's public names wrapped, run three
rounds with the wrappers off, on, off, and print the per-layer metrics of
the set-up and the traced round, and the traced round's time minus the
last round's, in reference-kernel units converted back to seconds, as
``trace.overhead_s``; spans and a self-time table go to benchmark/out/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Human-readable
lines before it name every figure with its unit.
"""

import os
import sys
import time

_T0 = time.perf_counter()


def _since_process_start() -> float:
    """Seconds from this process's start to now, from /proc; 0 elsewhere."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return max(uptime - start_ticks / os.sysconf("SC_CLK_TCK"), 0.0)
    except (OSError, ValueError, IndexError):
        return 0.0


_STARTUP_S = _since_process_start()

# One process, one thread of numeric work: pin BLAS/OpenMP before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _import_program():
    if not (SRC / "echocrawl" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program to measure: {SRC / 'echocrawl'} is missing")
    sys.path.insert(0, str(SRC))
    import echocrawl

    if Path(echocrawl.__file__).resolve().parent != (SRC / "echocrawl").resolve():
        sys.exit(f"benchmark: imported echocrawl from {echocrawl.__file__}, not {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


@dataclasses.dataclass(frozen=True)
class Op:
    """One timed operation: its host seconds, the reference kernel's
    seconds around it, and its error message ("" when it succeeded)."""

    name: str
    seconds: float
    ref_s: float
    error: str

    @property
    def ok(self) -> bool:
        return not self.error


def reference_kernel() -> float:
    """Host seconds for fixed work that never touches the program: dict and
    heap churn, float formatting and parsing, and small numpy calls, the
    kinds of work the workloads do.  Dividing an operation's time by it
    cancels most of the host's speed swings, which on a shared machine
    reach a third of the time within a minute."""
    start = time.perf_counter()
    table: "dict[int, float]" = {}
    heap: "list[tuple[int, int]]" = []
    for i in range(80_000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0.0) + 0.5 * i
        if i % 4 == 0:
            heapq.heappush(heap, (key, i))
    while heap:
        heapq.heappop(heap)
    text = ",".join(repr(0.1 * i) for i in range(8000))
    total = math.fsum(float(cell) for cell in text.split(","))
    x = np.linspace(0.0, 1.0, 64)
    for _ in range(1200):
        total += float(np.exp(-x).sum())
    return time.perf_counter() - start


def run_round(wl, ref_s: float) -> "tuple[list[Op], float]":
    """One round of the workload's operations, each timed and paired with
    the mean of the reference kernel's runs just before and after it."""
    ops = []
    for name, operation in wl.operations():
        start = time.perf_counter()
        error = operation()
        seconds = time.perf_counter() - start
        ref_after = reference_kernel()
        ops.append(Op(name, seconds, 0.5 * (ref_s + ref_after), error))
        ref_s = ref_after
    wl.end_round({op.name for op in ops if not op.ok})
    return ops, ref_s


def medians(rounds, value) -> "dict[str, float]":
    """Per operation name, the median of value(op) over the rounds."""
    names = [op.name for op in rounds[0]]
    return {
        name: statistics.median(value(ops[i]) for ops in rounds)
        for i, name in enumerate(names)
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(
            f"benchmark: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}"
        )
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            return traced(args, workloads, workdir)
        return untraced(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def untraced(args, workloads, workdir: Path) -> int:
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_s = _STARTUP_S + time.perf_counter() - _T0
    deadline = time.perf_counter() + args.seconds
    reference_kernel()  # warm-up, not used
    ref_s = reference_kernel()
    rounds = []
    while not rounds or time.perf_counter() < deadline:
        ops, ref_s = run_round(wl, ref_s)
        rounds.append(ops)
    measured_s = time.perf_counter() + args.seconds - deadline

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = wl.check()
    seconds = medians(rounds, lambda op: op.seconds)
    in_refs = medians(rounds, lambda op: op.seconds / op.ref_s)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "round_ref": (sum(in_refs.values()), "ref"),
        "captured_clicks_per_day": (wl.captured_clicks_per_day(), "clicks/day"),
    }
    info = {
        "round_s": (sum(seconds.values()), "s"),
        "reference_kernel_s": (statistics.median(op.ref_s for ops in rounds for op in ops), "s"),
        **wl.info(seconds),
    }
    for name, value in seconds.items():
        info[f"op {name} median"] = (value, "s")
    return report(args, rounds, metrics, info, problems, measured_s)


def traced(args, workloads, workdir: Path) -> int:
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    # An untraced warm-up round first, so that first-round costs (page
    # cache, allocator growth) fall on neither side of the comparison.
    rounds = []
    ref_s = reference_kernel()
    for active in (False, True, False):
        tracer.active = active
        ops, ref_s = run_round(wl, ref_s)
        rounds.append(ops)
    tracer.active = False
    tracer.uninstall()

    # Overhead in reference units, converted back to seconds at the run's
    # median kernel time, so host speed swings between the rounds cancel.
    metrics = tracer.layer_metrics()
    in_refs = [sum(op.seconds / op.ref_s for op in ops) for ops in rounds]
    ref_s = statistics.median(op.ref_s for ops in rounds for op in ops)
    metrics["trace.overhead_s"] = ((in_refs[1] - in_refs[2]) * ref_s, "s")
    path = OUT / f"trace-{args.workload}-s{args.seed}"
    tracer.write(path)
    print(f"spans and self times written under {path}")
    problems = wl.check()
    measured_s = sum(op.seconds for ops in rounds for op in ops)
    return report(args, rounds, metrics, {}, problems, measured_s)


def report(args, rounds, metrics, info, problems, measured_s) -> int:
    ops = [op for ops in rounds for op in ops]
    failed = [op for op in ops if not op.ok]
    print(
        f"workload {args.workload} seed {args.seed}: {len(rounds)} round(s), "
        f"{len(ops)} operations, {len(failed)} failed, {measured_s:.2f} s measured"
    )
    for (name, error), times in sorted(Counter((op.name, op.error) for op in failed).items()):
        print(f"  failed x{times}: {name}: {error}")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
