"""Spans around the program's layers, recorded from outside ``src/``.

The tracer replaces the public names that callers inside the program bind
(``simulator.solve_schedule``, ``cli.fit_profit_curve``, ``fileio.read_params``
...) with wrappers that record a span per call and a few counts, and puts
the originals back on ``uninstall``.  A layer's self time is the time its
spans cover minus the time covered by their child spans.  Spans stay in
memory until ``write``.
"""

from __future__ import annotations

import csv
import functools
import os
import time
from array import array
from collections import Counter
from pathlib import Path

from echocrawl import cli, estimators, fileio, optimizer, simulator

# Per-layer metrics printed by the traced run, with units; every name is
# printed on every workload (0 where the workload does not use the layer).
LAYER_METRICS = {
    "optimizer.solve.calls": "count",
    "optimizer.solve.self_s": "s",
    "optimizer.solve.starved_calls": "count",
    "optimizer.solve.pinched_sources": "count",
    "optimizer.solve.failed": "count",
    "estimators.fit.calls": "count",
    "estimators.fit.self_s": "s",
    "estimators.fit.iterations": "count",
    "estimators.fit.diverged": "count",
    "estimators.push_logs.calls": "count",
    "estimators.push_logs.self_s": "s",
    "estimators.push_logs.clicks": "count",
    "estimators.snapshot.self_s": "s",
    "estimators.value_rates.self_s": "s",
    "policies.decide.calls": "count",
    "policies.decide.self_s": "s",
    "policies.productive_recrawl_ratio": "ratio",
    "simulator.generate.s": "s",
    "simulator.run.self_s": "s",
    "simulator.slots": "count",
    "simulator.idle_slots": "count",
    "simulator.missed_pages": "count",
    "core.quality_series.self_s": "s",
    "core.validate_trace.self_s": "s",
    "fileio.read.self_s": "s",
    "fileio.read.bytes": "bytes",
    "fileio.write.self_s": "s",
    "fileio.write.bytes": "bytes",
    "discovery.find.self_s": "s",
    "discovery.cover.self_s": "s",
    "discovery.cover.picks": "count",
    "cli.self_s": "s",
}

_READS = ("read_click_log", "read_params", "read_schedule", "read_snapshots", "read_corpus")
_WRITES = (
    "write_table",
    "write_click_log",
    "write_params",
    "write_schedule",
    "write_snapshots",
    "write_corpus",
    "write_cover",
)


class Tracer:
    """Span recorder; records only while ``active`` is true."""

    def __init__(self) -> None:
        self.active = False
        self.names: "list[str]" = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: "list[int]" = []
        self.counts: Counter = Counter()
        self._patched: "list[tuple[object, str, object]]" = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self.stack.pop()

    def inside(self, prefix: str) -> bool:
        """Whether the innermost open span's name starts with prefix."""
        return bool(self.stack) and self.names[self.stack[-1]].startswith(prefix)

    def wrap(self, name: str, fn, after=None, plain=None):
        """fn recorded as a span; after(args, kwargs, result) counts extras.
        While inactive the wrapper calls plain (default fn) and records
        nothing."""
        plain = plain or fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return plain(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- the program's public names -----------------------------------------

    def install(self) -> None:
        counts = self.counts

        solve = optimizer.solve_schedule

        def traced_solve(sources, budget, config=None):
            items = dict(sources)
            if budget < sum(sp.lambda_rate for sp in items.values()):
                counts["optimizer.solve.starved_calls"] += 1
            try:
                schedule = solve(sources, budget, config)
            except (optimizer.ScheduleInfeasibleError, optimizer.NoConvergenceError):
                counts["optimizer.solve.failed"] += 1
                raise
            counts["optimizer.solve.pinched_sources"] += len(schedule.pinched)
            return schedule

        traced_solve = self.wrap("optimizer.solve", traced_solve, plain=solve)

        fit = estimators.fit_profit_curve

        def counted_fit(hist, config=None, trace=None):
            steps = trace if trace is not None else []
            before = len(steps)
            try:
                return fit(hist, config, steps)
            except estimators.FitDivergenceError:
                counts["estimators.fit.diverged"] += 1
                raise
            finally:
                counts["estimators.fit.iterations"] += len(steps) - before

        traced_fit = self.wrap("estimators.fit", counted_fit, plain=fit)

        make_policy = simulator.make_policy

        def traced_make_policy(name, sources, seed=0):
            policy = make_policy(name, sources, seed=seed)
            policy.decide = self.wrap("policies.decide", policy.decide)
            return policy

        self.patch(simulator, "solve_schedule", traced_solve)
        self.patch(cli, "solve_schedule", traced_solve)
        self.patch(estimators, "fit_profit_curve", traced_fit)
        self.patch(cli, "fit_profit_curve", traced_fit)
        self.patch(simulator, "EstimatorState", _traced_estimator_class(self))
        self.patch(cli, "EstimatorState", simulator.EstimatorState)
        self.patch(simulator, "make_policy", traced_make_policy)
        self.patch(simulator, "run", self.wrap("simulator.run", simulator.run, self._count_run))
        self.patch(
            simulator, "generate_scenario",
            self.wrap("simulator.generate", simulator.generate_scenario),
        )
        self.patch(
            simulator, "quality_series", self.wrap("core.quality_series", simulator.quality_series)
        )
        self.patch(
            simulator, "validate_trace", self.wrap("core.validate_trace", simulator.validate_trace)
        )
        self.patch(
            cli, "find_content_sources",
            self.wrap("discovery.find", cli.find_content_sources),
        )
        self.patch(
            cli, "greedy_source_cover",
            self.wrap("discovery.cover", cli.greedy_source_cover, self._count_picks),
        )
        self.patch(cli, "main", self.wrap("cli", cli.main))
        for name in _READS:
            self.patch(fileio, name, self._file_span("fileio.read", getattr(fileio, name), True))
        for name in _WRITES:
            self.patch(fileio, name, self._file_span("fileio.write", getattr(fileio, name), False))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _file_span(self, layer: str, fn, reading: bool):
        @functools.wraps(fn)
        def traced(path, *args, **kwargs):
            if not self.active:
                return fn(path, *args, **kwargs)
            outermost = not self.inside("fileio.")
            if outermost and reading:
                self.counts[f"{layer}.bytes"] += os.path.getsize(path)
            index = self.open(layer)
            try:
                result = fn(path, *args, **kwargs)
            finally:
                self.close(index)
            if outermost and not reading:
                self.counts[f"{layer}.bytes"] += os.path.getsize(path)
            return result

        return traced

    def _count_run(self, args, kwargs, result) -> None:
        trace, report = result
        self.counts["simulator.slots"] += len(trace) + report.idle_slots
        self.counts["simulator.idle_slots"] += report.idle_slots
        self.counts["simulator.missed_pages"] += report.missed_pages

    def _count_picks(self, args, kwargs, picks) -> None:
        self.counts["discovery.cover.picks"] += len(picks)

    # -- results ------------------------------------------------------------

    def self_times(self) -> "dict[str, tuple[int, float, float]]":
        """name -> (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        table: "dict[str, list]" = {}
        for i, name in enumerate(self.names):
            row = table.setdefault(name, [0, 0.0, 0.0])
            duration = self.ends[i] - self.starts[i]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child[i]
        return {name: tuple(row) for name, row in table.items()}

    def layer_metrics(self) -> "dict[str, tuple[float, str]]":
        times = self.self_times()
        values = dict(self.counts)
        for name, (calls, total, own) in times.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = own
        values["simulator.generate.s"] = times.get("simulator.generate", (0, 0.0, 0.0))[1]
        recrawls = self.counts["recrawls"]
        values["policies.productive_recrawl_ratio"] = (
            self.counts["productive_recrawls"] / recrawls if recrawls else 0.0
        )
        return {name: (values.get(name, 0), unit) for name, unit in LAYER_METRICS.items()}

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        with (directory / "spans.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "parent", "name", "start_s", "end_s"))
            for i, name in enumerate(self.names):
                writer.writerow((i, self.parents[i], name, self.starts[i], self.ends[i]))
        rows = sorted(self.self_times().items(), key=lambda kv: -kv[1][2])
        with (directory / "selftime.txt").open("w") as fh:
            fh.write(f"{'span':<24} {'calls':>9} {'total_s':>10} {'self_s':>10}\n")
            for name, (calls, total, own) in rows:
                fh.write(f"{name:<24} {calls:>9} {total:>10.4f} {own:>10.4f}\n")


def _traced_estimator_class(tracer: Tracer):
    """EstimatorState with its crawl-loop entry points recorded."""
    base = estimators.EstimatorState

    class TracedEstimatorState(base):
        def push_logs(self, events, t_push):
            if tracer.active:
                events = list(events)
                tracer.counts["estimators.push_logs.clicks"] += len(events)
            return _push(self, events, t_push)

        def record_crawl(self, source, time, new_links):
            if tracer.active:
                tracer.counts["recrawls"] += 1
                tracer.counts["productive_recrawls"] += new_links > 0
            return base.record_crawl(self, source, time, new_links)

    _push = tracer.wrap("estimators.push_logs", base.push_logs)
    TracedEstimatorState.params_snapshot = tracer.wrap(
        "estimators.snapshot", base.params_snapshot
    )
    TracedEstimatorState.value_rates = tracer.wrap("estimators.value_rates", base.value_rates)
    TracedEstimatorState.__name__ = base.__name__
    return TracedEstimatorState
