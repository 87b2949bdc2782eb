"""File-format round trips, config parsing, and end-to-end subcommand runs
with their exit codes and determinism guarantees."""

import dataclasses
import logging
import math
import os
import re
import resource
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
import yaml

from echocrawl import cli, fileio
from echocrawl.core import CrawlPage, CrawlRecord, MetricConfig, RecrawlSource, SourceParams
from echocrawl.discovery import HostSnapshot, LinkCorpus
from echocrawl.estimators import EstimatorState, fit_profit_curve
from echocrawl.optimizer import Schedule, solve_schedule
from echocrawl.simulator import (
    MetricReport,
    RunConfig,
    ScenarioConfig,
    SourceSpec,
    generate_scenario,
)

TINY_CONFIG = """
version: 1
out: {out}
scenario:
  horizon: 43200.0
  link_window: 10
  budget: 0.02
  sources:
    - {{lambda_rate: 0.002, profit_mean: 2.0, decay: 0.0005}}
    - {{lambda_rate: 0.001, profit_mean: 1.0, decay: 0.0002, count: 2}}
policies: [echo-schedule, bfs]
budgets: [0.02]
seeds: 2
"""


@pytest.fixture()
def tiny_config_path(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_CONFIG.format(out=tmp_path / "out"))
    return path


def tiny_scenario(seed=0):
    config = ScenarioConfig(
        (SourceSpec(0.002, 2.0, 0.0005), SourceSpec(0.001, 1.0, 0.0002)),
        horizon=43200.0,
        link_window=10,
        budget=0.02,
        seed=seed,
    )
    return generate_scenario(config)


class TestTableRoundTrips:
    def test_scenario_round_trip_is_exact(self, tmp_path):
        scenario = tiny_scenario()
        path = tmp_path / "scenario.csv"
        fileio.write_scenario(path, scenario)
        back = fileio.read_scenario(path)
        assert back == scenario

    def test_click_log_round_trip_counts(self, tmp_path):
        scenario = tiny_scenario()
        path = tmp_path / "clicks.csv"
        fileio.write_click_log(path, scenario)
        log = fileio.read_click_log(path)
        assert len(log.pages) == len(scenario.pages)
        assert len(log.clicks) == sum(p.total_clicks for p in scenario.pages.values())
        pid, (sid, created) = next(iter(sorted(log.pages.items())))
        assert scenario.pages[pid].source == sid
        assert scenario.pages[pid].created == created

    def test_trace_round_trip(self, tmp_path):
        trace = [
            CrawlRecord(50.0, RecrawlSource(3)),
            CrawlRecord(100.0, CrawlPage(17), realized_profit=4.0),
        ]
        path = tmp_path / "x.trace.csv"
        fileio.write_trace(path, trace, {"policy": "bfs", "seed": 1})
        back, meta = fileio.read_trace(path)
        assert back == trace
        assert meta["policy"] == "bfs"
        assert meta["seed"] == "1"

    def test_report_round_trip(self, tmp_path):
        report = MetricReport(
            policy="bfs",
            budget=0.02,
            horizon=1000.0,
            warmup=600.0,
            overall_quality=0.25,
            full_quality=0.2,
            total_profit=200.0,
            recrawls=5,
            page_fetches=11,
            idle_slots=4,
            discovered_pages=11,
            missed_pages=2,
            unknown_clicks=0,
            schedule_failures=0,
            series=((600.0, 0.1),),
        )
        path = tmp_path / "x.report.csv"
        fileio.write_report(path, report, seed=7, oracle=0.5, fingerprint="abc")
        row = fileio.read_report(path)
        assert row.policy == "bfs"
        assert row.seed == 7
        assert row.oracle == 0.5
        assert row.overall_quality == 0.25
        assert row.fingerprint == "abc"

    def test_params_round_trip_bit_exact(self, tmp_path):
        rows = [
            fileio.ParamsRow(0, SourceParams(1 / 3.0, 2.7182818, 1e-5), 10, 3, True),
            fileio.ParamsRow(4, SourceParams(0.25, 0.1, 1 / 7.0), 2, 0, False),
        ]
        path = tmp_path / "params.csv"
        fileio.write_params(path, rows, {"t_push": 1.5})
        sources, meta = fileio.read_params(path)
        assert list(sources.items()) == [(r.source_id, r.params) for r in rows]
        assert meta["t_push"] == "1.5"

    def test_schedule_round_trip_with_infinity(self, tmp_path):
        params = {
            0: SourceParams(0.01, 5.0, 1e-3),
            1: SourceParams(0.02, 1e-9, 1e-3),
        }
        schedule = solve_schedule(params, 0.015)
        path = tmp_path / "schedule.csv"
        fileio.write_schedule(path, schedule, 1e-6)
        intervals, meta = fileio.read_schedule(path)
        assert intervals == schedule.intervals
        assert math.isinf(intervals[1])
        assert float(meta["omega"]) == schedule.omega

    def test_numpy_floats_written_as_plain_numbers(self, tmp_path):
        schedule = Schedule(
            {0: np.float64(12.5), 1: math.inf},
            omega=np.float64(0.25),
            budget=0.1,
            residual=np.float64(-1e-7),
        )
        path = tmp_path / "schedule.csv"
        fileio.write_schedule(path, schedule, 1e-6)
        assert "np." not in path.read_text()
        intervals, meta = fileio.read_schedule(path)
        assert intervals == {0: 12.5, 1: math.inf}
        assert meta["omega"] == "0.25"
        assert meta["residual"] == "-1e-07"

    def test_snapshots_and_corpus_round_trip(self, tmp_path):
        snaps = [
            HostSnapshot(0, 10, [(11, 5000.0), (12, 90000.0)]),
            HostSnapshot(1, 20, []),
        ]
        fileio.write_snapshots(tmp_path / "s.csv", snaps)
        assert fileio.read_snapshots(tmp_path / "s.csv") == snaps
        corpus = LinkCorpus([(1, 2, 0.5), (1, 3, 1.5)])
        fileio.write_corpus(tmp_path / "c.csv", corpus)
        assert fileio.read_corpus(tmp_path / "c.csv") == corpus

    def test_series_round_trip(self, tmp_path):
        series = [(600.0, 0.125), (1200.0, 0.25)]
        fileio.write_series(tmp_path / "q.csv", series, {"seed": 0})
        points, _ = fileio.read_series(tmp_path / "q.csv")
        assert points == series


class TestFormatErrors:
    def test_wrong_kind_rejected_at_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# echocrawl-trace-v1\ntime_s,action,target_id,realized_profit\n")
        with pytest.raises(fileio.FileFormatError, match="bad.csv:1"):
            fileio.read_report(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# echocrawl-clicks-v99\npage_id,source_id,created_s,click_time_s\n")
        with pytest.raises(fileio.FileFormatError, match="bad.csv:1"):
            fileio.read_click_log(path)

    def test_wrong_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# echocrawl-clicks-v1\nwrong,columns\n")
        with pytest.raises(fileio.FileFormatError, match="bad.csv:2"):
            fileio.read_click_log(path)

    def test_malformed_cell_reports_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# echocrawl-clicks-v1\n"
            "page_id,source_id,created_s,click_time_s\n"
            "1,0,10.0,11.0\n"
            "2,0,oops,\n"
        )
        with pytest.raises(fileio.FileFormatError, match="bad.csv:4.*created_s"):
            fileio.read_click_log(path)

    def test_click_before_creation_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# echocrawl-clicks-v1\n"
            "page_id,source_id,created_s,click_time_s\n"
            "1,0,10.0,9.0\n"
        )
        with pytest.raises(fileio.FileFormatError, match="bad.csv:3"):
            fileio.read_click_log(path)


class TestConfigParsing:
    def base(self):
        return yaml.safe_load(TINY_CONFIG.format(out="runs"))

    def test_full_experiment_parses(self):
        config = fileio.parse_experiment_config(self.base())
        assert config.policies == ("echo-schedule", "bfs")
        assert config.budgets == (0.02,)
        assert config.seeds == (0, 1)
        assert len(config.scenario.source_specs) == 3  # count: 2 expands
        assert config.runs() == [
            (0, "echo-schedule", 0.02),
            (0, "bfs", 0.02),
            (1, "echo-schedule", 0.02),
            (1, "bfs", 0.02),
        ]

    def test_repeat_tiles_preserving_interleaving(self):
        node = self.base()
        node["scenario"]["repeat"] = 2
        config = fileio.parse_experiment_config(node)
        specs = config.scenario.source_specs
        assert len(specs) == 6
        assert specs[:3] == specs[3:]

    def test_unknown_policy_lists_valid_names(self):
        node = self.base()
        node["policies"] = ["nope"]
        with pytest.raises(fileio.ConfigError, match="echo-schedule"):
            fileio.parse_experiment_config(node)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda n: n.__setitem__("seeds", []),
            lambda n: n.__setitem__("seeds", [1, 1]),
            lambda n: n.__setitem__("policies", []),
            lambda n: n.__setitem__("budgets", [0.0]),
            lambda n: n.__setitem__("version", 9),
            lambda n: n.__setitem__("mystery", 1),
            lambda n: n["scenario"].__setitem__("horizon", "week"),
            lambda n: n["scenario"].__setitem__("sources", []),
            lambda n: n["scenario"]["sources"][0].pop("decay"),
            lambda n: n["scenario"]["sources"][0].__setitem__("count", 0),
            lambda n: n["scenario"].__setitem__("repeat", 0),
        ],
    )
    def test_invalid_configs_rejected(self, mutate):
        node = self.base()
        mutate(node)
        with pytest.raises(fileio.ConfigError):
            fileio.parse_experiment_config(node)

    def test_seed_count_shorthand(self):
        node = self.base()
        node["seeds"] = 3
        assert fileio.parse_experiment_config(node).seeds == (0, 1, 2)

    def test_run_overrides_applied(self):
        node = self.base()
        node["run"] = {
            "reschedule_period": 900,
            "history_size": 5,
            "metric": {"window": 1800, "sample_period": 600},
        }
        config = fileio.parse_experiment_config(node)
        run_config = config.make_run_config("bfs", 0.02)
        assert run_config.reschedule_period == 900
        assert run_config.history_size == 5
        assert run_config.metric == MetricConfig(1800, 600)

    def test_fingerprint_ignores_seed_but_not_sources(self):
        a = fileio.parse_experiment_config(self.base()).scenario
        node = self.base()
        node["scenario"]["seed"] = 99
        b = fileio.parse_experiment_config(node).scenario
        assert fileio.scenario_fingerprint(a) == fileio.scenario_fingerprint(b)
        node["scenario"]["sources"][0]["profit_mean"] = 3.0
        c = fileio.parse_experiment_config(node).scenario
        assert fileio.scenario_fingerprint(c) != fileio.scenario_fingerprint(a)


def sample_value(hint):
    """A valid YAML value for a parameter of type hint, equal to no default
    of the config types read here."""
    args = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    if args:
        (hint,) = args
    if dataclasses.is_dataclass(hint):
        return {name: sample_value(t) for name, t in typing.get_type_hints(hint).items()}
    return {float: 0.25, int: 3, str: "poisson"}[hint]


def fields_except(cls, *skip):
    return [f.name for f in dataclasses.fields(cls) if f.name not in skip]


class TestConfigReader:
    """Every parameter a config section may set is read from YAML, by the
    type's own signature."""

    def parse(self, edit):
        node = yaml.safe_load(TINY_CONFIG.format(out="runs"))
        edit(node)
        return fileio.parse_experiment_config(yaml.safe_load(yaml.safe_dump(node)))

    @pytest.mark.parametrize("name", fields_except(ScenarioConfig, "source_specs"))
    def test_every_scenario_field_is_read(self, name):
        value = sample_value(typing.get_type_hints(ScenarioConfig)[name])
        config = self.parse(lambda node: node["scenario"].__setitem__(name, value))
        assert getattr(config.scenario, name) == value

    @pytest.mark.parametrize("name", fields_except(RunConfig, "policy", "budget"))
    def test_every_run_field_is_read(self, name):
        hint = typing.get_type_hints(RunConfig)[name]
        value = sample_value(hint)
        config = self.parse(lambda node: node.__setitem__("run", {name: value}))
        expected = hint(**value) if isinstance(value, dict) else value
        assert getattr(config.make_run_config("bfs", 0.02), name) == expected

    @pytest.mark.parametrize("name", fields_except(MetricConfig))
    def test_partial_metric_keeps_the_other_default(self, name):
        config = self.parse(lambda node: node.__setitem__("run", {"metric": {name: 0.25}}))
        metric = config.make_run_config("bfs", 0.02).metric
        assert metric == dataclasses.replace(MetricConfig(), **{name: 0.25})

    @pytest.mark.parametrize("name", cli._FIT_KEYS)
    def test_every_fit_key_is_read(self, name, clicklog, tmp_path, monkeypatch):
        built = []

        class Recorded(EstimatorState):
            def push_logs(self, events, t_push):
                built.append(self)
                return super().push_logs(events, t_push)

        monkeypatch.setattr(cli, "EstimatorState", Recorded)
        config = tmp_path / "fit.yaml"
        config.write_text(yaml.safe_dump({"fit": {name: 0.25}}))
        argv = ["fit", str(clicklog), "--config", str(config), "--out", str(tmp_path)]
        assert cli.main([*argv, "--quiet"]) == 0
        assert getattr(built[0], name) == 0.25

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda n: n["scenario"].update(mystery=1), "config.scenario.mystery: unknown key"),
            (lambda n: n.update(run={"policy": "bfs"}), "config.run.policy: unknown key"),
            (
                lambda n: n["scenario"].update(budget=True),
                "config.scenario.budget: expected a number, got True",
            ),
            (
                lambda n: n.update(run={"history_size": True}),
                "config.run.history_size: expected an integer, got True",
            ),
            (
                lambda n: n["scenario"]["sources"][1].pop("decay"),
                "config.scenario.sources[1].decay: missing required key",
            ),
            (
                lambda n: n.update(run={"metric": {"window": "1h"}}),
                "config.run.metric.window: expected a number, got '1h'",
            ),
        ],
    )
    def test_errors_name_the_key(self, edit, message):
        with pytest.raises(fileio.ConfigError, match=re.escape(message)):
            self.parse(edit)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda n: n.update(policies=["bfs"], budgets=[math.nan]),
                "policies/budgets ('bfs', nan): budget must be finite and > 0, got nan",
            ),
            (
                lambda n: n.update(policies=["echo-greedy"], budgets=[math.inf]),
                "policies/budgets ('echo-greedy', inf): budget must be finite and > 0, got inf",
            ),
            (
                lambda n: n["scenario"].update(horizon=math.nan),
                "config.scenario: horizon must be finite and > 0, got nan",
            ),
            (
                lambda n: n["scenario"].update(horizon=math.inf),
                "config.scenario: horizon must be finite and > 0, got inf",
            ),
            (
                lambda n: n["scenario"].update(daily_amplitude=math.nan),
                "config.scenario: daily_amplitude must be finite and >= 0, got nan",
            ),
            (
                lambda n: n.update(run={"reschedule_period": math.nan}),
                "config.run: reschedule_period must be finite and > 0, got nan",
            ),
            (
                lambda n: n.update(run={"logs_push_period": math.nan}),
                "config.run: logs_push_period must be finite and > 0, got nan",
            ),
            (
                lambda n: n.update(run={"metric": {"window": math.nan}}),
                "config.run.metric: window must be finite and > 0, got nan",
            ),
            (
                lambda n: n.update(run={"warmup": math.nan}),
                "config.run: warmup must be finite and >= 0, got nan",
            ),
        ],
    )
    def test_non_finite_settings_name_the_key(self, edit, message):
        with pytest.raises(fileio.ConfigError, match=re.escape(message)):
            self.parse(edit)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("fit: {default_decay: 1e-6}", "fit.default_decay: expected a number, got '1e-6'"),
            ("fit: {bin_size: true}", "fit.bin_size: expected a number, got True"),
            ("fit: {history_capacity: 3}", "fit.history_capacity: unknown key"),
            ("fit: {bin_size: .nan}", "fit: bin_size must be finite and > 0, got nan"),
            ("fit: {default_lambda: 0.0}", "fit: default_lambda must be finite and > 0, got 0.0"),
            ("fit: {default_lambda: .inf}", "fit: default_lambda must be finite and > 0, got inf"),
            ("fit: {default_decay: 0.0}", "fit: default_decay must be finite and > 0, got 0.0"),
            ("fit: {default_decay: .nan}", "fit: default_decay must be finite and > 0, got nan"),
            (
                "fit: {default_profit: -1.0}",
                "fit: default_profit must be finite and >= 0, got -1.0",
            ),
            ("fit: {default_profit: .inf}", "fit: default_profit must be finite and >= 0, got inf"),
        ],
    )
    def test_fit_errors_name_the_key(self, text, message, clicklog, tmp_path, capsys):
        config = tmp_path / "fit.yaml"
        config.write_text(text + "\n")
        argv = ["fit", str(clicklog), "--config", str(config), "--out", str(tmp_path)]
        assert cli.main([*argv, "--quiet"]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err


class TestGenerateCommand:
    def test_writes_deterministic_files(self, tmp_path, tiny_config_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code = cli.main(
                ["generate", "--config", str(tiny_config_path), "--out", str(out), "--quiet"]
            )
            assert code == 0
        name = "scenario_s0.csv"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert (out_a / "clicks_s0.csv").read_bytes() == (out_b / "clicks_s0.csv").read_bytes()

    def test_seeds_differ_within_poisson_bounds(self, tmp_path, tiny_config_path):
        counts = {}
        for seed in (1, 2):
            out = tmp_path / f"s{seed}"
            cli.main(
                [
                    "generate",
                    "--config",
                    str(tiny_config_path),
                    "--seed",
                    str(seed),
                    "--out",
                    str(out),
                    "--quiet",
                ]
            )
            scenario = fileio.read_scenario(out / f"scenario_s{seed}.csv")
            counts[seed] = len(scenario.pages)
        assert counts[1] != counts[2]
        expected = (0.002 + 0.001 + 0.001) * 43200.0
        for count in counts.values():
            assert abs(count - expected) <= 5 * math.sqrt(expected)

    def test_missing_config_is_config_error(self):
        assert cli.main(["generate", "--quiet"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "key, value",
        [("lambda_rate", math.nan), ("lambda_rate", math.inf), ("profit_mean", math.inf)]
        + [("decay", math.inf)],
    )
    def test_non_finite_source_is_config_error(self, tmp_path, capsys, key, value):
        node = yaml.safe_load(TINY_CONFIG.format(out=tmp_path))
        node["scenario"]["sources"][0][key] = value
        config = tmp_path / "bad.yaml"
        config.write_text(yaml.safe_dump(node))
        argv = ["generate", "--config", str(config), "--out", str(tmp_path), "--quiet"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        message = f"scenario.sources[0]: {key} must be finite, got {value}"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "scenario_s0.csv").exists()


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("grid")
    config = tmp / "tiny.yaml"
    config.write_text(TINY_CONFIG.format(out=tmp / "out"))
    assert cli.main(["run", "--config", str(config), "--quiet"]) == 0
    return tmp


@pytest.fixture(scope="module")
def clicklog(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fit")
    path = tmp / "clicks.csv"
    fileio.write_click_log(path, tiny_scenario())
    return path


class TestRunAndReportCommands:
    def test_grid_writes_all_files(self, grid):
        names = sorted(p.name for p in (grid / "out").iterdir())
        for policy in ("echo-schedule", "bfs"):
            for seed in (0, 1):
                stem = f"{policy}_b0.02_s{seed}"
                for suffix in (".trace.csv", ".report.csv", ".series.csv"):
                    assert stem + suffix in names

    def test_reports_within_oracle(self, grid):
        for path in (grid / "out").glob("*.report.csv"):
            row = fileio.read_report(path)
            assert row.full_quality <= row.oracle + 1e-12

    def test_rerun_is_byte_identical(self, grid):
        config = grid / "tiny.yaml"
        redo = grid / "redo"
        assert (
            cli.main(
                ["run", "--config", str(config), "--quiet", "--out", str(redo), "--seed", "1"]
            )
            == 0
        )
        for suffix in (".trace.csv", ".report.csv", ".series.csv"):
            name = f"bfs_b0.02_s1{suffix}"
            assert (redo / name).read_bytes() == (grid / "out" / name).read_bytes()

    def test_run_on_pregenerated_scenario_file(self, grid, tmp_path):
        config = grid / "tiny.yaml"
        gen = tmp_path / "gen"
        assert (
            cli.main(
                [
                    "generate",
                    "--config",
                    str(config),
                    "--seed",
                    "1",
                    "--out",
                    str(gen),
                    "--quiet",
                ]
            )
            == 0
        )
        out = tmp_path / "fromfile"
        code = cli.main(
            [
                "run",
                "--config",
                str(config),
                "--scenario",
                str(gen / "scenario_s1.csv"),
                "--out",
                str(out),
                "--quiet",
            ]
        )
        assert code == 0
        name = "bfs_b0.02_s1.report.csv"
        assert (out / name).read_bytes() == (grid / "out" / name).read_bytes()

    def test_jobs_write_the_files_of_a_serial_run(self, grid, tmp_path):
        files = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            argv = ["run", "--config", str(grid / "tiny.yaml"), "--jobs", jobs, "--out", str(out)]
            assert cli.main([*argv, "--quiet"]) == 0
            files[jobs] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(files["1"]) == 12  # 2 policies x 1 budget x 2 seeds x 3 files
        assert files["2"] == files["1"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_first_solve_exits_3(self, tmp_path, capsys, jobs):
        # one source whose prior rate (1/3600) alone exceeds the budget: the
        # first solve fails, and the crawl has no schedule to keep
        node = {
            "scenario": {
                "horizon": 86400.0,
                "sources": [{"lambda_rate": 1 / 3600, "profit_mean": 1.0, "decay": 1e-4}],
            },
            "policies": ["echo-schedule"],
            "budgets": [1e-4],
            "seeds": [0, 1],
            "out": str(tmp_path / "out"),
        }
        config = tmp_path / "starved.yaml"
        config.write_text(yaml.safe_dump(node))
        assert cli.main(["run", "--config", str(config), "--jobs", jobs]) == cli.EXIT_SOLVER
        assert "budget infeasible" in capsys.readouterr().err

    @staticmethod
    def run_in_child(config):
        """`run --config config --quiet` in a child process with a time
        limit and a 2 GiB address-space cap, for configs that would crawl
        without end if they were not rejected first."""

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        return subprocess.run(
            [sys.executable, "-m", "echocrawl", "run", "--config", str(config), "--quiet"],
            capture_output=True,
            text=True,
            timeout=30,
            preexec_fn=cap_memory,
            env=env,
        )

    def test_nan_budget_exits_2_without_crawling(self, tmp_path):
        # A NaN budget makes every fetch slot's time NaN, so a crawl that
        # started would never reach its horizon.
        node = yaml.safe_load(TINY_CONFIG.format(out=tmp_path / "out"))
        node.update(policies=["bfs"], budgets=[math.nan])
        config = tmp_path / "nan.yaml"
        config.write_text(yaml.safe_dump(node))
        done = self.run_in_child(config)
        assert done.returncode == cli.EXIT_CONFIG, done.stderr
        assert "budget must be finite and > 0, got nan" in done.stderr
        assert not (tmp_path / "out").exists()

    def test_budget_above_slot_cap_exits_2_without_crawling(self, tmp_path):
        # 1e300 fetches/s over the 12-hour horizon is 4.32e304 fetch slots,
        # each appending to the trace; the cap is checked for every cell,
        # not just for the run settings, which set no budget here.
        node = yaml.safe_load(TINY_CONFIG.format(out=tmp_path / "out"))
        node.update(policies=["bfs"], budgets=[0.02, 1.0e300])
        config = tmp_path / "huge.yaml"
        config.write_text(yaml.safe_dump(node))
        done = self.run_in_child(config)
        assert done.returncode == cli.EXIT_CONFIG, done.stderr
        assert (
            "config error: policies/budgets ('bfs', 1e+300): budget 1e+300 gives "
            "4.32e+304 fetch slots over the horizon 43200.0; a run may have at most 10000000"
        ) in done.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, edit, flags, message",
        [
            (
                "run",
                lambda n: n.update(run={"warmup": 86400}),
                [],
                "run: warmup 86400.0 must fall inside the horizon 86400.0",
            ),
            (
                "generate",
                lambda n: n["scenario"].update(seed=-1),
                [],
                "scenario: seed must be >= 0, got -1",
            ),
            (
                "run",
                lambda n: n["scenario"].update(seed=-1),
                [],
                "config.scenario: seed must be >= 0, got -1",
            ),
            ("run", lambda n: n.update(seeds=[0, -1]), [], "seeds: seed must be >= 0, got -1"),
            ("generate", lambda n: None, ["--seed", "-1"], "--seed: seed must be >= 0, got -1"),
            ("run", lambda n: None, ["--seed", "-1"], "--seed: seed must be >= 0, got -1"),
        ],
    )
    def test_config_errors_exit_2_before_any_crawl(
        self, command, edit, flags, message, tmp_path, capsys, monkeypatch
    ):
        # a one-day copy of preset:main
        node = cli._load_config("preset:main")
        node["scenario"]["horizon"] = 86400.0
        node["out"] = str(tmp_path / "out")
        edit(node)
        config = tmp_path / "day.yaml"
        config.write_text(yaml.safe_dump(node))

        def never(*args, **kwargs):
            raise AssertionError("a crawl started")

        monkeypatch.setattr(cli, "generate_scenario", never)
        monkeypatch.setattr(cli, "run", never)
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out"), *flags]
        assert cli.main([*argv, "--quiet"]) == cli.EXIT_CONFIG
        assert f"config error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_report_aggregates_and_emits_series(self, grid):
        out = grid / "rep"
        reports = sorted(str(p) for p in (grid / "out").glob("*.report.csv"))
        assert cli.main(["report", *reports, "--out", str(out), "--quiet"]) == 0
        with fileio._Rows(out / "summary.csv", "summary") as table:
            rows = list(table)
        policies = [row[0] for row in rows]
        assert policies == ["bfs", "echo-schedule", "oracle"]
        assert all(row[2] == 2 for row in rows)  # two seeds everywhere
        oracle_row = rows[-1]
        assert oracle_row[1] is None  # oracle is budget-independent
        with fileio._Rows(out / "series.csv", "qseries") as table:
            series_rows = list(table)
        assert {row[0] for row in series_rows} == {"bfs", "echo-schedule"}
        assert len({(row[0], row[2]) for row in series_rows}) == 4

    def test_mixed_fingerprints_rejected(self, grid, tmp_path):
        report = next((grid / "out").glob("*.report.csv"))
        scenario = tiny_scenario(seed=5)
        other = fileio.ReportRow(
            policy="bfs",
            budget=0.02,
            seed=5,
            horizon=100.0,
            warmup=50.0,
            overall_quality=0.1,
            full_quality=0.1,
            total_profit=1.0,
            recrawls=1,
            page_fetches=1,
            idle_slots=0,
            discovered_pages=1,
            missed_pages=0,
            unknown_clicks=0,
            schedule_failures=0,
            oracle=0.2,
            fingerprint="ffffffffffff",
        )
        foreign = tmp_path / "foreign.report.csv"
        fileio.write_table(
            foreign,
            "report",
            {"fingerprint": other.fingerprint},
            [
                (
                    other.policy,
                    other.budget,
                    other.seed,
                    other.horizon,
                    other.warmup,
                    other.overall_quality,
                    other.full_quality,
                    other.total_profit,
                    other.recrawls,
                    other.page_fetches,
                    other.idle_slots,
                    other.discovered_pages,
                    other.missed_pages,
                    other.unknown_clicks,
                    other.schedule_failures,
                    other.oracle,
                )
            ],
        )
        code = cli.main(
            ["report", str(report), str(foreign), "--out", str(tmp_path), "--quiet"]
        )
        assert code == cli.EXIT_CONFIG

    def test_scenario_file_of_another_config_exits_2(self, grid, tmp_path, capsys):
        scenario = tiny_scenario()  # two sources; the config has three
        path = tmp_path / "other.csv"
        fileio.write_scenario(path, scenario)
        out = tmp_path / "out"
        argv = ["run", "--config", str(grid / "tiny.yaml"), "--scenario", str(path)]
        assert cli.main([*argv, "--out", str(out), "--quiet"]) == cli.EXIT_CONFIG
        got = fileio.scenario_fingerprint(scenario.config)
        message = (
            rf"config error: scenario file {re.escape(str(path))} \(fingerprint {got}\) "
            r"does not match the config's scenario \([0-9a-f]{12}\)"
        )
        assert re.search(message, capsys.readouterr().err)
        assert not list(out.iterdir())

    def test_duplicate_seeds_exit_2(self, grid, tmp_path, capsys):
        report = str(grid / "out" / "bfs_b0.02_s0.report.csv")
        argv = ["report", report, report, "--out", str(tmp_path), "--quiet"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        message = "config error: duplicate seeds for policy=bfs budget=0.02: "
        assert message in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()

    def test_report_prints_its_table_unless_quiet(self, grid, tmp_path, capsys):
        reports = sorted(str(p) for p in (grid / "out").glob("*.report.csv"))
        assert cli.main(["report", *reports, "--out", str(tmp_path)]) == 0
        said, header, *lines = capsys.readouterr().out.splitlines()
        assert said == f"wrote {tmp_path / 'summary.csv'} and {tmp_path / 'series.csv'}"
        assert header.split() == ["policy", "budget", "seeds", "mean_Q", "std_Q"]
        with fileio._Rows(tmp_path / "summary.csv", "summary") as table:
            rows = list(table)
        assert len(lines) == len(rows)
        for line, (policy, budget, seeds, mean_q, std_q, *_) in zip(lines, rows):
            btext = "-" if budget is None else repr(budget)
            assert line.split() == [policy, btext, str(seeds), f"{mean_q:.6g}", f"{std_q:.6g}"]
        capsys.readouterr()
        assert cli.main(["report", *reports, "--out", str(tmp_path), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_report_without_series_warns(self, grid, tmp_path, caplog):
        name = "bfs_b0.02_s0.report.csv"
        (tmp_path / name).write_bytes((grid / "out" / name).read_bytes())
        argv = ["report", str(tmp_path / name), "--out", str(tmp_path / "rep"), "--quiet"]
        with caplog.at_level(logging.WARNING, logger="echocrawl.cli"):
            assert cli.main(argv) == 0
        assert "no sibling .series.csv for 1 report file(s)" in caplog.messages
        with fileio._Rows(tmp_path / "rep" / "series.csv", "qseries") as table:
            assert list(table) == []

    def test_spec_example_mean_and_sample_std(self, tmp_path):
        for i, quality in enumerate((0.6, 0.8)):
            report = MetricReport(
                policy="bfs",
                budget=0.1,
                horizon=100.0,
                warmup=50.0,
                overall_quality=quality,
                full_quality=quality,
                total_profit=1.0,
                recrawls=1,
                page_fetches=1,
                idle_slots=0,
                discovered_pages=1,
                missed_pages=0,
                unknown_clicks=0,
                schedule_failures=0,
                series=(),
            )
            fileio.write_report(
                tmp_path / f"r{i}.report.csv", report, seed=i, oracle=0.9, fingerprint="aa"
            )
        out = tmp_path / "rep"
        code = cli.main(
            [
                "report",
                str(tmp_path / "r0.report.csv"),
                str(tmp_path / "r1.report.csv"),
                "--out",
                str(out),
                "--quiet",
            ]
        )
        assert code == 0
        with fileio._Rows(out / "summary.csv", "summary") as table:
            rows = list(table)
        assert float(rows[0][3]) == pytest.approx(0.7)
        assert float(rows[0][4]) == pytest.approx(math.sqrt(0.02))  # sample std

    def test_single_report_has_zero_std(self, tmp_path, grid):
        report = next((grid / "out").glob("bfs_b0.02_s0.report.csv").__iter__())
        out = tmp_path / "one"
        assert cli.main(["report", str(report), "--out", str(out), "--quiet"]) == 0
        with fileio._Rows(out / "summary.csv", "summary") as table:
            rows = list(table)
        assert float(rows[0][4]) == 0.0


class TestFitAndScheduleCommands:
    def test_fit_then_schedule_round_trip(self, clicklog, tmp_path):
        assert cli.main(["fit", str(clicklog), "--out", str(tmp_path), "--quiet"]) == 0
        sources, _ = fileio.read_params(tmp_path / "params.csv")
        assert list(sources) == [0, 1]
        for params in sources.values():
            assert params.lambda_rate > 0
        code = cli.main(
            [
                "schedule",
                str(tmp_path / "params.csv"),
                "--budget",
                "0.004",
                "--out",
                str(tmp_path),
                "--quiet",
            ]
        )
        assert code == 0
        intervals, meta = fileio.read_schedule(tmp_path / "schedule.csv")
        assert set(intervals) == {0, 1}
        assert float(meta["residual"]) <= 1e-6

    def test_schedule_matches_library_bit_for_bit(self, clicklog, tmp_path):
        assert cli.main(["fit", str(clicklog), "--out", str(tmp_path), "--quiet"]) == 0
        items, _ = fileio.read_params(tmp_path / "params.csv")
        assert (
            cli.main(
                [
                    "schedule",
                    str(tmp_path / "params.csv"),
                    "--budget",
                    "0.004",
                    "--out",
                    str(tmp_path),
                    "--quiet",
                ]
            )
            == 0
        )
        intervals, _ = fileio.read_schedule(tmp_path / "schedule.csv")
        assert intervals == solve_schedule(dict(items), 0.004).intervals

    def test_schedule_lists_sources_unless_quiet(self, clicklog, tmp_path, capsys):
        assert cli.main(["fit", str(clicklog), "--out", str(tmp_path), "--quiet"]) == 0
        argv = ["schedule", str(tmp_path / "params.csv"), "--budget", "0.004"]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[1:]] == ["  source 0", "  source 1"]
        assert cli.main([*argv, "--out", str(tmp_path), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_fit_lists_sources_unless_quiet(self, clicklog, tmp_path, capsys):
        argv = ["fit", str(clicklog), "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[1:]] == ["  source 0", "  source 1"]
        assert cli.main([*argv, "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_infeasible_budget_exits_3(self, clicklog, tmp_path, capsys):
        assert cli.main(["fit", str(clicklog), "--out", str(tmp_path), "--quiet"]) == 0
        code = cli.main(
            [
                "schedule",
                str(tmp_path / "params.csv"),
                "--budget",
                "1e-9",
                "--out",
                str(tmp_path),
                "--quiet",
            ]
        )
        assert code == cli.EXIT_SOLVER
        assert "residual" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_schedule_rejects_non_finite_params(self, tmp_path, capsys, cell):
        params = tmp_path / "p.csv"
        params.write_text(
            "# echocrawl-params-v1\nsource_id,lambda_rate,profit,decay\n"
            f"0,{cell},1.0,0.001\n1,0.001,1.0,0.0001\n"
        )
        argv = ["schedule", str(params), "--budget", "0.01", "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_IO
        assert f"p.csv:3: lambda_rate must be finite, got {cell}" in capsys.readouterr().err
        assert not (tmp_path / "schedule.csv").exists()

    @pytest.mark.parametrize(
        "option",
        ["--budget=nan", "--budget=inf", "--budget=-inf", "--budget=0", "--epsilon=nan"]
        + ["--epsilon=inf", "--epsilon=0", "--epsilon=-1e-6"],
    )
    def test_schedule_rejects_budget_or_epsilon_not_finite_and_positive(
        self, tmp_path, capsys, option
    ):
        params = tmp_path / "one.csv"
        fileio.write_params(params, [fileio.ParamsRow(0, SourceParams(0.001, 2.0, 1e-4))])
        argv = ["schedule", str(params), "--budget", "0.004", option, "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "schedule.csv").exists()

    def test_single_source_closed_form_interval(self, tmp_path):
        params = tmp_path / "one.csv"
        fileio.write_params(
            params, [fileio.ParamsRow(0, SourceParams(0.001, 2.0, 1e-4))]
        )
        budget = 0.004
        assert (
            cli.main(
                [
                    "schedule",
                    str(params),
                    "--budget",
                    str(budget),
                    "--out",
                    str(tmp_path),
                    "--quiet",
                ]
            )
            == 0
        )
        intervals, _ = fileio.read_schedule(tmp_path / "schedule.csv")
        # epsilon on the rate maps to a relative interval error of
        # epsilon / (budget - lambda)
        assert intervals[0] == pytest.approx(1.0 / (budget - 0.001), rel=5e-4)
        assert abs(1.0 / intervals[0] + 0.001 - budget) <= 1e-6

    def test_fit_rows_are_the_unbounded_fit(self, clicklog, tmp_path):
        # one fit path: each fitted row is fit_profit_curve on the source's
        # histogram, with no decay floor
        assert cli.main(["fit", str(clicklog), "--out", str(tmp_path), "--quiet"]) == 0
        sources, _ = fileio.read_params(tmp_path / "params.csv")
        log = fileio.read_click_log(clicklog)
        state = EstimatorState()
        for pid in sorted(log.pages):
            state.register_page(pid, *log.pages[pid])
        state.push_logs(log.clicks, max(t for _, t in log.clicks))
        for sid, params in sources.items():
            curve = fit_profit_curve(state.histogram(sid))
            assert (params.profit, params.decay) == (curve.profit, curve.decay)

    @pytest.mark.parametrize("key", ["precision", "max_iterations"])
    def test_fit_rejects_unknown_keys(self, clicklog, tmp_path, key):
        config = tmp_path / "fit.yaml"
        config.write_text(f"fit: {{{key}: 1.0e-8}}\n")
        args = ["fit", str(clicklog), "--config", str(config), "--out", str(tmp_path), "--quiet"]
        assert cli.main(args) == cli.EXIT_CONFIG
        config.write_text("fit: {bin_size: 600.0}\n")
        assert cli.main(args) == 0

    # 1 / (1 / 0.0031) != 0.0031 in doubles: a one-page source must still
    # get the default exactly
    @pytest.mark.parametrize("default", [None, 0.0031])
    def test_fit_lambda_is_the_posterior_rate(self, tmp_path, default):
        # source 0: three pages over 1900 s; source 1: one page, no data
        path = tmp_path / "clicks.csv"
        path.write_text(
            "# echocrawl-clicks-v1\n"
            "page_id,source_id,created_s,click_time_s\n"
            "1,0,100.0,150.0\n2,0,2000.0,\n3,0,900.0,\n4,1,50.0,60.0\n"
        )
        argv = ["fit", str(path), "--out", str(tmp_path), "--quiet"]
        if default is not None:
            config = tmp_path / "fit.yaml"
            config.write_text(f"fit: {{default_lambda: {default!r}}}\n")
            argv += ["--config", str(config)]
        assert cli.main(argv) == 0
        sources, _ = fileio.read_params(tmp_path / "params.csv")
        prior = 1 / 3600 if default is None else default
        assert sources[0].lambda_rate == pytest.approx(3 / (1 / prior + 1900.0), rel=1e-12)
        assert sources[1].lambda_rate == prior

    def test_pages_without_clicks_fit_defaults_with_flag(self, tmp_path):
        path = tmp_path / "quiet.csv"
        path.write_text(
            "# echocrawl-clicks-v1\n"
            "page_id,source_id,created_s,click_time_s\n"
            "1,0,100.0,\n"
            "2,0,900.0,\n"
        )
        assert cli.main(["fit", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        text = (tmp_path / "params.csv").read_text()
        line = text.splitlines()[2]
        assert line.endswith(",no")  # fitted flag off: defaults in use

    def test_fitted_flag_is_the_online_estimators_rule(self, tmp_path):
        # source 0's only click is at page age 0, in the bin that pins every
        # curve to zero; source 1 has one click past it
        path = tmp_path / "first-bin.csv"
        path.write_text(
            "# echocrawl-clicks-v1\n"
            "page_id,source_id,created_s,click_time_s\n"
            "1,0,100.0,100.0\n"
            "2,1,100.0,700.0\n"
        )
        assert cli.main(["fit", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        rows = (tmp_path / "params.csv").read_text().splitlines()[2:]
        assert [row.rsplit(",", 1)[1] for row in rows] == ["no", "yes"]
        state = EstimatorState()
        state.register_page(1, 0, 100.0)
        state.register_page(2, 1, 100.0)
        state.push_logs([(1, 100.0), (2, 700.0)], 700.0)
        assert [state.fittable(0), state.fittable(1)] == [False, True]
        assert state.params_snapshot(700.0)[0].profit == state.default_profit

    def test_empty_log_exits_zero_with_empty_params(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# echocrawl-clicks-v1\npage_id,source_id,created_s,click_time_s\n")
        assert cli.main(["fit", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        assert (tmp_path / "params.csv").read_text().count("\n") == 2

    def test_malformed_row_exits_4(self, tmp_path, capsys):
        path = tmp_path / "mal.csv"
        path.write_text(
            "# echocrawl-clicks-v1\n"
            "page_id,source_id,created_s,click_time_s\n"
            "1,0,zzz,\n"
        )
        assert cli.main(["fit", str(path), "--quiet"]) == cli.EXIT_IO
        assert ":3" in capsys.readouterr().err

    def test_missing_file_exits_4(self, tmp_path):
        assert cli.main(["fit", str(tmp_path / "nope.csv"), "--quiet"]) == cli.EXIT_IO


class TestDiscoverAndCoverCommands:
    def test_discover_writes_source_list(self, tmp_path):
        snaps = [
            HostSnapshot(0, 100, [(101, 4 * 86400.0), (102, 10.0)]),
            HostSnapshot(1, 200, []),
        ]
        fileio.write_snapshots(tmp_path / "snaps.csv", snaps)
        code = cli.main(
            ["discover", str(tmp_path / "snaps.csv"), "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        lines = (tmp_path / "sources.csv").read_text().splitlines()
        assert lines[2:] == ["100", "101", "200"]

    def test_cover_reaches_target(self, tmp_path):
        corpus = LinkCorpus([(1, 10, 0.0), (1, 11, 1.0), (2, 12, 2.0), (3, 12, 3.0)])
        fileio.write_corpus(tmp_path / "corpus.csv", corpus)
        code = cli.main(
            [
                "cover",
                str(tmp_path / "corpus.csv"),
                "--target",
                "1.0",
                "--out",
                str(tmp_path),
                "--quiet",
            ]
        )
        assert code == 0
        lines = (tmp_path / "cover.csv").read_text().splitlines()
        assert len(lines) == 2 + 2  # header + columns + two picks
        assert lines[-1].endswith("1.0")

    @pytest.mark.parametrize("min_age", ["nan", "-1"])
    def test_bad_min_age_exits_2(self, min_age, tmp_path, capsys):
        fileio.write_snapshots(tmp_path / "snaps.csv", [HostSnapshot(0, 100, [(101, 5.0)])])
        argv = ["discover", str(tmp_path / "snaps.csv"), "--min-age", min_age, "--quiet"]
        assert cli.main([*argv, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert f"--min-age: min_age must be >= 0, got {float(min_age)}" in capsys.readouterr().err
        assert not (tmp_path / "sources.csv").exists()

    def test_bad_target_exits_2(self, tmp_path):
        corpus = LinkCorpus([(1, 10, 0.0)])
        fileio.write_corpus(tmp_path / "corpus.csv", corpus)
        code = cli.main(
            ["cover", str(tmp_path / "corpus.csv"), "--target", "0", "--quiet"]
        )
        assert code == cli.EXIT_CONFIG


class TestPresets:
    @pytest.mark.parametrize("name", ["main", "starved"])
    def test_bundled_presets_parse(self, name):
        node = cli._load_config(f"preset:{name}")
        config = fileio.parse_experiment_config(node)
        assert config.seeds and config.policies

    def test_main_preset_shape(self):
        config = fileio.parse_experiment_config(cli._load_config("preset:main"))
        assert len(config.scenario.source_specs) == 30
        assert len(config.budgets) == 3
        saturation = 2 * sum(s.lambda_rate for s in config.scenario.source_specs)
        for budget, fraction in zip(config.budgets, (0.05, 0.10, 0.20)):
            assert budget == pytest.approx(fraction * saturation, rel=1e-3)

    def test_starved_preset_has_near_zero_majority(self):
        config = fileio.parse_experiment_config(cli._load_config("preset:starved"))
        specs = config.scenario.source_specs
        near_zero = sum(1 for s in specs if s.profit_mean <= 0.01)
        assert near_zero / len(specs) == pytest.approx(0.7)

    def test_unknown_preset_is_config_error(self):
        with pytest.raises(fileio.ConfigError, match="unknown preset"):
            cli._load_config("preset:nope")


class TestEntryPoint:
    """``python -m echocrawl`` runs the CLI and exits with its code."""

    @staticmethod
    def module(*argv):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        return subprocess.run(
            [sys.executable, "-m", "echocrawl", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )

    def test_help_exits_0(self):
        done = self.module("--help")
        assert done.returncode == 0
        assert done.stdout.startswith("usage: ")

    def test_schedule_without_budget_exits_2(self, tmp_path):
        done = self.module("schedule", str(tmp_path / "params.csv"))
        assert done.returncode == 2
        assert "the following arguments are required: --budget" in done.stderr
