"""The row codec behind every table file: each kind with a reader round-trips
bit for bit through its writer, rewriting what was read gives the same bytes,
and a malformed cell is reported with its line and column."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from echocrawl import fileio
from echocrawl.core import CrawlPage, CrawlRecord, RecrawlSource, SourceParams
from echocrawl.discovery import HostSnapshot, LinkCorpus
from echocrawl.optimizer import Schedule
from echocrawl.simulator import (
    LinkEvent,
    MetricReport,
    PageGroundTruth,
    Scenario,
    ScenarioConfig,
    SourceSpec,
)

SETTINGS = settings(max_examples=40, deadline=None)
ids = st.integers(min_value=0, max_value=10**12)
counts = st.integers(min_value=0, max_value=10**9)
reals = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-300, allow_nan=False, allow_infinity=False)
anything = st.floats(allow_nan=False)


def rewrite_is_identical(path, kind):
    """Rewriting the typed rows and header that ``_Rows`` read gives the
    file's own bytes back."""
    with fileio._Rows(path, kind) as table:
        rows, meta = list(table), table.meta
    again = path.with_name("again.csv")
    fileio.write_table(again, kind, meta, rows)
    return again.read_bytes() == path.read_bytes()


@st.composite
def scenarios(draw):
    specs = draw(st.lists(st.builds(SourceSpec, reals, reals, positive), min_size=1, max_size=3))
    config = ScenarioConfig(
        tuple(specs),
        horizon=draw(positive),
        link_window=draw(st.integers(min_value=1, max_value=100)),
        budget=draw(positive),
        seed=draw(counts),
        daily_amplitude=draw(st.floats(min_value=0.0, max_value=0.5)),
        weekly_amplitude=draw(st.floats(min_value=0.0, max_value=0.5)),
        click_distribution=draw(st.sampled_from(("geometric", "poisson"))),
    )
    events, pages = [], {}
    for pid in draw(st.lists(ids, unique=True, max_size=6)):
        sid = draw(st.integers(min_value=0, max_value=len(specs) - 1))
        created = draw(st.floats(min_value=0.0, max_value=1e12))
        vanish = draw(st.floats(min_value=created, exclude_min=True, allow_nan=False))
        times = sorted(draw(st.lists(st.floats(min_value=created, max_value=1e15), max_size=4)))
        events.append(LinkEvent(pid, sid, created, vanish))
        pages[pid] = PageGroundTruth(pid, sid, created, tuple(times))
    clicks = sorted((t, pid) for pid, page in pages.items() for t in page.click_times)
    return Scenario(config, tuple(events), pages, tuple(clicks))


class TestRoundTrips:
    @SETTINGS
    @given(scenarios())
    def test_scenario(self, tmp_path_factory, scenario):
        path = tmp_path_factory.mktemp("rt") / "scenario.csv"
        fileio.write_scenario(path, scenario)
        assert fileio.read_scenario(path) == scenario
        assert rewrite_is_identical(path, "scenario")

    @SETTINGS
    @given(scenarios())
    def test_click_log(self, tmp_path_factory, scenario):
        path = tmp_path_factory.mktemp("rt") / "clicks.csv"
        fileio.write_click_log(path, scenario)
        log = fileio.read_click_log(path)
        assert log.pages == {pid: (p.source, p.created) for pid, p in scenario.pages.items()}
        assert log.clicks == tuple(
            (pid, t) for pid in sorted(scenario.pages) for t in scenario.pages[pid].click_times
        )
        assert rewrite_is_identical(path, "clicks")

    @SETTINGS
    @given(
        st.lists(
            st.one_of(
                st.builds(CrawlRecord, anything, st.builds(RecrawlSource, ids)),
                st.builds(CrawlRecord, anything, st.builds(CrawlPage, ids), reals),
            ),
            max_size=8,
        )
    )
    def test_trace(self, tmp_path_factory, trace):
        path = tmp_path_factory.mktemp("rt") / "x.trace.csv"
        fileio.write_trace(path, trace, {"policy": "bfs", "seed": 3})
        assert fileio.read_trace(path) == (trace, {"policy": "bfs", "seed": "3"})
        assert rewrite_is_identical(path, "trace")

    @SETTINGS
    @given(
        st.builds(
            MetricReport,
            policy=st.sampled_from(("bfs", "echo-schedule", "fixed-quota")),
            budget=positive,
            horizon=positive,
            warmup=reals,
            overall_quality=anything,
            full_quality=anything,
            total_profit=reals,
            recrawls=counts,
            page_fetches=counts,
            idle_slots=counts,
            discovered_pages=counts,
            missed_pages=counts,
            unknown_clicks=counts,
            schedule_failures=counts,
            series=st.just(()),
        ),
        counts,
        anything,
    )
    def test_report(self, tmp_path_factory, report, seed, oracle):
        path = tmp_path_factory.mktemp("rt") / "x.report.csv"
        fileio.write_report(path, report, seed, oracle, "0123abcd")
        row = fileio.read_report(path)
        for name in ("policy", "budget", "horizon", "warmup", "total_profit", "recrawls",
                     "idle_slots", "missed_pages", "schedule_failures"):
            assert getattr(row, name) == getattr(report, name)
        assert (row.seed, row.oracle, row.fingerprint) == (seed, oracle, "0123abcd")
        assert rewrite_is_identical(path, "report")

    @SETTINGS
    @given(st.lists(st.tuples(anything, anything), max_size=8))
    def test_series(self, tmp_path_factory, series):
        path = tmp_path_factory.mktemp("rt") / "q.csv"
        fileio.write_series(path, series, {"seed": 0})
        assert fileio.read_series(path) == (series, {"seed": "0"})
        assert rewrite_is_identical(path, "series")

    @SETTINGS
    @given(
        st.lists(
            st.builds(
                fileio.ParamsRow,
                ids,
                st.builds(SourceParams, reals, reals, positive),
                st.none() | counts,
                st.none() | counts,
                st.none() | st.booleans(),
            ),
            min_size=1,
            max_size=8,
            unique_by=lambda row: row.source_id,
        )
    )
    def test_params(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("rt") / "params.csv"
        fileio.write_params(path, rows, {"t_push": 1.5})
        items, _ = fileio.read_params(path)
        assert items == [(row.source_id, row.params) for row in rows]
        assert rewrite_is_identical(path, "params")

    @SETTINGS
    @given(
        st.dictionaries(ids, positive | st.just(float("inf")), max_size=8),
        anything,
        positive,
        anything,
    )
    def test_schedule(self, tmp_path_factory, intervals, omega, budget, residual):
        path = tmp_path_factory.mktemp("rt") / "schedule.csv"
        fileio.write_schedule(path, Schedule(intervals, omega, budget, residual), 1e-6)
        back, meta = fileio.read_schedule(path)
        assert back == intervals
        assert float(meta["omega"]) == omega
        assert rewrite_is_identical(path, "schedule")

    @SETTINGS
    @given(
        st.lists(st.tuples(ids, ids), unique=True, max_size=5),
        st.lists(st.lists(st.tuples(ids, reals), max_size=4, unique_by=lambda p: p[0])),
    )
    def test_snapshots(self, tmp_path_factory, keys, links):
        snaps = [
            HostSnapshot(host, main, [(pid, age) for pid, age in pages if pid != main])
            for (host, main), pages in zip(keys, links + [[]] * len(keys))
        ]
        path = tmp_path_factory.mktemp("rt") / "snapshots.csv"
        fileio.write_snapshots(path, snaps)
        assert fileio.read_snapshots(path) == snaps
        assert rewrite_is_identical(path, "snapshots")

    @SETTINGS
    @given(st.lists(st.tuples(ids, ids, reals), max_size=8, unique_by=lambda l: l[:2]))
    def test_corpus(self, tmp_path_factory, links):
        path = tmp_path_factory.mktemp("rt") / "corpus.csv"
        fileio.write_corpus(path, LinkCorpus(links))
        assert fileio.read_corpus(path) == LinkCorpus(links)
        assert rewrite_is_identical(path, "corpus")


COLUMNS = {
    "schedule": "source_id,interval_s",
    "params": "source_id,lambda_rate,profit,decay,pages,clicks,fitted",
    "trace": "time_s,action,target_id,realized_profit",
    "scenario": "record,id,source_id,lambda_rate,profit_mean,decay,created_s,vanish_s,"
    "click_times_s",
}


def table_file(path, kind, *rows):
    columns = COLUMNS[kind]
    path.write_text(f"# echocrawl-{kind}-v1\n{columns}\n" + "".join(f"{r}\n" for r in rows))
    return path


class TestCellErrors:
    def test_int_cell(self, tmp_path):
        path = table_file(tmp_path / "bad.csv", "schedule", "0,5.0", "x1,5.0")
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.read_schedule(path)
        assert str(err.value).endswith("bad.csv:4: column source_id: not an integer: 'x1'")

    def test_float_cell(self, tmp_path):
        path = table_file(tmp_path / "bad.csv", "schedule", "", "0,fast")
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.read_schedule(path)
        assert str(err.value).endswith("bad.csv:4: column interval_s: not a number: 'fast'")

    def test_optional_cells(self, tmp_path):
        good = "0,0.5,1.0,0.001"
        path = table_file(tmp_path / "bad.csv", "params", good, "1,0.5,1.0,0.001,many,,")
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.read_params(path)
        assert str(err.value).endswith("bad.csv:4: column pages: not an integer: 'many'")
        table_file(path, "params", good, "1,0.5,1.0,0.001,2,1,maybe")
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.read_params(path)
        assert str(err.value).endswith("bad.csv:4: column fitted: not yes or no: 'maybe'")

    def test_click_times_inside_a_scenario_page_record(self, tmp_path):
        path = scenario_file(tmp_path, "page,0,0,,,,10.0,20.0,11.0;x")
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.read_scenario(path)
        assert str(err.value).endswith("bad.csv:4: column click_times_s: not a number: '11.0;x'")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("source,1,,,1.0,0.001,,,", "column lambda_rate: not a number: ''"),
            ("source,1,,0.5,,0.001,,,", "column profit_mean: not a number: ''"),
            ("page,0,,,,,10.0,20.0,", "column source_id: not an integer: ''"),
            ("page,0,0,,,,,20.0,", "column created_s: not a number: ''"),
            ("page,0,0,,,,10.0,,", "column vanish_s: not a number: ''"),
        ],
    )
    def test_blank_required_cell_in_a_scenario_record(self, tmp_path, row, message):
        path = scenario_file(tmp_path, row)
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.read_scenario(path)
        assert str(err.value).endswith(f"bad.csv:4: {message}")

    def test_bad_source_record_reports_its_line(self, tmp_path):
        path = scenario_file(tmp_path, "source,1,,-0.5,1.0,0.001,,,")
        with pytest.raises(fileio.FileFormatError, match="bad.csv:4: lambda_rate must be >= 0"):
            fileio.read_scenario(path)

    def test_params_take_four_to_seven_cells(self, tmp_path):
        path = table_file(tmp_path / "p.csv", "params", "0,0.5,1.0,0.001", "1,0.5,1.0,0.001,3")
        assert [sid for sid, _ in fileio.read_params(path)[0]] == [0, 1]
        for row in ("2,0.5,1.0", "2,0.5,1.0,0.001,3,1,yes,9"):
            table_file(path, "params", "0,0.5,1.0,0.001", row)
            with pytest.raises(fileio.FileFormatError, match="p.csv:4: expected 4 to 7 cells"):
                fileio.read_params(path)

    def test_header_error_closes_the_file(self, tmp_path):
        path = table_file(tmp_path / "bad.csv", "trace")
        with pytest.raises(fileio.FileFormatError, match="bad.csv:1"):
            fileio.read_report(path)
        gc.collect()


def scenario_file(tmp_path, row):
    header = (
        "# echocrawl-scenario-v1 seed=0 horizon=100.0 link_window=5 budget=0.1 sources=1"
    )
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\n{COLUMNS['scenario']}\nsource,0,,0.5,1.0,0.001,,,\n{row}\n")
    return path
