"""CSV and YAML persistence for scenarios, logs, traces, and reports.

Every tabular file starts with a one-line versioned header,

    # echocrawl-<kind>-v1 key=value key=value ...

followed by a CSV column header and data rows.  Readers check kind and
version before touching rows and report malformed content with its line
number; writers format floats with repr() so values survive a round trip
bit for bit and identical inputs produce identical bytes.

Configs are YAML mappings.  ``parse_experiment_config`` turns one into an
ExperimentConfig: a scenario plus a (policy x budget x seed) run grid.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import yaml

from .core import (
    CrawlPage,
    CrawlRecord,
    CrawlTrace,
    MetricConfig,
    PageId,
    RecrawlSource,
    Seconds,
    SourceId,
    SourceParams,
)
from .discovery import HostSnapshot, LinkCorpus
from .optimizer import Schedule
from .policies import POLICY_NAMES
from .simulator import (
    LinkEvent,
    PageGroundTruth,
    RunConfig,
    Scenario,
    ScenarioConfig,
    SourceSpec,
)

logger = logging.getLogger(__name__)

FORMAT_VERSION = 1
_PREFIX = "echocrawl"

_COLUMNS = {
    "scenario": (
        "record",
        "id",
        "source_id",
        "lambda_rate",
        "profit_mean",
        "decay",
        "created_s",
        "vanish_s",
        "click_times_s",
    ),
    "clicks": ("page_id", "source_id", "created_s", "click_time_s"),
    "trace": ("time_s", "action", "target_id", "realized_profit"),
    "report": (
        "policy",
        "budget",
        "seed",
        "horizon_s",
        "warmup_s",
        "overall_quality",
        "full_quality",
        "total_profit",
        "recrawls",
        "page_fetches",
        "idle_slots",
        "discovered_pages",
        "missed_pages",
        "unknown_clicks",
        "schedule_failures",
        "oracle",
    ),
    "series": ("time_s", "quality"),
    "params": (
        "source_id",
        "lambda_rate",
        "profit",
        "decay",
        "pages",
        "clicks",
        "fitted",
    ),
    "schedule": ("source_id", "interval_s"),
    "snapshots": ("host", "main_page_id", "page_id", "age_s"),
    "corpus": ("source_page_id", "page_id", "time_s"),
    "cover": ("rank", "source_page_id", "covered_pages", "coverage_fraction"),
    "sourcelist": ("page_id",),
    "qseries": ("policy", "budget", "seed", "time_s", "quality"),
    "summary": (
        "policy",
        "budget",
        "seeds",
        "mean_overall_quality",
        "std_overall_quality",
        "mean_total_profit",
        "mean_recrawls",
        "mean_page_fetches",
    ),
}


class FileFormatError(ValueError):
    """A data file failed structural validation; line 0 means the header."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


class ConfigError(ValueError):
    """A YAML config is missing, malformed, or semantically invalid."""


# ---------------------------------------------------------------------------
# header and row plumbing


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        # float() first: a subclass such as numpy.float64 has its own repr
        # ("np.float64(...)"), which no reader parses.
        return repr(float(value))
    text = str(value)
    if any(ch.isspace() for ch in text) or "," in text:
        raise ValueError(f"header/cell value may not contain spaces: {text!r}")
    return text


def _write_table(
    fh: IO[str], kind: str, meta: Mapping[str, object], rows: Iterable[Sequence]
) -> None:
    pairs = " ".join(f"{k}={_fmt(v)}" for k, v in meta.items())
    fh.write(f"# {_PREFIX}-{kind}-v{FORMAT_VERSION}" + (f" {pairs}" if pairs else "") + "\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(_COLUMNS[kind])
    for row in rows:
        writer.writerow([_fmt(cell) if cell is not None else "" for cell in row])


def write_table(path, kind: str, meta: Mapping[str, object], rows: Iterable[Sequence]) -> None:
    """Write one versioned CSV table; parents are created as needed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        _write_table(fh, kind, meta, rows)


class _Rows:
    """Line-number-aware row iterator over a versioned CSV table."""

    def __init__(self, path, kind: str):
        self.path = Path(path)
        self.kind = kind
        self.line = 0

    def __enter__(self) -> "_Rows":
        self._fh = self.path.open("r", encoding="utf-8", newline="")
        header = self._fh.readline().rstrip("\n")
        self.line = 1
        tag = f"# {_PREFIX}-{self.kind}-v{FORMAT_VERSION}"
        if header != tag and not header.startswith(tag + " "):
            raise FileFormatError(
                self.path, 1, f"expected header starting with {tag!r}, got {header!r}"
            )
        self.meta: "dict[str, str]" = {}
        for part in header[len(tag) :].split():
            key, sep, value = part.partition("=")
            if not sep:
                raise FileFormatError(self.path, 1, f"malformed header field {part!r}")
            self.meta[key] = value
        columns = self._fh.readline().rstrip("\n")
        self.line = 2
        expected = _COLUMNS[self.kind]
        got = tuple(columns.split(","))
        if got[: len(expected)] != expected and got != expected[: len(got)]:
            raise FileFormatError(
                self.path, 2, f"expected columns {','.join(expected)}, got {columns!r}"
            )
        self._reader = csv.reader(self._fh)
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def __iter__(self):
        for row in self._reader:
            self.line += 1
            if not row:
                continue
            yield row

    def fail(self, message: str) -> FileFormatError:
        return FileFormatError(self.path, self.line, message)

    def to_float(self, cell: str, column: str) -> float:
        try:
            return float(cell)
        except ValueError:
            raise self.fail(f"column {column}: not a number: {cell!r}") from None

    def to_int(self, cell: str, column: str) -> int:
        try:
            return int(cell)
        except ValueError:
            raise self.fail(f"column {column}: not an integer: {cell!r}") from None


# ---------------------------------------------------------------------------
# scenarios and click logs


def scenario_fingerprint(config: ScenarioConfig) -> str:
    """Digest of everything defining the scenario family except the seed.

    Runs over different seeds of one config share the fingerprint, so report
    aggregation can verify it never mixes distinct scenario families.
    """
    parts = [
        repr(float(config.horizon)),
        repr(int(config.link_window)),
        repr(float(config.daily_amplitude)),
        repr(float(config.weekly_amplitude)),
        config.click_distribution,
    ]
    parts.extend(
        repr((s.lambda_rate, s.profit_mean, s.decay)) for s in config.source_specs
    )
    return hashlib.sha1("|".join(parts).encode("utf-8")).hexdigest()[:12]


def _scenario_meta(scenario: Scenario) -> "dict[str, object]":
    config = scenario.config
    return {
        "fingerprint": scenario_fingerprint(config),
        "seed": config.seed,
        "horizon": float(config.horizon),
        "link_window": config.link_window,
        "budget": float(config.budget),
        "daily_amplitude": float(config.daily_amplitude),
        "weekly_amplitude": float(config.weekly_amplitude),
        "click_distribution": config.click_distribution,
        "sources": len(config.source_specs),
        "pages": len(scenario.pages),
    }


def write_scenario(path, scenario: Scenario) -> None:
    """Persist config, link events, and page click histories as one table."""

    def rows():
        for sid, spec in enumerate(scenario.config.source_specs):
            yield (
                "source",
                sid,
                None,
                spec.lambda_rate,
                spec.profit_mean,
                spec.decay,
                None,
                None,
                None,
            )
        for event in scenario.events:
            page = scenario.pages[event.page]
            yield (
                "page",
                event.page,
                event.source,
                None,
                None,
                None,
                page.created,
                event.vanish,
                ";".join(repr(t) for t in page.click_times),
            )

    write_table(path, "scenario", _scenario_meta(scenario), rows())


def read_scenario(path) -> Scenario:
    """Rebuild a Scenario from ``write_scenario`` output."""
    specs: "dict[int, SourceSpec]" = {}
    events: "list[LinkEvent]" = []
    pages: "dict[PageId, PageGroundTruth]" = {}
    clicks: "list[tuple[Seconds, PageId]]" = []
    with _Rows(path, "scenario") as table:
        meta = table.meta
        for row in table:
            if len(row) != len(_COLUMNS["scenario"]):
                raise table.fail(f"expected {len(_COLUMNS['scenario'])} cells, got {len(row)}")
            record = row[0]
            if record == "source":
                sid = table.to_int(row[1], "id")
                if sid in specs:
                    raise table.fail(f"duplicate source id {sid}")
                specs[sid] = SourceSpec(
                    lambda_rate=table.to_float(row[3], "lambda_rate"),
                    profit_mean=table.to_float(row[4], "profit_mean"),
                    decay=table.to_float(row[5], "decay"),
                )
            elif record == "page":
                pid = table.to_int(row[1], "id")
                sid = table.to_int(row[2], "source_id")
                created = table.to_float(row[6], "created_s")
                vanish = table.to_float(row[7], "vanish_s")
                times = tuple(
                    table.to_float(cell, "click_times_s")
                    for cell in row[8].split(";")
                    if cell
                )
                if pid in pages:
                    raise table.fail(f"duplicate page id {pid}")
                try:
                    events.append(LinkEvent(pid, sid, created, vanish))
                    pages[pid] = PageGroundTruth(pid, sid, created, times)
                except ValueError as exc:
                    raise table.fail(str(exc)) from None
                clicks.extend((t, pid) for t in times)
            else:
                raise table.fail(f"unknown record kind {record!r}")
        try:
            n = int(meta.get("sources", len(specs)))
            config = ScenarioConfig(
                source_specs=tuple(specs[sid] for sid in range(n)),
                horizon=float(meta["horizon"]),
                link_window=int(meta["link_window"]),
                budget=float(meta["budget"]),
                seed=int(meta["seed"]),
                daily_amplitude=float(meta.get("daily_amplitude", "0")),
                weekly_amplitude=float(meta.get("weekly_amplitude", "0")),
                click_distribution=meta.get("click_distribution", "geometric"),
            )
        except (KeyError, ValueError) as exc:
            raise FileFormatError(path, 1, f"bad scenario header: {exc}") from None
        for event in events:
            if event.source >= n:
                raise FileFormatError(
                    path, 1, f"page {event.page} references unknown source {event.source}"
                )
    clicks.sort()
    return Scenario(config, tuple(events), pages, tuple(clicks))


def write_click_log(path, scenario: Scenario) -> None:
    """Write per-click rows; pages without clicks keep one blank-click row.

    The blank row carries the page's existence so an offline fit sees the
    true page count, not just the clicked subset.
    """

    def rows():
        for pid in sorted(scenario.pages):
            page = scenario.pages[pid]
            if not page.click_times:
                yield (pid, page.source, page.created, None)
            for t in page.click_times:
                yield (pid, page.source, page.created, t)

    meta = {
        "fingerprint": scenario_fingerprint(scenario.config),
        "seed": scenario.config.seed,
        "horizon": float(scenario.config.horizon),
        "pages": len(scenario.pages),
    }
    write_table(path, "clicks", meta, rows())


@dataclass(frozen=True)
class ClickLog:
    """Parsed click-log file: page registry plus the raw click stream."""

    pages: "dict[PageId, tuple[SourceId, Seconds]]"
    clicks: "tuple[tuple[PageId, Seconds], ...]"
    meta: "Mapping[str, str]" = field(default_factory=dict)

    @property
    def sources(self) -> "list[SourceId]":
        return sorted({sid for sid, _ in self.pages.values()})


def read_click_log(path) -> ClickLog:
    pages: "dict[PageId, tuple[SourceId, Seconds]]" = {}
    clicks: "list[tuple[PageId, Seconds]]" = []
    with _Rows(path, "clicks") as table:
        meta = dict(table.meta)
        for row in table:
            if len(row) != 4:
                raise table.fail(f"expected 4 cells, got {len(row)}")
            pid = table.to_int(row[0], "page_id")
            sid = table.to_int(row[1], "source_id")
            created = table.to_float(row[2], "created_s")
            known = pages.get(pid)
            if known is not None and known != (sid, created):
                raise table.fail(f"page {pid} re-declared with different source/created")
            pages[pid] = (sid, created)
            if row[3]:
                t = table.to_float(row[3], "click_time_s")
                if t < created:
                    raise table.fail(f"click at {t} precedes page creation {created}")
                clicks.append((pid, t))
    return ClickLog(pages, tuple(clicks), meta)


# ---------------------------------------------------------------------------
# traces, reports, series


def write_trace(path, trace: CrawlTrace, meta: Mapping[str, object]) -> None:
    def rows():
        for rec in trace:
            if isinstance(rec.action, RecrawlSource):
                yield (rec.time, "recrawl", rec.action.source, rec.realized_profit)
            else:
                yield (rec.time, "page", rec.action.page, rec.realized_profit)

    write_table(path, "trace", meta, rows())


def read_trace(path) -> "tuple[list[CrawlRecord], dict[str, str]]":
    records: "list[CrawlRecord]" = []
    with _Rows(path, "trace") as table:
        meta = dict(table.meta)
        for row in table:
            if len(row) != 4:
                raise table.fail(f"expected 4 cells, got {len(row)}")
            t = table.to_float(row[0], "time_s")
            target = table.to_int(row[2], "target_id")
            profit = table.to_float(row[3], "realized_profit")
            if row[1] == "recrawl":
                action = RecrawlSource(target)
            elif row[1] == "page":
                action = CrawlPage(target)
            else:
                raise table.fail(f"unknown action {row[1]!r}")
            try:
                records.append(CrawlRecord(t, action, profit))
            except ValueError as exc:
                raise table.fail(str(exc)) from None
    return records, meta


def write_report(path, report, seed: int, oracle: float, fingerprint: str) -> None:
    """Persist one run's MetricReport as a single-row table."""
    row = (
        report.policy,
        report.budget,
        seed,
        report.horizon,
        report.warmup,
        report.overall_quality,
        report.full_quality,
        report.total_profit,
        report.recrawls,
        report.page_fetches,
        report.idle_slots,
        report.discovered_pages,
        report.missed_pages,
        report.unknown_clicks,
        report.schedule_failures,
        oracle,
    )
    write_table(path, "report", {"fingerprint": fingerprint}, [row])


@dataclass(frozen=True)
class ReportRow:
    """One run's metrics as read back from a report file."""

    policy: str
    budget: float
    seed: int
    horizon: Seconds
    warmup: Seconds
    overall_quality: float
    full_quality: float
    total_profit: float
    recrawls: int
    page_fetches: int
    idle_slots: int
    discovered_pages: int
    missed_pages: int
    unknown_clicks: int
    schedule_failures: int
    oracle: float
    fingerprint: str


def read_report(path) -> ReportRow:
    with _Rows(path, "report") as table:
        rows = list(table)
        if len(rows) != 1:
            raise FileFormatError(path, table.line, f"expected 1 data row, got {len(rows)}")
        row = rows[0]
        if len(row) != len(_COLUMNS["report"]):
            raise table.fail(f"expected {len(_COLUMNS['report'])} cells, got {len(row)}")
        return ReportRow(
            policy=row[0],
            budget=table.to_float(row[1], "budget"),
            seed=table.to_int(row[2], "seed"),
            horizon=table.to_float(row[3], "horizon_s"),
            warmup=table.to_float(row[4], "warmup_s"),
            overall_quality=table.to_float(row[5], "overall_quality"),
            full_quality=table.to_float(row[6], "full_quality"),
            total_profit=table.to_float(row[7], "total_profit"),
            recrawls=table.to_int(row[8], "recrawls"),
            page_fetches=table.to_int(row[9], "page_fetches"),
            idle_slots=table.to_int(row[10], "idle_slots"),
            discovered_pages=table.to_int(row[11], "discovered_pages"),
            missed_pages=table.to_int(row[12], "missed_pages"),
            unknown_clicks=table.to_int(row[13], "unknown_clicks"),
            schedule_failures=table.to_int(row[14], "schedule_failures"),
            oracle=table.to_float(row[15], "oracle"),
            fingerprint=table.meta.get("fingerprint", ""),
        )


def write_series(
    path, series: Iterable["tuple[Seconds, float]"], meta: Mapping[str, object]
) -> None:
    write_table(path, "series", meta, series)


def read_series(path) -> "tuple[list[tuple[float, float]], dict[str, str]]":
    points: "list[tuple[float, float]]" = []
    with _Rows(path, "series") as table:
        meta = dict(table.meta)
        for row in table:
            if len(row) != 2:
                raise table.fail(f"expected 2 cells, got {len(row)}")
            points.append(
                (table.to_float(row[0], "time_s"), table.to_float(row[1], "quality"))
            )
    return points, meta


# ---------------------------------------------------------------------------
# source parameters and schedules


@dataclass(frozen=True)
class ParamsRow:
    """One source's parameters, optionally annotated with fit provenance."""

    source_id: SourceId
    params: SourceParams
    pages: "int | None" = None
    clicks: "int | None" = None
    fitted: "bool | None" = None


def write_params(path, rows: Iterable[ParamsRow], meta: Mapping[str, object] = ()) -> None:
    def cells():
        for row in rows:
            yield (
                row.source_id,
                row.params.lambda_rate,
                row.params.profit,
                row.params.decay,
                row.pages,
                row.clicks,
                None if row.fitted is None else row.fitted,
            )

    write_table(path, "params", dict(meta), cells())


def read_params(path) -> "tuple[list[tuple[SourceId, SourceParams]], dict[str, str]]":
    items: "list[tuple[SourceId, SourceParams]]" = []
    seen: "set[SourceId]" = set()
    with _Rows(path, "params") as table:
        meta = dict(table.meta)
        for row in table:
            if len(row) < 4:
                raise table.fail(f"expected at least 4 cells, got {len(row)}")
            sid = table.to_int(row[0], "source_id")
            if sid in seen:
                raise table.fail(f"duplicate source id {sid}")
            seen.add(sid)
            try:
                params = SourceParams(
                    lambda_rate=table.to_float(row[1], "lambda_rate"),
                    profit=table.to_float(row[2], "profit"),
                    decay=table.to_float(row[3], "decay"),
                )
            except ValueError as exc:
                raise table.fail(str(exc)) from None
            items.append((sid, params))
    if not items:
        raise FileFormatError(path, 2, "params file has no sources")
    return items, meta


def write_schedule(path, schedule: Schedule, epsilon: float) -> None:
    meta = {
        "budget": schedule.budget,
        "omega": schedule.omega,
        "residual": schedule.residual,
        "epsilon": epsilon,
    }
    rows = ((sid, schedule.intervals[sid]) for sid in sorted(schedule.intervals))
    write_table(path, "schedule", meta, rows)


def read_schedule(path) -> "tuple[dict[SourceId, float], dict[str, str]]":
    intervals: "dict[SourceId, float]" = {}
    with _Rows(path, "schedule") as table:
        meta = dict(table.meta)
        for row in table:
            if len(row) != 2:
                raise table.fail(f"expected 2 cells, got {len(row)}")
            sid = table.to_int(row[0], "source_id")
            if sid in intervals:
                raise table.fail(f"duplicate source id {sid}")
            interval = table.to_float(row[1], "interval_s")
            if not interval > 0:
                raise table.fail(f"interval must be > 0, got {interval}")
            intervals[sid] = interval
    return intervals, meta


# ---------------------------------------------------------------------------
# discovery inputs and outputs


def write_snapshots(path, snapshots: Sequence[HostSnapshot]) -> None:
    def rows():
        for snap in snapshots:
            if not snap.linked_pages:
                yield (snap.host, snap.main_page, None, None)
            for pid, age in snap.linked_pages:
                yield (snap.host, snap.main_page, pid, age)

    write_table(path, "snapshots", {"hosts": len(snapshots)}, rows())


def read_snapshots(path) -> "list[HostSnapshot]":
    grouped: "dict[tuple[int, int], list[tuple[int, float]]]" = {}
    order: "list[tuple[int, int]]" = []
    with _Rows(path, "snapshots") as table:
        for row in table:
            if len(row) != 4:
                raise table.fail(f"expected 4 cells, got {len(row)}")
            key = (table.to_int(row[0], "host"), table.to_int(row[1], "main_page_id"))
            if key not in grouped:
                grouped[key] = []
                order.append(key)
            if row[2]:
                grouped[key].append(
                    (table.to_int(row[2], "page_id"), table.to_float(row[3], "age_s"))
                )
        try:
            return [
                HostSnapshot(host, main, grouped[(host, main)]) for host, main in order
            ]
        except ValueError as exc:
            raise FileFormatError(path, table.line, str(exc)) from None


def write_corpus(path, corpus: LinkCorpus) -> None:
    write_table(path, "corpus", {"links": len(corpus.links)}, corpus.links)


def read_corpus(path) -> LinkCorpus:
    links: "list[tuple[int, int, float]]" = []
    with _Rows(path, "corpus") as table:
        for row in table:
            if len(row) != 3:
                raise table.fail(f"expected 3 cells, got {len(row)}")
            links.append(
                (
                    table.to_int(row[0], "source_page_id"),
                    table.to_int(row[1], "page_id"),
                    table.to_float(row[2], "time_s"),
                )
            )
        try:
            return LinkCorpus(links)
        except ValueError as exc:
            raise FileFormatError(path, table.line, str(exc)) from None


def write_cover(
    path, picks: Sequence["tuple[PageId, float]"], target_fraction: float, total_pages: int
) -> None:
    meta = {"target": float(target_fraction), "pages": total_pages}
    rows = (
        (rank, sid, round(frac * total_pages), frac)
        for rank, (sid, frac) in enumerate(picks, start=1)
    )
    write_table(path, "cover", meta, rows)


# ---------------------------------------------------------------------------
# summaries


def write_summary(path, rows: Iterable[Sequence], fingerprint: str) -> None:
    write_table(path, "summary", {"fingerprint": fingerprint}, rows)


# ---------------------------------------------------------------------------
# YAML configs


def load_yaml_mapping(path) -> "dict":
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            node = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    if node is None:
        node = {}
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return node


def _require(node: Mapping, key: str, context: str):
    if key not in node:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return node[key]


def _as_float(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}: expected a number, got {value!r}")
    return float(value)


def _as_int(value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context}: expected an integer, got {value!r}")
    return value


def parse_scenario_config(node: Mapping, context: str = "scenario") -> ScenarioConfig:
    """Build a ScenarioConfig from its YAML mapping.

    ``sources`` is a list of {lambda_rate, profit_mean, decay} entries, each
    with an optional ``count`` repeating it in place; ``repeat`` tiles the
    whole expanded list, preserving its interleaving.
    """
    if not isinstance(node, Mapping):
        raise ConfigError(f"{context}: expected a mapping")
    known = {
        "sources",
        "repeat",
        "horizon",
        "link_window",
        "budget",
        "seed",
        "daily_amplitude",
        "weekly_amplitude",
        "click_distribution",
    }
    for key in node:
        if key not in known:
            raise ConfigError(f"{context}: unknown key {key!r}")
    raw_sources = _require(node, "sources", context)
    if not isinstance(raw_sources, list) or not raw_sources:
        raise ConfigError(f"{context}.sources: expected a nonempty list")
    specs: "list[SourceSpec]" = []
    for i, entry in enumerate(raw_sources):
        where = f"{context}.sources[{i}]"
        if not isinstance(entry, Mapping):
            raise ConfigError(f"{where}: expected a mapping")
        extra = set(entry) - {"lambda_rate", "profit_mean", "decay", "count"}
        if extra:
            raise ConfigError(f"{where}: unknown keys {sorted(extra)}")
        count = _as_int(entry.get("count", 1), f"{where}.count")
        if count < 1:
            raise ConfigError(f"{where}.count: must be >= 1")
        try:
            spec = SourceSpec(
                lambda_rate=_as_float(_require(entry, "lambda_rate", where), where),
                profit_mean=_as_float(_require(entry, "profit_mean", where), where),
                decay=_as_float(_require(entry, "decay", where), where),
            )
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        specs.extend([spec] * count)
    repeat = _as_int(node.get("repeat", 1), f"{context}.repeat")
    if repeat < 1:
        raise ConfigError(f"{context}.repeat: must be >= 1")
    try:
        return ScenarioConfig(
            source_specs=tuple(specs * repeat),
            horizon=_as_float(_require(node, "horizon", context), f"{context}.horizon"),
            link_window=_as_int(node.get("link_window", 40), f"{context}.link_window"),
            budget=_as_float(node.get("budget", 0.01), f"{context}.budget"),
            seed=_as_int(node.get("seed", 0), f"{context}.seed"),
            daily_amplitude=_as_float(
                node.get("daily_amplitude", 0.0), f"{context}.daily_amplitude"
            ),
            weekly_amplitude=_as_float(
                node.get("weekly_amplitude", 0.0), f"{context}.weekly_amplitude"
            ),
            click_distribution=str(node.get("click_distribution", "geometric")),
        )
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def parse_run_kwargs(node: Mapping, context: str = "run") -> "dict":
    """RunConfig keyword overrides (everything except policy and budget)."""
    if not isinstance(node, Mapping):
        raise ConfigError(f"{context}: expected a mapping")
    known = {
        "reschedule_period",
        "logs_push_period",
        "bin_size",
        "history_size",
        "warmup",
        "policy_seed",
        "metric",
    }
    for key in node:
        if key not in known:
            raise ConfigError(f"{context}: unknown key {key!r}")
    kwargs: "dict" = {}
    for key in ("reschedule_period", "logs_push_period", "bin_size"):
        if key in node:
            kwargs[key] = _as_float(node[key], f"{context}.{key}")
    if "history_size" in node:
        kwargs["history_size"] = _as_int(node["history_size"], f"{context}.history_size")
    if "warmup" in node and node["warmup"] is not None:
        kwargs["warmup"] = _as_float(node["warmup"], f"{context}.warmup")
    if "policy_seed" in node:
        kwargs["policy_seed"] = _as_int(node["policy_seed"], f"{context}.policy_seed")
    if "metric" in node:
        mnode = node["metric"]
        if not isinstance(mnode, Mapping):
            raise ConfigError(f"{context}.metric: expected a mapping")
        extra = set(mnode) - {"window", "sample_period"}
        if extra:
            raise ConfigError(f"{context}.metric: unknown keys {sorted(extra)}")
        try:
            kwargs["metric"] = MetricConfig(
                window=_as_float(mnode.get("window", 3600.0), f"{context}.metric.window"),
                sample_period=_as_float(
                    mnode.get("sample_period", 900.0), f"{context}.metric.sample_period"
                ),
            )
        except ValueError as exc:
            raise ConfigError(f"{context}.metric: {exc}") from None
    return kwargs


@dataclass(frozen=True)
class ExperimentConfig:
    """One scenario family and the (policy x budget x seed) grid to run."""

    scenario: ScenarioConfig
    policies: "tuple[str, ...]"
    budgets: "tuple[float, ...]"
    seeds: "tuple[int, ...]"
    out: str
    run_kwargs: "Mapping[str, object]" = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.policies:
            raise ConfigError("experiment needs at least one policy")
        if not self.seeds:
            raise ConfigError("experiment needs at least one seed")

    def runs(self) -> "list[tuple[int, str, float]]":
        """The full (seed, policy, budget) grid in deterministic order."""
        return [
            (seed, policy, budget)
            for seed in self.seeds
            for policy in self.policies
            for budget in self.budgets
        ]

    def make_run_config(self, policy: str, budget: float) -> RunConfig:
        return RunConfig(policy=policy, budget=budget, **self.run_kwargs)


def parse_experiment_config(node: Mapping, context: str = "config") -> ExperimentConfig:
    if not isinstance(node, Mapping):
        raise ConfigError(f"{context}: expected a mapping")
    known = {"version", "scenario", "policies", "budgets", "seeds", "out", "run"}
    for key in node:
        if key not in known:
            raise ConfigError(f"{context}: unknown key {key!r}")
    version = node.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ConfigError(f"{context}.version: expected {FORMAT_VERSION}, got {version!r}")
    scenario = parse_scenario_config(
        _require(node, "scenario", context), f"{context}.scenario"
    )

    raw_policies = _require(node, "policies", context)
    if isinstance(raw_policies, str):
        raw_policies = [raw_policies]
    if not isinstance(raw_policies, list) or not raw_policies:
        raise ConfigError(f"{context}.policies: expected a nonempty list")
    for name in raw_policies:
        if name not in POLICY_NAMES:
            raise ConfigError(
                f"{context}.policies: unknown policy {name!r}; "
                f"valid: {', '.join(POLICY_NAMES)}"
            )

    raw_seeds = node.get("seeds", [scenario.seed])
    if isinstance(raw_seeds, int) and not isinstance(raw_seeds, bool):
        raw_seeds = list(range(raw_seeds))
    if not isinstance(raw_seeds, list) or not raw_seeds:
        raise ConfigError(f"{context}.seeds: expected a count or nonempty list")
    seeds = tuple(_as_int(s, f"{context}.seeds") for s in raw_seeds)
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{context}.seeds: duplicate seeds")

    raw_budgets = node.get("budgets", [scenario.budget])
    if isinstance(raw_budgets, (int, float)) and not isinstance(raw_budgets, bool):
        raw_budgets = [raw_budgets]
    if not isinstance(raw_budgets, list) or not raw_budgets:
        raise ConfigError(f"{context}.budgets: expected a number or nonempty list")
    budgets = []
    for b in raw_budgets:
        value = _as_float(b, f"{context}.budgets")
        if value <= 0:
            raise ConfigError(f"{context}.budgets: must be > 0, got {value}")
        budgets.append(value)

    run_kwargs = parse_run_kwargs(node.get("run", {}), f"{context}.run")
    out = node.get("out", "runs")
    if not isinstance(out, str) or not out:
        raise ConfigError(f"{context}.out: expected a nonempty string")
    return ExperimentConfig(
        scenario=scenario,
        policies=tuple(str(p) for p in raw_policies),
        budgets=tuple(budgets),
        seeds=seeds,
        out=out,
        run_kwargs=run_kwargs,
    )
