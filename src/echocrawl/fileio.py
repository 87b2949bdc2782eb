"""CSV and YAML persistence for scenarios, logs, traces, and reports.

Every tabular file starts with a one-line versioned header,

    # echocrawl-<kind>-v1 key=value key=value ...

followed by a CSV column header and data rows.  ``_COLUMNS`` declares each
kind's columns once, in file order: name, type (int, float, text, yes/no
bool, or a ';'-separated float list) and whether a cell may be blank.
Readers and writers work from it.  Writers format every cell by its
column's type, a None as a blank cell, and floats with repr() so values
survive a round trip bit for bit and identical inputs produce identical
bytes.  A text cell may hold no space, comma, quote or unprintable
character, on reading as on writing, so a row is its cells joined by
commas and no cell needs CSV quoting.

Readers check kind and version first.  The row codec then parses each
row's cells by their columns' types and reports a malformed cell, or a row
that fails a check, with its line number and column; a blank cell reads as
None where its column may be blank.  The offline inputs (click logs,
params, schedules, host snapshots, link corpora) are read as whole columns
first: numpy's C parser reads the number columns, the column's own parser
the other cells, and each check runs over whole columns.  Where the C
parser reads a cell it reads what int() or float() reads, but it refuses
more: a quoted cell, a short or long row, ``1_0``, a non-ASCII digit, an
int past 64 bits, a file with no rows.  A file it refuses, or one that
fails a check, is read again by the row codec, which returns what it holds
or reports where it is wrong.  So both readers accept the same files and
return the same values, and every error is the row codec's.
``read_params`` hands its cells to the solver as columns, in one
``core.SourceTable``.

Configs are YAML mappings.  ``parse_experiment_config`` turns one into an
ExperimentConfig: a scenario, the settings every run shares, and a (policy
x budget x seed) run grid.  ``read_config`` builds each section from the
type it configures, whose signature is the section's only schema: its
parameters are the keys, their type hints check the values, and its
defaults fill what a section leaves out.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import os
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence, get_args, get_type_hints

import numpy as np
import yaml

from .core import (
    CrawlPage,
    CrawlRecord,
    CrawlTrace,
    PageId,
    RecrawlSource,
    Seconds,
    SourceId,
    SourceParams,
    SourceRowError,
    SourceTable,
)
from .discovery import HostSnapshot, LinkCorpus
from .optimizer import Schedule
from .simulator import (
    LinkEvent,
    PageGroundTruth,
    RunConfig,
    Scenario,
    ScenarioConfig,
    SourceSpec,
)

FORMAT_VERSION = 1
_PREFIX = "echocrawl"


class FileFormatError(ValueError):
    """A data file failed structural validation; line 0 means the header."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


class ConfigError(ValueError):
    """A YAML config is missing, malformed, or semantically invalid."""


@contextmanager
def config_errors(where: str):
    """Report a ValueError raised inside as a ConfigError naming where."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# column types and table declarations


def _real(value) -> str:
    # float() first: a subclass such as numpy.float64 has its own repr
    # ("np.float64(...)"), which no reader parses.
    return repr(float(value))


def _text(value: str) -> str:
    if " " in value or "," in value or '"' in value or not value.isprintable():
        raise ValueError(
            f"header/cell value may not contain spaces or commas, quotes or unprintable"
            f" characters: {value!r}"
        )
    return value


def _yes_no(cell: str) -> bool:
    if cell != "yes" and cell != "no":
        raise ValueError(cell)
    return cell == "yes"


# type name -> (parser, formatter, what a cell the parser rejects is not,
# the dtype the C parse reads a column of it as)
_TYPES = {
    "int": (int, str, "not an integer", np.int64),
    "float": (float, _real, "not a number", np.float64),
    "str": (_text, _text, "not text", object),
    "bool": (_yes_no, lambda flag: "yes" if flag else "no", "not yes or no", object),
    "floats": (
        lambda cell: tuple(float(t) for t in cell.split(";") if t),
        lambda values: ";".join(map(_real, values)),
        "not a number",
        object,
    ),
}


class _Table(NamedTuple):
    """One kind's columns in file order."""

    names: "tuple[str, ...]"
    parsers: "tuple[Callable[[str], Any], ...]"  # per column, for a nonblank cell
    blanks: "tuple[bool, ...]"  # per column: a blank cell is allowed, as None
    errors: "tuple[str, ...]"  # per column: what a cell its parser rejects is not
    dtypes: "tuple[np.dtype, ...]"  # what the C parse tries in turn (see _Rows.columns)
    parse_row: "Callable[[Sequence[str]], tuple]"
    format_row: "Callable[[Sequence], tuple]"
    least: int  # fewest cells a row may have; missing trailing cells are blank


def _column(word: str) -> tuple:
    name, _, kind = word.partition(":")
    return (name, kind.endswith("?"), *_TYPES[kind.rstrip("?")])


def _compile(functions, blanks, cell: str, blank: str) -> "Callable[[Sequence], tuple]":
    """``row -> (f0(row[0]), f1(row[1]), ...)`` as one compiled expression: a
    direct call per cell and no loop, so the codec costs no more per row than
    a reader or writer written out by hand.  ``cell`` and ``blank`` spell one
    cell's term, in ``f`` and ``x``, for columns that may not or may be blank."""
    names = [f"f{i}" for i in range(len(functions))]
    terms = "".join(
        (blank if may else cell).format(f=name, x=f"row[{i}]") + ", "
        for i, (name, may) in enumerate(zip(names, blanks))
    )
    return eval(f"lambda row: ({terms})", dict(zip(names, functions)))


def _table(spec: str, least: "int | None" = None) -> _Table:
    """Columns from ``name:type`` words; a type ending in '?' may be blank."""
    names, blanks, parsers, formats, errors, kinds = zip(*map(_column, spec.split()))
    parse_row = _compile(parsers, blanks, "{f}({x})", "({f}({x}) if {x} else None)")
    format_row = _compile(formats, blanks, "{f}({x})", '("" if {x} is None else {f}({x}))')
    numbers = np.dtype(list(zip(names, kinds)))
    texts = np.dtype([(n, object if b else k) for n, b, k in zip(names, blanks, kinds)])
    dtypes = (numbers,) if texts == numbers else (numbers, texts)
    return _Table(
        names, parsers, blanks, errors, dtypes, parse_row, format_row, least or len(names)
    )


_COLUMNS = {
    # source records fill lambda_rate..decay, page records the other cells
    "scenario": _table(
        "record:str id:int source_id:int? lambda_rate:float? profit_mean:float?"
        " decay:float? created_s:float? vanish_s:float? click_times_s:floats"
    ),
    "clicks": _table("page_id:int source_id:int created_s:float click_time_s:float?"),
    "trace": _table("time_s:float action:str target_id:int realized_profit:float"),
    "report": _table(
        "policy:str budget:float seed:int horizon_s:float warmup_s:float"
        " overall_quality:float full_quality:float total_profit:float recrawls:int"
        " page_fetches:int idle_slots:int discovered_pages:int missed_pages:int"
        " unknown_clicks:int schedule_failures:int oracle:float"
    ),
    "series": _table("time_s:float quality:float"),
    "params": _table(
        "source_id:int lambda_rate:float profit:float decay:float"
        " pages:int? clicks:int? fitted:bool?",
        least=4,
    ),
    "schedule": _table("source_id:int interval_s:float"),
    "snapshots": _table("host:int main_page_id:int page_id:int? age_s:float?"),
    "corpus": _table("source_page_id:int page_id:int time_s:float"),
    "cover": _table("rank:int source_page_id:int covered_pages:int coverage_fraction:float"),
    "sourcelist": _table("page_id:int"),
    "qseries": _table("policy:str budget:float seed:int time_s:float quality:float"),
    "summary": _table(
        "policy:str budget:float? seeds:int mean_overall_quality:float"
        " std_overall_quality:float mean_total_profit:float? mean_recrawls:float?"
        " mean_page_fetches:float?"
    ),
}


# ---------------------------------------------------------------------------
# writing and reading tables


def _fmt(value) -> str:
    """A header value: key=value pairs are untyped."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    return _real(value) if isinstance(value, float) else _text(str(value))


def write_table(path, kind: str, meta: Mapping[str, object], rows: Iterable[Sequence]) -> None:
    """Write one versioned CSV table; parents are created as needed.

    No formatted cell holds a comma, a quote or a line break, so each row is
    its cells joined by commas, as csv.writer would write it."""
    table = _COLUMNS[kind]
    format_row, n = table.format_row, len(table.names)
    pairs = "".join(f" {k}={_fmt(v)}" for k, v in meta.items())

    def lines():
        for row in rows:
            if len(row) != n:
                raise ValueError(f"{kind} row has {len(row)} cells, expected {n}: {row!r}")
            yield ",".join(format_row(row)) + "\n"

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {_PREFIX}-{kind}-v{FORMAT_VERSION}{pairs}\n{','.join(table.names)}\n")
        fh.writelines(lines())


class _Refused(Exception):
    """The C parse or a vectorised check turned a table down; the row codec
    reads it again and returns what it holds or reports where it is wrong."""


def _vouch(ok) -> None:
    if not ok:
        raise _Refused


class _Rows:
    """Reader of one versioned CSV table.  Entering checks the tag and column
    lines; ``columns()`` then reads the body as whole columns, and iterating
    reads it as rows of parsed cells, from its first row each time."""

    def __init__(self, path, kind: str):
        self.path = Path(path)
        self.kind = kind
        self.table = _COLUMNS[kind]

    def __enter__(self) -> "_Rows":
        self._fh = self.path.open("r", encoding="utf-8", newline="")
        try:
            self._read_header()
        except BaseException as exc:  # the caller's with-block never runs: close here
            self._fh.close()
            if isinstance(exc, UnicodeDecodeError):
                raise self._undecodable() from None
            raise
        self._body = self._fh.tell()
        return self

    def _read_header(self) -> None:
        header = self._fh.readline().rstrip("\n")
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
        expected = self.table.names
        got = tuple(columns.split(","))
        if got[: len(expected)] != expected and got != expected[: len(got)]:
            raise FileFormatError(
                self.path, 2, f"expected columns {','.join(expected)}, got {columns!r}"
            )

    def __exit__(self, kind, exc, traceback) -> None:
        self._fh.close()
        if isinstance(exc, UnicodeDecodeError):
            raise self._undecodable() from None

    def _undecodable(self) -> FileFormatError:
        """The error for a file that is not UTF-8 text, at its first line
        that does not decode.  Only this error path reads the file as bytes;
        a line break is never part of a multi-byte sequence, so lines decode
        on their own."""
        for number, line in enumerate(self.path.read_bytes().splitlines(), 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return FileFormatError(
                    self.path, number, f"not UTF-8 text: byte {line[exc.start]:#04x}"
                )
        return FileFormatError(self.path, 0, "not UTF-8 text")  # changed after the read

    def columns(self) -> list:
        """The body as whole columns, or _Refused.

        The C parse reads every column of numbers as an int64 or float64
        array; where one that may be blank has a blank cell, it reads the
        body again with that column's cells as text.  Any other column is
        read as its cells' text and parsed by the column's parser.  A column
        that may be blank comes back as a list, with None for a blank cell.
        Where the C parse reads a cell at all, it reads what int() or
        float() reads; it refuses more than they do (a quoted cell, a short
        or long row, ``1_0``, a non-ASCII digit, an int past 64 bits, a body
        with no rows), and a refusal raises _Refused."""
        table = self.table
        for dtype in table.dtypes:
            self._fh.seek(self._body)
            try:
                with warnings.catch_warnings():
                    # an empty body warns, and numpy < 2 reads "3.0" into an
                    # int column with a DeprecationWarning
                    warnings.simplefilter("error")
                    cells = np.loadtxt(
                        self._fh, dtype=dtype, delimiter=",", comments=None, ndmin=1
                    )
                break
            except (ValueError, Warning):
                continue
        else:
            raise _Refused
        try:
            return [
                _values(cells[name], parse, blank)
                for name, parse, blank in zip(table.names, table.parsers, table.blanks)
            ]
        except ValueError:
            raise _Refused from None

    def __iter__(self):
        self._fh.seek(self._body)
        self._reader = csv.reader(self._fh)
        parse_row, least = self.table.parse_row, self.table.least
        most = len(self.table.names)
        for row in self._reader:
            if len(row) != most:
                if not row:
                    continue
                if not least <= len(row) < most:
                    span = f"{least} to {most}" if least < most else f"{most}"
                    raise self.fail(f"expected {span} cells, got {len(row)}")
                row += [""] * (most - len(row))
            try:
                cells = parse_row(row)
            except ValueError:
                raise self._bad_cell(row) from None
            yield cells

    def _bad_cell(self, row: "list[str]") -> FileFormatError:
        """The error for the first cell of ``row`` that its column rejects."""
        columns = self.table
        for name, parse, blank, error, cell in zip(
            columns.names, columns.parsers, columns.blanks, columns.errors, row
        ):
            try:
                if cell or not blank:
                    parse(cell)
            except ValueError:
                break
        return self.fail(f"column {name}: {error}: {cell!r}")

    def require(self, row: tuple, *names: str) -> None:
        """Fail on the first of the named cells that is blank in ``row``,
        for a column the row's own kind of record may not leave blank."""
        if None in row:
            for name, error, cell in zip(self.table.names, self.table.errors, row):
                if cell is None and name in names:
                    raise self.fail(f"column {name}: {error}: ''")

    def fail(self, message: str) -> FileFormatError:
        """An error at the last row read (the two header lines come first)."""
        return FileFormatError(self.path, 2 + self._reader.line_num, message)

    def build(self, make: Callable, *args):
        """``make(*args)``, reporting its ValueError at the current line."""
        try:
            return make(*args)
        except ValueError as exc:
            raise self.fail(str(exc)) from None


def _values(cells: np.ndarray, parse: Callable[[str], Any], blank: bool):
    """One column of the C parse, as _Rows.columns returns it."""
    if cells.dtype != object:
        return cells.tolist() if blank else cells
    cells = cells.tolist()
    if not blank or "" not in cells:
        return list(map(parse, cells))
    return [parse(cell) if cell else None for cell in cells]


def _read(path, kind: str, by_columns: Callable[[_Rows], Any], by_rows: Callable[[_Rows], Any]):
    """``by_columns(table)``, or ``by_rows(table)`` where it raises _Refused."""
    with _Rows(path, kind) as table:
        try:
            return by_columns(table)
        except _Refused:
            return by_rows(table)


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
            yield ("source", sid, None, spec.lambda_rate, spec.profit_mean, spec.decay,
                   None, None, ())
        for event in scenario.events:
            page = scenario.pages[event.page]
            yield ("page", event.page, event.source, None, None, None,
                   page.created, event.vanish, page.click_times)

    write_table(path, "scenario", _scenario_meta(scenario), rows())


def read_scenario(path) -> Scenario:
    """Rebuild a Scenario from ``write_scenario`` output."""
    specs: "dict[int, SourceSpec]" = {}
    events: "list[LinkEvent]" = []
    pages: "dict[PageId, PageGroundTruth]" = {}
    with _Rows(path, "scenario") as table:
        meta = table.meta
        for row in table:
            record, rid, sid, lam, profit, decay, created, vanish, times = row
            if record == "source":
                table.require(row, "lambda_rate", "profit_mean", "decay")
                if rid in specs:
                    raise table.fail(f"duplicate source id {rid}")
                specs[rid] = table.build(SourceSpec, lam, profit, decay)
            elif record == "page":
                table.require(row, "source_id", "created_s", "vanish_s")
                if rid in pages:
                    raise table.fail(f"duplicate page id {rid}")
                events.append(table.build(LinkEvent, rid, sid, created, vanish))
                pages[rid] = table.build(PageGroundTruth, rid, sid, created, times)
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
    return Scenario(config, tuple(events), pages)


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

    meta = _scenario_meta(scenario)
    keep = ("fingerprint", "seed", "horizon", "pages")
    write_table(path, "clicks", {key: meta[key] for key in keep}, rows())


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
    return _read(path, "clicks", _click_log_by_columns, _click_log_by_rows)


def _click_log_by_columns(table: _Rows) -> ClickLog:
    pid, sid, created, times = table.columns()
    # every row of a page names the same source and creation time
    order = np.argsort(pid, kind="stable")
    p, s, c = pid[order], sid[order], created[order]
    _vouch(((p[1:] != p[:-1]) | (s[1:] == s[:-1]) & (c[1:] == c[:-1])).all())
    clicked = np.array([t is not None for t in times], dtype=bool)
    clicks = np.array([t for t in times if t is not None], dtype=np.float64)
    _vouch(not (clicks < created[clicked]).any())
    pages = dict(zip(pid.tolist(), zip(sid.tolist(), created.tolist())))
    return ClickLog(pages, tuple(zip(pid[clicked].tolist(), clicks.tolist())), dict(table.meta))


def _click_log_by_rows(table: _Rows) -> ClickLog:
    pages: "dict[PageId, tuple[SourceId, Seconds]]" = {}
    clicks: "list[tuple[PageId, Seconds]]" = []
    for pid, sid, created, t in table:
        known = pages.get(pid)
        if known is not None and known != (sid, created):
            raise table.fail(f"page {pid} re-declared with different source/created")
        pages[pid] = (sid, created)
        if t is not None:
            if t < created:
                raise table.fail(f"click at {t} precedes page creation {created}")
            clicks.append((pid, t))
    return ClickLog(pages, tuple(clicks), dict(table.meta))


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


_ACTIONS = {"recrawl": RecrawlSource, "page": CrawlPage}


def read_trace(path) -> "tuple[list[CrawlRecord], dict[str, str]]":
    records: "list[CrawlRecord]" = []
    with _Rows(path, "trace") as table:
        meta = dict(table.meta)
        for t, action, target, profit in table:
            if action not in _ACTIONS:
                raise table.fail(f"unknown action {action!r}")
            records.append(table.build(CrawlRecord, t, _ACTIONS[action](target), profit))
    return records, meta


def write_report(path, report, seed: int, oracle: float, fingerprint: str) -> None:
    """Persist one run's MetricReport as a single-row table."""
    values = {**vars(report), "seed": seed, "oracle": oracle}
    # the report columns are ReportRow's fields, all but the fingerprint
    row = tuple(values[f.name] for f in fields(ReportRow)[:-1])
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
            raise table.fail(f"expected 1 data row, got {len(rows)}")
        return ReportRow(*rows[0], fingerprint=table.meta.get("fingerprint", ""))


def write_series(
    path, series: Iterable["tuple[Seconds, float]"], meta: Mapping[str, object]
) -> None:
    write_table(path, "series", meta, series)


def read_series(path) -> "tuple[list[tuple[float, float]], dict[str, str]]":
    with _Rows(path, "series") as table:
        return list(table), dict(table.meta)


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
        for r in rows:
            p = r.params
            yield (r.source_id, p.lambda_rate, p.profit, p.decay, r.pages, r.clicks, r.fitted)

    write_table(path, "params", dict(meta), cells())


def read_params(path) -> "tuple[SourceTable, dict[str, str]]":
    """The sources of a params file as one SourceTable, and its header.

    The first row that breaks SourceParams's rules or repeats an id is
    reported at its line."""
    return _read(path, "params", _params_by_columns, _params_by_rows)


def _params_by_columns(table: _Rows) -> "tuple[SourceTable, dict[str, str]]":
    ids, lam, profit, decay, *_ = table.columns()
    try:
        return SourceTable(ids, lam, profit, decay), dict(table.meta)
    except SourceRowError:
        raise _Refused from None


def _params_by_rows(table: _Rows) -> "tuple[SourceTable, dict[str, str]]":
    rows = list(table)
    if not rows:
        raise FileFormatError(table.path, 2, "params file has no sources")
    ids, lam, profit, decay = ([row[i] for row in rows] for i in range(4))
    try:
        return SourceTable(ids, lam, profit, decay), dict(table.meta)
    except SourceRowError as exc:
        for _ in zip(range(exc.row + 1), table):
            pass
        raise table.fail(str(exc)) from None


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
    return _read(path, "schedule", _schedule_by_columns, _schedule_by_rows)


def _schedule_by_columns(table: _Rows) -> "tuple[dict[SourceId, float], dict[str, str]]":
    sid, interval = table.columns()
    _vouch((interval > 0).all())
    intervals = dict(zip(sid.tolist(), interval.tolist()))
    _vouch(len(intervals) == len(sid))
    return intervals, dict(table.meta)


def _schedule_by_rows(table: _Rows) -> "tuple[dict[SourceId, float], dict[str, str]]":
    intervals: "dict[SourceId, float]" = {}
    for sid, interval in table:
        if sid in intervals:
            raise table.fail(f"duplicate source id {sid}")
        if not interval > 0:
            raise table.fail(f"interval must be > 0, got {interval}")
        intervals[sid] = interval
    return intervals, dict(table.meta)


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
    return _read(path, "snapshots", _snapshots_by_columns, _snapshots_by_rows)


def _snapshots_by_columns(table: _Rows) -> "list[HostSnapshot]":
    host, main, pids, ages = table.columns()
    if None in pids or None in ages:
        # a host without links has one row, with both cells blank
        _vouch(all((pid is None) == (age is None) for pid, age in zip(pids, ages)))
    # one snapshot per run of rows of one (host, main page); a pair that
    # comes back after another is left to the row codec
    starts = np.flatnonzero((host[1:] != host[:-1]) | (main[1:] != main[:-1])) + 1
    ends = [*starts.tolist(), len(host)]
    starts = [0, *starts.tolist()]
    keys = list(zip(host[starts].tolist(), main[starts].tolist()))
    _vouch(len(set(keys)) == len(keys))
    try:
        return [
            HostSnapshot(*key, [link for link in zip(pids[i:j], ages[i:j]) if link[0] is not None])
            for key, i, j in zip(keys, starts, ends)
        ]
    except ValueError:
        raise _Refused from None


def _snapshots_by_rows(table: _Rows) -> "list[HostSnapshot]":
    grouped: "dict[tuple[int, int], list[tuple[int, float]]]" = defaultdict(list)
    for row in table:
        host, main, pid, age = row
        pages = grouped[host, main]
        if pid is not None:
            table.require(row, "age_s")
            pages.append((pid, age))
    return table.build(lambda: [HostSnapshot(*key, pages) for key, pages in grouped.items()])


def write_corpus(path, corpus: LinkCorpus) -> None:
    write_table(path, "corpus", {"links": len(corpus.links)}, corpus.links)


def read_corpus(path) -> LinkCorpus:
    return _read(path, "corpus", _corpus_by_columns, _corpus_by_rows)


def _corpus_by_columns(table: _Rows) -> LinkCorpus:
    source, page, time = table.columns()
    try:
        return LinkCorpus(zip(source.tolist(), page.tolist(), time.tolist()))
    except ValueError:
        raise _Refused from None


def _corpus_by_rows(table: _Rows) -> LinkCorpus:
    return table.build(LinkCorpus, list(table))


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
    """The top-level mapping of a YAML file, given as a path or as a package
    resource such as a bundled preset; an empty file is an empty mapping."""
    source = Path(path) if isinstance(path, (str, os.PathLike)) else path
    try:
        with source.open("r", encoding="utf-8") as fh:
            node = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    if node is None:
        node = {}
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return node


_SCALARS = {float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "text")}


def _config_value(hint, value, context: str):
    """value checked against a resolved type hint; an int widens to float."""
    if type(None) in get_args(hint):
        if value is None:
            return None
        (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
    if is_dataclass(hint):
        return read_config(hint, value, context)
    kinds, expected = _SCALARS[hint]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{context}: expected {expected}, got {value!r}")
    return hint(value)


def read_config(cls, node, context: str, fixed: "Mapping | None" = None, keys=None):
    """Build cls from a YAML mapping whose schema is cls's own signature.

    Each key names a parameter of cls, and its value must match the
    parameter's type hint: a number for float (never a bool), an integer for
    int, text for str, null as well for an optional, and a mapping for a
    dataclass, read the same way.  Parameters left out keep cls's defaults.
    fixed supplies parameters the mapping may not set; keys, when given,
    lists the only parameters it may set.  Every error is a ConfigError
    naming ``context.key``.
    """
    if not isinstance(node, Mapping):
        raise ConfigError(f"{context}: expected a mapping")
    fixed = fixed or {}
    params = inspect.signature(cls).parameters
    allowed = [name for name in keys or params if name not in fixed]
    for key in node:
        if key not in allowed:
            raise ConfigError(f"{context}.{key}: unknown key")
    hints = get_type_hints(cls if is_dataclass(cls) else cls.__init__)
    kwargs = dict(fixed)
    for name, param in params.items():
        if name in node:
            kwargs[name] = _config_value(hints[name], node[name], f"{context}.{name}")
        elif name not in kwargs and param.default is param.empty:
            raise ConfigError(f"{context}.{name}: missing required key")
    with config_errors(context):
        return cls(**kwargs)


def _count(node: Mapping, key: str, context: str) -> int:
    """The optional repeat count node[key]: an integer >= 1, default 1."""
    count = _config_value(int, node.get(key, 1), f"{context}.{key}")
    if count < 1:
        raise ConfigError(f"{context}.{key}: must be >= 1")
    return count


def parse_scenario_config(node: Mapping, context: str = "scenario") -> ScenarioConfig:
    """Build a ScenarioConfig from its YAML mapping.

    ``sources`` is a list of SourceSpec mappings, each with an optional
    ``count`` repeating it in place; ``repeat`` tiles the whole expanded
    list, preserving its interleaving.  Every other key is a ScenarioConfig
    parameter.
    """
    if not isinstance(node, Mapping):
        raise ConfigError(f"{context}: expected a mapping")
    raw_sources = node.get("sources")
    if not isinstance(raw_sources, list) or not raw_sources:
        raise ConfigError(f"{context}.sources: expected a nonempty list")
    specs: "list[SourceSpec]" = []
    for i, entry in enumerate(raw_sources):
        where = f"{context}.sources[{i}]"
        if not isinstance(entry, Mapping):
            raise ConfigError(f"{where}: expected a mapping")
        spec = {key: value for key, value in entry.items() if key != "count"}
        specs.extend([read_config(SourceSpec, spec, where)] * _count(entry, "count", where))
    specs *= _count(node, "repeat", context)
    rest = {key: value for key, value in node.items() if key not in ("sources", "repeat")}
    return read_config(ScenarioConfig, rest, context, fixed={"source_specs": tuple(specs)})


@dataclass(frozen=True)
class ExperimentConfig:
    """One scenario family and the (policy x budget x seed) grid to run.

    run holds the settings every cell shares; make_run_config sets a cell's
    policy and budget on it.  Every cell's RunConfig and every seed's
    ScenarioConfig is built here, and the window of run and of every cell
    on the scenario is resolved, so a policy, budget, seed or warmup that
    those types reject, or a cell with more than simulator.MAX_SLOTS fetch
    slots, is a ConfigError.
    """

    scenario: ScenarioConfig
    policies: "tuple[str, ...]"
    budgets: "tuple[float, ...]"
    seeds: "tuple[int, ...]"
    out: str
    run: RunConfig = field(default_factory=RunConfig)

    def __post_init__(self) -> None:
        if not self.policies:
            raise ConfigError("experiment needs at least one policy")
        if not self.seeds:
            raise ConfigError("experiment needs at least one seed")
        with config_errors("seeds"):
            for seed in self.seeds:
                replace(self.scenario, seed=seed)
        with config_errors("run"):
            self.run.window(self.scenario)
        for policy in self.policies:
            for budget in self.budgets:
                with config_errors(f"policies/budgets {(policy, budget)!r}"):
                    self.make_run_config(policy, budget).window(self.scenario)

    def runs(self) -> "list[tuple[int, str, float]]":
        """The full (seed, policy, budget) grid in deterministic order."""
        return [
            (seed, policy, budget)
            for seed in self.seeds
            for policy in self.policies
            for budget in self.budgets
        ]

    def make_run_config(self, policy: str, budget: float) -> RunConfig:
        return replace(self.run, policy=policy, budget=budget)


def parse_experiment_config(node: Mapping, context: str = "config") -> ExperimentConfig:
    if not isinstance(node, Mapping):
        raise ConfigError(f"{context}: expected a mapping")
    known = {"version", *(f.name for f in fields(ExperimentConfig))}
    for key in node:
        if key not in known:
            raise ConfigError(f"{context}.{key}: unknown key")
    version = node.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ConfigError(f"{context}.version: expected {FORMAT_VERSION}, got {version!r}")
    scenario = parse_scenario_config(node.get("scenario"), f"{context}.scenario")

    raw_policies = node.get("policies")
    if isinstance(raw_policies, str):
        raw_policies = [raw_policies]
    if not isinstance(raw_policies, list) or not raw_policies:
        raise ConfigError(f"{context}.policies: expected a nonempty list")

    raw_seeds = node.get("seeds", [scenario.seed])
    if isinstance(raw_seeds, int) and not isinstance(raw_seeds, bool):
        raw_seeds = list(range(raw_seeds))
    if not isinstance(raw_seeds, list) or not raw_seeds:
        raise ConfigError(f"{context}.seeds: expected a count or nonempty list")
    seeds = tuple(_config_value(int, s, f"{context}.seeds") for s in raw_seeds)
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{context}.seeds: duplicate seeds")

    raw_budgets = node.get("budgets", [scenario.budget])
    if isinstance(raw_budgets, (int, float)) and not isinstance(raw_budgets, bool):
        raw_budgets = [raw_budgets]
    if not isinstance(raw_budgets, list) or not raw_budgets:
        raise ConfigError(f"{context}.budgets: expected a number or nonempty list")
    budgets = tuple(_config_value(float, b, f"{context}.budgets") for b in raw_budgets)

    # the grid's cells set policy and budget; ExperimentConfig checks them
    run = read_config(
        RunConfig,
        node.get("run", {}),
        f"{context}.run",
        fixed={"policy": RunConfig.policy, "budget": None},
    )
    out = node.get("out", "runs")
    if not isinstance(out, str) or not out:
        raise ConfigError(f"{context}.out: expected a nonempty string")
    return ExperimentConfig(
        scenario=scenario,
        policies=tuple(raw_policies),
        budgets=budgets,
        seeds=seeds,
        out=out,
        run=run,
    )
