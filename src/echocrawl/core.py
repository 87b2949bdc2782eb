"""Core types and quality metrics for recrawl scheduling.

Content sources (hub pages such as site front pages or category indexes)
continuously publish new pages.  Each new page attracts clicks whose expected
remaining count decays exponentially with page age.  The types below describe
source parameters, per-page profit curves and crawl traces; the metric
functions score a trace by the click profit the crawler actually realized.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

SourceId = int
PageId = int

Seconds = float


def check_setting(name: str, value: float, least: str = "> 0", finite: bool = True) -> None:
    """The one bounds rule of a numeric setting: ``value`` is > 0, or >= 0
    when ``least`` is ">= 0", and finite unless ``finite`` is False.  NaN
    never passes.  Raises ValueError("{name} must be [finite and ]{least},
    got {value}")."""
    within = value > 0.0 or (value == 0.0 and least == ">= 0")
    if not within or (finite and value == math.inf):
        rule = f"finite and {least}" if finite else least
        raise ValueError(f"{name} must be {rule}, got {value}")


@dataclass(frozen=True, slots=True)
class SourceParams:
    """True or estimated parameters of one content source.

    Attributes:
        lambda_rate: rate of new page appearance, links/second (>= 0).
        profit: expected total clicks P on one new page (>= 0).
        decay: exponential decay rate mu of remaining clicks, 1/second (> 0).

    Every value must be finite.
    """

    lambda_rate: float
    profit: float
    decay: float

    def __post_init__(self) -> None:
        if not (
            0.0 <= self.lambda_rate < math.inf
            and 0.0 <= self.profit < math.inf
            and 0.0 < self.decay < math.inf
        ):
            raise ValueError(_source_error(self.lambda_rate, self.profit, self.decay))

    @property
    def utility(self) -> float:
        """Expected clicks captured per crawled page under periodic recrawls.

        Defined as P / (1 - exp(-mu / lambda)).  A source that publishes
        faster (larger lambda) yields fresher pages per recrawl, so its pages
        are worth more at crawl time.  Always >= profit; infinite when
        lambda_rate == 0 (the value is then irrelevant because the source
        never produces anything to crawl), and wherever 1 - exp(-mu / lambda)
        rounds to 0.
        """
        if self.lambda_rate == 0:
            return math.inf
        captured = -math.expm1(-self.decay / self.lambda_rate)
        return self.profit / captured if captured else math.inf


def _source_error(
    lambda_rate: float, profit: float, decay: float, profit_name: str = "profit"
) -> "str | None":
    """The error message for the first of SourceParams's rules that these
    values break (each value finite, lambda_rate and profit >= 0, decay > 0),
    or None when they break none.  The message calls the profit
    ``profit_name``."""
    for name, value, least in (
        ("lambda_rate", lambda_rate, ">= 0"),
        (profit_name, profit, ">= 0"),
        ("decay", decay, "> 0"),
    ):
        if not math.isfinite(value):
            return f"{name} must be finite, got {value}"
        if value < 0 or (value == 0 and least == "> 0"):
            return f"{name} must be {least}, got {value}"
    return None


class SourceRowError(ValueError):
    """A SourceTable row breaks SourceParams's rules or repeats an earlier
    row's id; ``row`` is its position in the columns as given."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


class SourceTable(Mapping):
    """Parameters of many sources as columns: ``ids`` and the float64
    columns ``lambda_rate``, ``profit`` and ``decay``, one row per source.

    Every row obeys SourceParams's rules and no id repeats; the first row
    that fails is reported as a SourceRowError with SourceParams's message,
    or ``duplicate source id N``.  The columns are read-only copies.  As a
    Mapping it reads like a dict of SourceParams in row order, building each
    value on access; the solver reads the columns themselves.
    """

    def __init__(self, ids, lambda_rate, profit, decay):
        self.ids = np.array(ids)
        if self.ids.dtype.kind not in "iu":  # no ids, ids past 64 bits, or not integers
            self.ids = np.array(ids, dtype=np.int64 if self.ids.size == 0 else object)
        self.lambda_rate, self.profit, self.decay = columns = [
            np.array(column, dtype=np.float64) for column in (lambda_rate, profit, decay)
        ]
        n = len(self.ids)
        if any(column.shape != (n,) for column in columns):
            raise ValueError("ids and parameter columns must be 1-d and of one length")
        for column in (self.ids, *columns):
            column.flags.writeable = False

        order = np.argsort(self.ids, kind="stable")
        ordered = self.ids[order]
        # rows that repeat an earlier row's id, and rows that break a rule
        repeats = order[1:][np.flatnonzero(ordered[1:] == ordered[:-1])]
        lam, profit, decay = columns
        ok = (0.0 <= lam) & (lam < np.inf) & (0.0 <= profit) & (profit < np.inf)
        ok &= (0.0 < decay) & (decay < np.inf)
        bad = np.flatnonzero(~ok)
        repeat = int(repeats.min()) if len(repeats) else n
        row = int(bad[0]) if len(bad) else n
        if repeat < n and repeat <= row:
            raise SourceRowError(repeat, f"duplicate source id {self.ids.tolist()[repeat]}")
        if row < n:
            raise SourceRowError(row, _source_error(*(column[row].item() for column in columns)))

    @classmethod
    def from_params(cls, items: "Iterable[tuple[SourceId, SourceParams]]") -> "SourceTable":
        """The table of (id, SourceParams) pairs, in their order."""
        items = list(items)
        return cls(
            [sid for sid, _ in items],
            [sp.lambda_rate for _, sp in items],
            [sp.profit for _, sp in items],
            [sp.decay for _, sp in items],
        )

    def utility(self) -> np.ndarray:
        """SourceParams.utility of every row, equal to it bit for bit: the
        ratio in numpy, then math.expm1 per element, since numpy's expm1 may
        differ from it in the last bit."""
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = -self.decay / self.lambda_rate
            expm1 = np.fromiter(map(math.expm1, ratio.tolist()), np.float64, len(ratio))
            out = self.profit / -expm1
        out[(self.lambda_rate == 0.0) | (expm1 == 0.0)] = math.inf
        return out

    @cached_property
    def _rows(self) -> "dict[SourceId, int]":
        return dict(zip(self.ids.tolist(), range(len(self.ids))))

    @cached_property
    def _cells(self) -> "list[tuple[float, float, float]]":
        return list(zip(self.lambda_rate.tolist(), self.profit.tolist(), self.decay.tolist()))

    def __getitem__(self, sid: SourceId) -> SourceParams:
        return SourceParams(*self._cells[self._rows[sid]])

    def __iter__(self) -> "Iterator[SourceId]":
        return iter(self.ids.tolist())

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True, slots=True)
class ProfitCurve:
    """Expected remaining clicks of a page as a function of its age."""

    profit: float
    decay: float

    def __post_init__(self) -> None:
        check_setting("profit", self.profit, ">= 0")
        check_setting("decay", self.decay)

    def value_at(self, age: Seconds) -> float:
        return profit_at(self, age)


@dataclass(frozen=True, slots=True)
class RecrawlSource:
    """Decision/action: refetch a source page to discover new links."""

    source: SourceId


@dataclass(frozen=True, slots=True)
class CrawlPage:
    """Decision/action: fetch one discovered, not yet crawled page."""

    page: PageId


Action = Union[RecrawlSource, CrawlPage]


@dataclass(frozen=True, slots=True)
class CrawlRecord:
    """One fetch in a crawl trace.

    realized_profit is the number of clicks occurring at or after the fetch
    time for CrawlPage actions; recrawls earn nothing directly.
    """

    time: Seconds
    action: Action
    realized_profit: float = 0.0

    def __post_init__(self) -> None:
        if self.realized_profit < 0:
            raise ValueError("realized_profit must be >= 0")
        if isinstance(self.action, RecrawlSource) and self.realized_profit != 0:
            raise ValueError("recrawl records carry no realized profit")


CrawlTrace = Sequence[CrawlRecord]


@dataclass(frozen=True, slots=True)
class MetricConfig:
    """Windowing for the dynamic quality metric."""

    window: Seconds = 3600.0
    sample_period: Seconds = 900.0

    def __post_init__(self) -> None:
        check_setting("window", self.window)
        check_setting("sample_period", self.sample_period)


def profit_at(curve: ProfitCurve, age: Seconds) -> float:
    """Expected remaining clicks P * exp(-mu * age) for a page of given age."""
    if age < 0:
        raise ValueError(f"age must be >= 0, got {age}")
    return curve.profit * math.exp(-curve.decay * age)


def _page_profits(trace: CrawlTrace) -> "list[tuple[float, float]]":
    """(time, realized_profit) of every page fetch, in trace order."""
    return [
        (rec.time, rec.realized_profit)
        for rec in trace
        if isinstance(rec.action, CrawlPage)
    ]


def dynamic_quality(trace: CrawlTrace, t: Seconds, config: MetricConfig) -> float:
    """Average profit per second realized over the window [t - window, t].

    Only page fetches contribute.  Requires t >= window so the window lies
    inside the observed history.
    """
    if t < config.window:
        raise ValueError(f"t={t} is smaller than the metric window {config.window}")
    lo = t - config.window
    total = sum(
        rec.realized_profit
        for rec in trace
        if isinstance(rec.action, CrawlPage) and lo <= rec.time <= t
    )
    return total / config.window


def overall_quality(trace: CrawlTrace, horizon: Seconds) -> float:
    """Total realized profit over [0, horizon] divided by the horizon."""
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    total = sum(
        rec.realized_profit
        for rec in trace
        if isinstance(rec.action, CrawlPage) and 0 <= rec.time <= horizon
    )
    return total / horizon


def quality_series(
    trace: CrawlTrace, horizon: Seconds, config: MetricConfig
) -> "list[tuple[float, float]]":
    """dynamic_quality sampled every sample_period from window to horizon.

    Uses prefix sums over the page fetches, so the whole series costs
    O(len(trace) + samples * log(len(trace))) instead of rescanning the trace
    per sample.  Agrees with dynamic_quality at every sample point.
    """
    pages = _page_profits(trace)
    times = [p[0] for p in pages]
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("trace must be ordered by time")
    prefix = [0.0]
    for _, profit in pages:
        prefix.append(prefix[-1] + profit)

    series: list[tuple[float, float]] = []
    t = config.window
    while t <= horizon + 1e-9:
        hi = bisect_right(times, t)
        lo = bisect_left(times, t - config.window)
        series.append((t, (prefix[hi] - prefix[lo]) / config.window))
        t += config.sample_period
    return series


def validate_trace(trace: CrawlTrace, slot_width: float | None = None) -> None:
    """Sanity-check trace ordering and slot alignment.

    Fetch times must be non-decreasing.  When slot_width is given, every
    fetch must sit on the slot grid (an integer multiple of slot_width);
    idle slots leave gaps, so consecutive records may be several slots apart.
    """
    prev = -math.inf
    for rec in trace:
        if rec.time < prev:
            raise ValueError("trace times must be non-decreasing")
        prev = rec.time
        if slot_width is not None:
            slots = rec.time / slot_width
            if abs(slots - round(slots)) > 1e-6:
                raise ValueError(
                    f"fetch at t={rec.time} is not aligned to slot width {slot_width}"
                )
