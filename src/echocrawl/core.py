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
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

SourceId = int
PageId = int

Seconds = float


@dataclass(frozen=True, slots=True)
class SourceParams:
    """True or estimated parameters of one content source.

    Attributes:
        lambda_rate: rate of new page appearance, links/second (>= 0).
        profit: expected total clicks P on one new page (>= 0).
        decay: exponential decay rate mu of remaining clicks, 1/second (> 0).
    """

    lambda_rate: float
    profit: float
    decay: float

    def __post_init__(self) -> None:
        if self.lambda_rate < 0:
            raise ValueError(f"lambda_rate must be >= 0, got {self.lambda_rate}")
        if self.profit < 0:
            raise ValueError(f"profit must be >= 0, got {self.profit}")
        if self.decay <= 0:
            raise ValueError(f"decay must be > 0, got {self.decay}")

    @property
    def utility(self) -> float:
        """Expected clicks captured per crawled page under periodic recrawls.

        Defined as P / (1 - exp(-mu / lambda)).  A source that publishes
        faster (larger lambda) yields fresher pages per recrawl, so its pages
        are worth more at crawl time.  Always >= profit; infinite when
        lambda_rate == 0 (the value is then irrelevant because the source
        never produces anything to crawl).
        """
        if self.lambda_rate == 0:
            return math.inf
        return self.profit / -math.expm1(-self.decay / self.lambda_rate)


@dataclass(frozen=True, slots=True)
class ProfitCurve:
    """Expected remaining clicks of a page as a function of its age."""

    profit: float
    decay: float

    def __post_init__(self) -> None:
        if self.profit < 0:
            raise ValueError(f"profit must be >= 0, got {self.profit}")
        if self.decay <= 0:
            raise ValueError(f"decay must be > 0, got {self.decay}")

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
        if self.window <= 0:
            raise ValueError("window must be > 0")
        if self.sample_period <= 0:
            raise ValueError("sample_period must be > 0")


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


def total_realized_profit(trace: Iterable[CrawlRecord]) -> float:
    return sum(
        rec.realized_profit for rec in trace if isinstance(rec.action, CrawlPage)
    )
