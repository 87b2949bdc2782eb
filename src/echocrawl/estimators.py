"""Online parameter estimation from click feedback and crawl history.

Three per-source quantities feed the interval solver:

- (P, mu): the profit curve P(1 - exp(-mu * age)), least-squares fitted to
  a click histogram by variable projection: the best P for a given mu is
  closed form, so the fit is an exact one-dimensional search over mu
  (fit_profit_curve),
- lambda: the new-page rate, estimated from the link counts of the most
  recent recrawls of the source.

EstimatorState owns all of it: it routes click events to the right source's
histogram, keeps a sliding crawl-history window per source, and hands the
scheduler an immutable parameter snapshot on demand.  Sources without click
feedback fall back to small default parameters so they still receive
occasional probe crawls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .core import PageId, ProfitCurve, Seconds, SourceId, SourceParams

# Fallbacks for sources with no click or crawl feedback yet: a small
# non-zero profit, one-day decay and one new link per hour keep unknown
# sources probed without letting them dominate the budget.
DEFAULT_PROFIT = 0.01
DEFAULT_DECAY = 1.0 / 86400.0
DEFAULT_LAMBDA = 1.0 / 3600.0

# Clicks older than this never enter a histogram.
DEFAULT_MAX_CLICK_AGE = 14 * 86400.0

# Interior-point ratio of the golden-section search.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ClickHistogram:
    """Cumulative click counts of one source's pages, binned by page age.

    cumulative[i] counts all observed clicks that happened within the first
    i * bin_size seconds of their page's life; page_count is the number of
    new pages the counts are drawn from.
    """

    bin_size: Seconds
    cumulative: "tuple[float, ...]"
    page_count: int

    def __init__(self, bin_size: float, cumulative: Sequence[float], page_count: int):
        if bin_size <= 0:
            raise ValueError(f"bin_size must be > 0, got {bin_size}")
        if page_count < 0:
            raise ValueError(f"page_count must be >= 0, got {page_count}")
        values = tuple(float(v) for v in cumulative)
        if not values:
            raise ValueError("cumulative must have at least one bin")
        if values[0] < 0:
            raise ValueError("click counts must be >= 0")
        for a, b in zip(values, values[1:]):
            if b < a:
                raise ValueError("cumulative counts must be non-decreasing")
        object.__setattr__(self, "bin_size", float(bin_size))
        object.__setattr__(self, "cumulative", values)
        object.__setattr__(self, "page_count", int(page_count))

    def targets(self) -> "list[float]":
        """Per-page average cumulative clicks, the fit's regression targets."""
        if self.page_count <= 0:
            raise ValueError("targets need page_count > 0")
        return [v / self.page_count for v in self.cumulative]


@dataclass(frozen=True)
class CrawlHistoryWindow:
    """The last few recrawls of one source: (crawl time, new links found)."""

    capacity: int
    entries: "tuple[tuple[Seconds, int], ...]" = ()

    def __init__(self, capacity: int, entries: Iterable["tuple[float, int]"] = ()):
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        items = tuple((float(t), int(n)) for t, n in entries)
        if len(items) > capacity:
            items = items[-capacity:]
        for (t0, _), (t1, _) in zip(items, items[1:]):
            if t1 <= t0:
                raise ValueError("crawl times must be strictly increasing")
        if any(n < 0 for _, n in items):
            raise ValueError("link counts must be >= 0")
        object.__setattr__(self, "capacity", int(capacity))
        object.__setattr__(self, "entries", items)

    def record(self, time: Seconds, new_links: int) -> "CrawlHistoryWindow":
        """New window with (time, new_links) appended, oldest entry evicted.

        The kept entries were validated when this window was built, so only
        the new entry is checked, against the last one.
        """
        entry = (float(time), int(new_links))
        if self.entries and entry[0] <= self.entries[-1][0]:
            raise ValueError("crawl times must be strictly increasing")
        if entry[1] < 0:
            raise ValueError("link counts must be >= 0")
        window = object.__new__(CrawlHistoryWindow)
        object.__setattr__(window, "capacity", self.capacity)
        object.__setattr__(window, "entries", (*self.entries[1 - self.capacity :], entry))
        return window

    def __len__(self) -> int:
        return len(self.entries)


def fit_objective(
    hist: ClickHistogram, profit: float, decay: float
) -> "tuple[float, float, float]":
    """(F, dF/dP, dF/dmu) of the curve fit, in raw click/second units.

    F(P, mu) = sum_i (P(1 - exp(-mu i D)) - s_i / page_count)^2 over the
    histogram bins i >= 1 (bin 0 pins every curve to zero and carries no
    gradient).
    """
    y = hist.targets()
    if len(y) < 2:
        raise ValueError("fit needs at least 2 histogram bins")
    ages = hist.bin_size * np.arange(1, len(y), dtype=float)
    model = -np.expm1(-decay * ages)
    err = profit * model - np.asarray(y[1:])
    value = float(err @ err)
    d_profit = 2.0 * float(err @ model)
    d_decay = 2.0 * profit * float(err @ (ages * np.exp(-decay * ages)))
    return value, d_profit, d_decay


def fit_profit_curve(
    hist: ClickHistogram,
    min_decay: float | None = None,
    trace: "list[float] | None" = None,
) -> ProfitCurve:
    """Least-squares fit of P(1 - exp(-mu * age)) to a click histogram.

    For a fixed mu the model is linear in P, so the best profit is closed
    form, P(mu) = max(0, m.y / m.m) with m_i = 1 - exp(-mu i D), and only
    mu is searched (variable projection).  The search runs over
    log10(mu D) on a 0.1-decade grid from max(1e-12, min_decay D) up to
    mu D = 40 (past ~37, 1 - exp(-mu i D) is exactly 1.0 at every bin, so
    larger decays all give the same curve), then refines the best grid
    point's bracket by golden-section search to a width of 1e-12 decades.
    The returned curve is the best one evaluated; its decay is never below
    min_decay.  When trace is given, the objective F (raw units) of every
    evaluation is appended to it.

    min_decay bounds the curve's time constant 1/mu.  A time constant
    longer than the histogram's span is not identified by the histogram:
    on its bins such a curve is a straight line, in which only P mu is
    fixed, so sparse histograms whose clicks fall late can push P without
    bound.  The online estimator therefore passes 1 / (span of the
    histogram); the CLI passes None and writes the plain least-squares fit.
    """
    if hist.page_count <= 0:
        raise ValueError("fit needs page_count > 0")
    if min_decay is not None and not 0.0 <= min_decay < math.inf:
        raise ValueError(f"min_decay must be finite and >= 0, got {min_decay}")
    y = np.asarray(hist.targets()[1:])
    if len(y) < 1:
        raise ValueError("fit needs at least 2 histogram bins")
    ages = hist.bin_size * np.arange(1, len(y) + 1, dtype=float)
    floor = max(1e-12 / hist.bin_size, min_decay or 0.0)
    best = [math.inf, 0.0, floor]  # F, P, mu of the best evaluation so far

    def evaluate(log_x: np.ndarray) -> np.ndarray:
        """F at P(mu) for each mu = 10^log_x / D (one row per mu)."""
        decay = np.maximum(10.0**log_x / hist.bin_size, floor)
        model = -np.expm1(-decay[:, None] * ages)
        profit = np.maximum(model @ y / np.einsum("ij,ij->i", model, model), 0.0)
        err = profit[:, None] * model - y
        value = np.einsum("ij,ij->i", err, err)
        k = int(np.argmin(value))
        if value[k] < best[0]:
            best[:] = value[k], profit[k], decay[k]
        if trace is not None:
            trace.extend(value.tolist())
        return value

    low, high = math.log10(floor * hist.bin_size), math.log10(40.0)
    grid = np.append(np.arange(low, high, 0.1), max(low, high))
    k = int(np.argmin(evaluate(grid)))
    # golden-section search between the best grid point's neighbours
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = evaluate(np.array([c, d]))
    while b - a > 1e-12:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = evaluate(np.array([c]))[0]
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = evaluate(np.array([d]))[0]
    return ProfitCurve(float(best[1]), float(best[2]))


def estimate_lambda(
    window: CrawlHistoryWindow,
    now: Seconds | None = None,
    default: float = DEFAULT_LAMBDA,
) -> float:
    """New-link rate: total links in the window over first-to-last crawl time.

    Entries after `now` are ignored (feedback from the future).  With fewer
    than two visible entries there is no elapsed time to divide by, so the
    configured default rate is returned.
    """
    entries = window.entries
    if now is not None:
        entries = tuple(e for e in entries if e[0] <= now)
    if len(entries) < 2:
        return default
    elapsed = entries[-1][0] - entries[0][0]
    total = sum(n for _, n in entries)
    return total / elapsed


@dataclass
class _SourceTrack:
    """Mutable per-source estimator bookkeeping."""

    window: CrawlHistoryWindow
    bin_counts: "dict[int, int]" = field(default_factory=dict)
    total_clicks: int = 0
    max_bin: int = 0
    page_count: int = 0
    fitted: ProfitCurve | None = None
    clicks_at_fit: int = 0
    silent_since: float | None = None  # start of the current zero-link streak


class EstimatorState:
    """Single-writer estimator for all sources of one crawl.

    The crawl loop feeds it page registrations, recrawl outcomes and click
    log pushes; params_snapshot() returns an immutable per-source parameter
    map for the scheduler.  Curve fits are cached and only redone once a
    source has accumulated enough new clicks to move the fit.
    """

    def __init__(
        self,
        bin_size: Seconds = 1200.0,
        history_capacity: int = 7,
        max_click_age: Seconds = DEFAULT_MAX_CLICK_AGE,
        default_profit: float = DEFAULT_PROFIT,
        default_decay: float = DEFAULT_DECAY,
        default_lambda: float = DEFAULT_LAMBDA,
        refit_growth: float = 0.10,
        refit_min_clicks: int = 40,
    ):
        if bin_size <= 0:
            raise ValueError("bin_size must be > 0")
        if max_click_age <= 0:
            raise ValueError("max_click_age must be > 0")
        self.bin_size = float(bin_size)
        self.history_capacity = int(history_capacity)
        self.max_click_age = float(max_click_age)
        self.default_profit = float(default_profit)
        self.default_decay = float(default_decay)
        self.default_lambda = float(default_lambda)
        self.refit_growth = float(refit_growth)
        self.refit_min_clicks = int(refit_min_clicks)
        self.unknown_clicks = 0
        self._pages: "dict[PageId, tuple[SourceId, Seconds]]" = {}
        self._tracks: "dict[SourceId, _SourceTrack]" = {}

    def _track(self, source: SourceId) -> _SourceTrack:
        track = self._tracks.get(source)
        if track is None:
            track = _SourceTrack(window=CrawlHistoryWindow(self.history_capacity))
            self._tracks[source] = track
        return track

    def ensure_source(self, source: SourceId) -> None:
        """Make the source known so snapshots cover it before any feedback."""
        self._track(source)

    def register_page(self, page: PageId, source: SourceId, created: Seconds) -> None:
        """Associate a discovered page with its source and creation time."""
        if page in self._pages:
            raise ValueError(f"page {page} already registered")
        self._pages[page] = (source, float(created))
        self._track(source).page_count += 1

    def record_crawl(self, source: SourceId, time: Seconds, new_links: int) -> None:
        """Log a recrawl of `source` that surfaced `new_links` new pages."""
        track = self._track(source)
        track.window = track.window.record(time, new_links)
        if new_links > 0:
            track.silent_since = None
        elif track.silent_since is None:
            track.silent_since = float(time)

    def push_logs(
        self,
        events: Iterable["tuple[PageId, Seconds]"],
        t_push: Seconds,
    ) -> "dict[SourceId, ClickHistogram]":
        """Ingest (page, click time) events visible at t_push.

        Events after t_push or older than max_click_age in page age are
        ignored; clicks on unregistered pages only bump unknown_clicks.
        Each event must be pushed once: callers feed disjoint time slices.
        Returns the updated histogram of every touched source.
        """
        touched: "set[SourceId]" = set()
        for page, t_click in events:
            if t_click > t_push:
                continue
            known = self._pages.get(page)
            if known is None:
                self.unknown_clicks += 1
                continue
            source, created = known
            age = t_click - created
            if age < 0:
                raise ValueError(
                    f"click on page {page} at {t_click} precedes its creation"
                )
            if age > self.max_click_age:
                continue
            index = math.ceil(age / self.bin_size)
            track = self._track(source)
            track.bin_counts[index] = track.bin_counts.get(index, 0) + 1
            track.total_clicks += 1
            if index > track.max_bin:
                track.max_bin = index
            touched.add(source)
        return {source: self.histogram(source) for source in sorted(touched)}

    def histogram(self, source: SourceId) -> ClickHistogram:
        """Current cumulative click histogram of one source."""
        track = self._track(source)
        running = 0
        cumulative = []
        for i in range(track.max_bin + 1):
            running += track.bin_counts.get(i, 0)
            cumulative.append(float(running))
        return ClickHistogram(self.bin_size, cumulative, track.page_count)

    def average_profit(self, source: SourceId) -> float:
        """Mean observed clicks per page; the default profit before any pages."""
        track = self._tracks.get(source)
        if track is None or track.page_count == 0:
            return self.default_profit
        return track.total_clicks / track.page_count

    def link_rate(self, source: SourceId, now: Seconds) -> float:
        """lambda-hat for one source, floored so silence is never terminal.

        A window of recrawls that all found nothing estimates a rate of zero,
        and a zero rate would drop the source from every schedule, so it
        would never be recrawled and could never recover.  Instead such a
        source is credited at most one link since its zero streak began,
        capped at the prior default: the implied probe rate backs off as the
        silence stretches, but never hits zero.  The streak start rather than
        the window span anchors the backoff because rapid recrawls churn the
        window and would keep its span, and hence the floor, artificially
        high forever.
        """
        track = self._track(source)
        rate = estimate_lambda(track.window, now, self.default_lambda)
        if rate > 0.0 or len(track.window) < 2:
            return rate
        since = track.silent_since
        if since is None:  # zero window implies an active streak; be safe
            since = track.window.entries[0][0]
        span = now - since
        if span <= 0.0:
            return self.default_lambda
        return min(1.0 / span, self.default_lambda)

    def value_rates(self, now: Seconds) -> "dict[SourceId, float]":
        """Expected clicks per second of new content, lambda-hat * avg clicks/page.

        Cheap to compute on every logs push (no curve fitting involved), so
        value-driven policies can be refreshed more often than schedules.
        """
        return {
            source: self.link_rate(source, now) * self.average_profit(source)
            for source in sorted(self._tracks)
        }

    def _curve(self, source: SourceId, track: _SourceTrack) -> ProfitCurve:
        if track.total_clicks == 0 or track.max_bin < 1 or track.page_count == 0:
            return ProfitCurve(self.default_profit, self.default_decay)
        grown = track.total_clicks - track.clicks_at_fit
        threshold = max(self.refit_min_clicks, self.refit_growth * track.clicks_at_fit)
        if track.fitted is not None and grown < threshold:
            return track.fitted
        hist = self.histogram(source)
        # the time constant may not exceed the histogram's span (positional:
        # wrappers of fit_profit_curve pass the second argument through)
        curve = fit_profit_curve(hist, 1.0 / (hist.bin_size * (len(hist.cumulative) - 1)))
        track.fitted = curve
        track.clicks_at_fit = track.total_clicks
        return curve

    def params_snapshot(self, now: Seconds) -> "dict[SourceId, SourceParams]":
        """Best-known (lambda, P, mu) per source at time `now`.

        Sources lacking click feedback keep the default curve; sources with
        fewer than two recorded recrawls keep the default new-link rate.
        """
        snapshot: "dict[SourceId, SourceParams]" = {}
        for source in sorted(self._tracks):
            track = self._tracks[source]
            rate = self.link_rate(source, now)
            curve = self._curve(source, track)
            profit = curve.profit
            decay = curve.decay
            snapshot[source] = SourceParams(
                lambda_rate=rate, profit=profit, decay=decay
            )
        return snapshot
