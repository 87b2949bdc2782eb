"""Online parameter estimation from click feedback and crawl history.

Three per-source quantities feed the interval solver:

- (P, mu): the profit curve P(1 - exp(-mu * age)), least-squares fitted to
  a click histogram by variable projection: the best P for a given mu is
  closed form, so the fit is an exact one-dimensional search over mu, a
  grid scan and then the root of F's slope (fit_profit_curve), whose value
  at the best P is the partial dF/dmu (the envelope theorem),
- lambda: the new-page rate, a Gamma posterior mean over the arrivals seen
  after a first observation (posterior_rate): new links of the recrawls
  after the first in a source's recent window online, page creations after
  the first in the CLI's fit.  It is the default before any data and never
  0, so a source whose recrawls come back empty is still recrawled.

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

from .core import PageId, ProfitCurve, Seconds, SourceId, SourceParams, check_setting

# Fallbacks for sources with no click or crawl feedback yet: a small
# non-zero profit, one-day decay and one new link per hour keep unknown
# sources probed without letting them dominate the budget.
DEFAULT_PROFIT = 0.01
DEFAULT_DECAY = 1.0 / 86400.0
DEFAULT_LAMBDA = 1.0 / 3600.0

# Clicks older than this never enter a histogram.
DEFAULT_MAX_CLICK_AGE = 14 * 86400.0

# A cached curve fit is redone once a source has gained this many clicks
# since the fit, and this share of the clicks it was fitted on.
REFIT_MIN_CLICKS = 40
REFIT_GROWTH = 0.10


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
        check_setting("bin_size", bin_size)
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


def _profile(
    y: np.ndarray, ages: np.ndarray, decay: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """(F, dF/dlog10(mu), P) of the fit at its best profit P(mu), one row
    per decay.

    P(mu) = max(0, m.y / m.m) with m_i = 1 - exp(-mu a_i).  At that P,
    dF/dP is 0, or P is clipped to 0 and F does not depend on mu, so by the
    envelope theorem the slope of F along P(mu) is fit_objective's dF/dmu
    times mu ln 10 (0 where P is clipped).
    """
    exponent = -decay[:, None] * ages
    model = -np.expm1(exponent)
    profit = np.maximum(model @ y / np.einsum("ij,ij->i", model, model), 0.0)
    err = profit[:, None] * model - y
    value = np.einsum("ij,ij->i", err, err)
    slope = np.einsum("ij,ij->i", err, ages * np.exp(exponent))
    return value, slope * (2.0 * math.log(10.0) * profit * decay), profit


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
    larger decays all give the same curve).  Where the slope of F in
    log10(mu) changes sign between the best grid point and a neighbour,
    the search then finds its root there by secant steps through the last
    two points, bisecting when a step would leave the bracket or move
    further than half the step before last, until the bracket is 1e-12
    decades wide or a slope is exactly 0.  Where it does not (the best
    point is at an edge, or F is flat there) the grid point stands.
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
    if min_decay is not None:
        check_setting("min_decay", min_decay, ">= 0")
    y = np.asarray(hist.targets()[1:])
    if len(y) < 1:
        raise ValueError("fit needs at least 2 histogram bins")
    ages = hist.bin_size * np.arange(1, len(y) + 1, dtype=float)
    floor = max(1e-12 / hist.bin_size, min_decay or 0.0)
    best = [math.inf, 0.0, floor]  # F, P, mu of the best evaluation so far

    def evaluate(log_x: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """F and its slope at P(mu) for each mu = 10^log_x / D (one row per mu)."""
        decay = np.maximum(10.0**log_x / hist.bin_size, floor)
        value, slope, profit = _profile(y, ages, decay)
        k = int(np.argmin(value))
        if value[k] < best[0]:
            best[:] = value[k], profit[k], decay[k]
        if trace is not None:
            trace.extend(value.tolist())
        return value, slope

    low, high = math.log10(floor * hist.bin_size), math.log10(40.0)
    grid = np.append(np.arange(low, high, 0.1), max(low, high))
    values, slopes = evaluate(grid)
    k = int(np.argmin(values))
    # The root of the slope lies between the best grid point and the
    # neighbour its slope points to, if the slope changes sign there;
    # otherwise (an edge, or a flat minimum) the grid point stands.
    j = k + 1 if slopes[k] < 0.0 else k - 1
    if not (0 <= j < len(grid) and slopes[j] * slopes[k] < 0.0):
        return ProfitCurve(float(best[1]), float(best[2]))
    # the last two points evaluated, and the bracket: slope < 0 at a, > 0 at b
    x, fx, w, fw = float(grid[k]), float(slopes[k]), float(grid[j]), float(slopes[j])
    a, b = min(x, w), max(x, w)
    step = step_old = b - a
    while b - a > 1e-12:
        # the secant through the last two points, or the midpoint when that
        # leaves the bracket or moves further than half the step before last
        new = 0.5 * (a + b)
        if fx != fw:
            secant = x - fx * (x - w) / (fx - fw)
            if a <= secant <= b and 2.0 * abs(secant - x) <= step_old:
                new = secant
        # at least half the stopping width from either end, so a root next
        # to one end is closed in by the step that lands on its other side
        new = min(max(new, a + 5e-13), b - 5e-13)
        step_old, step = step, abs(new - x)
        w, fw, x = x, fx, new
        fx = float(evaluate(np.array([x]))[1][0])
        if fx == 0.0:
            break
        if fx < 0.0:
            a = x
        else:
            b = x
    return ProfitCurve(float(best[1]), float(best[2]))


def posterior_rate(arrivals: float, span: Seconds, default: float) -> float:
    """Posterior mean rate of a Poisson process with `arrivals` arrivals in
    `span` seconds, under a Gamma prior of one arrival in 1 / default
    seconds: (1 + arrivals) / (1 / default + span).

    Written as (1 + arrivals) default / (1 + default span), it is `default`
    exactly before any data; for a finite default > 0 it is never 0 or inf.
    """
    return (1.0 + arrivals) * default / (1.0 + default * span)


def estimate_lambda(
    window: CrawlHistoryWindow,
    now: Seconds | None = None,
    default: float = DEFAULT_LAMBDA,
) -> float:
    """New-link rate of the window's visible entries, by posterior_rate.

    The arrivals are the links found by the entries after the first, over
    the first-to-last crawl span: the first entry's links appeared before
    the window began, so counting them would bias the rate upward.  Entries
    after `now` are ignored (feedback from the future).  With fewer than
    two visible entries there is no data, and the rate is `default`.
    """
    entries = [e for e in window.entries if now is None or e[0] <= now]
    if len(entries) < 2:
        return default
    arrivals = sum(n for _, n in entries[1:])
    return posterior_rate(arrivals, entries[-1][0] - entries[0][0], default)


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
    ):
        check_setting("bin_size", bin_size)
        check_setting("max_click_age", max_click_age, finite=False)
        if history_capacity < 2:
            raise ValueError(f"history_capacity must be >= 2, got {history_capacity}")
        check_setting("default_profit", default_profit, ">= 0")
        check_setting("default_decay", default_decay)
        # a default_lambda of 0 would give every silent source a zero rate
        check_setting("default_lambda", default_lambda)
        self.bin_size = float(bin_size)
        self.history_capacity = int(history_capacity)
        self.max_click_age = float(max_click_age)
        self.default_profit = float(default_profit)
        self.default_decay = float(default_decay)
        self.default_lambda = float(default_lambda)
        # the curve of every source without click feedback
        self._default_curve = ProfitCurve(self.default_profit, self.default_decay)
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

    def push_logs(
        self,
        events: Iterable["tuple[PageId, Seconds]"],
        t_push: Seconds,
    ) -> None:
        """Ingest (page, click time) events visible at t_push.

        Events after t_push or older than max_click_age in page age are
        ignored; clicks on unregistered pages only bump unknown_clicks.
        Each event must be pushed once: callers feed disjoint time slices.
        """
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

    def value_rates(self, now: Seconds) -> "dict[SourceId, float]":
        """Expected clicks per second of new content, lambda-hat * avg clicks/page.

        Cheap to compute on every logs push (no curve fitting involved), so
        value-driven policies can be refreshed more often than schedules.
        """
        return {
            source: estimate_lambda(self._tracks[source].window, now, self.default_lambda)
            * self.average_profit(source)
            for source in sorted(self._tracks)
        }

    def _curve(self, source: SourceId, track: _SourceTrack) -> ProfitCurve:
        if track.total_clicks == 0 or track.max_bin < 1 or track.page_count == 0:
            return self._default_curve
        grown = track.total_clicks - track.clicks_at_fit
        threshold = max(REFIT_MIN_CLICKS, REFIT_GROWTH * track.clicks_at_fit)
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
        fewer than two recorded recrawls keep the default new-link rate, and
        the others get estimate_lambda's posterior rate, which is never 0.
        """
        snapshot: "dict[SourceId, SourceParams]" = {}
        for source in sorted(self._tracks):
            track = self._tracks[source]
            rate = estimate_lambda(track.window, now, self.default_lambda)
            curve = self._curve(source, track)
            snapshot[source] = SourceParams(rate, curve.profit, curve.decay)
        return snapshot
