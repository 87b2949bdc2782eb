"""Online parameter estimation from click feedback and crawl history.

Three per-source quantities feed the interval solver:

- (P, mu): the profit curve P(1 - exp(-mu * age)), fitted to a click
  histogram by plain gradient descent on the squared residuals,
- lambda: the new-page rate, estimated from the link counts of the most
  recent recrawls of the source.

EstimatorState owns all of it: it routes click events to the right source's
histogram, keeps a sliding crawl-history window per source, and hands the
scheduler an immutable parameter snapshot on demand.  Sources without click
feedback fall back to small default parameters so they still receive
occasional probe crawls.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .core import PageId, ProfitCurve, Seconds, SourceId, SourceParams

logger = logging.getLogger(__name__)

# Fallbacks for sources with no click or crawl feedback yet: a small
# non-zero profit, one-day decay and one new link per hour keep unknown
# sources probed without letting them dominate the budget.
DEFAULT_PROFIT = 0.01
DEFAULT_DECAY = 1.0 / 86400.0
DEFAULT_LAMBDA = 1.0 / 3600.0

# Clicks older than this never enter a histogram.
DEFAULT_MAX_CLICK_AGE = 14 * 86400.0

# Lower bound for the decay iterate in bin-size units; keeps the model
# differentiable (mu = 0 would zero every gradient through the curve).
_DECAY_FLOOR = 1e-12


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


@dataclass(frozen=True, slots=True)
class FitConfig:
    """Gradient-descent settings for the profit-curve fit.

    step_size applies to the normalized problem (time in bin-size units,
    clicks in units of the histogram's largest per-page average), where the
    loss surface is well conditioned regardless of the raw units; precision
    bounds the normalized parameter step at which iteration stops.
    """

    step_size: float = 1e-3
    precision: float = 1e-8
    initial_profit: float = 1.0
    initial_decay: float = 1e-4
    max_iterations: int = 20_000
    divergence_patience: int = 8

    def __post_init__(self) -> None:
        if self.step_size <= 0:
            raise ValueError("step_size must be > 0")
        if self.precision <= 0:
            raise ValueError("precision must be > 0")
        if self.initial_profit <= 0:
            raise ValueError("initial_profit must be > 0")
        if self.initial_decay <= 0:
            raise ValueError("initial_decay must be > 0")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be > 0")
        if self.divergence_patience <= 0:
            raise ValueError("divergence_patience must be > 0")


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


class FitDivergenceError(RuntimeError):
    """The fit objective kept increasing; carries the last iterate."""

    def __init__(self, message: str, curve: ProfitCurve, objective: float):
        super().__init__(f"{message} (last objective {objective:.6g})")
        self.curve = curve
        self.objective = objective


def _objective_terms(
    ages: np.ndarray, targets: np.ndarray, profit: float, decay: float
) -> "tuple[float, float, float]":
    """Squared-residual loss and its gradients for the curve P(1-e^(-mu*a)).

    ages holds the bin right edges (i * D), targets the per-page cumulative
    click averages at those ages.  Defined for any real (profit, decay) so a
    diverging descent can be observed rather than masked.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(-decay * ages)
        model = 1.0 - e
        err = profit * model - targets
        value = float(err @ err)
        d_profit = 2.0 * float(err @ model)
        d_decay = 2.0 * profit * float(err @ (ages * e))
    return value, d_profit, d_decay


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
    return _objective_terms(ages, np.asarray(y[1:]), profit, decay)


def suggest_fit_config(
    hist: ClickHistogram,
    precision: float = 1e-8,
    max_iterations: int = 20_000,
    initial_profit: float | None = None,
    initial_decay: float | None = None,
) -> FitConfig:
    """FitConfig with data-driven initial values and a stable step size.

    The initial profit is the histogram's saturation level and the initial
    decay puts the curve's knee mid-histogram.  The step size is the inverse
    of the loss curvature at that starting point, so the first descent steps
    cannot overshoot even on badly scaled data.
    """
    y = hist.targets()
    if len(y) < 2:
        raise ValueError("fit needs at least 2 histogram bins")
    bins = len(y) - 1
    scale = max(max(y), 1e-300)
    p0 = initial_profit if initial_profit is not None else max(y) or scale
    m0 = initial_decay if initial_decay is not None else 2.0 / (bins * hist.bin_size)

    # Curvature of the normalized loss at the start: the diagonal of the
    # Gauss-Newton Hessian, 2*sum(model_i^2) + 2*sum((i * P * e^-mu*i)^2).
    i_arr = np.arange(1, bins + 1, dtype=float)
    e = np.exp(-(m0 * hist.bin_size) * i_arr)
    c_profit = 2.0 * float(np.sum((1.0 - e) ** 2))
    c_decay = 2.0 * float(np.sum((i_arr * (p0 / scale) * e) ** 2))
    step = min(1.0 / max(c_profit + c_decay, 1e-12), 0.25)
    return FitConfig(
        step_size=step,
        precision=precision,
        initial_profit=max(p0, 1e-300),
        initial_decay=max(m0, _DECAY_FLOOR / hist.bin_size),
        max_iterations=max_iterations,
    )


def fit_profit_curve(
    hist: ClickHistogram,
    config: FitConfig | None = None,
    trace: "list[float] | None" = None,
) -> ProfitCurve:
    """Fit P(1 - exp(-mu * age)) to a click histogram by gradient descent.

    Internally the problem is normalized (ages in bin-size units, targets in
    units of their maximum) so one step size suits any data scale; the
    returned curve is in raw units, with profit clamped to >= 0 and decay
    kept strictly positive.  Raises FitDivergenceError, carrying the last
    iterate, if the objective rises for divergence_patience consecutive
    steps.  When trace is given, the raw-unit objective of every visited
    iterate is appended to it.
    """
    if hist.page_count <= 0:
        raise ValueError("fit needs page_count > 0")
    y = hist.targets()
    if len(y) < 2:
        raise ValueError("fit needs at least 2 histogram bins")
    cfg = config or suggest_fit_config(hist)

    scale = max(max(y), 1e-300)
    i_arr = np.arange(1, len(y), dtype=float)
    targets = np.asarray(y[1:]) / scale
    p_hat = cfg.initial_profit / scale
    m_hat = max(cfg.initial_decay * hist.bin_size, _DECAY_FLOOR)

    def clamped(p: float, m: float) -> ProfitCurve:
        return ProfitCurve(
            max(p * scale, 0.0), max(m, _DECAY_FLOOR) / hist.bin_size
        )

    raw_factor = scale * scale  # F_raw = scale^2 * F_normalized
    last_value = math.inf
    rising = 0
    for _ in range(cfg.max_iterations):
        value, d_profit, d_decay = _objective_terms(i_arr, targets, p_hat, m_hat)
        if not math.isfinite(value):
            raise FitDivergenceError(
                "objective overflowed", clamped(p_hat, m_hat), value
            )
        if trace is not None:
            trace.append(value * raw_factor)
        if value > last_value:
            rising += 1
            if rising >= cfg.divergence_patience:
                raise FitDivergenceError(
                    f"objective rose for {rising} consecutive steps",
                    clamped(p_hat, m_hat),
                    value * raw_factor,
                )
        else:
            rising = 0
        last_value = value

        # Plain descent steps: the iterates roam freely, only the returned
        # curve is clamped to the model's valid domain.
        new_p = p_hat - cfg.step_size * d_profit
        new_m = m_hat - cfg.step_size * d_decay
        done = max(abs(new_p - p_hat), abs(new_m - m_hat)) <= cfg.precision
        p_hat, m_hat = new_p, new_m
        if done:
            break
    return clamped(p_hat, m_hat)


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
        fit_precision: float = 1e-6,
        fit_max_iterations: int = 4000,
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
        self.fit_precision = float(fit_precision)
        self.fit_max_iterations = int(fit_max_iterations)
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
        warm = track.fitted
        config = suggest_fit_config(
            hist,
            precision=self.fit_precision,
            max_iterations=self.fit_max_iterations,
            # warm start from the previous fit when it is a usable init
            initial_profit=warm.profit if warm and warm.profit > 0 else None,
            initial_decay=warm.decay if warm else None,
        )
        try:
            curve = fit_profit_curve(hist, config)
        except FitDivergenceError as err:
            logger.warning("fit diverged for source %s: %s", source, err)
            curve = err.curve
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
