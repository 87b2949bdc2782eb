"""Discrete-event simulation of crawling ephemeral-content sources.

Generates synthetic ground truth (pages appearing on rolling source listings,
per-page click processes whose intensity decays exponentially with age) and
replays a crawl policy against it slot by slot.  The policy only ever sees
what a real crawler could observe: listings at recrawl time and click logs
pushed in periodic batches; ground-truth click times are used solely to score
page fetches and to bound the achievable profit rate.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import (
    CrawlPage,
    CrawlRecord,
    CrawlTrace,
    MetricConfig,
    PageId,
    RecrawlSource,
    Seconds,
    SourceId,
    _source_error,
    check_setting,
    quality_series,
    validate_trace,
)
from .estimators import EstimatorState
from .optimizer import (
    NoConvergenceError,
    Schedule,
    ScheduleInfeasibleError,
    solve_schedule,
)
from .policies import CrawlPolicy, Idle, make_policy, POLICY_NAMES

DAY = 86400.0
WEEK = 7 * DAY

CLICK_DISTRIBUTIONS = ("geometric", "poisson")

# Most fetch slots one run may have.  A slot costs about 14 us of crawl
# loop and 150 bytes of trace, so this many take over two minutes and about
# 1.5 GB; a budget that asks for more is a unit slip, not a crawl.
MAX_SLOTS = 10_000_000


class SimulationError(RuntimeError):
    """A policy emitted a decision the crawler cannot legally execute."""


@dataclass(frozen=True)
class SourceSpec:
    """True generating parameters of one content source.

    lambda_rate  mean page creations per second (base rate before modulation)
    profit_mean  mean total clicks per page (P)
    decay        click intensity decay rate per second of page age (mu)

    Each value must be finite, as in SourceParams.
    """

    lambda_rate: float
    profit_mean: float
    decay: float

    def __post_init__(self) -> None:
        error = _source_error(self.lambda_rate, self.profit_mean, self.decay, "profit_mean")
        if error is not None:
            raise ValueError(error)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to generate one synthetic crawl scenario.

    Sources are numbered by their position in source_specs.  Page creations
    follow a Poisson process whose rate may be modulated by sinusoids with
    daily and weekly periods (amplitudes as fractions of the base rate; their
    sum must stay <= 1 so the intensity never goes negative).  Each source
    lists its link_window most recent pages; budget is the default crawl rate
    in fetches per second for runs on this scenario.
    """

    source_specs: "tuple[SourceSpec, ...]"
    horizon: Seconds
    link_window: int = 40
    budget: float = 0.01
    seed: int = 0
    daily_amplitude: float = 0.0
    weekly_amplitude: float = 0.0
    click_distribution: str = "geometric"

    def __post_init__(self) -> None:
        object.__setattr__(self, "source_specs", tuple(self.source_specs))
        if not self.source_specs:
            raise ValueError("source_specs must not be empty")
        check_setting("horizon", self.horizon)
        if self.link_window < 1:
            raise ValueError(f"link_window must be >= 1, got {self.link_window}")
        check_setting("budget", self.budget)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        check_setting("daily_amplitude", self.daily_amplitude, ">= 0")
        check_setting("weekly_amplitude", self.weekly_amplitude, ">= 0")
        if self.daily_amplitude + self.weekly_amplitude > 1.0:
            raise ValueError("modulation amplitudes must sum to <= 1")
        if self.click_distribution not in CLICK_DISTRIBUTIONS:
            raise ValueError(
                f"click_distribution must be one of {CLICK_DISTRIBUTIONS}, "
                f"got {self.click_distribution!r}"
            )


@dataclass(frozen=True)
class LinkEvent:
    """One page's visibility window on its source listing."""

    page: PageId
    source: SourceId
    appear: Seconds
    vanish: Seconds

    def __post_init__(self) -> None:
        if not self.appear < self.vanish:
            raise ValueError(
                f"appear must precede vanish, got [{self.appear}, {self.vanish})"
            )


@dataclass(frozen=True)
class PageGroundTruth:
    """True click history of one page; click_times must be sorted."""

    page: PageId
    source: SourceId
    created: Seconds
    click_times: "tuple[Seconds, ...]"

    def __post_init__(self) -> None:
        object.__setattr__(self, "click_times", tuple(self.click_times))
        times = self.click_times
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("click_times must be sorted")
        if times and times[0] < self.created:
            raise ValueError("clicks cannot precede page creation")

    @property
    def total_clicks(self) -> int:
        return len(self.click_times)

    def clicks_after(self, t: Seconds) -> int:
        """Clicks at or after t: the profit realized by a fetch at t."""
        return len(self.click_times) - bisect_left(self.click_times, t)


@dataclass(frozen=True)
class Scenario:
    """Generated ground truth: link events, page click histories, config.

    Each click is held once, in its page's click_times; clicks derives the
    time-ordered stream from pages, and run does not read it.
    """

    config: ScenarioConfig
    events: "tuple[LinkEvent, ...]"
    pages: "Mapping[PageId, PageGroundTruth]"

    @property
    def n_sources(self) -> int:
        return len(self.config.source_specs)

    @cached_property
    def clicks(self) -> "tuple[tuple[Seconds, PageId], ...]":
        """Every (time, page) click event of pages, in time order."""
        return tuple(sorted((t, p) for p, page in self.pages.items() for t in page.click_times))


@dataclass(frozen=True)
class RunConfig:
    """Knobs of one simulated crawl run.

    budget overrides the scenario default when set.  Click logs arrive in
    batches every logs_push_period seconds; schedules are re-solved from
    current estimates every reschedule_period seconds.  warmup (defaults to
    two thirds of the horizon) is excluded from the headline quality so
    cold-start estimation noise does not dominate the comparison.
    """

    policy: str = "echo-schedule"
    budget: float | None = None
    reschedule_period: Seconds = 1800.0
    logs_push_period: Seconds = 3600.0
    bin_size: Seconds = 1200.0
    history_size: int = 7
    warmup: Seconds | None = None
    policy_seed: int = 0
    metric: MetricConfig = field(default_factory=MetricConfig)

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {self.policy!r}, pick from {POLICY_NAMES}")
        if self.budget is not None:
            check_setting("budget", self.budget)
        for name in ("reschedule_period", "logs_push_period", "bin_size"):
            check_setting(name, getattr(self, name))
        if self.history_size < 2:
            raise ValueError("history_size must be >= 2")
        if self.warmup is not None:
            check_setting("warmup", self.warmup, ">= 0")

    def window(self, scenario: ScenarioConfig) -> "tuple[float, Seconds]":
        """(budget, warmup) of a run on `scenario`: the scenario's budget
        when none is set here, and two thirds of its horizon when no warmup
        is.  Raises ValueError unless the warmup falls inside the horizon
        and the run has at most MAX_SLOTS fetch slots (ceil(horizon *
        budget))."""
        budget = self.budget if self.budget is not None else scenario.budget
        warmup = self.warmup if self.warmup is not None else scenario.horizon * (2.0 / 3.0)
        if warmup >= scenario.horizon:
            raise ValueError(f"warmup {warmup} must fall inside the horizon {scenario.horizon}")
        if scenario.horizon * budget > MAX_SLOTS:
            raise ValueError(
                f"budget {budget} gives {scenario.horizon * budget:.4g} fetch slots over "
                f"the horizon {scenario.horizon}; a run may have at most {MAX_SLOTS}"
            )
        return budget, warmup


@dataclass(frozen=True)
class MetricReport:
    """Outcome of one run; overall_quality excludes the warm-up prefix."""

    policy: str
    budget: float
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
    series: "tuple[tuple[Seconds, float], ...]"


def _modulated_fraction(
    times: np.ndarray, daily: float, weekly: float
) -> np.ndarray:
    """Intensity at `times` as a fraction of the base rate (in [0, 2])."""
    frac = np.ones_like(times)
    if daily > 0:
        frac += daily * np.sin(2.0 * np.pi * times / DAY)
    if weekly > 0:
        frac += weekly * np.sin(2.0 * np.pi * times / WEEK)
    return frac


def _poisson_times(
    rng: np.random.Generator, spec: SourceSpec, config: ScenarioConfig
) -> np.ndarray:
    """Creation times on [0, horizon) with sinusoidally modulated rate.

    Thinning: draw a homogeneous process at the peak rate, then keep each
    point with probability intensity(t) / peak.
    """
    daily, weekly = config.daily_amplitude, config.weekly_amplitude
    peak = spec.lambda_rate * (1.0 + daily + weekly)
    if peak <= 0:
        return np.empty(0)
    expected = peak * config.horizon
    times: "list[np.ndarray]" = []
    t = 0.0
    # enough gaps to overshoot the horizon in one draw almost always
    chunk = max(int(expected + 6.0 * math.sqrt(expected)) + 16, 16)
    while t < config.horizon:
        gaps = rng.exponential(1.0 / peak, size=chunk)
        arrivals = t + np.cumsum(gaps)
        times.append(arrivals)
        t = float(arrivals[-1])
    all_times = np.concatenate(times)
    all_times = all_times[all_times < config.horizon]
    if daily > 0 or weekly > 0:
        accept = rng.random(all_times.size) * (1.0 + daily + weekly)
        all_times = all_times[accept <= _modulated_fraction(all_times, daily, weekly)]
    return np.unique(all_times)


def _click_counts(
    rng: np.random.Generator, spec: SourceSpec, n: int, distribution: str
) -> np.ndarray:
    if distribution == "poisson":
        return rng.poisson(spec.profit_mean, size=n)
    # geometric on {0, 1, ...} with mean P: numpy's geometric starts at 1
    return rng.geometric(1.0 / (1.0 + spec.profit_mean), size=n) - 1


def generate_scenario(config: ScenarioConfig) -> Scenario:
    """Draw one scenario from the generative model in `config`.

    Per source: page creations are a (modulated) Poisson process; each page
    draws an independent click count with mean P, and each click an age
    distributed Exp(mu), so the expected clicks remaining after age dt is
    P * exp(-mu * dt).  A page's link stays listed until the source has
    produced link_window + 1 newer pages (the listing is a rolling window),
    or until the horizon when that never happens.
    """
    events: "list[LinkEvent]" = []
    pages: "dict[PageId, PageGroundTruth]" = {}
    next_page = 0
    window = config.link_window
    for sid, spec in enumerate(config.source_specs):
        rng = np.random.default_rng([config.seed, sid])
        created = _poisson_times(rng, spec, config)
        counts = _click_counts(rng, spec, created.size, config.click_distribution)
        ages = rng.exponential(1.0 / spec.decay, size=int(counts.sum()))
        offsets = np.concatenate(([0], np.cumsum(counts)))
        for j in range(created.size):
            pid = next_page
            next_page += 1
            t0 = float(created[j])
            page_ages = ages[offsets[j] : offsets[j + 1]]
            click_times = tuple(sorted(t0 + float(a) for a in page_ages))
            drop = j + window + 1
            vanish = float(created[drop]) if drop < created.size else config.horizon
            events.append(LinkEvent(pid, sid, t0, vanish))
            pages[pid] = PageGroundTruth(pid, sid, t0, click_times)
    return Scenario(config, tuple(events), pages)


def oracle_upper_bound(scenario: Scenario) -> float:
    """Profit rate of a crawler that caught every page instantly.

    Every click is realizable at best, so no policy can beat
    total clicks / horizon.
    """
    total = sum(gt.total_clicks for gt in scenario.pages.values())
    return total / scenario.config.horizon


class _SourceListing:
    """Per-source visibility index: which page links a recrawl at t reveals.

    appear and vanish are both sorted (the listing is a rolling window, so
    pages leave it in creation order), which makes the visible set a
    contiguous index range and lets discovery advance a single pointer.
    """

    def __init__(self, events: "Sequence[LinkEvent]"):
        ordered = sorted(events, key=lambda ev: ev.appear)
        self.appear = [ev.appear for ev in ordered]
        self.vanish = [ev.vanish for ev in ordered]
        self.pids = [ev.page for ev in ordered]
        self.next_new = 0  # lowest index never yet discovered

    def reveal(self, now: Seconds) -> "list[PageId]":
        """New page links visible at `now`; advances past vanished ones."""
        lo = bisect_right(self.vanish, now)  # first index still listed
        hi = bisect_right(self.appear, now) - 1  # last index already created
        start = max(lo, self.next_new)
        fresh = self.pids[start : hi + 1]
        self.next_new = max(self.next_new, lo, hi + 1)
        return fresh


def _slot_times(horizon: Seconds, budget: float) -> "Iterator[tuple[int, float]]":
    """Fetch slots: the k-th fetch may start at k / budget, within horizon."""
    width = 1.0 / budget
    k = 0
    while True:
        t = k * width
        if t >= horizon:
            return
        yield k, t
        k += 1


def run(
    scenario: Scenario,
    config: RunConfig | None = None,
    policy: CrawlPolicy | None = None,
) -> "tuple[CrawlTrace, MetricReport]":
    """Simulate one crawl of `scenario` under `config` and score it.

    The crawler gets one fetch per slot of 1 / budget seconds.  Before each
    decision, any due log batches are pushed into the estimator and any due
    reschedules re-solve the policy's schedule from current estimates (a
    failed solve keeps the previous schedule; a failure before the first
    success raises the solver's error, as there is no schedule to keep).
    Recrawling a source reveals the currently listed links; fetching a page
    realizes its clicks from that moment on.  Fetching an unknown or already-fetched page aborts the
    run: that is a policy bug, not a valid strategy.

    A pre-built policy instance overrides config.policy; the report then
    carries the instance's class name.
    """
    cfg = config or RunConfig()
    budget, warmup = cfg.window(scenario.config)
    horizon = scenario.config.horizon

    sources = list(range(scenario.n_sources))
    policy_name = cfg.policy if policy is None else type(policy).__name__
    if policy is None:
        policy = make_policy(cfg.policy, sources, seed=cfg.policy_seed)
    estimator = EstimatorState(bin_size=cfg.bin_size, history_capacity=cfg.history_size)
    for sid in sources:
        estimator.ensure_source(sid)

    per_source: "dict[SourceId, list[LinkEvent]]" = {sid: [] for sid in sources}
    for ev in scenario.events:
        per_source[ev.source].append(ev)
    listings = {sid: _SourceListing(evs) for sid, evs in per_source.items()}

    trace: "list[CrawlRecord]" = []
    discovered: "set[PageId]" = set()
    fetched: "set[PageId]" = set()
    # Click events queue up once their page is discovered: the engine's log
    # store has each discovered page's full click history, so clicks that
    # predate discovery surface in the first push after it, not never.
    pending_clicks: "list[tuple[Seconds, PageId]]" = []
    next_push = 0.0
    next_reschedule = 0.0
    idle_slots = 0
    schedule_failures = 0
    total = tail = 0.0  # clicks realized in all and after the warm-up: exact sums

    def push_due_logs(now: Seconds) -> None:
        nonlocal next_push
        while next_push <= now:
            batch: "list[tuple[PageId, Seconds]]" = []
            while pending_clicks and pending_clicks[0][0] <= next_push:
                t_click, pid = heapq.heappop(pending_clicks)
                batch.append((pid, t_click))
            estimator.push_logs(batch, next_push)
            if policy.uses_values:
                policy.set_source_values(estimator.value_rates(next_push))
            next_push += cfg.logs_push_period

    def refresh_due_schedule(now: Seconds) -> None:
        nonlocal next_reschedule, schedule_failures
        if not policy.uses_schedule:
            return
        while next_reschedule <= now:
            t = next_reschedule
            next_reschedule += cfg.reschedule_period
            params = policy.schedule_params(estimator.params_snapshot(t))
            try:
                policy.set_schedule(solve_schedule(params, budget))
            except (ScheduleInfeasibleError, NoConvergenceError):
                if policy.schedule is None:  # no previous schedule to keep
                    raise
                # keep steering by the previous schedule until estimates improve
                schedule_failures += 1

    for slot, now in _slot_times(horizon, budget):
        push_due_logs(now)
        refresh_due_schedule(now)
        decision = policy.decide(now, slot_index=slot)
        if isinstance(decision, RecrawlSource):
            sid = decision.source
            if sid not in listings:
                raise SimulationError(
                    f"policy {policy_name!r} recrawled unknown source {sid} at t={now}"
                )
            fresh = listings[sid].reveal(now)
            for pid in fresh:
                discovered.add(pid)
                estimator.register_page(pid, sid, scenario.pages[pid].created)
                policy.observe_page(pid, sid, discovered=now)
                for t_click in scenario.pages[pid].click_times:
                    heapq.heappush(pending_clicks, (t_click, pid))
            estimator.record_crawl(sid, now, len(fresh))
            policy.observe_source_crawled(sid, now)
            trace.append(CrawlRecord(time=now, action=decision))
        elif isinstance(decision, CrawlPage):
            pid = decision.page
            if pid not in discovered or pid in fetched:
                state = "already fetched" if pid in fetched else "undiscovered"
                raise SimulationError(
                    f"policy {policy_name!r} fetched {state} page {pid} "
                    f"at t={now} (slot {slot})"
                )
            fetched.add(pid)
            realized = float(scenario.pages[pid].clicks_after(now))
            total += realized
            if now >= warmup:
                tail += realized
            trace.append(CrawlRecord(time=now, action=decision, realized_profit=realized))
            policy.observe_page_crawled(pid, now)
        elif isinstance(decision, Idle):
            idle_slots += 1
        else:
            raise SimulationError(f"unrecognized decision {decision!r}")

    validate_trace(trace, slot_width=1.0 / budget)
    report = MetricReport(
        policy=policy_name,
        budget=budget,
        horizon=horizon,
        warmup=warmup,
        overall_quality=tail / (horizon - warmup),
        full_quality=total / horizon,
        total_profit=total,
        recrawls=len(trace) - len(fetched),
        page_fetches=len(fetched),
        idle_slots=idle_slots,
        discovered_pages=len(discovered),
        missed_pages=len(scenario.pages) - len(discovered),
        unknown_clicks=estimator.unknown_clicks,
        schedule_failures=schedule_failures,
        series=tuple(quality_series(trace, horizon, cfg.metric)),
    )
    return trace, report


def simulate_schedule_follower(
    scenario: Scenario, intervals: "Mapping[SourceId, Seconds]"
) -> float:
    """Profit rate of mechanically recrawling each source every I_i seconds.

    Isolates the recrawl timing question: every revealed page is fetched the
    instant its source recrawl reveals it (page-fetch capacity is assumed
    ample).  Source i is recrawled at I_i, 2 I_i, ... up to the horizon; a
    page is caught at the first recrawl at or after it appears, provided its
    link has not vanished by then.  Returns total realized clicks / horizon.
    """
    horizon = scenario.config.horizon
    total = 0.0
    for ev in scenario.events:
        interval = intervals.get(ev.source, math.inf)
        if not math.isfinite(interval):
            continue
        if interval <= 0:
            raise ValueError(f"interval for source {ev.source} must be > 0")
        catch = max(math.ceil(ev.appear / interval), 1) * interval
        if catch >= ev.vanish or catch > horizon:
            continue
        total += scenario.pages[ev.page].clicks_after(catch)
    return total / horizon
