"""Simulator tests: generator statistics against the sampling model,
event-loop legality and conservation invariants, policy convergence at
saturation, and the schedule-follower consistency check against the
closed-form quality of a solved schedule."""

import math
from dataclasses import replace

import numpy as np
import pytest

from echocrawl.core import CrawlPage, MetricConfig, RecrawlSource, SourceParams
from echocrawl import cli, fileio
from echocrawl.estimators import EstimatorState
from echocrawl.optimizer import ScheduleInfeasibleError, closed_form_quality, solve_schedule
from echocrawl.policies import POLICY_NAMES, CrawlPolicy, EchoSchedulePolicy, make_policy
from echocrawl.simulator import (
    LinkEvent,
    PageGroundTruth,
    RunConfig,
    Scenario,
    ScenarioConfig,
    SimulationError,
    SourceSpec,
    generate_scenario,
    oracle_upper_bound,
    run,
    simulate_schedule_follower,
)

DAY = 86400.0
WEEK = 7 * DAY


def tiny_scenario(click_times=((5.0, 7.0),), horizon=100.0):
    """Hand-built scenario: one source, one page per click_times entry."""
    specs = (SourceSpec(0.01, 1.0, 0.001),)
    config = ScenarioConfig(specs, horizon=horizon, link_window=5, budget=0.1)
    events, pages = [], {}
    for pid, times in enumerate(click_times):
        created = float(pid)
        events.append(LinkEvent(pid, 0, created, horizon))
        pages[pid] = PageGroundTruth(pid, 0, created, tuple(times))
    return Scenario(config, tuple(events), pages)


class TestConfigValidation:
    def test_source_spec_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SourceSpec(-1.0, 1.0, 0.001)
        with pytest.raises(ValueError):
            SourceSpec(0.1, -1.0, 0.001)
        with pytest.raises(ValueError):
            SourceSpec(0.1, 1.0, 0.0)
        with pytest.raises(ValueError, match="lambda_rate must be finite, got nan"):
            SourceSpec(math.nan, 1.0, 0.001)
        with pytest.raises(ValueError, match="profit_mean must be finite, got inf"):
            SourceSpec(0.1, math.inf, 0.001)
        with pytest.raises(ValueError, match="decay must be finite, got inf"):
            SourceSpec(0.1, 1.0, math.inf)

    def test_scenario_config_rejects_bad_values(self):
        spec = SourceSpec(0.01, 1.0, 0.001)
        with pytest.raises(ValueError):
            ScenarioConfig((), horizon=100.0)
        with pytest.raises(ValueError):
            ScenarioConfig((spec,), horizon=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig((spec,), horizon=100.0, link_window=0)
        with pytest.raises(ValueError):
            ScenarioConfig((spec,), horizon=100.0, budget=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig((spec,), horizon=100.0, daily_amplitude=0.7, weekly_amplitude=0.5)
        with pytest.raises(ValueError):
            ScenarioConfig((spec,), horizon=100.0, click_distribution="uniform")
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            ScenarioConfig((spec,), horizon=100.0, seed=-1)

    def test_run_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RunConfig(policy="no-such-policy")
        with pytest.raises(ValueError):
            RunConfig(budget=0.0)
        with pytest.raises(ValueError):
            RunConfig(reschedule_period=0.0)
        with pytest.raises(ValueError):
            RunConfig(history_size=1)
        with pytest.raises(ValueError):
            RunConfig(warmup=-1.0)
        scenario = ScenarioConfig((SourceSpec(0.01, 1.0, 0.001),), horizon=90.0)
        with pytest.raises(ValueError, match="warmup 90.0 must fall inside the horizon 90.0"):
            RunConfig(warmup=90.0).window(scenario)


class TestGenerator:
    def test_zero_rate_source_creates_no_pages(self):
        config = ScenarioConfig(
            (SourceSpec(0.0, 1.0, 0.001), SourceSpec(0.005, 1.0, 0.001)),
            horizon=5 * DAY,
        )
        scenario = generate_scenario(config)
        assert all(p.source == 1 for p in scenario.pages.values())

    def test_page_counts_near_poisson_mean(self):
        lam = 0.004
        config = ScenarioConfig(
            tuple(SourceSpec(lam, 1.0, 0.001) for _ in range(4)), horizon=10 * DAY
        )
        scenario = generate_scenario(config)
        expected = lam * config.horizon
        for sid in range(4):
            count = sum(1 for p in scenario.pages.values() if p.source == sid)
            assert abs(count - expected) <= 4.5 * math.sqrt(expected)

    def test_click_counts_near_profit_mean(self):
        config = ScenarioConfig(
            (SourceSpec(0.01, 3.0, 1e-4),), horizon=10 * DAY, seed=3
        )
        scenario = generate_scenario(config)
        counts = [p.total_clicks for p in scenario.pages.values()]
        n = len(counts)
        mean = sum(counts) / n
        # geometric with mean P has variance P(1+P)
        sigma = math.sqrt(3.0 * 4.0 / n)
        assert abs(mean - 3.0) <= 4.0 * sigma

    def test_poisson_click_distribution_variance(self):
        config = ScenarioConfig(
            (SourceSpec(0.01, 3.0, 1e-4),),
            horizon=10 * DAY,
            seed=3,
            click_distribution="poisson",
        )
        scenario = generate_scenario(config)
        counts = [p.total_clicks for p in scenario.pages.values()]
        n = len(counts)
        mean = sum(counts) / n
        var = sum((c - mean) ** 2 for c in counts) / (n - 1)
        assert abs(mean - 3.0) <= 4.0 * math.sqrt(3.0 / n)
        assert 2.0 <= var <= 4.5  # poisson: variance == mean, far below geometric's 12

    def test_mean_clicks_after_age_matches_decay_curve(self):
        profit, decay = 4.0, 1e-3
        config = ScenarioConfig(
            (SourceSpec(0.02, profit, decay),), horizon=10 * DAY, seed=1
        )
        scenario = generate_scenario(config)
        pages = [
            p for p in scenario.pages.values() if p.created < config.horizon - 6000.0
        ]
        n = len(pages)
        for delta in (0.0, 500.0, 2000.0, 5000.0):
            observed = sum(p.clicks_after(p.created + delta) for p in pages) / n
            expected = profit * math.exp(-decay * delta)
            sigma = math.sqrt(profit * (1.0 + profit) / n)  # geometric upper bound
            assert abs(observed - expected) <= 3.0 * sigma, delta

    def test_daily_modulation_concentrates_pages_in_peak_half(self):
        for daily, weekly in ((1.0, 0.0), (0.5, 0.5)):
            config = ScenarioConfig(
                (SourceSpec(0.02, 1.0, 1e-3),),
                horizon=10 * DAY,
                seed=5,
                daily_amplitude=daily,
                weekly_amplitude=weekly,
            )
            scenario = generate_scenario(config)
            created = np.array([p.created for p in scenario.pages.values()])
            # the share of the intensity 1 + a_d sin(daily phase) + a_w
            # sin(weekly phase) that falls in each period's positive half;
            # for (1, 0) the daily share is (pi+2)/(2pi)
            grid = np.linspace(0.0, config.horizon, 1_000_000, endpoint=False)
            intensity = 1.0 + daily * np.sin(2 * np.pi * grid / DAY)
            intensity += weekly * np.sin(2 * np.pi * grid / WEEK)
            for period in (DAY, WEEK):
                peak = np.sin(2 * np.pi * grid / period) > 0
                expected = intensity[peak].sum() / intensity.sum()
                in_peak = np.mean(np.sin(2 * np.pi * created / period) > 0)
                assert abs(in_peak - expected) < 0.02, (daily, weekly, period)

    def test_vanish_is_creation_of_window_plus_first_subsequent_page(self):
        config = ScenarioConfig(
            (SourceSpec(0.01, 1.0, 1e-3),), horizon=5 * DAY, link_window=3, seed=2
        )
        scenario = generate_scenario(config)
        created = sorted(p.created for p in scenario.pages.values())
        by_page = {e.page: e for e in scenario.events}
        for pid, page in scenario.pages.items():
            j = created.index(page.created)
            drop = j + config.link_window + 1
            expected = created[drop] if drop < len(created) else config.horizon
            assert by_page[pid].vanish == pytest.approx(expected)

    def test_same_seed_reproduces_and_seeds_differ(self):
        config = ScenarioConfig((SourceSpec(0.01, 2.0, 1e-3),), horizon=2 * DAY)
        a = generate_scenario(config)
        b = generate_scenario(config)
        assert a == b
        c = generate_scenario(replace(config, seed=1))
        assert c.events != a.events

    def test_click_stream_is_sorted_and_complete(self):
        config = ScenarioConfig((SourceSpec(0.01, 2.0, 1e-3),), horizon=2 * DAY)
        scenario = generate_scenario(config)
        assert list(scenario.clicks) == sorted(scenario.clicks)
        total = sum(p.total_clicks for p in scenario.pages.values())
        assert len(scenario.clicks) == total


class TestOracle:
    def test_zero_clicks_scenario(self):
        assert oracle_upper_bound(tiny_scenario(click_times=((),))) == 0.0

    def test_single_page_ten_clicks_horizon_100(self):
        scenario = tiny_scenario(click_times=(tuple(float(i + 1) for i in range(10)),))
        assert oracle_upper_bound(scenario) == pytest.approx(0.1)


@pytest.fixture(scope="module")
def midsize_scenario():
    specs = (
        SourceSpec(1 / 300, 0.02, 1 / 1800),
        SourceSpec(1 / 3600, 4.0, 1 / 3600),
        SourceSpec(1 / 7200, 1.0, 1 / 14400),
        SourceSpec(1 / 300, 0.02, 1 / 1800),
        SourceSpec(1 / 7200, 1.0, 1 / 14400),
    )
    config = ScenarioConfig(
        specs, horizon=2 * DAY, link_window=10, budget=0.004, seed=7
    )
    return generate_scenario(config)


def assert_legal_trace(scenario, trace, budget):
    """Slot alignment, discovery-before-fetch, and no duplicate fetches."""
    width = 1.0 / budget
    discovered = set()
    fetched = set()
    last_time = -math.inf
    for rec in trace:
        slots = rec.time / width
        assert abs(slots - round(slots)) < 1e-6
        assert rec.time > last_time
        last_time = rec.time
        if isinstance(rec.action, RecrawlSource):
            sid = rec.action.source
            for event in scenario.events:
                if (
                    event.source == sid
                    and event.appear <= rec.time < event.vanish
                ):
                    discovered.add(event.page)
        else:
            pid = rec.action.page
            assert pid in discovered, pid
            assert pid not in fetched, pid
            fetched.add(pid)
            page = scenario.pages[pid]
            assert rec.realized_profit == page.clicks_after(rec.time)


class TestRun:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_trace_legal_and_conserves_clicks(self, midsize_scenario, policy):
        trace, report = run(midsize_scenario, RunConfig(policy=policy))
        assert_legal_trace(midsize_scenario, trace, midsize_scenario.config.budget)
        total = sum(p.total_clicks for p in midsize_scenario.pages.values())
        assert sum(r.realized_profit for r in trace) <= total
        assert report.full_quality <= oracle_upper_bound(midsize_scenario) + 1e-12

    def test_run_is_deterministic(self, midsize_scenario):
        config = RunConfig(policy="echo-newpages")
        first = run(midsize_scenario, config)
        second = run(midsize_scenario, config)
        assert first == second

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_value_rates_only_for_policies_that_use_them(
        self, midsize_scenario, policy, monkeypatch
    ):
        calls = []
        value_rates = EstimatorState.value_rates

        def counted(self, now):
            calls.append(now)
            return value_rates(self, now)

        monkeypatch.setattr(EstimatorState, "value_rates", counted)
        run(midsize_scenario, RunConfig(policy=policy))
        assert bool(calls) == (policy == "echo-greedy")

    def test_report_accounting(self, midsize_scenario):
        # the report the loop counts, against the trace it wrote
        horizon = midsize_scenario.config.horizon
        slots = math.ceil(horizon * midsize_scenario.config.budget)
        for policy in POLICY_NAMES:
            trace, report = run(midsize_scenario, RunConfig(policy=policy))
            assert report.recrawls + report.page_fetches + report.idle_slots == slots
            assert report.recrawls == sum(
                1 for r in trace if isinstance(r.action, RecrawlSource)
            )
            assert report.page_fetches == sum(
                1 for r in trace if isinstance(r.action, CrawlPage)
            )
            assert report.discovered_pages + report.missed_pages == len(
                midsize_scenario.pages
            )
            # realized profits are click counts: every sum is exact
            assert report.total_profit == sum(r.realized_profit for r in trace)
            assert report.warmup == pytest.approx(horizon * 2 / 3)
            tail = sum(r.realized_profit for r in trace if r.time >= report.warmup)
            assert report.overall_quality * (horizon - report.warmup) == pytest.approx(
                tail, rel=1e-12
            )
            assert report.unknown_clicks == 0

    def test_overall_quality_is_tail_rate(self, midsize_scenario):
        config = RunConfig(policy="bfs", warmup=1 * DAY)
        trace, report = run(midsize_scenario, config)
        tail = sum(r.realized_profit for r in trace if r.time >= 1 * DAY)
        assert report.overall_quality == pytest.approx(tail / (2 * DAY - 1 * DAY))
        assert report.warmup == 1 * DAY

    def test_budget_override_rescales_slots(self, midsize_scenario):
        horizon = midsize_scenario.config.horizon
        budget = 2 * midsize_scenario.config.budget
        _, doubled = run(midsize_scenario, RunConfig(policy="bfs", budget=budget))
        slots = doubled.recrawls + doubled.page_fetches + doubled.idle_slots
        assert slots == math.ceil(horizon * budget)
        assert doubled.budget == budget

    def test_series_spans_window_to_horizon(self, midsize_scenario):
        metric = MetricConfig(window=3600.0, sample_period=7200.0)
        _, report = run(midsize_scenario, RunConfig(policy="bfs", metric=metric))
        times = [t for t, _ in report.series]
        assert times[0] == pytest.approx(3600.0)
        assert times[-1] <= midsize_scenario.config.horizon
        assert all(b - a == pytest.approx(7200.0) for a, b in zip(times, times[1:]))

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_saturating_budget_converges_to_oracle(self, policy):
        specs = (
            SourceSpec(0.004, 2.0, 1e-3),
            SourceSpec(0.002, 1.0, 5e-4),
            SourceSpec(0.003, 0.5, 2e-3),
        )
        config = ScenarioConfig(specs, horizon=1 * DAY, link_window=50, seed=11)
        scenario = generate_scenario(config)
        oracle = oracle_upper_bound(scenario)
        # ~40x the total link rate: every page is fetched almost at creation
        _, report = run(scenario, RunConfig(policy=policy, budget=0.4))
        assert report.missed_pages == 0
        assert report.full_quality >= 0.95 * oracle
        assert report.full_quality <= oracle + 1e-12


class _RogueUnknownPage(CrawlPolicy):
    def decide(self, now, slot_index=0):
        return CrawlPage(10_000_000)


class _RogueDoubleFetch(CrawlPolicy):
    def __init__(self, sources):
        super().__init__(sources)
        self._pages = []

    def observe_page(self, page, source, discovered):
        self._pages.append(page)

    def observe_page_crawled(self, page, time):
        pass  # keeps the page, so the next decision refetches it

    def decide(self, now, slot_index=0):
        if self._pages:
            return CrawlPage(self._pages[0])
        return RecrawlSource(0)


class _RogueUnknownSource(CrawlPolicy):
    def decide(self, now, slot_index=0):
        return RecrawlSource(99)


class _RogueDecisionType(CrawlPolicy):
    def decide(self, now, slot_index=0):
        return "fetch something"


class TestIllegalDecisions:
    def test_unknown_page_fetch_aborts(self, midsize_scenario):
        with pytest.raises(SimulationError, match="undiscovered"):
            run(midsize_scenario, RunConfig(), policy=_RogueUnknownPage(range(5)))

    def test_double_fetch_aborts(self, midsize_scenario):
        with pytest.raises(SimulationError, match="already"):
            run(midsize_scenario, RunConfig(), policy=_RogueDoubleFetch(range(5)))

    def test_unknown_source_recrawl_aborts(self, midsize_scenario):
        with pytest.raises(SimulationError, match="recrawled unknown source 99 at t=0.0"):
            run(midsize_scenario, RunConfig(), policy=_RogueUnknownSource(range(5)))

    def test_unrecognized_decision_aborts(self, midsize_scenario):
        with pytest.raises(SimulationError, match="unrecognized decision 'fetch something'"):
            run(midsize_scenario, RunConfig(), policy=_RogueDecisionType(range(5)))


class _FailsSecondSolve(EchoSchedulePolicy):
    """echo-schedule whose second reschedule hands the solver sources it
    cannot schedule (every profit 0)."""

    def __init__(self, sources):
        super().__init__(sources)
        self.solves = 0
        self.solved = []  # the solve number of every schedule set

    def schedule_params(self, params):
        self.solves += 1
        if self.solves == 2:
            return {sid: replace(p, profit=0.0) for sid, p in params.items()}
        return params

    def set_schedule(self, schedule):
        super().set_schedule(schedule)
        self.solved.append(self.solves)


class TestScheduleFailures:
    @pytest.mark.parametrize(
        "policy", [name for name in POLICY_NAMES if make_policy(name, [0]).uses_schedule]
    )
    def test_first_failure_raises(self, policy):
        # the prior rate 1/3600 alone exceeds the budget: no first schedule
        config = ScenarioConfig(
            (SourceSpec(1 / 3600, 1.0, 1e-4),), horizon=DAY, budget=1e-4
        )
        with pytest.raises(ScheduleInfeasibleError):
            run(generate_scenario(config), RunConfig(policy=policy))

    def test_later_failure_keeps_the_previous_schedule(self, midsize_scenario):
        policy = _FailsSecondSolve(range(midsize_scenario.n_sources))
        trace, report = run(midsize_scenario, policy=policy)
        assert report.schedule_failures == 1
        assert policy.solved[:2] == [1, 3]
        assert policy.solves == len(policy.solved) + 1
        assert_legal_trace(midsize_scenario, trace, midsize_scenario.config.budget)


class TestDeadEnds:
    @pytest.mark.parametrize("seed, budget", [(4, 0.003681), (4, 0.007361), (15, 0.007361)])
    def test_echo_schedule_keeps_capturing_on_preset(self, seed, budget):
        # estimates that could reach 0 once left these cells at 0 clicks
        # after warm-up: a source whose rate is 0 is never recrawled again
        config = fileio.parse_experiment_config(cli._load_config("preset:main"))
        assert budget in config.budgets
        scenario = generate_scenario(replace(config.scenario, seed=seed))
        _, report = run(scenario, config.make_run_config("echo-schedule", budget))
        assert report.overall_quality > 0.0


class TestScheduleFollower:
    def test_rejects_nonpositive_interval(self, midsize_scenario):
        with pytest.raises(ValueError):
            simulate_schedule_follower(midsize_scenario, {0: 0.0})

    def test_infinite_interval_source_contributes_nothing(self):
        scenario = tiny_scenario(click_times=((5.0, 7.0),))
        assert simulate_schedule_follower(scenario, {0: math.inf}) == 0.0

    def test_catches_pages_at_next_multiple(self):
        # page created at t=1 with clicks at 5 and 7; interval 4 catches it
        # at t=4? no: creation 1.0 -> next multiple is 4.0, both clicks later.
        scenario = tiny_scenario(click_times=((), (5.0, 7.0)), horizon=100.0)
        quality = simulate_schedule_follower(scenario, {0: 4.0})
        assert quality == pytest.approx(2.0 / 100.0)
        # interval 6 catches at 6.0, after the click at 5
        quality = simulate_schedule_follower(scenario, {0: 6.0})
        assert quality == pytest.approx(1.0 / 100.0)

    def test_matches_closed_form_quality_in_model_regime(self):
        # high lambda/mu ratio, no vanishing, horizon >> intervals: the
        # regime where the interval objective and the event model agree
        params = {
            0: SourceParams(lambda_rate=1 / 50, profit=2.0, decay=1 / 4000),
            1: SourceParams(lambda_rate=1 / 100, profit=0.8, decay=1 / 5000),
            2: SourceParams(lambda_rate=1 / 150, profit=3.0, decay=1 / 7000),
            3: SourceParams(lambda_rate=1 / 80, profit=1.2, decay=1 / 3600),
        }
        budget = 0.5 * sum(p.lambda_rate for p in params.values())
        schedule = solve_schedule(params, budget)
        expected = closed_form_quality(schedule, params)
        specs = tuple(
            SourceSpec(p.lambda_rate, p.profit, p.decay)
            for _, p in sorted(params.items())
        )
        qualities = []
        for seed in range(5):
            config = ScenarioConfig(
                specs, horizon=14 * DAY, link_window=1_000_000, seed=seed
            )
            scenario = generate_scenario(config)
            qualities.append(
                simulate_schedule_follower(scenario, schedule.intervals)
            )
        mean = sum(qualities) / len(qualities)
        assert mean == pytest.approx(expected, rel=0.05)
