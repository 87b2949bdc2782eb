"""Policy decision tests: hand-built scenarios for each policy's ordering
rules, legality of emitted decisions, and determinism."""

import math

import pytest

from echocrawl.core import CrawlPage, RecrawlSource, SourceTable
from echocrawl.estimators import DEFAULT_DECAY
from echocrawl.optimizer import Schedule, solve_schedule
from echocrawl.policies import (
    POLICY_NAMES,
    BfsPolicy,
    EchoGreedyPolicy,
    EchoNewPagesPolicy,
    EchoSchedulePolicy,
    FixedQuotaPolicy,
    FrequencyPolicy,
    Idle,
    make_policy,
)


def fixed_schedule(intervals):
    """Schedule stub with the given {source: interval} map."""
    return Schedule(
        intervals=dict(intervals), omega=0.0, budget=1.0, residual=0.0
    )


def crawled(policy, source, time):
    policy.observe_source_crawled(source, time)


class TestPageOrder:
    def test_newest_first_with_id_ties(self):
        policy = EchoSchedulePolicy([0, 1])
        policy.set_schedule(fixed_schedule({0: math.inf, 1: math.inf}))
        policy.observe_page(5, source=0, discovered=10.0)
        policy.observe_page(9, source=0, discovered=20.0)
        policy.observe_page(3, source=1, discovered=20.0)
        fetched = []
        for now in (21.0, 22.0, 23.0):
            decision = policy.decide(now)
            fetched.append(decision.page)
            policy.observe_page_crawled(decision.page, now)
        assert fetched == [3, 9, 5]  # newest, tie to lowest id
        assert policy.decide(24.0) == Idle()

    @pytest.mark.parametrize("name", ["echo-schedule", "bfs"])
    def test_fetching_other_than_next_raises(self, name):
        policy = make_policy(name, [0])
        policy.observe_page(5, source=0, discovered=10.0)
        policy.observe_page(9, source=0, discovered=20.0)
        with pytest.raises(ValueError, match="fetched page 7 is not"):
            policy.observe_page_crawled(7, 21.0)
        # newest first for the heap policies, discovery order for bfs
        first, second = (9, 5) if name == "echo-schedule" else (5, 9)
        with pytest.raises(ValueError, match=f"fetched page {second} is not"):
            policy.observe_page_crawled(second, 21.0)
        policy.observe_page_crawled(first, 21.0)
        policy.observe_page_crawled(second, 22.0)
        with pytest.raises(ValueError, match="fetched page 5 is not"):
            policy.observe_page_crawled(5, 23.0)  # already fetched


class TestEchoSchedule:
    def test_due_source_beats_frontier(self):
        policy = EchoSchedulePolicy([0, 1])
        policy.set_schedule(fixed_schedule({0: 10.0, 1: 100.0}))
        crawled(policy, 0, 0.0)
        crawled(policy, 1, 0.0)
        policy.observe_page(50, source=1, discovered=5.0)
        # at t=12: source 0 ratio 1.2 due, frontier nonempty
        assert policy.decide(12.0) == RecrawlSource(0)

    def test_most_recent_page_when_none_due(self):
        policy = EchoSchedulePolicy([0])
        policy.set_schedule(fixed_schedule({0: 100.0}))
        crawled(policy, 0, 0.0)
        policy.observe_page(10, source=0, discovered=10.0)
        policy.observe_page(11, source=0, discovered=20.0)
        assert policy.decide(30.0) == CrawlPage(11)

    def test_idle_when_nothing_available(self):
        policy = EchoSchedulePolicy([0])
        policy.set_schedule(fixed_schedule({0: 100.0}))
        crawled(policy, 0, 0.0)
        assert policy.decide(50.0) == Idle()

    def test_max_ratio_wins_with_id_tie(self):
        policy = EchoSchedulePolicy([0, 1, 2])
        policy.set_schedule(fixed_schedule({0: 10.0, 1: 5.0, 2: 10.0}))
        for s in (0, 1, 2):
            crawled(policy, s, 0.0)
        # ratios at t=20: 2.0, 4.0, 2.0
        assert policy.decide(20.0) == RecrawlSource(1)
        crawled(policy, 1, 20.0)
        # ratios at t=30: 3.0, 2.0, 3.0 -> tie between 0 and 2
        assert policy.decide(30.0) == RecrawlSource(0)

    def test_never_crawled_is_infinitely_due(self):
        policy = EchoSchedulePolicy([0, 1])
        policy.set_schedule(fixed_schedule({0: 10.0, 1: 10.0}))
        assert policy.decide(0.0) == RecrawlSource(0)
        crawled(policy, 0, 0.0)
        assert policy.decide(0.0) == RecrawlSource(1)

    def test_infinite_interval_never_recrawled(self):
        policy = EchoSchedulePolicy([0, 1])
        policy.set_schedule(fixed_schedule({0: math.inf, 1: 10.0}))
        crawled(policy, 1, 0.0)
        decision = policy.decide(1000.0)
        assert decision == RecrawlSource(1)

    def test_requires_schedule(self):
        with pytest.raises(ValueError):
            EchoSchedulePolicy([0]).decide(0.0)

    @pytest.mark.parametrize("interval", [3.0, 1024.0, 86400.0 / 7])
    def test_one_ulp_short_is_not_due(self, interval):
        policy = EchoSchedulePolicy([0])
        policy.set_schedule(fixed_schedule({0: interval}))
        crawled(policy, 0, 0.0)
        assert policy.decide(math.nextafter(interval, 0.0)) == Idle()
        assert policy.decide(interval) == RecrawlSource(0)


class TestEchoNewPages:
    def test_pages_first_even_when_overdue(self):
        policy = EchoNewPagesPolicy([0])
        policy.set_schedule(fixed_schedule({0: 1.0}))
        crawled(policy, 0, 0.0)
        policy.observe_page(10, source=0, discovered=0.0)
        assert policy.decide(100.0) == CrawlPage(10)

    def test_most_behind_source_without_due_requirement(self):
        policy = EchoNewPagesPolicy([0, 1])
        policy.set_schedule(fixed_schedule({0: 100.0, 1: 100.0}))
        crawled(policy, 0, 0.0)
        crawled(policy, 1, 40.0)
        # at t=90: ratios 0.9 and 0.5 -> source 0 despite not being due
        assert policy.decide(90.0) == RecrawlSource(0)

    def test_idle_when_all_infinite(self):
        policy = EchoNewPagesPolicy([0])
        policy.set_schedule(fixed_schedule({0: math.inf}))
        assert policy.decide(10.0) == Idle()


class TestEchoGreedy:
    def test_score_arithmetic(self):
        policy = EchoGreedyPolicy([0, 1])
        policy.set_source_values({0: 0.1, 1: 0.5})
        crawled(policy, 0, 0.0)   # elapsed 10 at t=10
        crawled(policy, 1, 7.0)   # elapsed 3 at t=10
        # scores: 0.1*10 = 1.0 vs 0.5*3 = 1.5
        assert policy.decide(10.0) == RecrawlSource(1)

    def test_zero_values_tie_breaks_by_elapsed(self):
        policy = EchoGreedyPolicy([0, 1, 2])
        crawled(policy, 0, 5.0)
        crawled(policy, 1, 2.0)
        crawled(policy, 2, 8.0)
        # all value rates zero: largest elapsed wins
        assert policy.decide(10.0) == RecrawlSource(1)

    def test_never_crawled_probed_first(self):
        # with every value rate positive, a never-crawled source scores
        # infinitely and is probed first; a zero rate would leave it behind
        # every positive score (next test)
        policy = EchoGreedyPolicy([3, 1, 2])
        policy.set_source_values({1: 5.0, 2: 0.001, 3: 0.001})
        crawled(policy, 1, 0.0)
        assert policy.decide(1.0) == RecrawlSource(2)

    def test_zero_value_source_loses_to_any_positive_score(self):
        # a source with no observed value is starved while valued sources
        # exist, even if it has never been crawled
        policy = EchoGreedyPolicy([0, 1])
        policy.set_source_values({0: 5.0, 1: 0.0})
        crawled(policy, 0, 0.0)
        assert policy.decide(1.0) == RecrawlSource(0)

    def test_all_zero_rates_pick_longest_unrecrawled_lowest_id(self):
        policy = EchoGreedyPolicy([0, 1, 2, 3])
        policy.set_source_values({0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0})
        crawled(policy, 0, 6.0)
        crawled(policy, 1, 3.0)
        crawled(policy, 2, 8.0)
        crawled(policy, 3, 3.0)
        # elapsed 4, 7, 2, 7 at t=10: 1 and 3 tie, the lower id wins
        assert policy.decide(10.0) == RecrawlSource(1)

    def test_valued_sources_just_crawled_fall_back_to_longest_unrecrawled(self):
        # every valued source scores 0 (elapsed 0), so every score is 0
        # and the longest-unrecrawled source wins, valued or not
        policy = EchoGreedyPolicy([0, 1, 2, 3])
        policy.set_source_values({1: 2.0, 2: 3.0})
        crawled(policy, 0, 1.0)
        crawled(policy, 3, 4.0)
        crawled(policy, 1, 10.0)
        crawled(policy, 2, 10.0)
        assert policy.decide(10.0) == RecrawlSource(0)

    def test_equal_positive_scores_go_to_longest_elapsed(self):
        policy = EchoGreedyPolicy([0, 1, 2])
        policy.set_source_values({0: 2.0, 1: 1.0, 2: 0.5})
        crawled(policy, 0, 5.0)
        crawled(policy, 1, 0.0)
        crawled(policy, 2, 9.0)
        # scores 2 * 5 = 10 and 1 * 10 = 10 tie: the longer elapsed (1)
        # beats the lower id (0)
        assert policy.decide(10.0) == RecrawlSource(1)

    def test_never_crawled_valued_sources_tie_at_inf_to_lowest_id(self):
        policy = EchoGreedyPolicy([5, 2, 7, 4])
        policy.set_source_values({5: 0.5, 2: 1.0, 7: 3.0, 4: 2.0})
        crawled(policy, 2, 0.0)
        # 4, 5 and 7 score inf with inf elapsed: the lowest id of them wins
        assert policy.decide(1.0) == RecrawlSource(4)
        crawled(policy, 4, 1.0)
        assert policy.decide(1.0) == RecrawlSource(5)

    def test_drains_frontier_first(self):
        policy = EchoGreedyPolicy([0])
        crawled(policy, 0, 0.0)
        for page in (11, 12, 13, 14):
            policy.observe_page(page, source=0, discovered=1.0)
        decisions = []
        for _ in range(4):
            decision = policy.decide(2.0)
            decisions.append(decision)
            policy.observe_page_crawled(decision.page, 2.0)
        assert all(isinstance(d, CrawlPage) for d in decisions)
        assert {d.page for d in decisions} == {11, 12, 13, 14}
        assert isinstance(policy.decide(3.0), RecrawlSource)

    def test_rejects_negative_value(self):
        policy = EchoGreedyPolicy([0])
        with pytest.raises(ValueError):
            policy.set_source_values({0: -1.0})

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_rejects_non_finite_value(self, rate):
        # inf * 0 elapsed and nan would put NaN in the score argmax
        policy = EchoGreedyPolicy([0])
        with pytest.raises(ValueError):
            policy.set_source_values({0: rate})


class TestSharedDecisions:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_a_source_is_recrawled_by_one_decision_object(self, name):
        policy = make_policy(name, [0, 1, 2])
        policy.set_schedule(fixed_schedule({0: 1.0, 1: 1.0, 2: 1.0}))
        seen = {}
        for slot in range(9):
            decision = policy.decide(float(slot), slot_index=slot)
            assert isinstance(decision, RecrawlSource)
            assert seen.setdefault(decision.source, decision) is decision
            crawled(policy, decision.source, float(slot))
        assert sorted(seen) == [0, 1, 2]


class TestBfs:
    def test_cycles_fixed_permutation(self):
        policy = BfsPolicy([0, 1, 2], seed=7)
        visits = []
        for _ in range(6):
            decision = policy.decide(0.0)
            assert isinstance(decision, RecrawlSource)
            visits.append(decision.source)
            crawled(policy, decision.source, 0.0)
        assert visits[:3] == visits[3:]
        assert sorted(visits[:3]) == [0, 1, 2]

    def test_drains_discovered_pages_before_advancing(self):
        policy = BfsPolicy([0, 1], seed=0)
        first = policy.decide(0.0)
        crawled(policy, first.source, 0.0)
        policy.observe_page(21, source=first.source, discovered=0.0)
        policy.observe_page(22, source=first.source, discovered=0.0)
        assert policy.decide(1.0) == CrawlPage(21)
        policy.observe_page_crawled(21, 1.0)
        assert policy.decide(2.0) == CrawlPage(22)
        policy.observe_page_crawled(22, 2.0)
        after = policy.decide(3.0)
        assert isinstance(after, RecrawlSource)
        assert after.source != first.source

    def test_zero_links_advances_immediately(self):
        policy = BfsPolicy([0, 1], seed=0)
        first = policy.decide(0.0)
        crawled(policy, first.source, 0.0)
        second = policy.decide(1.0)
        assert isinstance(second, RecrawlSource)
        assert second.source != first.source

    def test_same_seed_same_order(self):
        a = BfsPolicy(range(10), seed=4)
        b = BfsPolicy(range(10), seed=4)
        assert a.order == b.order
        c = BfsPolicy(range(10), seed=5)
        assert a.order != c.order  # 1/10! chance of collision, fixed seeds


class TestFixedQuota:
    def setup_policy(self):
        policy = FixedQuotaPolicy([0])
        policy.set_schedule(fixed_schedule({0: 10.0}))
        return policy

    def test_strict_alternation_when_both_available(self):
        policy = self.setup_policy()
        crawled(policy, 0, 0.0)
        policy.observe_page(50, source=0, discovered=1.0)
        policy.observe_page(51, source=0, discovered=2.0)
        # t=20: source overdue and frontier nonempty
        assert policy.decide(20.0, slot_index=0) == RecrawlSource(0)
        assert policy.decide(20.0, slot_index=1) == CrawlPage(51)

    def test_page_slot_falls_through_to_recrawl(self):
        policy = self.setup_policy()
        crawled(policy, 0, 0.0)
        assert policy.decide(20.0, slot_index=1) == RecrawlSource(0)

    def test_recrawl_slot_falls_through_to_page(self):
        policy = self.setup_policy()
        crawled(policy, 0, 15.0)  # not due at t=20
        policy.observe_page(50, source=0, discovered=16.0)
        assert policy.decide(20.0, slot_index=0) == CrawlPage(50)

    def test_idle_when_both_unusable(self):
        policy = self.setup_policy()
        crawled(policy, 0, 15.0)
        assert policy.decide(20.0, slot_index=0) == Idle()
        assert policy.decide(20.0, slot_index=1) == Idle()


class TestFrequency:
    def test_equal_lambda_means_equal_intervals(self):
        params = SourceTable([0, 1], [0.001, 0.001], [5.0, 0.05], [1e-4, 1e-3])
        solved = solve_schedule(FrequencyPolicy.schedule_params(params), 0.01)
        assert solved.intervals[0] == pytest.approx(solved.intervals[1], rel=1e-6)

    def test_higher_lambda_shorter_interval(self):
        params = SourceTable([0, 1], [0.002, 0.0005], [1.0, 1.0], [1e-4, 1e-4])
        solved = solve_schedule(FrequencyPolicy.schedule_params(params), 0.01)
        assert solved.intervals[0] <= solved.intervals[1]

    def test_schedule_params_equalize_quality_as_a_table(self):
        params = SourceTable([4, 1], [0.002, 0.0005], [3.0, 0.5], [1e-4, 1e-3])
        table = FrequencyPolicy.schedule_params(params)
        assert isinstance(table, SourceTable)
        assert table.ids.tolist() == [4, 1]
        assert table.lambda_rate.tolist() == [0.002, 0.0005]
        assert table.profit.tolist() == [1.0, 1.0]
        assert table.decay.tolist() == [DEFAULT_DECAY, DEFAULT_DECAY]
        assert EchoSchedulePolicy.schedule_params(params) is params

    def test_decides_like_echo_schedule(self):
        frequency = FrequencyPolicy([0, 1])
        echo = EchoSchedulePolicy([0, 1])
        schedule = fixed_schedule({0: 10.0, 1: 20.0})
        for policy in (frequency, echo):
            policy.set_schedule(schedule)
            crawled(policy, 0, 0.0)
            crawled(policy, 1, 0.0)
            policy.observe_page(9, source=0, discovered=3.0)
        for t in (5.0, 12.0, 25.0):
            assert frequency.decide(t) == echo.decide(t)


class TestUnknownSources:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_schedule_with_unknown_source_rejected(self, name):
        policy = make_policy(name, [0, 1])
        kept = fixed_schedule({0: 10.0})
        policy.set_schedule(kept)
        with pytest.raises(ValueError, match=r"\[7\]"):
            policy.set_schedule(fixed_schedule({0: 5.0, 7: 10.0}))
        assert policy.schedule is kept

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_values_with_unknown_source_rejected(self, name):
        policy = make_policy(name, [0, 1])
        with pytest.raises(ValueError, match=r"\[5, 9\]"):
            policy.set_source_values({9: 1.0, 0: 0.5, 5: 2.0})

    def test_rejected_values_leave_rates_unchanged(self):
        policy = EchoGreedyPolicy([0, 1])
        policy.set_source_values({0: 1.0, 1: 2.0})
        with pytest.raises(ValueError):
            policy.set_source_values({0: 5.0, 3: 1.0})
        crawled(policy, 0, 0.0)
        crawled(policy, 1, 0.0)
        assert policy.decide(1.0) == RecrawlSource(1)


class TestRegistry:
    def test_all_names_construct(self):
        for name in POLICY_NAMES:
            policy = make_policy(name, [0, 1, 2], seed=3)
            assert policy.sources == [0, 1, 2]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_policy("dfs", [0])

    def test_needs_sources(self):
        with pytest.raises(ValueError):
            make_policy("bfs", [])


class TestLegality:
    def test_no_double_crawl_and_frontier_membership(self):
        # drive every policy through a scripted discovery sequence and check
        # each emitted decision is legal at the moment of emission
        for name in POLICY_NAMES:
            policy = make_policy(name, [0, 1], seed=1)
            if policy.uses_schedule:
                policy.set_schedule(fixed_schedule({0: 30.0, 1: 45.0}))
            policy.set_source_values({0: 0.2, 1: 0.1})
            seen_pages = set()
            crawled_pages = set()
            next_page = 100
            for slot in range(200):
                now = float(slot)
                decision = policy.decide(now, slot_index=slot)
                if isinstance(decision, CrawlPage):
                    assert decision.page in seen_pages - crawled_pages, name
                    crawled_pages.add(decision.page)
                    policy.observe_page_crawled(decision.page, now)
                elif isinstance(decision, RecrawlSource):
                    assert decision.source in (0, 1), name
                    policy.observe_source_crawled(decision.source, now)
                    if slot % 3 == 0:  # this recrawl finds two new links
                        for _ in range(2):
                            policy.observe_page(next_page, decision.source, now)
                            seen_pages.add(next_page)
                            next_page += 1
                else:
                    assert decision == Idle(), name
            assert crawled_pages <= seen_pages
