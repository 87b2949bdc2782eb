"""Property tests: every policy decides as the per-source scans of
tests/oracles.py do.

A reference model keeps the same observations as the policy in plain
dicts and decides with those scans (for bfs, with its queue-and-cursor
rule).  Random observation sequences draw times, intervals and value
rates from small sets, so never-crawled sources, infinite intervals, zero
value rates, partial schedules and exact ties in score, ratio and elapsed
time all come up.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from echocrawl.core import CrawlPage, RecrawlSource
from echocrawl.optimizer import Schedule
from echocrawl.policies import POLICY_NAMES, Idle, make_policy
from oracles import greedy_oracle, most_behind_oracle

INTERVALS = (0.5, 1.0, 2.0, 3.0, math.inf)
VALUE_RATES = (0.0, 0.25, 1.0, 2.0)
TIME_STEPS = (0.0, 0.5, 1.0, 2.5)
OPERATIONS = ("tick", "decide", "decide", "crawl", "page", "schedule", "values")
BFS_SEED = 5


class Reference:
    """The decision rules of the policy `name`, over plain dicts."""

    def __init__(self, name, sources):
        self.name = name
        self.sources = sorted(sources)
        self.last_crawl = {}
        self.intervals = {}
        self.value_rates = {}
        self.frontier = {}  # page -> discovery time
        self.crawled = set()
        self.queue = []  # pages in order of first discovery (bfs)
        self.order = list(self.sources)
        random.Random(BFS_SEED).shuffle(self.order)
        self.cursor = 0

    def observe_page(self, page, discovered):
        if page not in self.crawled and page not in self.frontier:
            self.frontier[page] = discovered
            self.queue.append(page)

    def observe_source_crawled(self, source, time):
        self.last_crawl[source] = time
        if source == self.order[self.cursor]:
            self.cursor = (self.cursor + 1) % len(self.order)

    def observe_page_crawled(self, page):
        del self.frontier[page]
        self.crawled.add(page)

    def decide(self, now, slot):
        newest = max(self.frontier, key=lambda p: (self.frontier[p], -p), default=None)
        page = CrawlPage(newest) if newest is not None else None
        if self.name == "bfs":
            queued = next((p for p in self.queue if p in self.frontier), None)
            if queued is not None:
                return CrawlPage(queued)
            return RecrawlSource(self.order[self.cursor])
        if self.name == "echo-greedy":
            best = greedy_oracle(self.sources, now, self.last_crawl, self.value_rates)
            return page or RecrawlSource(best)
        due_only = self.name != "echo-newpages"
        behind = most_behind_oracle(self.intervals, now, self.last_crawl, due_only)
        recrawl = RecrawlSource(behind) if behind is not None else None
        pages_first = self.name == "echo-newpages" or (
            self.name == "fixed-quota" and slot % 2 == 1
        )
        first, second = (page, recrawl) if pages_first else (recrawl, page)
        return first or second or Idle()


@pytest.mark.parametrize("name", POLICY_NAMES)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_decisions_match_reference(name, data):
    sources = data.draw(st.lists(st.integers(0, 20), min_size=1, max_size=6, unique=True))
    policy = make_policy(name, sources, seed=BFS_SEED)
    reference = Reference(name, sources)
    source = st.sampled_from(sorted(sources))
    now, slot, next_page = 0.0, 0, 0

    def new_schedule():
        covered = data.draw(st.lists(source, unique=True))
        intervals = {s: data.draw(st.sampled_from(INTERVALS)) for s in covered}
        policy.set_schedule(Schedule(intervals=intervals, omega=0.0, budget=1.0, residual=0.0))
        reference.intervals = dict(intervals)

    def new_values():
        valued = data.draw(st.lists(source, unique=True))
        values = {s: data.draw(st.sampled_from(VALUE_RATES)) for s in valued}
        policy.set_source_values(values)
        reference.value_rates.update(values)

    def observe_page(page, from_source):
        policy.observe_page(page, from_source, now)
        reference.observe_page(page, now)

    def crawl_source(crawled):
        policy.observe_source_crawled(crawled, now)
        reference.observe_source_crawled(crawled, now)

    new_schedule()
    new_values()
    for operation in data.draw(st.lists(st.sampled_from(OPERATIONS), max_size=40)):
        if operation == "tick":
            now += data.draw(st.sampled_from(TIME_STEPS))
        elif operation == "crawl":
            crawl_source(data.draw(source))
        elif operation == "page":  # a new page, or one already seen or crawled
            page = data.draw(st.integers(0, next_page))
            observe_page(page, data.draw(source))
            next_page = max(next_page, page + 1)
        elif operation == "schedule":
            new_schedule()
        elif operation == "values":
            new_values()
        else:
            decision = policy.decide(now, slot_index=slot)
            assert decision == reference.decide(now, slot)
            slot += 1
            if isinstance(decision, CrawlPage):
                policy.observe_page_crawled(decision.page, now)
                reference.observe_page_crawled(decision.page)
            elif isinstance(decision, RecrawlSource):
                crawl_source(decision.source)
                for _ in range(data.draw(st.integers(0, 2))):
                    observe_page(next_page, decision.source)
                    next_page += 1


@given(interval=st.floats(1e-6, 1e12), ulps=st.integers(-3, 3))
def test_ratio_reaches_one_exactly_when_due(interval, ulps):
    # _most_behind_source stops at the top ratio when its source is not due
    elapsed = interval
    for _ in range(abs(ulps)):
        elapsed = math.nextafter(elapsed, math.inf if ulps > 0 else 0.0)
    ratio = np.array([elapsed]) / np.array([interval])
    assert (ratio[0] >= 1.0) == (elapsed >= interval)
