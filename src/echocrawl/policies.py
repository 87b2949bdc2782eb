"""The six crawl policies behind one decision interface.

Each fetch slot the crawl loop asks the active policy for one decision:
recrawl a content source (to discover new links), crawl a discovered page
(to earn its remaining clicks), or stay idle.  The loop feeds observations
back through the observe_* hooks, pushes fresh interval schedules via
set_schedule, and (for the greedy policy) refreshed per-source value rates
via set_source_values.

Policies:

- echo-schedule: sources on their solved intervals first, newest discovered
  pages with leftover slots.
- echo-newpages: newest discovered pages first, then the source most behind
  its solved schedule.
- echo-greedy: discovered pages first, then the source with the highest
  expected pending profit rate(source) * elapsed.
- bfs: sources in a seed-fixed random order, draining each source's newly
  discovered pages before moving on.
- fixed-quota: alternating slots between the echo-schedule recrawl rule and
  newest-page crawls, half the budget each, falling through when one side
  has nothing to do.
- frequency: echo-schedule on a schedule solved as if all sources had equal
  quality, so intervals depend on the new-page rates alone.

A never-crawled source has infinite elapsed time, so it is infinitely
overdue on any finite interval.  All ties break toward the lowest id to
keep runs reproducible.

Per-source state (last-crawl times, value rates, schedule intervals) lives
in numpy arrays indexed by a source's position in the sorted source list,
so a decision is a few array operations rather than a Python loop over
every source, and argmax's first maximum is the lowest id.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .core import CrawlPage, PageId, RecrawlSource, Seconds, SourceId, SourceTable, check_setting
from .estimators import DEFAULT_DECAY
from .optimizer import Schedule


@dataclass(frozen=True, slots=True)
class Idle:
    """Decision: spend this fetch slot doing nothing."""


PolicyDecision = Union[RecrawlSource, CrawlPage, Idle]


@dataclass(frozen=True, slots=True)
class FrontierPage:
    page: PageId
    source: SourceId
    discovered: Seconds


class Frontier:
    """Discovered-but-uncrawled pages, retrievable newest-first.

    A page is held at most once; crawling removes it.  Ties on discovery
    time go to the lowest page id.
    """

    def __init__(self) -> None:
        self._heap: "list[tuple[float, PageId]]" = []
        self._members: "dict[PageId, FrontierPage]" = {}

    def add(self, page: PageId, source: SourceId, discovered: Seconds) -> bool:
        """Insert a page; returns False if it is already in the frontier."""
        if page in self._members:
            return False
        self._members[page] = FrontierPage(page, source, discovered)
        heapq.heappush(self._heap, (-discovered, page))
        return True

    def remove(self, page: PageId) -> FrontierPage:
        """Drop a page (it was crawled); the heap entry dies lazily."""
        return self._members.pop(page)

    def peek_newest(self) -> FrontierPage | None:
        while self._heap:
            _, page = self._heap[0]
            entry = self._members.get(page)
            if entry is not None:
                return entry
            heapq.heappop(self._heap)  # stale: page was removed
        return None

    def __contains__(self, page: PageId) -> bool:
        return page in self._members

    def __len__(self) -> int:
        return len(self._members)


class CrawlPolicy:
    """Shared policy state: last-crawl times, frontier, current schedule."""

    #: whether the crawl loop must keep this policy supplied with schedules
    uses_schedule = False
    #: whether the crawl loop must keep this policy supplied with value rates
    uses_values = False

    def __init__(self, sources: Iterable[SourceId]):
        self.sources = sorted(sources)
        if not self.sources:
            raise ValueError("policy needs at least one source")
        self.schedule: Schedule | None = None
        self.frontier = Frontier()
        self._pos = {source: i for i, source in enumerate(self.sources)}
        # -inf for never crawled, so now - last is inf exactly there
        self._last = np.full(len(self.sources), -np.inf)
        self._crawled_pages: "set[PageId]" = set()

    # -- feedback from the crawl loop -------------------------------------

    def set_schedule(self, schedule: Schedule) -> None:
        self._check_known(schedule.intervals, "schedule")
        finite = sorted(
            (self._pos[source], interval)
            for source, interval in schedule.intervals.items()
            if math.isfinite(interval)
        )
        self.schedule = schedule
        # the sources on a finite interval, in position (= id) order
        self._finite_pos = np.array([pos for pos, _ in finite], dtype=np.intp)
        self._finite_interval = np.array([interval for _, interval in finite], dtype=float)

    def set_source_values(self, values: "Mapping[SourceId, float]") -> None:
        """Per-source value rates for value-driven policies; default: unused."""
        self._check_known(values, "source values")

    def observe_page(self, page: PageId, source: SourceId, discovered: Seconds) -> None:
        """A recrawl surfaced a link to `page`."""
        if page in self._crawled_pages:
            return
        self.frontier.add(page, source, discovered)

    def observe_source_crawled(self, source: SourceId, time: Seconds) -> None:
        self._last[self._pos[source]] = time

    def observe_page_crawled(self, page: PageId, time: Seconds) -> None:
        self.frontier.remove(page)
        self._crawled_pages.add(page)

    # -- decision helpers ---------------------------------------------------

    def _check_known(self, sources: Iterable[SourceId], what: str) -> None:
        unknown = sorted(source for source in sources if source not in self._pos)
        if unknown:
            raise ValueError(f"{what}: sources {unknown} are not among this policy's sources")

    def _require_schedule(self) -> Schedule:
        if self.schedule is None:
            raise ValueError(f"{type(self).__name__} needs a schedule before deciding")
        return self.schedule

    def _most_behind_source(self, now: Seconds, due_only: bool) -> SourceId | None:
        """Source with the highest elapsed/interval ratio, skipping infinite
        intervals; due_only restricts to sources with elapsed >= interval."""
        self._require_schedule()
        if not self._finite_pos.size:
            return None
        interval = self._finite_interval
        elapsed = now - self._last[self._finite_pos]
        ratio = elapsed / interval
        best = int(ratio.argmax())
        if due_only and not elapsed[best] >= interval[best]:
            # Division rounds correctly, so elapsed < interval gives a ratio
            # below 1 and elapsed >= interval one of at least 1: when the
            # top source is not due, no source is.
            return None
        return self.sources[self._finite_pos[best]]

    def _newest_page(self) -> PageId | None:
        entry = self.frontier.peek_newest()
        return entry.page if entry else None

    @staticmethod
    def schedule_params(params: SourceTable) -> SourceTable:
        """Hook: what the interval solver should see for this policy."""
        return params

    def decide(self, now: Seconds, slot_index: int = 0) -> PolicyDecision:
        raise NotImplementedError


class EchoSchedulePolicy(CrawlPolicy):
    """Keep every source on its solved interval; spare slots go to the
    newest discovered pages."""

    uses_schedule = True

    def decide(self, now: Seconds, slot_index: int = 0) -> PolicyDecision:
        due = self._most_behind_source(now, due_only=True)
        if due is not None:
            return RecrawlSource(due)
        page = self._newest_page()
        if page is not None:
            return CrawlPage(page)
        return Idle()


class EchoNewPagesPolicy(CrawlPolicy):
    """Crawl discovered pages the moment they appear; otherwise recrawl the
    source most behind its schedule."""

    uses_schedule = True

    def decide(self, now: Seconds, slot_index: int = 0) -> PolicyDecision:
        page = self._newest_page()
        if page is not None:
            return CrawlPage(page)
        behind = self._most_behind_source(now, due_only=False)
        if behind is not None:
            return RecrawlSource(behind)
        return Idle()


class EchoGreedyPolicy(CrawlPolicy):
    """Crawl discovered pages first; otherwise recrawl the source with the
    highest pending expected profit, value_rate * elapsed.

    value_rate is the estimated new-page rate times the source's average
    observed clicks per page, refreshed by the crawl loop on every logs
    push.  The rate estimate is never 0, so a value rate is 0 only before
    the first push or while none of the source's pages has drawn a click.
    A zero value rate scores 0 whatever the elapsed time, so a
    never-crawled source outranks every crawled one only once its value
    rate is positive; until then it waits behind every source with a
    positive score.  Ties on score go to the longest elapsed time, so
    while all value rates are zero, never-crawled sources come first.
    """

    uses_values = True

    def __init__(self, sources: Iterable[SourceId]):
        super().__init__(sources)
        self._rate = np.zeros(len(self.sources))
        self._valued = np.zeros(len(self.sources), dtype=bool)
        self._score = np.zeros(len(self.sources))

    def set_source_values(self, values: "Mapping[SourceId, float]") -> None:
        super().set_source_values(values)
        for rate in values.values():
            check_setting("value rate", rate, ">= 0")
        for source, rate in values.items():
            self._rate[self._pos[source]] = rate
        self._valued = self._rate > 0.0
        # scores stay 0 where the rate is 0 (never written): no 0 * inf
        self._score = np.zeros(len(self.sources))

    def decide(self, now: Seconds, slot_index: int = 0) -> PolicyDecision:
        page = self._newest_page()
        if page is not None:
            return CrawlPage(page)
        elapsed = now - self._last
        score = np.multiply(self._rate, elapsed, out=self._score, where=self._valued)
        best = int(score.argmax())
        tied = (score == score[best]).nonzero()[0]
        if tied.size > 1:
            best = int(tied[elapsed[tied].argmax()])
        return RecrawlSource(self.sources[best])


class BfsPolicy(CrawlPolicy):
    """Round-robin over a seed-fixed random source order, draining each
    source's newly discovered pages before advancing."""

    def __init__(self, sources: Iterable[SourceId], seed: int = 0):
        super().__init__(sources)
        order = list(self.sources)
        random.Random(seed).shuffle(order)
        self.order = tuple(order)
        self._cursor = 0
        self._queue: "list[PageId]" = []
        self._queue_head = 0

    def observe_page(self, page: PageId, source: SourceId, discovered: Seconds) -> None:
        if page in self._crawled_pages:
            return
        if self.frontier.add(page, source, discovered):
            self._queue.append(page)

    def observe_page_crawled(self, page: PageId, time: Seconds) -> None:
        super().observe_page_crawled(page, time)
        if self._queue_head < len(self._queue) and self._queue[self._queue_head] == page:
            self._queue_head += 1

    def observe_source_crawled(self, source: SourceId, time: Seconds) -> None:
        super().observe_source_crawled(source, time)
        if source == self.order[self._cursor]:
            self._cursor = (self._cursor + 1) % len(self.order)

    def decide(self, now: Seconds, slot_index: int = 0) -> PolicyDecision:
        while self._queue_head < len(self._queue):
            page = self._queue[self._queue_head]
            if page in self.frontier:
                return CrawlPage(page)
            self._queue_head += 1
        return RecrawlSource(self.order[self._cursor])


class FixedQuotaPolicy(CrawlPolicy):
    """Half the slots recrawl per the schedule's due rule, half crawl the
    newest discovered page; an idle half lends its slot to the other."""

    uses_schedule = True

    def decide(self, now: Seconds, slot_index: int = 0) -> PolicyDecision:
        due = self._most_behind_source(now, due_only=True)
        page = self._newest_page()
        if slot_index % 2 == 0:
            first, second = due, page
            make_first, make_second = RecrawlSource, CrawlPage
        else:
            first, second = page, due
            make_first, make_second = CrawlPage, RecrawlSource
        if first is not None:
            return make_first(first)
        if second is not None:
            return make_second(second)
        return Idle()


class FrequencyPolicy(EchoSchedulePolicy):
    """echo-schedule over a schedule that pretends all sources have equal
    quality: intervals then follow the new-page rates alone."""

    @staticmethod
    def schedule_params(params: SourceTable) -> SourceTable:
        n = len(params)
        return SourceTable(params.ids, params.lambda_rate, np.ones(n), np.full(n, DEFAULT_DECAY))


POLICY_NAMES = (
    "echo-schedule",
    "echo-newpages",
    "echo-greedy",
    "bfs",
    "fixed-quota",
    "frequency",
)

_REGISTRY = {
    "echo-schedule": EchoSchedulePolicy,
    "echo-newpages": EchoNewPagesPolicy,
    "echo-greedy": EchoGreedyPolicy,
    "bfs": BfsPolicy,
    "fixed-quota": FixedQuotaPolicy,
    "frequency": FrequencyPolicy,
}


def make_policy(
    name: str, sources: "Sequence[SourceId]", seed: int = 0
) -> CrawlPolicy:
    """Instantiate a policy by registry name (seed only affects bfs)."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from {', '.join(POLICY_NAMES)}"
        ) from None
    if cls is BfsPolicy:
        return BfsPolicy(sources, seed=seed)
    return cls(sources)
