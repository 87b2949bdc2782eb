"""The six crawl policies behind one decision interface.

Each fetch slot the crawl loop asks the active policy for one decision:
recrawl a content source (to discover new links), crawl a discovered page
(to earn its remaining clicks), or stay idle.  The loop owns which pages
were revealed and fetched: it reveals each page once through observe_page
and rejects an illegal decision.  A policy keeps only last-crawl times,
the schedule (set_schedule) or value rates (set_source_values) the loop
pushes, and the order in which it will fetch the revealed pages: newest
first in a heap, or for bfs in discovery order.

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
every source, and argmax's first maximum is the lowest id.  A policy builds
one RecrawlSource per source when it is made and returns that same frozen
object every time it recrawls the source, so a recrawl decision allocates
nothing.  echo-greedy scans only the sources whose value rate is positive;
when none of them has a positive score, every score is 0 and it falls back
to the longest-unrecrawled source over all of them.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
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


class CrawlPolicy:
    """Shared policy state: last-crawl times, current schedule, and the
    revealed pages not yet fetched, newest first."""

    #: whether the crawl loop must keep this policy supplied with schedules
    uses_schedule = False
    #: whether the crawl loop must keep this policy supplied with value rates
    uses_values = False

    def __init__(self, sources: Iterable[SourceId]):
        self.sources = sorted(sources)
        if not self.sources:
            raise ValueError("policy needs at least one source")
        self.schedule: Schedule | None = None
        self._pos = {source: i for i, source in enumerate(self.sources)}
        # the one recrawl decision of each source, by position
        self._recrawl = tuple(RecrawlSource(source) for source in self.sources)
        # -inf for never crawled, so now - last is inf exactly there
        self._last = np.full(len(self.sources), -np.inf)
        # (-discovered, page) of every unfetched page: heap[0] is the
        # newest, ties to the lowest id
        self._page_heap: "list[tuple[float, PageId]]" = []

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
        """A recrawl surfaced a link to `page`; the loop reveals each once."""
        heapq.heappush(self._page_heap, (-discovered, page))

    def observe_source_crawled(self, source: SourceId, time: Seconds) -> None:
        self._last[self._pos[source]] = time

    def observe_page_crawled(self, page: PageId, time: Seconds) -> None:
        """`page` was fetched; it must be the page this policy fetches next."""
        if not self._page_heap or self._page_heap[0][1] != page:
            raise ValueError(f"fetched page {page} is not {type(self).__name__}'s next page")
        heapq.heappop(self._page_heap)

    # -- decision helpers ---------------------------------------------------

    def _check_known(self, sources: Iterable[SourceId], what: str) -> None:
        unknown = sorted(source for source in sources if source not in self._pos)
        if unknown:
            raise ValueError(f"{what}: sources {unknown} are not among this policy's sources")

    def _require_schedule(self) -> Schedule:
        if self.schedule is None:
            raise ValueError(f"{type(self).__name__} needs a schedule before deciding")
        return self.schedule

    def _most_behind_source(self, now: Seconds, due_only: bool) -> RecrawlSource | None:
        """Recrawl of the source with the highest elapsed/interval ratio,
        skipping infinite intervals; due_only restricts to sources with
        elapsed >= interval."""
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
        return self._recrawl[self._finite_pos[best]]

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
            return due
        if self._page_heap:
            return CrawlPage(self._page_heap[0][1])
        return Idle()


class EchoNewPagesPolicy(CrawlPolicy):
    """Crawl discovered pages the moment they appear; otherwise recrawl the
    source most behind its schedule."""

    uses_schedule = True

    def decide(self, now: Seconds, slot_index: int = 0) -> PolicyDecision:
        if self._page_heap:
            return CrawlPage(self._page_heap[0][1])
        behind = self._most_behind_source(now, due_only=False)
        if behind is not None:
            return behind
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
    positive score.  Ties on score go to the longest elapsed time, then to
    the lowest id.  When no score is positive (every value rate is zero, or
    every valued source was crawled just now), every score is 0 and the
    rule picks the longest-unrecrawled source, ties to the lowest id, so
    never-crawled sources come first.

    Only the valued sources are scored, so the scan multiplies no 0 by an
    infinite elapsed time.  This matches scoring every source as long as no
    crawl time lies after `now`, which the crawl loop guarantees.
    """

    uses_values = True

    def __init__(self, sources: Iterable[SourceId]):
        super().__init__(sources)
        self._rate = np.zeros(len(self.sources))
        # positions and rates of the sources whose value rate is positive
        self._valued_pos = np.zeros(0, dtype=np.intp)
        self._valued_rate = np.zeros(0)

    def set_source_values(self, values: "Mapping[SourceId, float]") -> None:
        super().set_source_values(values)
        for rate in values.values():
            check_setting("value rate", rate, ">= 0")
        for source, rate in values.items():
            self._rate[self._pos[source]] = rate
        self._valued_pos = (self._rate > 0.0).nonzero()[0]
        self._valued_rate = self._rate[self._valued_pos]

    def decide(self, now: Seconds, slot_index: int = 0) -> PolicyDecision:
        if self._page_heap:
            return CrawlPage(self._page_heap[0][1])
        valued = self._valued_pos
        if valued.size:
            elapsed = now - self._last[valued]
            score = self._valued_rate * elapsed
            best = int(score.argmax())
            if score[best] > 0.0:
                # the last maximum differs from the first only on a tie
                if best != score.size - 1 - int(score[::-1].argmax()):
                    tied = (score == score[best]).nonzero()[0]
                    best = int(tied[elapsed[tied].argmax()])
                return self._recrawl[valued[best]]
        return self._recrawl[int((now - self._last).argmax())]


class BfsPolicy(CrawlPolicy):
    """Round-robin over a seed-fixed random source order, draining each
    source's newly discovered pages before advancing."""

    def __init__(self, sources: Iterable[SourceId], seed: int = 0):
        super().__init__(sources)
        order = list(self.sources)
        random.Random(seed).shuffle(order)
        self.order = tuple(order)
        self._order_recrawl = tuple(self._recrawl[self._pos[source]] for source in order)
        self._cursor = 0
        # revealed, unfetched pages in discovery order: bfs fetches the head
        self._queue: "deque[PageId]" = deque()

    def observe_page(self, page: PageId, source: SourceId, discovered: Seconds) -> None:
        self._queue.append(page)

    def observe_page_crawled(self, page: PageId, time: Seconds) -> None:
        if not self._queue or self._queue[0] != page:
            raise ValueError(f"fetched page {page} is not {type(self).__name__}'s next page")
        self._queue.popleft()

    def observe_source_crawled(self, source: SourceId, time: Seconds) -> None:
        super().observe_source_crawled(source, time)
        if source == self.order[self._cursor]:
            self._cursor = (self._cursor + 1) % len(self.order)

    def decide(self, now: Seconds, slot_index: int = 0) -> PolicyDecision:
        if self._queue:
            return CrawlPage(self._queue[0])
        return self._order_recrawl[self._cursor]


class FixedQuotaPolicy(CrawlPolicy):
    """Half the slots recrawl per the schedule's due rule, half crawl the
    newest discovered page; an idle half lends its slot to the other."""

    uses_schedule = True

    def decide(self, now: Seconds, slot_index: int = 0) -> PolicyDecision:
        recrawl = self._most_behind_source(now, due_only=True)
        fetch = CrawlPage(self._page_heap[0][1]) if self._page_heap else None
        first, second = (recrawl, fetch) if slot_index % 2 == 0 else (fetch, recrawl)
        return first or second or Idle()


class FrequencyPolicy(EchoSchedulePolicy):
    """echo-schedule over a schedule that pretends all sources have equal
    quality: intervals then follow the new-page rates alone."""

    @staticmethod
    def schedule_params(params: SourceTable) -> SourceTable:
        n = len(params)
        return SourceTable(params.ids, params.lambda_rate, np.ones(n), np.full(n, DEFAULT_DECAY))


_REGISTRY = {
    "echo-schedule": EchoSchedulePolicy,
    "echo-newpages": EchoNewPagesPolicy,
    "echo-greedy": EchoGreedyPolicy,
    "bfs": BfsPolicy,
    "fixed-quota": FixedQuotaPolicy,
    "frequency": FrequencyPolicy,
}

POLICY_NAMES = tuple(_REGISTRY)


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
