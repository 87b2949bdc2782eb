"""Finding content sources in link data.

Two complementary views:

- find_content_sources walks host snapshots: a host's main page plus its
  sufficiently old 1-hop neighbors are the candidate content sources (new
  pages are almost never durable link hubs).
- greedy_source_cover measures how few candidate sources are needed to reach
  a target fraction of the ephemeral pages seen in a link corpus, via
  classic greedy set cover.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import PageId, Seconds, check_setting

# Pages younger than this are not considered durable enough to be sources.
DEFAULT_MIN_SOURCE_AGE = 3 * 86400.0


@dataclass(frozen=True)
class HostSnapshot:
    """One host's main page and its 1-hop linked pages at snapshot time."""

    host: int
    main_page: PageId
    linked_pages: "tuple[tuple[PageId, Seconds], ...]"

    def __init__(
        self,
        host: int,
        main_page: PageId,
        linked_pages: Iterable["tuple[PageId, float]"] = (),
    ):
        pages = tuple((int(p), float(age)) for p, age in linked_pages)
        if any(p == main_page for p, _ in pages):
            raise ValueError("main page cannot link to itself in the snapshot")
        if any(age < 0 for _, age in pages):
            raise ValueError("page ages must be >= 0")
        object.__setattr__(self, "host", int(host))
        object.__setattr__(self, "main_page", int(main_page))
        object.__setattr__(self, "linked_pages", pages)


@dataclass(frozen=True)
class LinkCorpus:
    """Observed transitions from candidate source pages to ephemeral pages.

    Each source's linked pages and the distinct pages of the whole corpus
    are collected once, when the corpus is built.
    """

    links: "tuple[tuple[PageId, PageId, Seconds], ...]"

    def __init__(self, links: Iterable["tuple[PageId, PageId, float]"]):
        items = tuple((int(s), int(t), float(ts)) for s, t, ts in links)
        by_source: "dict[PageId, set[PageId]]" = {}
        distinct: "set[PageId]" = set()
        for s, t, _ in items:
            pages = by_source.setdefault(s, set())
            if t in pages:
                raise ValueError(f"duplicate link pair ({s}, {t})")
            pages.add(t)
            distinct.add(t)
        object.__setattr__(self, "links", items)
        object.__setattr__(self, "_by_source", by_source)
        object.__setattr__(self, "_pages", frozenset(distinct))

    def pages_by_source(self) -> "dict[PageId, set[PageId]]":
        return {s: set(pages) for s, pages in self._by_source.items()}

    def distinct_pages(self) -> "frozenset[PageId]":
        return self._pages


def find_content_sources(
    snapshots: Sequence[HostSnapshot],
    min_age: Seconds = DEFAULT_MIN_SOURCE_AGE,
) -> "list[PageId]":
    """Candidate content sources: each main page plus old 1-hop pages.

    A linked page qualifies once its first-seen age reaches min_age;
    min_age = 0 disables the filter.  Result preserves snapshot order and
    is deduplicated across hosts.
    """
    check_setting("min_age", min_age, ">= 0", finite=False)
    out: "list[PageId]" = []
    seen: "set[PageId]" = set()
    for snap in snapshots:
        for page in (
            snap.main_page,
            *(p for p, age in snap.linked_pages if age >= min_age),
        ):
            if page not in seen:
                seen.add(page)
                out.append(page)
    return out


def greedy_source_cover(
    corpus: LinkCorpus,
    target_fraction: float,
) -> "list[tuple[PageId, float]]":
    """Greedy set cover of the corpus's ephemeral pages by source pages.

    Repeatedly picks the source covering the most not-yet-covered pages
    (ties to the smaller source id) and records the cumulative coverage
    fraction, until it reaches target_fraction.  The fractions are over all
    distinct ephemeral pages in the corpus, so the result plots directly as
    a coverage-vs-source-count curve.
    """
    if not corpus.links:
        raise ValueError("corpus must be nonempty")
    if not 0.0 < target_fraction <= 1.0:
        raise ValueError(f"target_fraction must be in (0, 1], got {target_fraction}")

    # Lazy greedy: the heap holds each source's gain as last scored, which
    # only shrinks as pages get covered (coverage is submodular).  So a
    # source re-scored on top whose (-gain, id) key is still at most the
    # next stale key beats every other source's fresh key too.
    left = dict(corpus._by_source)  # each source's uncovered pages, as last scored
    total = len(corpus._pages)
    heap = [(-len(pages), s) for s, pages in left.items()]
    heapq.heapify(heap)
    covered: "set[PageId]" = set()
    picks: "list[tuple[PageId, float]]" = []
    while heap:
        _, source = heapq.heappop(heap)
        pages = left[source] = left[source] - covered
        if heap and (-len(pages), source) > heap[0]:
            heapq.heappush(heap, (-len(pages), source))
            continue
        covered |= pages
        fraction = len(covered) / total
        picks.append((source, fraction))
        if fraction >= target_fraction:
            break
    return picks
