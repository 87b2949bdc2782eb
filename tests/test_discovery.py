"""Source discovery tests: snapshot filtering and greedy cover, checked
against hand-executed traces and a brute-force minimum cover."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from echocrawl.discovery import (
    HostSnapshot,
    LinkCorpus,
    find_content_sources,
    greedy_source_cover,
)
from oracles import plain_cover_oracle

DAY = 86400.0


def corpus_of(mapping):
    """LinkCorpus from {source: iterable of pages} with dummy timestamps."""
    links = []
    for src, pages in mapping.items():
        for page in pages:
            links.append((src, page, 0.0))
    return LinkCorpus(links)


class TestHostSnapshot:
    def test_main_page_not_linked(self):
        with pytest.raises(ValueError):
            HostSnapshot(0, main_page=1, linked_pages=[(1, 100.0)])

    def test_negative_age_rejected(self):
        with pytest.raises(ValueError):
            HostSnapshot(0, main_page=1, linked_pages=[(2, -1.0)])


class TestLinkCorpus:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError):
            LinkCorpus([(1, 2, 0.0), (1, 2, 5.0)])

    def test_maps(self):
        corpus = LinkCorpus([(1, 2, 0.0), (1, 3, 1.0), (4, 3, 2.0)])
        assert corpus.pages_by_source() == {1: {2, 3}, 4: {3}}
        assert corpus.distinct_pages() == {2, 3}


class TestFindContentSources:
    def test_age_filter(self):
        snap = HostSnapshot(0, main_page=10, linked_pages=[(11, 3600.0), (12, 10 * DAY)])
        assert find_content_sources([snap], min_age=3 * DAY) == [10, 12]

    def test_no_linked_pages(self):
        snap = HostSnapshot(0, main_page=10)
        assert find_content_sources([snap], min_age=3 * DAY) == [10]

    def test_zero_min_age_keeps_all(self):
        snap = HostSnapshot(0, main_page=10, linked_pages=[(11, 1.0), (12, 2.0)])
        assert find_content_sources([snap], min_age=0.0) == [10, 11, 12]

    def test_empty_snapshot_list(self):
        assert find_content_sources([], min_age=DAY) == []

    def test_deduplicated_across_hosts(self):
        snaps = [
            HostSnapshot(0, main_page=10, linked_pages=[(5, 9 * DAY)]),
            HostSnapshot(1, main_page=5, linked_pages=[(10, 9 * DAY)]),
        ]
        assert find_content_sources(snaps, min_age=DAY) == [10, 5]

    def test_output_is_main_or_one_hop(self):
        rng = np.random.default_rng(3)
        snaps = []
        universe = set()
        for host in range(20):
            main = 1000 + host
            linked = [
                (int(rng.integers(0, 500)), float(rng.uniform(0, 20 * DAY)))
                for _ in range(rng.integers(0, 8))
            ]
            linked = [(p, a) for p, a in linked if p != main]
            snaps.append(HostSnapshot(host, main, linked))
            universe.add(main)
            universe.update(p for p, _ in linked)
        found = find_content_sources(snaps, min_age=2 * DAY)
        assert set(found) <= universe


class TestGreedyCover:
    def test_single_source_covers_all(self):
        picks = greedy_source_cover(corpus_of({7: {1, 2, 3}}), 1.0)
        assert picks == [(7, 1.0)]

    def test_hand_trace(self):
        corpus = corpus_of({1: {11, 12, 13}, 2: {13, 14}, 3: {14}})
        picks = greedy_source_cover(corpus, 1.0)
        assert picks == [(1, 0.75), (2, 1.0)]

    def test_target_stops_early(self):
        corpus = corpus_of({1: {11, 12, 13}, 2: {13, 14}, 3: {14}})
        picks = greedy_source_cover(corpus, 0.8)
        assert picks == [(1, 0.75), (2, 1.0)]
        picks = greedy_source_cover(corpus, 0.7)
        assert picks == [(1, 0.75)]

    def test_tie_broken_by_smaller_id(self):
        corpus = corpus_of({5: {1, 2}, 3: {3, 4}, 9: {5, 6}})
        picks = greedy_source_cover(corpus, 1.0)
        assert [s for s, _ in picks] == [3, 5, 9]

    def test_validation(self):
        with pytest.raises(ValueError):
            greedy_source_cover(LinkCorpus([]), 0.5)
        with pytest.raises(ValueError):
            greedy_source_cover(corpus_of({1: {2}}), 0.0)
        with pytest.raises(ValueError):
            greedy_source_cover(corpus_of({1: {2}}), 1.5)

    @settings(max_examples=200, deadline=None)
    @given(
        mapping=st.dictionaries(
            st.integers(0, 40),
            st.sets(st.integers(0, 25), min_size=1, max_size=8),
            min_size=1,
            max_size=15,
        ),
        target=st.sampled_from([0.3, 0.5, 0.8, 0.95, 1.0]),
    )
    def test_lazy_picks_equal_plain_scan(self, mapping, target):
        # few pages per source over a small page range: many gains tie, and
        # stale gains go out of date at every pick
        corpus = corpus_of(mapping)
        expected = plain_cover_oracle(mapping, len(corpus.distinct_pages()), target)
        assert greedy_source_cover(corpus, target) == expected

    def test_each_step_marginal_gain_maximal(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n_sources = int(rng.integers(2, 10))
            mapping = {
                s: set(rng.integers(0, 30, size=rng.integers(1, 12)).tolist())
                for s in range(n_sources)
            }
            corpus = corpus_of(mapping)
            picks = greedy_source_cover(corpus, 1.0)
            total = len(corpus.distinct_pages())
            covered = set()
            used = set()
            last_fraction = 0.0
            for source, fraction in picks:
                gains = {
                    s: len(pages - covered)
                    for s, pages in mapping.items()
                    if s not in used
                }
                top = max(gains.values())
                assert gains[source] == top
                assert source == min(s for s, g in gains.items() if g == top)
                covered |= mapping[source]
                used.add(source)
                assert fraction == pytest.approx(len(covered) / total)
                assert fraction >= last_fraction
                last_fraction = fraction

    def test_greedy_within_harmonic_bound_of_optimum(self):
        # greedy uses at most H(d) times the minimum number of sources,
        # d = largest source degree; verified against exhaustive search
        rng = np.random.default_rng(23)
        for _ in range(10):
            n_sources = int(rng.integers(3, 8))
            mapping = {
                s: set(rng.integers(0, 12, size=rng.integers(1, 6)).tolist())
                for s in range(n_sources)
            }
            universe = set().union(*mapping.values())
            corpus = corpus_of(mapping)
            picks = greedy_source_cover(corpus, 1.0)
            covered = set().union(*(mapping[s] for s, _ in picks))
            if covered != universe:
                continue  # not fully coverable is impossible here, but guard
            minimum = None
            for k in range(1, n_sources + 1):
                for combo in combinations(mapping, k):
                    if set().union(*(mapping[s] for s in combo)) == universe:
                        minimum = k
                        break
                if minimum:
                    break
            d = max(len(v) for v in mapping.values())
            harmonic = sum(1.0 / i for i in range(1, d + 1))
            assert minimum <= len(picks) <= harmonic * minimum + 1e-9
