"""Core types and metric tests.

Expected values were frozen from 50-digit decimal evaluations of the closed
forms (independent of the float implementation under test).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from echocrawl.core import (
    CrawlPage,
    CrawlRecord,
    MetricConfig,
    ProfitCurve,
    RecrawlSource,
    SourceParams,
    SourceRowError,
    SourceTable,
    dynamic_quality,
    overall_quality,
    profit_at,
    quality_series,
    validate_trace,
)


class TestProfitCurve:
    def test_identity_at_zero_age(self):
        assert profit_at(ProfitCurve(5.0, 0.001), 0.0) == 5.0

    def test_limit_large_age(self):
        assert profit_at(ProfitCurve(5.0, 0.001), 1e9) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_value(self):
        # 5 * e^-1, decimal oracle
        assert profit_at(ProfitCurve(5.0, 0.001), 1000.0) == pytest.approx(
            1.8393972058572116, rel=1e-14
        )

    def test_negative_age_rejected(self):
        with pytest.raises(ValueError):
            profit_at(ProfitCurve(5.0, 0.001), -1.0)

    def test_value_at_matches_function(self):
        curve = ProfitCurve(2.5, 3e-4)
        assert curve.value_at(777.0) == profit_at(curve, 777.0)

    @given(
        profit=st.floats(1e-6, 1e3),
        decay=st.floats(1e-8, 1.0),
        age=st.floats(0.0, 1e6),
        gap=st.floats(1e-3, 1e6),
    )
    def test_monotone_decreasing(self, profit, decay, age, gap):
        # strict decrease holds until exp underflows to exactly zero
        assume(decay * (age + gap) < 700.0)
        curve = ProfitCurve(profit, decay)
        assert profit_at(curve, age + gap) < profit_at(curve, age)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ProfitCurve(-1.0, 0.1)
        with pytest.raises(ValueError):
            ProfitCurve(1.0, 0.0)


class TestSourceParams:
    def test_utility_value(self):
        # 1 / (1 - e^-0.1), decimal oracle
        sp = SourceParams(lambda_rate=0.01, profit=1.0, decay=0.001)
        assert sp.utility == pytest.approx(10.50833194477505, rel=1e-13)

    def test_utility_at_least_profit(self):
        for lam, profit, decay in [(0.5, 3.0, 1e-4), (1e-4, 0.2, 1e-2), (2.0, 7.0, 2.0)]:
            sp = SourceParams(lam, profit, decay)
            assert sp.utility >= sp.profit

    def test_zero_lambda_sentinel(self):
        assert SourceParams(0.0, 1.0, 0.001).utility == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            SourceParams(-0.1, 1.0, 0.001)
        with pytest.raises(ValueError):
            SourceParams(0.1, -1.0, 0.001)
        with pytest.raises(ValueError):
            SourceParams(0.1, 1.0, 0.0)

    @pytest.mark.parametrize("field", ["lambda_rate", "profit", "decay"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, field, value):
        values = {"lambda_rate": 0.1, "profit": 1.0, "decay": 0.001, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            SourceParams(**values)


# rows of (lambda_rate, profit, decay) that break one of SourceParams's rules
BAD_ROWS = [
    (-0.5, 1.0, 0.001),
    (0.5, -1.0, 0.001),
    (0.5, 1.0, 0.0),
    (0.5, 1.0, -0.001),
    (math.nan, 1.0, 0.001),
    (0.5, math.inf, 0.001),
    (0.5, 1.0, math.nan),
    (-0.5, math.nan, 0.0),
]


class TestSourceTable:
    def test_utility_is_source_params_utility_bit_for_bit(self):
        # math.expm1 per element: numpy's expm1 differs from it in the last
        # bit on part of (-1, 0], which would move omega and the intervals
        rng = np.random.default_rng(7)
        ratio = 10.0 ** rng.uniform(-8.0, math.log10(700.0), 20_000)
        lam = 10.0 ** rng.uniform(-6.0, 0.0, len(ratio))
        params = [
            SourceParams(float(l), float(p), float(r * l))
            for l, p, r in zip(lam, 10.0 ** rng.uniform(-2.0, 2.0, len(ratio)), ratio)
        ]
        params += [SourceParams(0.0, 1.0, 0.001), SourceParams(0.01, 0.0, 0.001)]
        # mu / lambda underflows to 0: 1 - exp(-mu / lambda) is 0
        params += [SourceParams(1e10, 1.0, 1e-320), SourceParams(1e10, 0.0, 1e-320)]
        table = SourceTable.from_params(enumerate(params))
        assert table.utility().tolist() == [sp.utility for sp in params]

    def test_empty_table_has_integer_ids(self):
        for ids in ([], np.array([]), np.array([], dtype=object)):
            table = SourceTable(ids, [], [], [])
            assert len(table) == 0 and table.ids.dtype == np.int64
            assert not table.ids.flags.writeable

    @pytest.mark.parametrize("row", BAD_ROWS)
    def test_rules_and_messages_are_source_params(self, row):
        with pytest.raises(ValueError) as expected:
            SourceParams(*row)
        rows = [(0.5, 1.0, 0.001), (0.0, 0.0, 1.0), row, (-1.0, 1.0, 0.001)]
        with pytest.raises(SourceRowError) as err:
            SourceTable([3, 1, 2, 0], *zip(*rows))
        assert (err.value.row, str(err.value)) == (2, str(expected.value))

    def test_repeated_id_reported_at_its_second_row(self):
        good = (0.5, 1.0, 0.001)
        with pytest.raises(SourceRowError, match="^duplicate source id 7$") as err:
            SourceTable([7, 2, 7, 2], *zip(good, good, good, good))
        assert err.value.row == 2
        # on one row a repeated id is reported before a broken rule, as the
        # params reader reports it; an earlier broken rule comes first
        with pytest.raises(SourceRowError, match="^duplicate source id 7$"):
            SourceTable([7, 7], *zip(good, (0.5, 1.0, 0.0)))
        with pytest.raises(SourceRowError, match="^decay must be > 0") as err:
            SourceTable([7, 8, 7], *zip(good, (0.5, 1.0, 0.0), good))
        assert err.value.row == 1

    def test_columns_of_one_length(self):
        with pytest.raises(ValueError, match="of one length"):
            SourceTable([0, 1], [0.5, 0.5], [1.0], [0.001, 0.001])

    def test_is_a_read_only_mapping_of_source_params(self):
        params = {5: SourceParams(0.5, 1.0, 0.001), 2: SourceParams(0.0, 3.0, 1e-5)}
        table = SourceTable.from_params(params.items())
        assert dict(table) == params
        assert list(table) == [5, 2]
        assert len(table) == 2 and 2 in table and 3 not in table
        with pytest.raises(KeyError):
            table[3]
        with pytest.raises(ValueError):
            table.decay[0] = -1.0

    @pytest.mark.parametrize("ids", [[2**63, 5], [2**70, -1], [-(2**63) - 1, 2**64]])
    def test_ids_past_64_bits_keep_their_value(self, ids):
        sp = SourceParams(0.5, 1.0, 0.001)
        table = SourceTable.from_params((sid, sp) for sid in ids)
        assert list(table) == ids and all(type(sid) is int for sid in table)
        with pytest.raises(SourceRowError, match=f"^duplicate source id {ids[0]}$"):
            SourceTable.from_params((sid, sp) for sid in ids + ids[:1])


class TestCrawlRecord:
    def test_recrawl_carries_no_profit(self):
        with pytest.raises(ValueError):
            CrawlRecord(10.0, RecrawlSource(1), realized_profit=1.0)

    def test_negative_profit_rejected(self):
        with pytest.raises(ValueError):
            CrawlRecord(10.0, CrawlPage(1), realized_profit=-0.5)


def _trace(*page_fetches):
    """(time, profit) pairs -> trace of CrawlPage records."""
    return [CrawlRecord(t, CrawlPage(i), p) for i, (t, p) in enumerate(page_fetches)]


class TestDynamicQuality:
    CFG = MetricConfig(window=100.0, sample_period=10.0)

    def test_single_page(self):
        trace = _trace((3000.0, 10.0))
        cfg = MetricConfig(window=3600.0, sample_period=60.0)
        assert dynamic_quality(trace, 3600.0, cfg) == pytest.approx(10.0 / 3600.0)

    def test_empty_window_is_zero(self):
        assert dynamic_quality([], 200.0, self.CFG) == 0.0

    def test_three_pages_hand_sum(self):
        trace = _trace((110.0, 2.0), (150.0, 3.0), (190.0, 5.0))
        assert dynamic_quality(trace, 200.0, self.CFG) == pytest.approx(0.1)

    def test_window_boundaries_inclusive(self):
        trace = _trace((100.0, 1.0), (200.0, 1.0), (99.99, 100.0), (200.01, 100.0))
        assert dynamic_quality(trace, 200.0, self.CFG) == pytest.approx(2.0 / 100.0)

    def test_recrawls_do_not_count(self):
        trace = [
            CrawlRecord(150.0, RecrawlSource(1)),
            CrawlRecord(160.0, CrawlPage(1), 4.0),
        ]
        assert dynamic_quality(trace, 200.0, self.CFG) == pytest.approx(0.04)

    def test_t_below_window_rejected(self):
        with pytest.raises(ValueError):
            dynamic_quality([], 50.0, self.CFG)

    def test_equal_timestamp_reordering_invariant(self):
        a = _trace((150.0, 2.0), (150.0, 3.0))
        b = list(reversed(a))
        assert dynamic_quality(a, 200.0, self.CFG) == dynamic_quality(b, 200.0, self.CFG)


class TestOverallQuality:
    def test_empty(self):
        assert overall_quality([], 100.0) == 0.0

    def test_single_page(self):
        assert overall_quality(_trace((5.0, 7.2)), 10.0) == pytest.approx(0.72)

    def test_equals_dynamic_at_full_window(self):
        trace = _trace((5.0, 1.5), (60.0, 2.5), (99.0, 3.0))
        horizon = 100.0
        cfg = MetricConfig(window=horizon, sample_period=horizon)
        assert overall_quality(trace, horizon) == dynamic_quality(trace, horizon, cfg)


class TestQualitySeries:
    def test_matches_pointwise_metric(self):
        import random

        rng = random.Random(7)
        trace = _trace(
            *sorted((rng.uniform(0, 1000.0), rng.uniform(0, 5.0)) for _ in range(60))
        )
        cfg = MetricConfig(window=150.0, sample_period=37.0)
        series = quality_series(trace, 1000.0, cfg)
        assert len(series) > 10
        for t, q in series:
            assert q == pytest.approx(dynamic_quality(trace, t, cfg), abs=1e-12)

    def test_unordered_trace_rejected(self):
        trace = _trace((50.0, 1.0), (10.0, 1.0))
        with pytest.raises(ValueError):
            quality_series(trace, 100.0, MetricConfig(window=10.0, sample_period=10.0))


class TestValidateTrace:
    def test_slot_alignment(self):
        trace = [CrawlRecord(20.0, RecrawlSource(1)), CrawlRecord(50.0, CrawlPage(1), 1.0)]
        validate_trace(trace, slot_width=10.0)
        with pytest.raises(ValueError):
            validate_trace([CrawlRecord(15.0, RecrawlSource(1))], slot_width=10.0)

    def test_ordering(self):
        trace = [CrawlRecord(50.0, RecrawlSource(1)), CrawlRecord(20.0, CrawlPage(1), 0.0)]
        with pytest.raises(ValueError):
            validate_trace(trace)
