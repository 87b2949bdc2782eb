"""Estimator tests: curve fitting against closed-form, dense-scan and
finite-difference oracles, new-link rate arithmetic, and click-log
ingestion."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from echocrawl.estimators import (
    DEFAULT_DECAY,
    DEFAULT_LAMBDA,
    DEFAULT_PROFIT,
    ClickHistogram,
    EstimatorState,
    estimate_lambda,
    fit_objective,
    fit_profit_curve,
    posterior_rate,
)
from echocrawl import estimators
from echocrawl.core import SourceParams, SourceTable
from oracles import dense_fit_oracle, golden_fit_oracle


def recrawls(steps):
    """(time, links) pairs at the running sums of the (gap, links) steps."""
    entries, t = [], 0.0
    for gap, links in steps:
        t += gap
        entries.append((t, links))
    return entries


def model_histogram(profit, decay, bin_size, bins, page_count=1):
    """Noiseless cumulative histogram drawn from the model itself."""
    cumulative = [
        page_count * profit * -math.expm1(-decay * i * bin_size)
        for i in range(bins + 1)
    ]
    return ClickHistogram(bin_size, cumulative, page_count)


class TestClickHistogram:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClickHistogram(0.0, [0.0, 1.0], 1)
        with pytest.raises(ValueError):
            ClickHistogram(10.0, [0.0, 2.0, 1.0], 1)  # decreasing
        with pytest.raises(ValueError):
            ClickHistogram(10.0, [], 1)
        with pytest.raises(ValueError):
            ClickHistogram(10.0, [0.0, 1.0], -1)

    def test_targets(self):
        hist = ClickHistogram(10.0, [0.0, 3.0, 5.0], 2)
        assert hist.targets() == [0.0, 1.5, 2.5]
        with pytest.raises(ValueError):
            ClickHistogram(10.0, [0.0], 0).targets()


class TestFitObjective:
    def test_frozen_values(self):
        # 50-digit decimal arithmetic on D=100, s=[0,3,5], N=2, P=2, mu=0.004
        hist = ClickHistogram(100.0, [0.0, 3.0, 5.0], 2)
        value, d_profit, d_decay = fit_objective(hist, 2.0, 0.004)
        assert value == pytest.approx(2.6629197646106726, rel=1e-14)
        assert d_profit == pytest.approx(-2.0946851940823534, rel=1e-14)
        assert d_decay == pytest.approx(-728.1651765249867, rel=1e-14)

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            bins = int(rng.integers(2, 30))
            bin_size = float(10.0 ** rng.uniform(1, 4))
            increments = rng.gamma(1.0, 2.0, bins)
            cumulative = [0.0, *np.cumsum(increments)]
            pages = int(rng.integers(1, 50))
            hist = ClickHistogram(bin_size, cumulative, pages)
            profit = float(10.0 ** rng.uniform(-2, 1))
            decay = float(10.0 ** rng.uniform(-5, -2))

            value, d_profit, d_decay = fit_objective(hist, profit, decay)
            h_p = 1e-4 * profit
            fd_p = (
                fit_objective(hist, profit + h_p, decay)[0]
                - fit_objective(hist, profit - h_p, decay)[0]
            ) / (2 * h_p)
            h_m = 1e-4 * decay
            fd_m = (
                fit_objective(hist, profit, decay + h_m)[0]
                - fit_objective(hist, profit, decay - h_m)[0]
            ) / (2 * h_m)
            # the difference quotient cannot resolve below its own
            # cancellation noise, ~eps * F / h
            eps = np.finfo(float).eps
            assert d_profit == pytest.approx(
                fd_p, rel=1e-5, abs=64 * eps * max(value, 1.0) / h_p
            )
            assert d_decay == pytest.approx(
                fd_m, rel=1e-5, abs=64 * eps * max(value, 1.0) / h_m
            )

    def test_requires_two_bins(self):
        with pytest.raises(ValueError):
            fit_objective(ClickHistogram(10.0, [0.0], 1), 1.0, 1.0)

    def test_search_slope_is_envelope_derivative(self):
        # at P = P(mu) the fit's search slope dF/dlog10(mu) is
        # fit_objective's partial dF/dmu times mu ln 10
        rng = np.random.default_rng(13)
        for _ in range(40):
            bins = int(rng.integers(2, 30))
            bin_size = float(10.0 ** rng.uniform(0, 5))
            cumulative = [0.0, *np.cumsum(rng.gamma(0.5, 3.0, bins))]
            hist = ClickHistogram(bin_size, cumulative, int(rng.integers(1, 50)))
            y = np.asarray(hist.targets()[1:])
            ages = bin_size * np.arange(1, bins + 1, dtype=float)
            decays = 10.0 ** rng.uniform(-3, 1, 8) / bin_size
            values, slopes, profits = estimators._profile(y, ages, decays)
            for value, slope, profit, decay in zip(values, slopes, profits, decays):
                f, d_profit, d_decay = fit_objective(hist, float(profit), float(decay))
                assert value == pytest.approx(f, rel=1e-9)
                assert abs(d_profit) <= 1e-9 * float(np.abs(y).sum())  # P is optimal
                assert slope == pytest.approx(d_decay * decay * math.log(10.0), rel=1e-9)
        # all clicks zero: P(mu) is 0 and F is flat in mu
        _, slopes, profits = estimators._profile(np.zeros(5), ages[:5], decays)
        assert not profits.any() and not slopes.any()


def span_floor(hist):
    """The online estimator's decay floor: 1 / (the histogram's span)."""
    return 1.0 / (hist.bin_size * (len(hist.cumulative) - 1))


class TestFitProfitCurve:
    def test_noiseless_recovery(self):
        hist = model_histogram(profit=5.0, decay=0.002, bin_size=1200.0, bins=20)
        curve = fit_profit_curve(hist)
        assert curve.profit == pytest.approx(5.0, rel=0.01)
        assert curve.decay == pytest.approx(0.002, rel=0.01)

    def test_all_zero_histogram(self):
        hist = ClickHistogram(600.0, [0.0] * 10, 5)
        curve = fit_profit_curve(hist)
        assert 0.0 <= curve.profit <= 1e-12

    def test_fitted_curve_shape(self):
        # cumulative clicks by age: concave, increasing, saturating at P
        hist = model_histogram(profit=2.0, decay=0.001, bin_size=900.0, bins=15)
        curve = fit_profit_curve(hist)
        ages = np.linspace(0.0, 20_000.0, 60)
        cum = curve.profit * -np.expm1(-curve.decay * ages)
        assert curve.profit > 0
        assert np.all(np.diff(cum) > 0)
        assert np.all(np.diff(cum, 2) < 0)
        assert curve.profit * -math.expm1(-curve.decay * 1e9) == pytest.approx(
            curve.profit
        )

    def test_returns_best_traced_evaluation(self):
        hist = model_histogram(profit=1.5, decay=0.8, bin_size=1.0, bins=20)
        trace = []
        curve = fit_profit_curve(hist, trace=trace)
        assert len(trace) > 100  # the 137-point grid plus the root search
        value = fit_objective(hist, curve.profit, curve.decay)[0]
        assert value == pytest.approx(min(trace), rel=1e-9, abs=1e-24)

    def test_fast_decay_recovered(self):
        # fast decay: the curve saturates within a few of the 20 bins
        hist = model_histogram(profit=1.5, decay=0.8, bin_size=1.0, bins=20)
        curve = fit_profit_curve(hist)
        assert curve.profit == pytest.approx(1.5, rel=1e-6)
        assert curve.decay == pytest.approx(0.8, rel=1e-6)

    def test_noisy_recovery_many_seeds(self):
        # 5% multiplicative noise: P back within 10%, decay within 15%
        rng = np.random.default_rng(21)
        for _ in range(50):
            profit = float(10.0 ** rng.uniform(-1, 1))
            decay = float(10.0 ** rng.uniform(-5, -2.5))
            bin_size = 0.2 / decay
            bins = 25
            exact = np.array(
                [profit * -math.expm1(-decay * i * bin_size) for i in range(bins + 1)]
            )
            noisy = exact * (1.0 + rng.uniform(-0.05, 0.05, bins + 1))
            noisy[0] = 0.0
            cumulative = np.maximum.accumulate(noisy)
            hist = ClickHistogram(bin_size, list(cumulative), 1)
            curve = fit_profit_curve(hist)
            assert curve.profit == pytest.approx(profit, rel=0.10)
            assert curve.decay == pytest.approx(decay, rel=0.15)

    @settings(max_examples=150, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 30), min_size=1, max_size=40),
        pages=st.integers(1, 20),
        bin_size=st.sampled_from([1.0, 60.0, 1200.0, 86400.0]),
        floored=st.booleans(),
    )
    def test_no_worse_than_dense_scan(self, counts, pages, bin_size, floored):
        hist = ClickHistogram(bin_size, np.cumsum([0, *counts]), pages)
        min_decay = span_floor(hist) if floored else None
        curve = fit_profit_curve(hist, min_decay)
        _, _, best = dense_fit_oracle(hist.targets(), bin_size, min_decay)
        value = fit_objective(hist, curve.profit, curve.decay)[0]
        # near an exact fit F is rounding noise, a tiny share of sum(y^2)
        y = np.asarray(hist.targets())
        assert value <= best * (1 + 1e-9) + 1e-20 * float(y @ y)
        assert curve.decay >= (min_decay or 0.0)

    @settings(max_examples=150, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 30), min_size=1, max_size=40),
        pages=st.integers(1, 20),
        bin_size=st.sampled_from([1.0, 60.0, 1200.0, 86400.0]),
        floored=st.booleans(),
    )
    def test_no_worse_than_golden_section(self, counts, pages, bin_size, floored):
        # The root search ends no worse than the golden-section search it
        # replaced, from the same grid point (F as each search evaluated
        # it).  Near an exact fit, or at the edge of a linear one, F is
        # rounding noise, and golden section's many points land on lucky
        # noise: allow 1e-24 of sum(y^2), residuals equal to 12 digits.
        hist = ClickHistogram(bin_size, np.cumsum([0, *counts]), pages)
        min_decay = span_floor(hist) if floored else None
        trace = []
        fit_profit_curve(hist, min_decay, trace)
        _, _, golden = golden_fit_oracle(hist.targets(), bin_size, min_decay)
        y = np.asarray(hist.targets())
        assert min(trace) <= golden * (1 + 1e-12) + 1e-24 * float(y @ y)

    @pytest.mark.parametrize(
        "profit, decay, bin_size, bins",
        [(5.0, 0.002, 1200.0, 20), (2.0, 0.001, 900.0, 15), (1.5, 0.8, 1.0, 20)],
    )
    def test_root_search_evaluation_bound(self, profit, decay, bin_size, bins):
        # a 0.1-decade bracket down to 1e-12 decades took golden section
        # about 57 evaluations; the root search takes at most 15
        hist = model_histogram(profit, decay, bin_size, bins)
        trace = []
        curve = fit_profit_curve(hist, trace=trace)
        grid = len(np.arange(-12.0, math.log10(40.0), 0.1)) + 1
        assert grid < len(trace) <= grid + 15
        assert curve.profit == pytest.approx(profit, rel=1e-9)
        assert curve.decay == pytest.approx(decay, rel=1e-9)

    def test_span_floor_bounds_sparse_late_clicks(self):
        # one click in the last of 5 bins: the data is convex, so the
        # unbounded least-squares curve flattens into a line and P runs off
        hist = ClickHistogram(1200.0, [0.0, 0.0, 0.0, 0.0, 0.0, 1.0], 1)
        floored = fit_profit_curve(hist, span_floor(hist))
        assert floored.profit <= 2 * max(hist.targets())
        assert floored.decay >= span_floor(hist)
        assert fit_profit_curve(hist).profit > 1e6

    def test_rejects_empty_pages(self):
        hist = ClickHistogram(10.0, [0.0, 1.0], 0)
        with pytest.raises(ValueError):
            fit_profit_curve(hist)

    def test_rejects_one_bin_and_bad_floor(self):
        with pytest.raises(ValueError):
            fit_profit_curve(ClickHistogram(10.0, [1.0], 1))
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                fit_profit_curve(ClickHistogram(10.0, [0.0, 1.0], 1), bad)


class TestEstimateLambda:
    def test_even_spacing(self):
        entries = [(700.0 * i, 3) for i in range(7)]  # spans 4200 s
        # 18 links after the first entry over 4200 s, prior 1 link per 3600 s
        assert estimate_lambda(entries, now=5000.0) == pytest.approx(19 / 7800)

    def test_hand_example(self):
        entries = [(0.0, 5), (100.0, 0), (300.0, 1)]
        assert estimate_lambda(entries, now=300.0) == pytest.approx(2 / 3900)

    def test_all_zero_links(self):
        entries = [(0.0, 0), (50.0, 0), (90.0, 0)]
        assert estimate_lambda(entries, now=100.0) == pytest.approx(1 / 3690)

    def test_too_few_entries_falls_back(self):
        assert estimate_lambda([(0.0, 3)], now=10.0, default=0.25) == 0.25
        assert estimate_lambda([], now=0.0) == DEFAULT_LAMBDA

    def test_future_entries_invisible(self):
        entries = [(0.0, 5), (100.0, 0), (300.0, 1)]
        # at now=150 only the first two entries exist: no link after the
        # first over 100 s
        assert estimate_lambda(entries, now=150.0) == pytest.approx(1 / 3700)
        assert estimate_lambda(entries, now=50.0, default=1.0) == 1.0

    @given(
        split_frac=st.floats(0.05, 0.95),
        first_part=st.integers(0, 6),
    )
    def test_splitting_invariance(self, split_frac, first_part):
        # splitting one entry into two covering the same span and links
        base = [(0.0, 5), (100.0, 0), (300.0, 6), (400.0, 2)]
        t_split = 100.0 + split_frac * 200.0
        split = [
            (0.0, 5),
            (100.0, 0),
            (t_split, first_part),
            (300.0, 6 - first_part),
            (400.0, 2),
        ]
        assert estimate_lambda(split, now=500.0) == pytest.approx(
            estimate_lambda(base, now=500.0)
        )

    @given(
        capacity=st.integers(2, 8),
        steps=st.lists(st.tuples(st.floats(1e-3, 1e6), st.integers(0, 10**4)), max_size=12),
        now=st.one_of(st.none(), st.floats(0.0, 1e7)),
        default=st.floats(1e-9, 1e3),
    )
    def test_posterior_never_zero_or_infinite(self, capacity, steps, now, default):
        entries = recrawls(steps)[-capacity:]
        rate = estimate_lambda(entries, now, default)
        assert 0.0 < rate < math.inf
        visible = [e for e in entries if now is None or e[0] <= now]
        if len(visible) < 2:
            assert rate == default
        assert posterior_rate(0, 0.0, default) == default

    def test_links_after_first_are_unbiased(self, monkeypatch):
        # Poisson links, crawls at random times independent of them: the
        # links estimate_lambda counts have mean lambda * span, while the
        # first entry's links arrived before the window's span began
        rate, n_windows, capacity = 1 / 600, 20_000, 7
        rng = np.random.default_rng(12)
        seen = []

        def recorded(arrivals, span, default):
            seen.append((arrivals, span))
            return default

        monkeypatch.setattr(estimators, "posterior_rate", recorded)
        first_links = []
        for _ in range(n_windows):
            times = np.cumsum(rng.uniform(1.0, 1200.0, capacity))
            links = rng.poisson(rate * np.diff(times, prepend=0.0))
            estimate_lambda(list(zip(times.tolist(), links.tolist())))
            first_links.append(int(links[0]))
        arrivals, spans = np.array(seen, dtype=float).T

        def within_three_standard_errors(counted):
            err = counted - rate * spans
            return abs(err.mean()) <= 3.0 * err.std(ddof=1) / math.sqrt(n_windows)

        assert within_three_standard_errors(arrivals)
        assert not within_three_standard_errors(arrivals + np.array(first_links))


class TestRecordCrawl:
    """EstimatorState.record_crawl keeps each source's last history_capacity
    recrawls and checks each new one against the last."""

    def test_only_the_last_capacity_entries_count(self):
        state = EstimatorState(history_capacity=2)
        for time, links in [(0.0, 1), (1.0, 2), (2.0, 3)]:
            state.record_crawl(0, time, links)
        expected = estimate_lambda([(1.0, 2), (2.0, 3)], default=DEFAULT_LAMBDA)
        assert state.params_snapshot(now=2.0)[0].lambda_rate == expected
        assert expected != estimate_lambda([(0.0, 1), (1.0, 2), (2.0, 3)])

    def test_strictly_increasing_required(self):
        state = EstimatorState(history_capacity=3)
        state.record_crawl(0, 5.0, 1)
        for time in (5.0, 4.0):
            with pytest.raises(ValueError, match="crawl times must be strictly increasing"):
                state.record_crawl(0, time, 2)
        state.record_crawl(1, 5.0, 2)  # each source has its own history

    def test_rejects_negative_links(self):
        state = EstimatorState(history_capacity=3)
        state.record_crawl(0, 0.0, 1)
        with pytest.raises(ValueError, match="link counts must be >= 0"):
            state.record_crawl(0, 1.0, -1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time(self, bad):
        state = EstimatorState(history_capacity=3)
        with pytest.raises(ValueError, match=f"crawl time must be finite, got {bad}"):
            state.record_crawl(0, bad, 1)  # as the first entry
        state.record_crawl(0, 0.0, 1)
        with pytest.raises(ValueError, match=f"crawl time must be finite, got {bad}"):
            state.record_crawl(0, bad, 2)  # after a finite one
        state.record_crawl(0, 5.0, 3)
        expected = estimate_lambda([(0.0, 1), (5.0, 3)])
        assert state.params_snapshot(now=5.0)[0].lambda_rate == expected

    def test_rejected_entry_is_not_kept(self):
        state = EstimatorState(history_capacity=3)
        state.record_crawl(0, 0.0, 1)
        with pytest.raises(ValueError):
            state.record_crawl(0, 1.0, -1)
        state.record_crawl(0, 1.0, 4)
        expected = estimate_lambda([(0.0, 1), (1.0, 4)])
        assert state.params_snapshot(now=1.0)[0].lambda_rate == expected

    @given(
        capacity=st.integers(2, 8),
        steps=st.lists(st.tuples(st.floats(1e-3, 1e4), st.integers(0, 50)), max_size=20),
        now=st.one_of(st.none(), st.floats(0.0, 2e5)),
    )
    def test_snapshot_rate_is_estimate_over_last_capacity(self, capacity, steps, now):
        state = EstimatorState(history_capacity=capacity)
        state.ensure_source(0)
        entries = recrawls(steps)
        for time, links in entries:
            state.record_crawl(0, time, links)
        t = math.inf if now is None else now
        expected = estimate_lambda(entries[-capacity:], t, DEFAULT_LAMBDA)
        assert state.params_snapshot(t)[0].lambda_rate == expected
        assert state.value_rates(t)[0] == expected * DEFAULT_PROFIT


class TestEstimatorState:
    def test_hand_binning(self):
        state = EstimatorState(bin_size=1200.0)
        state.register_page(7, source=3, created=0.0)
        assert state.push_logs([(7, 100.0), (7, 1500.0)], t_push=2000.0) is None
        hist = state.histogram(3)
        assert hist.cumulative == (0.0, 1.0, 2.0)
        assert hist.page_count == 1

    def test_no_events_no_change(self):
        state = EstimatorState(bin_size=1200.0)
        state.register_page(1, source=0, created=0.0)
        state.push_logs([(1, 500.0)], t_push=1000.0)
        before = state.histogram(0)
        state.push_logs([], t_push=2000.0)
        assert state.histogram(0) == before

    def test_push_visibility(self):
        state = EstimatorState(bin_size=100.0)
        state.register_page(1, source=0, created=0.0)
        state.push_logs([(1, 501.0)], t_push=500.0)
        assert state.histogram(0).cumulative == (0.0,)
        state.push_logs([(1, 501.0)], t_push=600.0)
        assert state.histogram(0).cumulative[-1] == 1.0

    def test_unknown_page_counted(self):
        state = EstimatorState()
        state.ensure_source(0)
        state.push_logs([(99, 10.0)], t_push=100.0)
        assert state.histogram(0).cumulative == (0.0,)
        assert state.unknown_clicks == 1

    def test_old_clicks_truncated(self):
        state = EstimatorState(bin_size=100.0, max_click_age=1000.0)
        state.register_page(1, source=0, created=0.0)
        state.push_logs([(1, 1001.0)], t_push=5000.0)
        assert state.histogram(0).cumulative == (0.0,)

    def test_negative_age_rejected(self):
        state = EstimatorState()
        state.register_page(1, source=0, created=100.0)
        with pytest.raises(ValueError):
            state.push_logs([(1, 50.0)], t_push=200.0)

    def test_duplicate_page_rejected(self):
        state = EstimatorState()
        state.register_page(1, source=0, created=0.0)
        with pytest.raises(ValueError):
            state.register_page(1, source=1, created=5.0)

    def test_average_profit(self):
        state = EstimatorState()
        assert state.average_profit(4) == DEFAULT_PROFIT
        state.register_page(1, source=4, created=0.0)
        state.register_page(2, source=4, created=10.0)
        state.push_logs([(1, 5.0), (1, 8.0), (2, 20.0)], t_push=100.0)
        assert state.average_profit(4) == pytest.approx(1.5)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"bin_size": math.nan}, "bin_size must be finite and > 0, got nan"),
            ({"bin_size": math.inf}, "bin_size must be finite and > 0, got inf"),
            ({"max_click_age": math.nan}, "max_click_age must be > 0, got nan"),
            ({"history_capacity": 1}, "history_capacity must be >= 2, got 1"),
            ({"default_lambda": 0.0}, "default_lambda must be finite and > 0, got 0.0"),
            ({"default_lambda": math.inf}, "default_lambda must be finite and > 0, got inf"),
            ({"default_decay": math.nan}, "default_decay must be finite and > 0, got nan"),
            ({"default_profit": -0.5}, "default_profit must be finite and >= 0, got -0.5"),
            ({"default_profit": math.nan}, "default_profit must be finite and >= 0, got nan"),
        ],
    )
    def test_rejects_bad_settings_when_built(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            EstimatorState(**kwargs)
        assert EstimatorState(default_profit=0.0).default_profit == 0.0

    def test_snapshot_defaults(self):
        state = EstimatorState()
        state.ensure_source(2)
        params = state.params_snapshot(now=0.0)[2]
        assert params.lambda_rate == DEFAULT_LAMBDA
        assert params.profit == DEFAULT_PROFIT
        assert params.decay == DEFAULT_DECAY

    def test_snapshot_is_a_read_only_table_with_ids_ascending(self):
        state = EstimatorState()
        for source in (5, 2, 9):
            state.ensure_source(source)
        table = state.params_snapshot(now=0.0)
        assert isinstance(table, SourceTable)
        assert table.ids.tolist() == [2, 5, 9]
        assert table.lambda_rate.tolist() == [DEFAULT_LAMBDA] * 3
        for column in (table.ids, table.lambda_rate, table.profit, table.decay):
            assert not column.flags.writeable
        defaults = SourceParams(DEFAULT_LAMBDA, DEFAULT_PROFIT, DEFAULT_DECAY)
        assert dict(table) == dict.fromkeys([2, 5, 9], defaults)  # the Mapping view
        empty = EstimatorState().params_snapshot(now=0.0)
        assert len(empty) == 0
        assert empty.ids.dtype.kind == "i"

    def test_fittable_needs_a_click_past_the_first_bin(self):
        state = EstimatorState(bin_size=100.0)
        state.ensure_source(0)
        assert not state.fittable(0) and not state.fittable(1)
        state.register_page(1, source=0, created=0.0)
        state.push_logs([(1, 0.0)], t_push=10.0)  # bin 0 pins every curve
        assert not state.fittable(0)
        assert state.params_snapshot(now=10.0)[0].profit == DEFAULT_PROFIT
        state.push_logs([(1, 150.0)], t_push=200.0)
        assert state.fittable(0)
        hist = state.histogram(0)
        expected = fit_profit_curve(hist, span_floor(hist))
        assert state.params_snapshot(now=200.0)[0].profit == expected.profit

    def test_snapshot_uses_crawl_history(self):
        state = EstimatorState()
        state.ensure_source(0)
        state.record_crawl(0, time=0.0, new_links=5)
        state.record_crawl(0, time=100.0, new_links=0)
        state.record_crawl(0, time=300.0, new_links=1)
        params = state.params_snapshot(now=300.0)[0]
        assert params.lambda_rate == pytest.approx(2 / 3900)

    def test_snapshot_recovers_curve(self):
        # feed clicks drawn exactly from the model; the fitted snapshot
        # parameters must approximate it
        decay = 1e-3
        state = EstimatorState(bin_size=0.2 / decay)
        rng = np.random.default_rng(5)
        events = []
        for page in range(400):
            state.register_page(page, source=0, created=0.0)
            for age in rng.exponential(1.0 / decay, 3):  # P = 3 clicks/page
                events.append((page, age))
        state.push_logs(events, t_push=1e9)
        params = state.params_snapshot(now=1e9)[0]
        assert params.profit == pytest.approx(3.0, rel=0.1)
        assert params.decay == pytest.approx(decay, rel=0.15)

    def test_fit_cache_reused_until_growth(self):
        state = EstimatorState(bin_size=100.0)
        for page in range(5):
            state.register_page(page, source=0, created=0.0)
        state.push_logs([(p, 150.0) for p in range(5)] * 4, t_push=1000.0)
        first = state.params_snapshot(now=1000.0)[0]
        # 2 more clicks: below the refit threshold, cached curve reused
        state.push_logs([(0, 250.0), (1, 250.0)], t_push=2000.0)
        second = state.params_snapshot(now=2000.0)[0]
        assert (second.profit, second.decay) == (first.profit, first.decay)
        # 40 more clicks push past the threshold and trigger a refit
        state.push_logs([(p, 350.0) for p in range(5)] * 8, t_push=3000.0)
        third = state.params_snapshot(now=3000.0)[0]
        assert (third.profit, third.decay) != (first.profit, first.decay)

    def test_snapshot_is_the_span_floored_fit(self):
        state = EstimatorState(bin_size=600.0)
        for page in range(3):
            state.register_page(page, source=0, created=0.0)
        state.push_logs([(0, 2500.0), (1, 2900.0), (2, 400.0)], t_push=3000.0)
        hist = state.histogram(0)
        expected = fit_profit_curve(hist, span_floor(hist))
        params = state.params_snapshot(now=3000.0)[0]
        assert (params.profit, params.decay) == (expected.profit, expected.decay)
