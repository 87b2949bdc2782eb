"""Interval solver tests.

g values are frozen from 50-digit decimal evaluations (see oracles.py);
solve_schedule optimality is checked against a brute-force grid search on
the budget simplex.
"""

import csv
import math
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from echocrawl import fileio, optimizer
from echocrawl.core import SourceParams, SourceTable
from echocrawl.optimizer import (
    NoConvergenceError,
    ScheduleInfeasibleError,
    SolverConfig,
    closed_form_quality,
    g,
    g_inverse,
    solve_schedule,
)
from instances import check_schedule, random_instance, random_tied_instance
from oracles import crossing_oracle, g_decimal, g_root_decimal, grid_search_quality

# A solver input captured from a preset:main crawl (echo-schedule, seed 0,
# simulated hour 32.5) whose solution ends in g's flat tail.
FOUND1_PARAMS = Path(__file__).parent / "data" / "found1_params.csv"
FOUND1_BUDGET = 0.003681


def found1_params():
    sources, _ = fileio.read_params(FOUND1_PARAMS)
    return dict(sources)


# Solver inputs from one round of the crawl-preset benchmark (drop gaps,
# flat-tail completions and unstarved solves) with the schedules that the
# solver at commit 351dae8 gave them; the file's first line says where.
PRESET_SOLVES = Path(__file__).parent / "data" / "preset_solves.csv"


def preset_solves():
    """{case: (kind, budget, params, intervals, pinched)} from PRESET_SOLVES."""
    cases = {}
    with open(PRESET_SOLVES, newline="") as f:
        for row in csv.DictReader(line for line in f if not line.startswith("#")):
            _, _, params, intervals, pinched = cases.setdefault(
                row["case"], (row["kind"], float(row["budget"]), {}, {}, set())
            )
            sid = int(row["source_id"])
            params[sid] = SourceParams(
                float(row["lambda_rate"]), float(row["profit"]), float(row["decay"])
            )
            intervals[sid] = float(row["interval"])
            if row["pinched"] == "1":
                pinched.add(sid)
    return cases


PRESET_CASES = preset_solves()


def preset_mix():
    """30 sources of the bundled preset's classes (feed, news, blog, feed,
    blog, blog, five times over): every utility is tied five or fifteen ways."""
    feed = SourceParams(1 / 300, 0.02, 1 / 1800)
    news = SourceParams(1 / 3600, 4.0, 1 / 3600)
    blog = SourceParams(1 / 7200, 1.0, 1 / 14400)
    return dict(enumerate([feed, news, blog, feed, blog, blog] * 5))


class TestG:
    # (x, g(x)) frozen from the decimal oracle
    FROZEN = [
        (0.0, 0.0),
        (1.0, 0.26424111765711535),
        (0.25, 0.026499021160743915),
        (2.5, 0.7127025048163542),
        (10.0, 0.9995006007726127),
        (1e-5, 4.999966666791666e-11),
    ]

    @pytest.mark.parametrize("x,expected", FROZEN)
    def test_frozen_values(self, x, expected):
        assert g(x) == pytest.approx(expected, rel=1e-10, abs=1e-300)

    def test_agrees_with_decimal_oracle(self):
        rng = np.random.default_rng(3)
        for x in 10.0 ** rng.uniform(-6, 1.8, 50):
            assert g(float(x)) == pytest.approx(g_decimal(float(x)), rel=1e-9)

    def test_limit_to_one(self):
        assert g(200.0) == pytest.approx(1.0, abs=1e-15)

    @given(x=st.floats(0.0, 20.0), gap=st.floats(1e-2, 20.0))
    def test_strictly_increasing(self, x, gap):
        # bounded so the increment stays above one ulp of g (saturates near 1)
        assert g(x + gap) > g(x)

    def test_range(self):
        for x in [0.0, 1e-8, 0.1, 1.0, 10.0, 500.0]:
            assert 0.0 <= g(x) < 1.0 or g(x) == pytest.approx(1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            g(-0.1)


class TestGInverse:
    def test_zero(self):
        assert g_inverse(0.0) == 0.0

    def test_frozen_inversion(self):
        assert g_inverse(0.26424111765711535, 1e-13) == pytest.approx(1.0, rel=1e-9)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for x in rng.uniform(0.01, 20.0, 200):
            y = g(float(x))
            assert g_inverse(y, 1e-13) == pytest.approx(float(x), rel=1e-5)

    def test_contract_tolerance(self):
        rng = np.random.default_rng(12)
        for y in rng.uniform(0.0, 0.999999, 100):
            x = g_inverse(float(y), 1e-10)
            assert abs(g(x) - y) <= 1e-10

    def test_bulk_meets_g_tolerance_within_four_steps(self):
        # y across the doubles in (0, 1): from the smallest subnormal through
        # g's quadratic head to the largest double below 1, deep in its flat
        # tail; checked with the scalar g.  The inversion takes its four
        # Newton steps and tests nothing, so the g-tolerance must hold after
        # them everywhere.
        assert optimizer._INNER_STEPS == 4
        y = np.concatenate(
            [
                [5e-324, 1.0 - 2.0**-53],
                10.0 ** -np.linspace(0.0, 323.0, 20_000)[1:],
                1.0 - 2.0 ** -np.linspace(1.0, 53.0, 5_000),
            ]
        )
        x = optimizer._g_inverse_bulk(y)
        for xi, yi in zip(x.tolist(), y.tolist()):
            assert abs(g(xi) - yi) <= max(1e-9 * yi, 5e-16), yi

    @pytest.mark.parametrize(
        "between",
        [lambda y: 1.0 - y, lambda y: y[::-1], lambda y: np.full(3, 0.5)],
        ids=["complement", "reversed", "other-size"],
    )
    def test_bulk_meets_tolerance_from_cold_and_stale_starts(self, between):
        # y from deep in g's quadratic head to deep in its flat tail, checked
        # with the scalar g.  Every y starts cold, from the asymptotic root,
        # and a call keeps nothing for the next, so a stale start cannot
        # arise: the same y give the same x after any other call, whether it
        # inverted other values, the same ones in another order or another
        # number of them.
        head = 10.0 ** -np.linspace(1, 14, 30)
        y = np.concatenate([head, 1.0 - 10.0 ** -np.linspace(1, 15, 30)])
        tol = np.maximum(1e-9 * y, 5e-16)
        cold = optimizer._g_inverse_bulk(y)
        optimizer._g_inverse_bulk(between(y))
        x = optimizer._g_inverse_bulk(y)
        np.testing.assert_array_equal(x, cold)
        for xi, yi, ti in zip(x, y, tol):
            assert abs(g(float(xi)) - yi) <= ti

    def test_bulk_meets_rate_bound(self):
        # The rate error mu |x - x*| / x*^2 of a source with mu = x* (a
        # recrawl rate of 1) against the decimal root x*.  The g-tolerance
        # alone leaves it up to about 1e-2 in g's flat tail.
        y = np.concatenate(
            [10.0 ** -np.linspace(0.31, 300.0, 300), 1.0 - 10.0 ** -np.linspace(0.31, 15.9, 300)]
        )
        start = np.where(y < 0.5, np.sqrt(2.0 * y), -np.log1p(-y))
        x = optimizer._g_inverse_bulk(y)
        for yi, xi, si in zip(y.tolist(), x.tolist(), start.tolist()):
            root = g_root_decimal(yi, si)
            error = root * abs(Decimal(xi) - root) / root**2
            assert error <= Decimal(1e-12 * (1 + 1e-6)), yi

    def test_bulk_within_four_ulp_of_decimal_root(self):
        # Four steps reach float resolution: x is within 4 ulp of the decimal
        # root across g's head and tail, sampled densely over 0.3-0.55, where
        # the two asymptotic starts meet and are furthest from the root (the
        # head's start, taken up to y = 1/2, would leave x 5 ulp off just
        # below it).
        rng = np.random.default_rng(17)
        y = np.concatenate(
            [
                [5e-324, 1e-310, 1.0 - 2.0**-53],
                10.0 ** -rng.uniform(0.3, 300.0, 600),
                rng.uniform(0.3, 0.45, 300),
                np.linspace(0.45, 0.55, 801),
                1.0 - 2.0 ** -rng.uniform(1.2, 53.0, 600),
            ]
        )
        start = np.where(y < 0.5, np.sqrt(2.0 * y), -np.log1p(-y))
        x = optimizer._g_inverse_bulk(y)
        for yi, xi, si in zip(y.tolist(), x.tolist(), start.tolist()):
            root = g_root_decimal(yi, si)
            assert abs(Decimal(xi) - root) <= 4 * Decimal(math.ulp(xi)), yi

    @given(
        y=st.lists(st.floats(5e-324, 1.0 - 2.0**-53), min_size=1, max_size=40),
        before=st.lists(st.floats(5e-324, 1.0 - 2.0**-53), max_size=10),
        after=st.lists(st.floats(5e-324, 1.0 - 2.0**-53), max_size=10),
    )
    def test_bulk_inversion_is_elementwise(self, y, before, after):
        # Each entry's x is that of the entry inverted alone, bit for bit,
        # and an array's x is the same inside a longer array: a residual
        # depends on omega and the kept sources alone, by construction.
        x = optimizer._g_inverse_bulk(np.array(y))
        alone = [optimizer._g_inverse_bulk(np.array([yi]))[0] for yi in y]
        assert x.tolist() == alone
        longer = optimizer._g_inverse_bulk(np.array(before + y + after))
        assert longer[len(before) : len(before) + len(y)].tolist() == x.tolist()

    def test_domain_rejected(self):
        for y in [-0.1, 1.0, 1.5]:
            with pytest.raises(ValueError):
                g_inverse(y)
        with pytest.raises(ValueError):
            g_inverse(0.5, tolerance=0.0)


class TestSolveScheduleExamples:
    def test_single_source_forced_interval(self):
        params = {0: SourceParams(0.01, 1.0, 0.001)}
        sched = solve_schedule(params, budget=0.1)
        # constraint forces 1/I = N - lambda = 0.09
        assert sched.intervals[0] == pytest.approx(1.0 / 0.09, rel=1e-4)
        check_schedule(params, 0.1, sched)

    def test_two_identical_sources(self):
        params = {
            0: SourceParams(0.01, 1.0, 0.001),
            1: SourceParams(0.01, 1.0, 0.001),
        }
        sched = solve_schedule(params, budget=0.1)
        assert sched.intervals[0] == pytest.approx(25.0, rel=1e-4)
        assert sched.intervals[1] == pytest.approx(25.0, rel=1e-4)
        check_schedule(params, 0.1, sched)

    def test_zero_profit_source_never_recrawled(self):
        params = {
            0: SourceParams(0.01, 1.0, 0.001),
            1: SourceParams(0.01, 0.0, 0.001),
        }
        sched = solve_schedule(params, budget=0.1)
        assert math.isinf(sched.intervals[1])
        assert math.isfinite(sched.intervals[0])

    def test_three_heterogeneous_vs_grid_oracle(self):
        params = {
            0: SourceParams(0.02, 5.0, 0.002),
            1: SourceParams(0.01, 1.0, 0.001),
            2: SourceParams(0.005, 0.2, 0.0005),
        }
        budget = 0.05
        sched = solve_schedule(params, budget)
        check_schedule(params, budget, sched)
        q = closed_form_quality(sched, params)
        oracle = grid_search_quality(list(params.values()), budget)
        assert q >= oracle * (1 - 1e-3)
        assert q <= oracle * 1.01  # all sources finite here: should coincide

    def test_zero_sources_rejected(self):
        with pytest.raises(ValueError):
            solve_schedule({}, budget=0.1)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            solve_schedule({0: SourceParams(0.01, 1.0, 0.001)}, budget=0.0)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
    def test_non_finite_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be finite and > 0"):
            solve_schedule({0: SourceParams(0.01, 1.0, 0.001)}, budget)

    def test_all_prefiltered_is_infeasible(self):
        params = {0: SourceParams(0.0, 1.0, 0.001), 1: SourceParams(0.01, 0.0, 0.001)}
        with pytest.raises(ScheduleInfeasibleError):
            solve_schedule(params, budget=0.1)

    def test_single_source_budget_below_lambda_infeasible(self):
        params = {0: SourceParams(0.2, 1.0, 0.001)}
        with pytest.raises(ScheduleInfeasibleError) as exc:
            solve_schedule(params, budget=0.1)
        assert exc.value.residual != 0.0


class TestGapResolution:
    def test_budget_inside_drop_gap_excludes_boundary_source(self):
        # Utilities ~7.9 and ~5.05; any budget in (~0.0015, ~0.0515) falls in
        # the jump caused by B's lambda and has no exact bisection solution.
        params = {
            0: SourceParams(0.001, 5.0, 0.001),  # A, utility ~7.91
            1: SourceParams(0.05, 0.1, 0.001),  # B, utility ~5.05
        }
        budget = 0.01
        sched = solve_schedule(params, budget)
        assert math.isinf(sched.intervals[1])
        assert 1 in sched.pinched
        assert sched.intervals[0] == pytest.approx(1.0 / (budget - 0.001), rel=1e-4)
        check_schedule(params, budget, sched)
        # the kept source's utility threshold sits above omega
        assert sched.omega < params[0].utility

    def test_identical_sources_with_tight_budget_cascade(self):
        # Cold-start shape: every source identical, budget below total lambda.
        params = {
            i: SourceParams(1.0 / 3600.0, 0.01, 1.0 / 86400.0) for i in range(30)
        }
        budget = 0.005  # sum(lambda) ~ 0.00833
        sched = solve_schedule(params, budget)
        finite = [sid for sid, iv in sched.intervals.items() if math.isfinite(iv)]
        assert 0 < len(finite) < 30
        assert sched.pinched  # some sources had to be excluded
        check_schedule(params, budget, sched)

    def test_drop_gap_excludes_largest_lambda_first(self):
        # Utilities 5, 1, 1, 1 (mu = lambda, P = u (1 - 1/e)); the three
        # tied sources have distinct lambdas.  Excluding 3e-3, then 2e-3
        # leaves one tied source kept; smallest first would pinch all three.
        lam = [1e-3, 1e-3, 3e-3, 2e-3]
        params = {
            i: SourceParams(rate, u * -math.expm1(-1.0), rate)
            for i, (rate, u) in enumerate(zip(lam, [5.0, 1.0, 1.0, 1.0]))
        }
        budget = 0.0035
        sched = solve_schedule(params, budget)
        assert sched.pinched == {2, 3}
        assert {sid for sid, _ in sched.finite_items()} == {0, 1}
        check_schedule(params, budget, sched)


class TestBreakpointSearch:
    def test_matches_crossing_oracle_on_starved_tied_instances(self):
        rng = np.random.default_rng(46)
        returned = 0
        for _ in range(300):
            params, budget = random_tied_instance(rng)
            expected = crossing_oracle(params, budget)
            if expected is None:
                with pytest.raises(ScheduleInfeasibleError):
                    solve_schedule(params, budget)
                continue
            sched = solve_schedule(params, budget)
            finite = {sid for sid, _ in sched.finite_items()}
            assert (finite, set(sched.pinched)) == expected
            check_schedule(params, budget, sched)
            returned += 1
        assert returned >= 200

    def test_flat_tail_schedule_is_builtin_floats_and_round_trips(self, tmp_path):
        params = found1_params()
        sched = solve_schedule(params, FOUND1_BUDGET)
        assert all(type(v) is float for v in sched.intervals.values())
        assert type(sched.omega) is float
        assert type(sched.residual) is float
        check_schedule(params, FOUND1_BUDGET, sched)
        path = tmp_path / "schedule.csv"
        fileio.write_schedule(path, sched, 1e-6)
        intervals, meta = fileio.read_schedule(path)
        assert intervals == sched.intervals
        assert float(meta["omega"]) == sched.omega

    @pytest.mark.parametrize(
        "params,budget,bisecting",
        [
            (found1_params(), FOUND1_BUDGET, 152),
            (preset_mix(), 0.5 * sum(sp.lambda_rate for sp in preset_mix().values()), 65),
        ],
        ids=["found1", "starved-preset-mix"],
    )
    def test_evaluation_count(self, monkeypatch, params, budget, bisecting):
        # bisecting: inner inversions a solver needed that found each drop
        # gap by bisecting its bracket down to 8 ulp.
        calls = []
        inner = optimizer._g_inverse_bulk

        def counting(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(optimizer, "_g_inverse_bulk", counting)
        sched = solve_schedule(params, budget)
        assert sched.pinched
        assert len(calls) <= bisecting // 3


class TestPresetSolves:
    def test_cases_cover_every_path(self):
        kinds = [kind for kind, *_ in PRESET_CASES.values()]
        assert {kind: kinds.count(kind) for kind in set(kinds)} == {
            "flat-tail": 6,
            "drop-gap": 9,
            "unstarved": 9,
        }

    @pytest.mark.parametrize("case", sorted(PRESET_CASES))
    def test_schedule_unchanged(self, case):
        # The same finite and pinched sets, and intervals within 1e-8
        # relative: a faster solver may move the last digits of a schedule,
        # not the schedule.
        _, budget, params, expected, pinched = PRESET_CASES[case]
        sched = solve_schedule(params, budget)
        finite = {sid for sid, iv in expected.items() if math.isfinite(iv)}
        assert {sid for sid, _ in sched.finite_items()} == finite
        assert set(sched.pinched) == pinched
        for sid in finite:
            assert sched.intervals[sid] == pytest.approx(expected[sid], rel=1e-8), sid
        check_schedule(params, budget, sched)


class TestScheduleInvariants:
    def test_random_instances_satisfy_constraints(self):
        rng = np.random.default_rng(42)
        for _ in range(150):
            params, budget = random_instance(rng)
            sched = solve_schedule(params, budget)
            check_schedule(params, budget, sched)

    def test_tight_budget_instances(self):
        # Budgets below sum(lambda) force drops; infeasibility is legitimate
        # only when the surviving source alone exceeds the budget.
        rng = np.random.default_rng(43)
        returned = 0
        for _ in range(60):
            params, budget = random_instance(rng, budget_slack=(0.4, 1.05))
            try:
                sched = solve_schedule(params, budget)
            except ScheduleInfeasibleError:
                continue
            returned += 1
            check_schedule(params, budget, sched)
        assert returned >= 40  # drops resolve the vast majority

    def test_monotone_in_budget(self):
        # Holds only when both budgets keep the same set of sources active:
        # activating one more source also charges its page rate, which can
        # legitimately lengthen every other interval.
        rng = np.random.default_rng(44)
        compared = 0
        for _ in range(40):
            params, budget = random_instance(rng, max_n=20)
            s1 = solve_schedule(params, budget)
            s2 = solve_schedule(params, budget * 1.3)
            if {s for s, _ in s1.finite_items()} != {s for s, _ in s2.finite_items()}:
                continue
            compared += 1
            for sid, i1 in s1.finite_items():
                assert s2.intervals[sid] <= i1 * (1 + 1e-5)
            q1 = closed_form_quality(s1, params)
            q2 = closed_form_quality(s2, params)
            assert q2 >= q1 * (1 - 1e-9)
        assert compared >= 20

    def test_profit_scale_covariance(self):
        rng = np.random.default_rng(45)
        c = 7.5
        for _ in range(20):
            params, budget = random_instance(rng, max_n=15)
            scaled = {
                sid: SourceParams(sp.lambda_rate, sp.profit * c, sp.decay)
                for sid, sp in params.items()
            }
            s1 = solve_schedule(params, budget)
            s2 = solve_schedule(scaled, budget)
            assert s2.omega == pytest.approx(s1.omega * c, rel=1e-6)
            for sid in params:
                i1, i2 = s1.intervals[sid], s2.intervals[sid]
                if math.isinf(i1):
                    assert math.isinf(i2)
                else:
                    assert i2 == pytest.approx(i1, rel=1e-5)
            assert closed_form_quality(s2, scaled) == pytest.approx(
                closed_form_quality(s1, params) * c, rel=1e-6
            )

    def test_residual_depends_on_omega_alone(self):
        # Every inner inversion starts afresh: the residual at a multiplier
        # is the same whatever was evaluated before it.
        params = found1_params()
        ids = sorted(params)
        src = optimizer._Sources(
            ids,
            np.array([params[i].utility for i in ids]),
            np.array([params[i].decay for i in ids]),
            np.array([params[i].lambda_rate for i in ids]),
        )
        omegas = np.quantile(src.levels, [0.2, 0.5, 0.8]) * 0.999
        first = [src.residual(float(omega), FOUND1_BUDGET) for omega in omegas]
        again = [src.residual(float(omega), FOUND1_BUDGET) for omega in omegas[::-1]]
        for (r1, x1), (r2, x2) in zip(first, again[::-1]):
            assert r1 == r2
            assert x1.tolist() == x2.tolist()

    def test_residual_with_no_source_kept_is_minus_budget(self):
        # omega at the top utility keeps no source: the general path sums
        # nothing and returns exactly -budget
        src = optimizer._Sources(
            [0, 1], np.array([2.0, 0.5]), np.array([1e-3, 1e-4]), np.array([0.1, 0.2])
        )
        for budget in (FOUND1_BUDGET, 0.3, 7.0):
            residual, x = src.residual(2.0, budget)
            assert residual == -budget and x.size == 0

    @pytest.mark.parametrize("epsilon", [1e-12, 1e-14])
    def test_tight_epsilon_solves(self, epsilon):
        # The inner inversion leaves each source's x within a few ulps of
        # its root, so the residual is resolved far below these epsilons
        # and the Newton bracket never collapses on inversion noise.
        rng = np.random.default_rng(0)
        for _ in range(300):
            params, budget = random_instance(rng, max_n=20)
            sched = solve_schedule(params, budget, SolverConfig(epsilon=epsilon))
            check_schedule(params, budget, sched, eps=epsilon)

    def test_epsilon_below_residual_resolution_raises(self):
        # One source whose interval lies in g's flat tail: one ulp of omega
        # there moves the residual by more than 1e-16, so the Newton bracket
        # collapses to a few ulps of omega first.
        rng = np.random.default_rng(0)
        for _ in range(39):
            params, budget = random_instance(rng, max_n=20)
        assert (len(params), round(budget, 9)) == (1, 5.5245e-05)
        with pytest.raises(NoConvergenceError, match="bracket collapsed") as exc:
            solve_schedule(params, budget, SolverConfig(epsilon=1e-16))
        assert abs(exc.value.residual) > 1e-16

    def test_config_validation(self):
        for epsilon in [0.0, -1e-6, math.nan, math.inf]:
            with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
                SolverConfig(epsilon=epsilon)


def same_schedule(a, b):
    return (a.intervals, a.omega, a.residual, a.pinched) == (
        b.intervals, b.omega, b.residual, b.pinched
    )


class TestTableInput:
    """A SourceTable, its dict and its pairs in any order solve alike."""

    def check_forms(self, table, budget):
        sched = solve_schedule(table, budget)
        assert same_schedule(sched, solve_schedule(dict(table), budget))
        assert same_schedule(sched, solve_schedule(list(table.items())[::-1], budget))
        return sched

    def test_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            params, budget = random_instance(rng, max_n=20)
            self.check_forms(SourceTable.from_params(params.items()), budget)

    def test_found1(self):
        table, _ = fileio.read_params(FOUND1_PARAMS)
        sched = self.check_forms(table, FOUND1_BUDGET)
        assert sched.pinched

    def test_file_with_ids_out_of_order_and_tied_utilities(self, tmp_path):
        # Tied utilities break in id order whatever the row order: the
        # sources pinched at a starved budget are those of the id-sorted dict.
        params = preset_mix()
        rows = list(params.items())
        np.random.default_rng(1).shuffle(rows)
        path = tmp_path / "params.csv"
        fileio.write_params(path, [fileio.ParamsRow(sid, sp) for sid, sp in rows])
        table, _ = fileio.read_params(path)
        assert list(table) != sorted(table)
        budget = 0.5 * sum(sp.lambda_rate for sp in params.values())
        sched = self.check_forms(table, budget)
        assert sched.pinched
        assert same_schedule(sched, solve_schedule(params, budget))

    def test_repeated_ids_rejected(self):
        a = SourceParams(0.01, 5.0, 1e-3)
        b = SourceParams(0.02, 1.0, 1e-3)
        with pytest.raises(ValueError, match="duplicate source id 0"):
            solve_schedule([(0, a), (0, b), (1, a)], 0.05)


class TestClosedFormQuality:
    def test_all_infinite_is_zero(self):
        from echocrawl.optimizer import Schedule

        sched = Schedule({0: math.inf, 1: math.inf}, omega=1.0, budget=0.1, residual=0.0)
        params = {0: SourceParams(0.01, 1.0, 0.001), 1: SourceParams(0.01, 2.0, 0.001)}
        assert closed_form_quality(sched, params) == 0.0

    def test_short_interval_limit_is_p_mu(self):
        # x -> inf limit of p*x*(1 - exp(-mu/x)) is p*mu, which upper-bounds
        # the true all-clicks rate P*lambda (uniform-spacing optimism).
        from echocrawl.optimizer import Schedule

        sp = SourceParams(0.01, 1.0, 0.001)
        params = {0: sp}
        q_tiny = closed_form_quality(
            Schedule({0: 1e-6}, omega=0.0, budget=1.0, residual=0.0), params
        )
        assert q_tiny == pytest.approx(sp.utility * sp.decay, rel=1e-6)
        assert q_tiny >= sp.profit * sp.lambda_rate

    def test_hand_sum(self):
        from echocrawl.optimizer import Schedule

        params = {
            0: SourceParams(0.01, 1.0, 0.001),
            1: SourceParams(0.02, 5.0, 0.002),
        }
        sched = Schedule({0: 100.0, 1: math.inf}, omega=0.5, budget=0.1, residual=0.0)
        p = params[0].utility
        expected = p * 0.01 * (1 - math.exp(-0.1))
        assert closed_form_quality(sched, params) == pytest.approx(expected, rel=1e-12)
