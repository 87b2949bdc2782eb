"""Acceptance gate: the eight headline guarantees, each printing one
``[PASS]``/``[FAIL]`` line to the terminal (bypassing capture) so a full
``pytest`` run shows the verdict per criterion at a glance.

The heavyweight policy-ordering run (criterion 5) executes the bundled
preset grid in-process over 20 seeds and takes a few minutes; everything
else is seconds.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from echocrawl import cli, fileio
from echocrawl.core import SourceParams
from echocrawl.estimators import ClickHistogram, fit_objective, fit_profit_curve
from echocrawl.discovery import LinkCorpus, greedy_source_cover
from echocrawl.optimizer import SolverConfig, closed_form_quality, solve_schedule
from echocrawl.simulator import (
    ScenarioConfig,
    SourceSpec,
    generate_scenario,
    oracle_upper_bound,
    run,
    simulate_schedule_follower,
)

from instances import check_schedule, random_instance
from oracles import grid_search_quality

DAY = 86400.0

_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdict_stream(capfd):
    """Lets announce() bypass pytest's fd-level capture for its one line."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def announce(number: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def test_criterion_1_solver_constraint_and_stationarity():
    rng = np.random.default_rng(10)
    start = time.perf_counter()
    worst_residual = 0.0
    for _ in range(1000):
        params, budget = random_instance(rng, max_n=50)
        schedule = solve_schedule(params, budget)
        residual = check_schedule(params, budget, schedule, eps=1e-6, kkt_rel=1e-6)
        worst_residual = max(worst_residual, abs(residual))
    elapsed = time.perf_counter() - start
    announce(
        1,
        elapsed < 5.0,
        f"1000 instances (n<=50) meet residual<=1e-6 and KKT<=1e-6*omega; "
        f"worst residual {worst_residual:.2e}, {elapsed:.2f}s (<5s)",
    )


def test_criterion_2_solver_beats_grid_oracle():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst_gap = 0.0
    for _ in range(100):
        params, budget = random_instance(rng, max_n=3)
        # Budget-relative residual tolerance: these instances have budgets
        # down to 1e-5 fetches/s, where the default absolute epsilon would
        # strand a visible share of the spend.
        eps = max(1e-6 * budget, 1e-10)
        schedule = solve_schedule(params, budget, SolverConfig(epsilon=eps))
        solved = closed_form_quality(schedule, params)
        grid = grid_search_quality(list(params.values()), budget, points=10_000)
        if grid > 0:
            worst_gap = max(worst_gap, (grid - solved) / grid)
    elapsed = time.perf_counter() - start
    announce(
        2,
        worst_gap <= 1e-3 and elapsed < 60.0,
        f"100 instances (n<=3): solved quality >= 1e4-point grid optimum - 0.1%; "
        f"worst gap {worst_gap:.2e}, {elapsed:.1f}s (<60s)",
    )


def _model_histogram(profit, decay, rng=None):
    """Cumulative click histogram from the model curve, optionally with 5%
    multiplicative noise on each bin's click count (cumulative curves are
    sums of per-bin counts, so that is where sampling noise enters)."""
    bins = 24
    bin_size = 0.25 / decay  # knee sits mid-histogram for any decay scale
    cumulative = np.array(
        [profit * -math.expm1(-decay * i * bin_size) for i in range(bins + 1)]
    )
    if rng is not None:
        counts = np.diff(cumulative) * (1.0 + rng.normal(0.0, 0.05, bins))
        cumulative = np.concatenate([[0.0], np.cumsum(np.maximum(counts, 0.0))])
    return ClickHistogram(bin_size, [float(v) for v in cumulative], 1)


def test_criterion_3_fit_recovery_and_gradient():
    rng = np.random.default_rng(12)
    cases = [
        (float(10.0 ** rng.uniform(-1.0, math.log10(50.0))),
         float(10.0 ** rng.uniform(-5.0, -2.0)))
        for _ in range(100)
    ]

    worst = 0.0
    for profit, decay in cases:
        curve = fit_profit_curve(_model_histogram(profit, decay))
        worst = max(
            worst,
            abs(curve.profit - profit) / profit,
            abs(curve.decay - decay) / decay,
        )
    noiseless_ok = worst <= 0.01

    hits = 0
    for profit, decay in cases:
        curve = fit_profit_curve(_model_histogram(profit, decay, rng=rng))
        if (
            abs(curve.profit - profit) / profit <= 0.10
            and abs(curve.decay - decay) / decay <= 0.15
        ):
            hits += 1
    noisy_ok = hits >= 90

    grad_worst = 0.0
    for profit, decay in cases[:25]:
        hist = _model_histogram(profit, decay, rng=rng)
        for p, m in ((profit * 1.7, decay * 0.6), (profit * 0.4, decay * 2.2)):
            _, d_p, d_m = fit_objective(hist, p, m)
            h_p = 6e-6 * abs(p)
            h_m = 6e-6 * abs(m)
            fd_p = (
                fit_objective(hist, p + h_p, m)[0] - fit_objective(hist, p - h_p, m)[0]
            ) / (2 * h_p)
            fd_m = (
                fit_objective(hist, p, m + h_m)[0] - fit_objective(hist, p, m - h_m)[0]
            ) / (2 * h_m)
            scale_p = max(abs(d_p), abs(fd_p), 1e-12)
            scale_m = max(abs(d_m), abs(fd_m), 1e-12)
            grad_worst = max(
                grad_worst, abs(d_p - fd_p) / scale_p, abs(d_m - fd_m) / scale_m
            )
    grad_ok = grad_worst <= 1e-5

    announce(
        3,
        noiseless_ok and noisy_ok and grad_ok,
        f"fit recovery: noiseless worst error {worst:.2%} (<=1%), "
        f"5% noise hits {hits}/100 (>=90) within P 10%/mu 15%, "
        f"gradient vs central FD worst {grad_worst:.1e} (<=1e-5)",
    )


def test_criterion_4_closed_form_matches_simulation():
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
        SourceSpec(p.lambda_rate, p.profit, p.decay) for _, p in sorted(params.items())
    )
    qualities = []
    for seed in range(50):
        config = ScenarioConfig(
            specs, horizon=14 * DAY, link_window=1_000_000, seed=seed
        )
        scenario = generate_scenario(config)
        qualities.append(simulate_schedule_follower(scenario, schedule.intervals))
    mean = sum(qualities) / len(qualities)
    gap = abs(mean - expected) / expected
    announce(
        4,
        gap <= 0.05,
        f"schedule follower over 50 seeds: mean {mean:.6g} vs closed form "
        f"{expected:.6g}, gap {gap:.2%} (<=5%)",
    )


def test_criterion_5_policy_ordering_on_bundled_preset():
    from scipy import stats

    config = fileio.parse_experiment_config(cli._load_config("preset:main"))
    budgets = config.budgets
    seeds = config.seeds
    assert len(seeds) >= 20 and len(budgets) == 3
    echo = ("echo-schedule", "echo-newpages", "echo-greedy")

    start = time.perf_counter()
    quality = {}  # (policy, budget, seed) -> overall_quality
    ratios = {b: [] for b in budgets}
    oracles = {}
    bounded = True
    for seed in seeds:
        scenario = generate_scenario(replace(config.scenario, seed=seed))
        oracle = oracle_upper_bound(scenario)
        oracles[seed] = oracle
        for policy in config.policies:
            _, report = run(scenario, config.make_run_config(policy, budgets[0]))
            quality[(policy, budgets[0], seed)] = report.overall_quality
            bounded &= report.overall_quality <= oracle
        for budget in budgets[1:]:
            _, report = run(scenario, config.make_run_config("echo-newpages", budget))
            quality[("echo-newpages", budget, seed)] = report.overall_quality
            bounded &= report.overall_quality <= oracle
        for budget in budgets:
            ratios[budget].append(quality[("echo-newpages", budget, seed)] / oracle)
    elapsed = time.perf_counter() - start

    def mean(policy, budget=budgets[0]):
        return sum(quality[(policy, budget, s)] for s in seeds) / len(seeds)

    chain_echo = mean("echo-newpages") >= mean("echo-schedule")
    chain_rest = (
        mean("echo-greedy") >= mean("fixed-quota") >= mean("bfs") >= mean("frequency")
    )
    best = max(echo, key=mean)
    t_stat, p_value = stats.ttest_rel(
        [quality[(best, budgets[0], s)] for s in seeds],
        [quality[("bfs", budgets[0], s)] for s in seeds],
        alternative="greater",
    )
    ratio_means = [sum(ratios[b]) / len(seeds) for b in budgets]
    gap_shrinks = ratio_means[0] < ratio_means[1] < ratio_means[2]

    announce(
        5,
        chain_echo and chain_rest and p_value < 0.05 and bounded and gap_shrinks,
        f"preset over {len(seeds)} seeds: newpages>=schedule {chain_echo}, "
        f"greedy>=quota>=bfs>=frequency {chain_rest}, {best} vs bfs p={p_value:.1e} "
        f"(<0.05), all<=oracle {bounded}, newpages/oracle "
        f"{'<'.join(f'{r:.3f}' for r in ratio_means)} rising, {elapsed:.0f}s",
    )


def test_criterion_6_low_utility_starvation():
    config = fileio.parse_experiment_config(cli._load_config("preset:starved"))
    specs = config.scenario.source_specs
    near_zero = sum(1 for s in specs if s.profit_mean <= 0.01) / len(specs)
    params = {
        sid: SourceParams(s.lambda_rate, s.profit_mean, s.decay)
        for sid, s in enumerate(specs)
    }
    schedule = solve_schedule(params, config.budgets[0])
    announce(
        6,
        near_zero >= 0.7 and schedule.infinite_fraction >= 0.6,
        f"starved preset: {near_zero:.0%} near-zero-P sources, solved schedule "
        f"leaves {schedule.infinite_fraction:.0%} at infinite intervals (>=60%)",
    )


def _random_corpus(rng, max_sources, max_pages):
    n_sources = int(rng.integers(2, max_sources + 1))
    n_pages = int(rng.integers(n_sources, max_pages + 1))
    links = []
    for page in range(n_pages):
        owners = rng.choice(
            n_sources, size=int(rng.integers(1, min(3, n_sources) + 1)), replace=False
        )
        links.extend((1000 + int(s), page, float(len(links))) for s in owners)
    return LinkCorpus(links), n_sources


def _exhaustive_min_cover(corpus):
    by_source = corpus.pages_by_source()
    everything = corpus.distinct_pages()
    sources = sorted(by_source)
    for size in range(1, len(sources) + 1):
        for combo in itertools.combinations(sources, size):
            covered = set()
            for sid in combo:
                covered |= by_source[sid]
            if covered == everything:
                return size
    raise AssertionError("corpus not coverable by its own sources")


def test_criterion_7_greedy_cover_oracle():
    rng = np.random.default_rng(14)
    start = time.perf_counter()
    checked_exhaustive = 0
    for _ in range(50):
        corpus, n_sources = _random_corpus(rng, max_sources=12, max_pages=30)
        picks = greedy_source_cover(corpus, 1.0)

        by_source = corpus.pages_by_source()
        covered = set()
        for sid, _ in picks:
            gain = len(by_source[sid] - covered)
            best_gain = max(len(pages - covered) for pages in by_source.values())
            assert gain == best_gain, "greedy step not marginal-gain maximal"
            covered |= by_source[sid]

        if n_sources <= 10:
            checked_exhaustive += 1
            optimum = _exhaustive_min_cover(corpus)
            harmonic = sum(
                1.0 / k
                for k in range(1, max(len(p) for p in by_source.values()) + 1)
            )
            assert optimum <= len(picks) <= harmonic * optimum + 1e-9
    elapsed = time.perf_counter() - start
    announce(
        7,
        elapsed < 30.0,
        f"greedy cover: per-step maximality on 50 corpora, exhaustive bound on "
        f"{checked_exhaustive} (<=10 sources), {elapsed:.1f}s",
    )


def test_criterion_8_cli_byte_identical_reruns(tmp_path):
    config = tmp_path / "exp.yaml"
    config.write_text(
        """
version: 1
scenario:
  horizon: 43200.0
  link_window: 10
  budget: 0.02
  sources:
    - {lambda_rate: 0.002, profit_mean: 2.0, decay: 0.0005}
    - {lambda_rate: 0.001, profit_mean: 1.0, decay: 0.0002}
policies: [echo-newpages, bfs]
budgets: [0.02]
seeds: [3]
"""
    )
    digests = []
    for attempt in ("first", "second"):
        out = tmp_path / attempt
        assert cli.main(["generate", "--config", str(config), "--seed", "3",
                         "--out", str(out), "--quiet"]) == 0
        assert cli.main(["run", "--config", str(config), "--out", str(out),
                         "--quiet"]) == 0
        assert cli.main(["report", *sorted(str(p) for p in out.glob("*.report.csv")),
                         "--out", str(out), "--quiet"]) == 0
        digests.append(
            {
                p.name: p.read_bytes()
                for p in sorted(out.iterdir())
                if p.suffix == ".csv"
            }
        )
    identical = digests[0] == digests[1]
    announce(
        8,
        identical and len(digests[0]) == 10,
        f"two executions of generate+run+report produced byte-identical "
        f"files ({len(digests[0])} files compared)",
    )
