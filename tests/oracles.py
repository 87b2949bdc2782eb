"""Independent oracles used by the test suite.

These deliberately avoid the solver's own machinery: the grid search
enumerates allocations on the budget simplex directly, g_decimal
evaluates g with 50-digit decimal arithmetic and g_root_decimal inverts it
in decimal arithmetic too, and the crossing oracle scans every utility
level with the scalar g_inverse instead of searching them with the
vectorized inversion.  The decision oracles rank every source in a Python
loop by the policies' tie-break keys, over plain dicts, where the policies
use arrays.  The curve-fit oracle scans a dense fixed set of
decays where the fit searches adaptively.
"""

import math
from decimal import Decimal, getcontext

import numpy as np

from echocrawl.core import SourceParams
from echocrawl.optimizer import g_inverse


def g_decimal(x: float) -> float:
    """g(x) = 1 - (1+x)e^-x at 50 significant digits, rounded to float."""
    getcontext().prec = 50
    xd = Decimal(repr(x))
    return float(1 - (1 + xd) * (-xd).exp())


def g_root_decimal(y: float, x: float) -> Decimal:
    """The root of g(x) = y by Newton on log((1 - g(x)) / (1 - y)) from
    x > 0, in decimal arithmetic with 40 digits more than g's cancellation
    near 0 costs, until a step moves x by less than 1e-30 of itself."""
    getcontext().prec = 40 + max(0, -Decimal(y).adjusted())
    xd, w = Decimal(x), -(1 - Decimal(y)).ln()
    for _ in range(200):
        step = ((1 + xd).ln() - xd + w) * (1 + xd) / xd
        xd += step
        if abs(step) < xd * Decimal("1e-30"):
            return xd
    raise ArithmeticError(f"no decimal root for y = {y!r}")


def _quality_terms(params, xs):
    """sum_i p_i x_i (1 - exp(-mu_i / x_i)) with the x -> 0 limit of 0."""
    total = np.zeros(xs[0].shape)
    for sp, x in zip(params, xs):
        with np.errstate(divide="ignore"):
            term = sp.utility * x * -np.expm1(-sp.decay / np.where(x > 0, x, np.inf))
        total += np.where(x > 0, term, 0.0)
    return total


def grid_search_quality(params: "list[SourceParams]", budget: float, points: int = 10_000) -> float:
    """Brute-force optimum of the closed-form objective on the simplex
    sum_i x_i = budget - sum_i lambda_i, x_i >= 0 (all sources' lambda spent).

    Supports n <= 3. Returns 0 when the fixed page-crawl cost already
    exceeds the budget (no feasible positive allocation).
    """
    n = len(params)
    remaining = budget - sum(sp.lambda_rate for sp in params)
    if remaining <= 0:
        return 0.0
    if n == 1:
        return float(_quality_terms(params, [np.asarray([remaining])])[0])
    if n == 2:
        x1 = np.linspace(0.0, remaining, points)
        x2 = remaining - x1
        return float(_quality_terms(params, [x1, x2]).max())
    if n == 3:
        m = max(2, int((2 * points) ** 0.5))
        ticks = np.linspace(0.0, remaining, m)
        x1, x2 = np.meshgrid(ticks, ticks, indexing="ij")
        feas = x1 + x2 <= remaining + 1e-15
        x1, x2 = x1[feas], x2[feas]
        x3 = np.maximum(remaining - x1 - x2, 0.0)
        return float(_quality_terms(params, [x1, x2, x3]).max())
    raise ValueError(f"grid oracle supports n <= 3, got {n}")


def crossing_oracle(params, budget, epsilon=1e-6, inner_tolerance=1e-9):
    """Brute-force the finite-interval and pinched sets of solve_schedule.

    Scans every distinct utility u of the sources still in play, lowest
    first, for the first whose residual just above u (u's sources dropped)
    is at most epsilon, each kept source's interval from the scalar
    g_inverse.  Just below u the level's sources are kept in g's flat tail,
    each costing its lambda plus at most mu / x_edge.  A budget between the
    two is a drop gap: the level's sources absorb it at flat-tail intervals
    if they can, else they are excluded largest lambda first (ties to the
    lowest id) and the scan starts over.

    Returns (finite ids, pinched ids), or None when the budget is infeasible.
    """
    live = {
        sid: sp
        for sid, sp in params.items()
        if sp.lambda_rate > 0 and sp.profit > 0 and sp.utility > 1e-300
    }
    x_edge = g_inverse(1.0 - inner_tolerance, 5e-16)
    pinched = set()

    def residual_above(u):
        total = -budget
        for sp in live.values():
            if sp.utility > u:
                y = u / sp.utility
                total += sp.decay / g_inverse(y, max(inner_tolerance * y, 5e-16))
                total += sp.lambda_rate
        return total

    while True:
        for u in sorted({sp.utility for sp in live.values()}):
            above = residual_above(u)
            if above <= epsilon:
                break
        kept = {sid for sid, sp in live.items() if sp.utility > u}
        level = sorted(
            sorted(sid for sid, sp in live.items() if sp.utility == u),
            key=lambda sid: -live[sid].lambda_rate,
        )
        if above >= -epsilon and kept:  # one source must stay
            return kept, pinched
        below = above + sum(live[s].lambda_rate + live[s].decay / x_edge for s in level)
        if below <= epsilon:  # the crossing is inside the segment below u
            return kept | set(level), pinched

        left = -above
        absorbed = []
        for s in level:
            lam = live[s].lambda_rate
            if lam < left:
                left -= lam + min(live[s].decay / x_edge, left - lam)
                absorbed.append(s)
        if absorbed and abs(left) <= epsilon:
            return kept | set(absorbed), pinched | (set(level) - set(absorbed))

        if len(live) <= 1:
            return None
        need = below
        for s in level[: len(live) - 1]:  # always keep one source
            del live[s]
            pinched.add(s)
            need -= params[s].lambda_rate
            if need <= 0.0:
                break


def elapsed_oracle(source, now, last_crawl):
    """Time since the source's last recrawl, inf if it was never crawled."""
    last = last_crawl.get(source)
    return math.inf if last is None else now - last


def greedy_key(source, now, last_crawl, value_rates):
    """echo-greedy's ranking key (score, elapsed, -source), highest wins; a
    zero value rate scores 0 whatever the elapsed time."""
    rate = value_rates.get(source, 0.0)
    elapsed = elapsed_oracle(source, now, last_crawl)
    score = 0.0 if rate == 0.0 else rate * elapsed
    return (score, elapsed, -source)


def greedy_oracle(sources, now, last_crawl, value_rates):
    """The source echo-greedy recrawls when its frontier is empty."""
    return max(sources, key=lambda s: greedy_key(s, now, last_crawl, value_rates))


def most_behind_oracle(intervals, now, last_crawl, due_only):
    """Source with the highest elapsed/interval ratio, ties to the lowest id,
    skipping infinite intervals; due_only keeps elapsed >= interval only.
    None when no source qualifies."""
    best, best_key = None, None
    for source, interval in intervals.items():
        if not math.isfinite(interval):
            continue
        elapsed = elapsed_oracle(source, now, last_crawl)
        if due_only and elapsed < interval:
            continue
        key = (elapsed / interval, -source)
        if best_key is None or key > best_key:
            best, best_key = source, key
    return best


def dense_fit_oracle(targets, bin_size, min_decay=None, points=10_000):
    """Least-squares (P, mu, F) of P(1 - e^(-mu a)) by brute force: 10^4
    log-spaced decays with mu D from max(1e-12, min_decay D) to 40, each
    with its closed-form best profit max(0, m.y / m.m)."""
    y = np.asarray(targets[1:], dtype=float)
    ages = bin_size * np.arange(1, len(targets), dtype=float)
    low = max(1e-12 / bin_size, min_decay or 0.0)
    best = (math.inf, 0.0, low)
    for decay in np.geomspace(low, max(40.0 / bin_size, low), points):
        model = -np.expm1(-decay * ages)
        profit = max(0.0, float(model @ y) / float(model @ model))
        err = profit * model - y
        value = float(err @ err)
        if value < best[0]:
            best = (value, profit, float(decay))
    return best[1], best[2], best[0]
