"""Output checks made apart from the program.

Each check recomputes what an output must be from the inputs, with its own
arithmetic and its own parsing of the files the program wrote, and returns
a list of problems (empty when the output is correct).  The program's own
helpers are not used to judge its results, with one exception: which
sources a solve excluded at a drop gap (``Schedule.pinched``) is not in the
schedule file, so it is taken from a library call on the same inputs.

selftest.py corrupts one output per check and shows the check failing.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from echocrawl import optimizer
from echocrawl.core import CrawlPage, RecrawlSource

# Solver tolerances the schedule checks hold the program to: budget
# residual in fetches/s (the CLI's default --epsilon) and stationarity
# relative to omega.
EPSILON = 1e-6
KKT_REL = 1e-6
# The fitted curve's squared error may exceed the benchmark's least-squares
# optimum by this share (gradient descent stops on a step-size criterion;
# on 300 fits of two seeds the excess was at most 1.4e-7).
FIT_SSE_SLACK = 1e-4
# lambda-hat may miss the generating rate by this many Poisson standard
# deviations (rate / sqrt(pages)).
LAMBDA_SIGMAS = 5.0
FIT_BIN_SIZE = 1200.0  # the CLI's default histogram bin width
# The exchange check tries neighbouring pairs among this many finite
# sources spread evenly over the source ids.
EXCHANGE_SOURCES = 200


def g(x: float) -> float:
    """1 - (1 + x) e^-x, by its series where the direct form cancels."""
    if x < 1e-3:
        return x * x * (0.5 - x / 3.0 + x * x / 8.0 - x**3 / 30.0)
    return -math.expm1(-x) - x * math.exp(-x)


def utility(lam: float, profit: float, decay: float) -> float:
    return profit / -math.expm1(-decay / lam)


# ---------------------------------------------------------------------------
# crawl traces


def slot_count(horizon: float, budget: float) -> int:
    """Slots k >= 0 with k * (1 / budget) < horizon."""
    width = 1.0 / budget
    k = max(int(horizon / width) - 2, 0)
    while k * width < horizon:
        k += 1
    return k


def check_crawl(scenario, budget: float, trace, report) -> "list[str]":
    """Replay one simulated crawl against the scenario's link events."""
    problems = []
    horizon = scenario.config.horizon
    width = 1.0 / budget
    listing: "dict[int, tuple[int, float, float]]" = {
        ev.page: (ev.source, ev.appear, ev.vanish) for ev in scenario.events
    }
    clicks_of: "dict[int, list[float]]" = {}
    for t, page in scenario.clicks:
        clicks_of.setdefault(page, []).append(t)

    slots = slot_count(horizon, budget)
    if len(trace) + report.idle_slots != slots:
        problems.append(
            f"{len(trace)} records + {report.idle_slots} idle != {slots} slots"
        )
    recrawls: "dict[int, list[float]]" = {}
    fetched: "set[int]" = set()
    profit_total = 0.0
    tail = 0.0
    warmup = report.warmup
    last_k = -1
    for rec in trace:
        k = round(rec.time / width)
        if abs(rec.time - k * width) > 1e-6 * width or k <= last_k:
            problems.append(f"record at t={rec.time} is off the slot grid or out of order")
            break
        last_k = k
        action = rec.action
        if isinstance(action, RecrawlSource):
            if rec.realized_profit != 0.0:
                problems.append(f"recrawl at t={rec.time} carries profit")
            recrawls.setdefault(action.source, []).append(rec.time)
            continue
        if not isinstance(action, CrawlPage):
            problems.append(f"unknown action {action!r}")
            continue
        page = action.page
        if page in fetched:
            problems.append(f"page {page} fetched twice")
        fetched.add(page)
        source, appear, vanish = listing[page]
        times = recrawls.get(source, [])
        i = bisect_left(times, appear)
        if i == len(times) or not times[i] < min(vanish, rec.time):
            problems.append(f"page {page} fetched at t={rec.time} was never listed before")
        clicks = clicks_of.get(page, [])
        due = len(clicks) - bisect_left(sorted(clicks), rec.time)
        if rec.realized_profit != due:
            problems.append(
                f"page {page} at t={rec.time}: profit {rec.realized_profit} != {due} clicks"
            )
        profit_total += rec.realized_profit
        if rec.time >= warmup:
            tail += rec.realized_profit
        if len(problems) > 20:
            break

    discovered = 0
    per_source: "dict[int, list[tuple[float, float]]]" = {}
    for ev in scenario.events:
        per_source.setdefault(ev.source, []).append((ev.appear, ev.vanish))
    for source, windows in per_source.items():
        windows.sort()
        appear = [w[0] for w in windows]
        vanish = [w[1] for w in windows]
        seen_upto = 0  # listings are rolling windows: indices only grow
        for t in recrawls.get(source, []):
            lo = max(bisect_right(vanish, t), seen_upto)
            hi = bisect_right(appear, t)
            if hi > lo:
                discovered += hi - lo
                seen_upto = hi
    n_recrawls = sum(len(v) for v in recrawls.values())
    expected = {
        "recrawls": n_recrawls,
        "page_fetches": len(fetched),
        "idle_slots": slots - len(trace),
        "discovered_pages": discovered,
        "missed_pages": len(scenario.pages) - discovered,
    }
    for name, value in expected.items():
        if getattr(report, name) != value:
            problems.append(f"report {name}={getattr(report, name)}, replay gives {value}")
    for name, value in (
        ("total_profit", profit_total),
        ("full_quality", profit_total / horizon),
        ("overall_quality", tail / (horizon - warmup)),
    ):
        if not math.isclose(getattr(report, name), value, rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"report {name}={getattr(report, name)!r}, replay gives {value!r}")
    if profit_total > len(scenario.clicks):
        problems.append(f"captured {profit_total} clicks > oracle {len(scenario.clicks)}")
    return problems


# ---------------------------------------------------------------------------
# schedules


def read_table(path: Path) -> "tuple[str, list[list[str]]]":
    """(tag line, data rows) of a versioned CSV file, parsed here."""
    with Path(path).open(encoding="utf-8", newline="") as fh:
        tag = fh.readline().rstrip("\n")
        rows = list(csv.reader(fh))
    return tag, [row for row in rows[1:] if row]


def parse_schedule(path: Path) -> "dict[int, float]":
    """source id -> interval; raises ValueError on a cell that is no float."""
    _, rows = read_table(path)
    return {int(row[0]): float(row[1]) for row in rows}


def schedule_meta(path: Path) -> "dict[str, str]":
    tag, _ = read_table(path)
    return dict(part.split("=", 1) for part in tag.split()[2:])


def closed_form_quality(params, intervals: "dict[int, float]") -> float:
    """Model profit rate sum p x (1 - e^(-mu/x)) over finite intervals."""
    terms = []
    for sid, interval in intervals.items():
        if math.isfinite(interval):
            sp = params[sid]
            x = 1.0 / interval
            terms.append(utility(sp.lambda_rate, sp.profit, sp.decay) * x * -math.expm1(-sp.decay / x))
    return math.fsum(terms)


@dataclass
class SolveResult:
    problems: "list[str]" = field(default_factory=list)
    quality: float = 0.0


def check_schedule_file(params, budget: float, path: Path, pinched=None) -> SolveResult:
    """Residual, stationarity, infinite-interval rule and a rate exchange."""
    result = SolveResult()
    problems = result.problems
    try:
        intervals = parse_schedule(path)
        omega = float(schedule_meta(path)["omega"])
    except (ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable schedule file: {exc}")
        return result
    if set(intervals) != set(params):
        problems.append("schedule does not cover exactly the input sources")
        return result
    finite = [(sid, iv) for sid, iv in intervals.items() if math.isfinite(iv)]
    spend = math.fsum([1.0 / iv for _, iv in finite] + [params[s].lambda_rate for s, _ in finite])
    if abs(spend - budget) > EPSILON:
        problems.append(f"budget residual {spend - budget:.3g} > {EPSILON}")
    worst = 0.0
    for sid, iv in finite:
        sp = params[sid]
        p = utility(sp.lambda_rate, sp.profit, sp.decay)
        worst = max(worst, abs(p * g(sp.decay * iv) - omega) / omega)
    if worst > KKT_REL:
        problems.append(f"stationarity error {worst:.3g} x omega > {KKT_REL}")
    dropped = []
    for sid, iv in intervals.items():
        sp = params[sid]
        if sp.lambda_rate <= 0 or sp.profit <= 0:
            if math.isfinite(iv):
                problems.append(f"source {sid} produces nothing but is scheduled")
        elif math.isinf(iv) and omega < utility(sp.lambda_rate, sp.profit, sp.decay) * (1 - 1e-9):
            dropped.append(sid)
    if dropped and pinched is None:
        pinched = optimizer.solve_schedule(params, budget).pinched
    for sid in dropped:
        if sid not in pinched:
            problems.append(f"source {sid} dropped although its utility exceeds omega")
    problems += exchange_problems(params, finite, omega)
    result.quality = closed_form_quality(params, intervals)
    return result


def exchange_problems(params, finite, omega: float) -> "list[str]":
    """Moving a little recrawl rate between two finite sources, either way,
    must not raise the closed-form quality."""
    if len(finite) < 2:
        return []

    def term(sid: int, x: float) -> float:
        sp = params[sid]
        return utility(sp.lambda_rate, sp.profit, sp.decay) * x * -math.expm1(-sp.decay / x)

    ordered = sorted(finite)
    step = max(len(ordered) // EXCHANGE_SOURCES, 1)
    sample = ordered[::step]
    problems = []
    for (a, ia), (b, ib) in zip(sample, sample[1:]):
        xa, xb = 1.0 / ia, 1.0 / ib
        delta = 1e-3 * min(xa, xb)
        base = term(a, xa) + term(b, xb)
        for sign in (1.0, -1.0):
            moved = term(a, xa - sign * delta) + term(b, xb + sign * delta)
            # first-order gain allowed by the stationarity tolerance
            if moved - base > 2 * KKT_REL * omega * delta + 1e-15 * abs(base):
                problems.append(f"moving rate between sources {a} and {b} raises quality")
                return problems
    return problems


def check_budget_monotone(solved: "list[tuple[float, SolveResult]]") -> "list[str]":
    ordered = sorted(solved, key=lambda item: item[0])
    problems = []
    for (b0, r0), (b1, r1) in zip(ordered, ordered[1:]):
        if r1.quality < r0.quality * (1 - 1e-12):
            problems.append(f"quality falls from {r0.quality} at {b0} to {r1.quality} at {b1}")
    return problems


# ---------------------------------------------------------------------------
# fits


def source_histograms(scenario, bin_size: float = FIT_BIN_SIZE) -> "dict[int, tuple[int, list[float]]]":
    """source -> (page count, per-page cumulative clicks at bins 0..max)."""
    pages: "dict[int, int]" = {}
    bins: "dict[int, dict[int, int]]" = {}
    for page in scenario.pages.values():
        pages[page.source] = pages.get(page.source, 0) + 1
        counts = bins.setdefault(page.source, {})
        for t in page.click_times:
            i = math.ceil((t - page.created) / bin_size)
            counts[i] = counts.get(i, 0) + 1
    out = {}
    for source, n in pages.items():
        counts = bins[source]
        top = max(counts, default=0)
        cumulative = np.cumsum([counts.get(i, 0) for i in range(top + 1)]) / n
        out[source] = (n, cumulative.tolist())
    return out


def curve_sse(targets: "list[float]", profit: float, decay: float, bin_size: float) -> float:
    ages = bin_size * np.arange(1, len(targets))
    err = profit * -np.expm1(-decay * ages) - np.asarray(targets[1:])
    return float(err @ err)


def least_squares_sse(targets: "list[float]", bin_size: float) -> float:
    """Best squared error of P(1 - e^(-mu a)) by scipy, from two starts."""
    from scipy.optimize import least_squares

    y = np.asarray(targets[1:])
    i = np.arange(1, len(targets), dtype=float)
    scale = max(float(y.max()), 1e-300)

    def residual(theta):
        return theta[0] * -np.expm1(-theta[1] * i) - y / scale

    best = math.inf
    for m0 in (2.0 / len(y), 0.2):
        fit = least_squares(
            residual, [1.0, m0], bounds=([0.0, 1e-12], [np.inf, np.inf]),
            xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=5000,
        )
        best = min(best, curve_sse(targets, fit.x[0] * scale, fit.x[1] / bin_size, bin_size))
    return best


def check_fit(scenario, params_path: Path) -> "list[str]":
    problems = []
    try:
        _, rows = read_table(params_path)
        fitted = {
            int(r[0]): (float(r[1]), float(r[2]), float(r[3]), int(r[4]), int(r[5]), r[6])
            for r in rows
        }
    except (ValueError, IndexError) as exc:
        return [f"unreadable params file: {exc}"]
    hists = source_histograms(scenario)
    if set(fitted) != set(hists):
        return ["params file does not list exactly the click log's sources"]
    for sid, (lam, profit, decay, pages, clicks, flag) in sorted(fitted.items()):
        n, cumulative = hists[sid]
        true_lam = scenario.config.source_specs[sid].lambda_rate
        if abs(lam - true_lam) > LAMBDA_SIGMAS * true_lam / math.sqrt(n):
            problems.append(f"source {sid}: lambda-hat {lam:.4g} vs generating {true_lam:.4g}")
        if pages != n or clicks != round(cumulative[-1] * n):
            problems.append(f"source {sid}: pages/clicks {pages}/{clicks} do not match the log")
        if flag != "yes" or len(cumulative) < 2:
            continue
        sse = curve_sse(cumulative, profit, decay, FIT_BIN_SIZE)
        best = least_squares_sse(cumulative, FIT_BIN_SIZE)
        if sse > best * (1 + FIT_SSE_SLACK) + 1e-12:
            problems.append(f"source {sid}: fit SSE {sse:.4g} vs least squares {best:.4g}")
    return problems


# ---------------------------------------------------------------------------
# discovery


def check_discover(snapshots, path: Path, min_age: float = 3 * 86400.0) -> "list[str]":
    """Main pages and linked pages at least min_age old, each exactly once,
    in first-seen snapshot order."""
    expected: "list[int]" = []
    seen: "set[int]" = set()
    for snap in snapshots:
        for page in [snap.main_page] + [p for p, age in snap.linked_pages if age >= min_age]:
            if page not in seen:
                seen.add(page)
                expected.append(page)
    try:
        _, rows = read_table(path)
        got = [int(row[0]) for row in rows]
    except (ValueError, IndexError) as exc:
        return [f"unreadable sources file: {exc}"]
    if len(got) != len(set(got)):
        return ["a source is listed more than once"]
    if got != expected:
        missing = len(seen - set(got))
        extra = len(set(got) - seen)
        return [f"source list differs: {missing} missing, {extra} extra or out of order"]
    return []


def check_cover(corpus, target: float, path: Path) -> "list[str]":
    """Fractions increase, each pick has the largest marginal gain among the
    remaining sources (ties to the lower id), and the stop rule holds."""
    try:
        _, rows = read_table(path)
        picks = [(int(r[1]), int(r[2]), float(r[3])) for r in rows]
    except (ValueError, IndexError) as exc:
        return [f"unreadable cover file: {exc}"]
    sets: "dict[int, set[int]]" = {}
    for s, t, _ in corpus.links:
        sets.setdefault(s, set()).add(t)
    holders: "dict[int, list[int]]" = {}
    for s, pages in sets.items():
        for t in pages:
            holders.setdefault(t, []).append(s)
    total = len(holders)
    gain = {s: len(pages) for s, pages in sets.items()}
    covered: "set[int]" = set()
    last = 0.0
    for rank, (source, count, fraction) in enumerate(picks, start=1):
        if source not in gain:
            return [f"pick {rank}: source {source} is not a remaining source"]
        best = max(gain.values())
        if gain[source] != best or any(s < source for s, v in gain.items() if v == best):
            return [f"pick {rank}: source {source} gains {gain[source]}, best is {best}"]
        for t in sets[source] - covered:
            covered.add(t)
            for s in holders[t]:
                if s in gain:
                    gain[s] -= 1
        del gain[source]
        if not fraction > last:
            return [f"pick {rank}: fraction {fraction} does not increase"]
        if fraction != len(covered) / total or count != len(covered):
            return [f"pick {rank}: fraction {fraction} but {len(covered)}/{total} covered"]
        if fraction < target and rank == len(picks) and gain and max(gain.values()) > 0:
            return [f"stopped at {fraction} below target {target} with gains left"]
        if fraction >= target and rank < len(picks):
            return [f"went on past the target at pick {rank}"]
        last = fraction
    if not picks:
        return ["no picks"]
    return []
