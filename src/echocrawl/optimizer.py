"""Budget-constrained recrawl interval optimizer.

Given per-source parameters (lambda, P, mu) and a crawl budget of N fetches
per second, solve for recrawl intervals I_i maximizing the expected profit
rate

    Q = sum_i p_i * x_i * (1 - exp(-mu_i / x_i)),   x_i = 1 / I_i,

subject to the resource constraint

    sum_finite 1 / I_i  =  N - sum_finite lambda_i,

where p_i = P_i / (1 - exp(-mu_i / lambda_i)) is the source utility and both
sums run over sources that receive a finite interval.  Stationarity couples
every finite interval to one multiplier omega through

    p_i * g(mu_i * I_i) = omega,      g(x) = 1 - (1 + x) * exp(-x),

so each trial omega yields intervals I_i = g_inverse(omega / p_i) / mu_i
(infinite once omega >= p_i), and the solver looks for the omega at which
the budget constraint holds to within epsilon.

As omega rises the budget residual (spend minus N) falls: smoothly between
utilities, and by lambda_i at omega = p_i, because a source stops
consuming its lambda_i page-crawl bandwidth the instant it is dropped.  So
the solver works on the sorted distinct utilities (levels) directly.  It
binary-searches them for the lowest level whose residual is at most
epsilon; a level whose residual is within epsilon is a solution.  Below
that level lies one smooth segment.  If the residual there, with the
level's sources kept at the edge of g's flat tail, still exceeds epsilon,
the budget falls inside the level's jump (a drop gap) and no omega meets
the constraint.  The level's sources then either absorb the leftover
budget at flat-tail intervals, where any interval meets stationarity to
within tolerance, or are excluded, largest lambda first, and the search
resumes below the level.  Excluded sources are reported in
Schedule.pinched.  Otherwise a safeguarded Newton iteration finds omega
inside the segment.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import SourceId, SourceParams

logger = logging.getLogger(__name__)

# Utilities below this are treated as zero and never scheduled.
_UTILITY_FLOOR = 1e-300

# Absolute floor for the inner g-inversion tolerance; below a few ulps of g
# the inversion would chase floating point noise.
_G_TOL_FLOOR = 5e-16

# Relative tolerance of the inner g-inversion: the stationarity error
# |p*g(mu*I) - omega| stays below _INNER_TOLERANCE * omega.
_INNER_TOLERANCE = 1e-9

# Cap on the Newton steps inside one smooth segment of the budget residual.
_MAX_ITERATIONS = 200


class ScheduleInfeasibleError(ValueError):
    """Budget cannot be met even with all but one source dropped."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.6g} fetches/s)")
        self.residual = residual


class NoConvergenceError(RuntimeError):
    """The Newton search in a segment hit the iteration cap, or its bracket
    collapsed, before meeting epsilon."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.6g} fetches/s)")
        self.residual = residual


@dataclass(frozen=True, slots=True)
class SolverConfig:
    """Tolerance for the interval solver: epsilon is the budget residual
    target in fetches/second."""

    epsilon: float = 1e-6

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")


@dataclass(frozen=True)
class Schedule:
    """Solved recrawl intervals, one per input source (math.inf = never)."""

    intervals: "dict[SourceId, float]"
    omega: float
    budget: float
    residual: float
    pinched: frozenset = field(default_factory=frozenset)

    def finite_items(self) -> "list[tuple[SourceId, float]]":
        return [(sid, iv) for sid, iv in self.intervals.items() if math.isfinite(iv)]

    @property
    def infinite_fraction(self) -> float:
        if not self.intervals:
            return 0.0
        n_inf = sum(1 for iv in self.intervals.values() if math.isinf(iv))
        return n_inf / len(self.intervals)


def g(x: float) -> float:
    """1 - (1 + x) * exp(-x): fraction of a page's clicks captured.

    Strictly increasing from g(0) = 0 to 1.  Evaluated as
    (expm1(x) - x) * exp(-x) for small x to dodge the catastrophic
    cancellation of the direct form (for x = 1e-5 the direct form loses
    eleven digits).
    """
    if x < 0:
        raise ValueError(f"g is defined for x >= 0, got {x}")
    if x > 50.0:
        # (1 + x) * exp(-x) < 1e-20 here; the direct form is exact enough
        # and avoids overflowing expm1.
        return 1.0 - (1.0 + x) * math.exp(-x)
    return (math.expm1(x) - x) * math.exp(-x)


def g_inverse(y: float, tolerance: float = 1e-12) -> float:
    """Solve g(x) = y by doubling out a bracket, then bisecting.

    Returns x with |g(x) - y| <= tolerance (best representable x if the
    tolerance is below double precision).  y must lie in [0, 1).
    """
    if not 0.0 <= y < 1.0:
        raise ValueError(f"g_inverse needs 0 <= y < 1, got {y}")
    if tolerance <= 0:
        raise ValueError("tolerance must be > 0")
    if y == 0.0:
        return 0.0

    hi = 1.0
    while g(hi) < y:  # stops by hi = 64: g(64.0) == 1.0 in doubles
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = g(mid)
        if abs(val - y) <= tolerance:
            return mid
        if val < y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 2.0 * math.ulp(hi):
            break
    return 0.5 * (lo + hi)


def _g_inverse_bulk(y: np.ndarray, tol: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Vectorized g inversion: Newton from a warm start or an asymptotic guess.

    Warm starts x0 > 0 from a previous solution skip most of the
    iterations.  Where x0 is 0 (no previous solution; Newton cannot leave
    x = 0) the start is the asymptotic root: near sqrt(2y) for y < 1/2
    (from g(x) ~ x^2/2), near w + log(1+w) with w = -log(1-y) for y -> 1
    (from 1 - g = (1+x)exp(-x)).

    Newton runs on h(x) = log((1 - g(x)) / (1 - y)) = log1p(x) - x + w
    rather than on g(x) - y: both vanish at the root, but h stays nearly
    linear in g's flat tail, where g's slope x exp(-x) is tiny and Newton
    on g creeps by about one unit of x per step.  The stopping test is
    still |g(x) - y| <= tol, as (1 - y) |expm1(h)|, which needs no
    cancelling 1 - (1 + x) exp(-x).  Stragglers fall back to the scalar
    bisection.  Never returns x0 itself.
    """
    w = -np.log1p(-y)
    if (x0 > 0.0).all():
        x = x0.copy()
    else:
        x = np.where(x0 > 0.0, x0, np.where(y < 0.5, np.sqrt(2.0 * y), w + np.log1p(w)))
    one_minus_y = 1.0 - y

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(40):
            h = np.log1p(x) - x + w
            if (np.abs(np.expm1(h)) * one_minus_y <= tol).all():
                return x
            # h'(x) = -x / (1 + x).  Trust region: at most an 8x move per
            # step, so a stale warm start cannot overshoot to 0 or to
            # astronomically large x.
            x = (x + h * (1.0 + x) / x).clip(0.125 * x, 8.0 * x)
        h = np.log1p(x) - x + w
        # NaN errors count as unconverged.
        bad = ~(np.abs(np.expm1(h)) * one_minus_y <= tol)
    for idx in np.nonzero(bad)[0]:
        x[idx] = g_inverse(float(y[idx]), float(tol[idx]))
    return x


# The x past which g(x) is within _INNER_TOLERANCE of 1.
_FLAT_EDGE = g_inverse(1.0 - _INNER_TOLERANCE, _G_TOL_FLOOR)


class _Sources:
    """The schedulable sources, sorted by descending utility (ties in id
    order), so that the sources kept at a multiplier omega, those whose
    utility exceeds it, are a prefix of every array."""

    def __init__(self, ids: "list[SourceId]", p: np.ndarray, mu: np.ndarray, lam: np.ndarray):
        self.all_ids = ids
        self.order = np.argsort(-p, kind="stable")  # positions in all_ids
        order = self.order
        self.p = p[order]
        self.mu = mu[order]
        self.lam = lam[order]
        self.x = np.zeros(len(ids))  # warm starts for the inner inversion
        self._index()

    def _index(self) -> None:
        self.neg_p = -self.p
        self.lam_prefix = np.concatenate(([0.0], np.cumsum(self.lam)))
        self.levels = np.unique(self.p)  # distinct utilities, ascending

    def __len__(self) -> int:
        return len(self.order)

    def kept(self, omega: float) -> int:
        """How many sources have utility above omega."""
        return int(np.searchsorted(self.neg_p, -omega, side="left"))

    def level(self, omega: float) -> "range":
        """Positions of the sources whose utility equals omega."""
        return range(self.kept(omega), int(np.searchsorted(self.neg_p, -omega, side="right")))

    def residual(self, omega: float, budget: float):
        """Budget residual at omega and the kept sources' g-arguments x."""
        k = self.kept(omega)
        if k == 0:
            return -budget, self.x[:0]
        y = omega / self.p[:k]
        tol = np.maximum(_INNER_TOLERANCE * y, _G_TOL_FLOOR)
        x = _g_inverse_bulk(y, tol, self.x[:k])
        self.x[:k] = x
        with np.errstate(divide="ignore"):
            rate = self.mu[:k] / x
        return float(rate.sum() + self.lam_prefix[k] - budget), x

    def steepness(self, x: np.ndarray) -> np.ndarray:
        """-d(mu/x)/d(omega) = mu e^x / (p x^3) per kept source, from
        p g'(x) dx = d(omega)."""
        k = len(x)
        with np.errstate(divide="ignore", over="ignore"):
            return self.mu[:k] * np.exp(np.minimum(x, 700.0)) / (self.p[:k] * x**3)

    def drop(self, positions: "list[int]") -> None:
        self.order = np.delete(self.order, positions)
        self.p = np.delete(self.p, positions)
        self.mu = np.delete(self.mu, positions)
        self.lam = np.delete(self.lam, positions)
        self.x = np.delete(self.x, positions)
        self._index()

    def sid(self, position: int) -> SourceId:
        return self.all_ids[self.order[position]]

    def intervals(self, x: np.ndarray, extra: "Mapping[int, float]") -> "list[float]":
        """Intervals in all_ids order: the kept prefix at x / mu, the extra
        positions at the interval given, every other source at infinity."""
        k = len(x)
        values = np.full(len(self.all_ids), math.inf)
        values[self.order[:k]] = x / self.mu[:k]
        for i, interval in extra.items():
            values[self.order[i]] = interval
        return values.tolist()


def solve_schedule(
    sources: "Mapping[SourceId, SourceParams] | Sequence[tuple[SourceId, SourceParams]]",
    budget: float,
    config: SolverConfig | None = None,
) -> Schedule:
    """Find optimal recrawl intervals for the given budget.

    Sources with lambda = 0 or negligible utility are assigned infinite
    intervals up front.  Raises ScheduleInfeasibleError when the budget
    cannot be met even with a single source kept, NoConvergenceError when
    the Newton search inside a segment exhausts _MAX_ITERATIONS without
    meeting epsilon.
    """
    eps = (config or SolverConfig()).epsilon
    items = list(sources.items()) if isinstance(sources, Mapping) else list(sources)
    if not items:
        raise ValueError("solve_schedule needs at least one source")
    if budget <= 0:
        raise ValueError(f"budget must be > 0, got {budget}")

    items.sort(key=lambda kv: kv[0])
    intervals: dict[SourceId, float] = {}
    ids: list[SourceId] = []
    utility: list[float] = []
    mu: list[float] = []
    lam: list[float] = []
    for sid, sp in items:
        p = sp.utility
        if sp.lambda_rate <= 0.0 or sp.profit <= 0.0 or p <= _UTILITY_FLOOR:
            intervals[sid] = math.inf
            continue
        ids.append(sid)
        utility.append(p)
        mu.append(sp.decay)
        lam.append(sp.lambda_rate)

    if not ids:
        raise ScheduleInfeasibleError("no schedulable sources (all pre-filtered)", budget)

    src = _Sources(ids, np.asarray(utility), np.asarray(mu), np.asarray(lam))
    # Only src's sorted copies are read from here on: free the per-source
    # lists (about 5 MB at 10^5 sources) before the search allocates.
    del utility, mu, lam
    pinched: set[SourceId] = set()

    def solution(omega, res, x, extra: "Mapping[int, float] | None" = None) -> Schedule:
        intervals.update(zip(ids, src.intervals(x, extra or {})))
        return Schedule(
            intervals=intervals,
            omega=float(omega),
            budget=budget,
            residual=float(res),
            pinched=frozenset(pinched),
        )

    # u is the lowest multiplier known to leave the residual at or below
    # epsilon.  The top utility always qualifies: no source is kept there
    # and the residual is -budget, which is never a solution, since one
    # source must stay.  Dropping sources at u leaves the residual at u
    # unchanged (they are not kept there), so u stays valid across
    # exclusions.
    u = math.inf
    while True:
        if src.levels[-1] < u:
            u, r_u, x_u = float(src.levels[-1]), -budget, np.empty(0)
        # Binary-search the levels (distinct utilities) below u for the
        # lowest one whose residual is at most epsilon.  Between levels the
        # residual falls smoothly as omega rises; at each level it drops by
        # that level's lambda.
        lo, r_lo = 0.0, math.inf
        a, b = 0, int(np.searchsorted(src.levels, u, side="left"))
        while a < b:
            mid = (a + b) // 2
            omega = float(src.levels[mid])
            r, x = src.residual(omega, budget)
            if r > eps:
                lo, r_lo, a = omega, r, mid + 1
            elif r >= -eps:
                # A level whose own residual is within epsilon: a solution
                # with the level's sources dropped (omega = their utility).
                return solution(omega, r, x)
            else:
                u, r_u, x_u, b = omega, r, x, mid

        # The residual is above epsilon at lo and below it at u.  Just
        # below u the level's sources are kept at intervals in g's flat
        # tail, each costing its lambda plus at most the flat-edge recrawl
        # rate mu / _FLAT_EDGE; full is the residual with all of them at that.
        level = src.level(u)
        at_u = slice(level.start, level.stop)
        full = r_u + float((src.lam[at_u] + src.mu[at_u] / _FLAT_EDGE).sum())
        if full <= eps:
            # Not a drop gap: the residual crosses zero in the smooth
            # segment (lo, u).  Newton on the residual with a bisection
            # safeguard, taking the Newton step only while it stays inside
            # the bracket and shrinks faster than halving.
            hi = u
            # Start from the secant between the segment's ends; from the
            # midpoint when lo was never evaluated, or when full >= 0 would
            # put the secant at or past u.
            if math.isfinite(r_lo) and full < 0.0:
                omega = lo + (hi - lo) * r_lo / (r_lo - full)
            else:
                omega = 0.5 * (lo + hi)
            dx_old = dx = hi - lo
            for _ in range(_MAX_ITERATIONS):
                r, x = src.residual(omega, budget)
                if abs(r) <= eps:
                    return solution(omega, r, x)
                if r < 0.0:  # crawling less than the budget: omega too high
                    hi = omega
                else:
                    lo = omega
                if hi - lo <= 8.0 * math.ulp(hi):
                    break
                dres = -float(src.steepness(x).sum())
                newton_bad = (
                    not math.isfinite(r)
                    or not math.isfinite(dres)
                    or dres >= 0.0
                    or ((omega - hi) * dres - r) * ((omega - lo) * dres - r) > 0.0
                    or abs(2.0 * r) > abs(dx_old * dres)
                )
                dx_old = dx
                if newton_bad:
                    dx = 0.5 * (hi - lo)
                    omega = lo + dx
                else:
                    dx = r / dres
                    omega -= dx
            else:
                raise NoConvergenceError(
                    f"Newton search did not converge in {_MAX_ITERATIONS} steps", r
                )
            if hi < u or not level:
                folded = _fold_leftover(src, omega, r, x, eps)
                if folded is None:
                    raise NoConvergenceError(
                        "Newton bracket collapsed without meeting epsilon", r
                    )
                return solution(omega, *folded)
            # The bracket collapsed onto the level itself: the crossing lies
            # in g's flat tail, which omega cannot resolve; complete it as
            # at a drop gap.

        # u is a drop gap (the budget falls inside the jump of u's lambda),
        # or the crossing sits in g's flat tail just below u.  In the flat
        # tail every interval past the flat edge satisfies stationarity to
        # within _INNER_TOLERANCE, so hold omega at u and let the level's
        # sources absorb exactly the leftover budget, each capped at the
        # flat-edge spend.  That only succeeds when the residual lands
        # within epsilon; otherwise exclude sources at the level.
        by_lambda = sorted(level, key=lambda i: -src.lam[i])  # stable: ties by id
        flat: "dict[int, float]" = {}  # position -> interval
        rem = -r_u
        for i in by_lambda:
            if src.lam[i] < rem:
                spend = min(src.mu[i] / _FLAT_EDGE, rem - src.lam[i])
                flat[i] = 1.0 / spend
                rem -= src.lam[i] + spend
        if flat and abs(rem) <= eps:
            pinched.update(src.sid(i) for i in level if i not in flat)
            return solution(u, -rem, x_u, flat)

        if len(src) <= 1:
            raise ScheduleInfeasibleError(
                "budget infeasible: cannot meet constraint with the last source", r_u
            )
        # Exclude the level's sources, largest lambda first (it frees the
        # most budget), until full falls to zero; then search again below
        # u.  Each exclusion is credited with its lambda only: the level's
        # flat-edge recrawl rate stays counted as a margin, which drops one
        # source more where the ones kept would sit so deep in the flat
        # tail that they capture next to nothing for the lambda they cost.
        need = full
        dropped: "list[int]" = []
        for i in by_lambda:
            if len(dropped) >= len(src) - 1:
                break
            dropped.append(i)
            need -= src.lam[i]
            if need <= 0.0:
                break
        pinched.update(src.sid(i) for i in dropped)
        logger.debug(
            "budget %.6g falls in the drop gap at utility %.6g; excluding %s",
            budget,
            u,
            [src.sid(i) for i in dropped],
        )
        src.drop(dropped)


def _fold_leftover(
    src: _Sources, omega: float, r: float, x: np.ndarray, eps: float
) -> "tuple[float, np.ndarray] | None":
    """Resolve a Newton bracket that collapsed inside a smooth segment.

    That is a pure granularity shortfall: one ulp of omega moves the spend
    by more than epsilon.  Fold the leftover into the steepest kept source
    (the one dominating d(spend)/d(omega)); its interval shift is sub-ulp in
    omega terms, so stationarity moves by far less than the inner tolerance.
    Returns the new residual and x, or None when the leftover cannot be
    folded anywhere: a tolerance below what the floating point residual
    can resolve.
    """
    if len(x):
        steep = src.steepness(x)
        best = int(steep.argmax())
        new_spend = src.mu[best] / x[best] - r
        if steep[best] > 0.0 and new_spend > 0.0:
            x_new = src.mu[best] / new_spend
            if (
                math.isfinite(x_new)
                and abs(src.p[best] * g(x_new) - omega) <= _INNER_TOLERANCE * omega
            ):
                polished = r - src.mu[best] / x[best] + src.mu[best] / x_new
                if abs(polished) <= eps:
                    x = x.copy()
                    x[best] = x_new
                    return polished, x
    return None


def closed_form_quality(
    schedule: Schedule,
    sources: "Mapping[SourceId, SourceParams] | Sequence[tuple[SourceId, SourceParams]]",
) -> float:
    """Model-predicted profit rate Q = sum p_i x_i (1 - exp(-mu_i / x_i)).

    Infinite intervals contribute nothing.
    """
    params = dict(sources.items() if isinstance(sources, Mapping) else sources)
    total = 0.0
    for sid, interval in schedule.intervals.items():
        if math.isinf(interval):
            continue
        sp = params[sid]
        x = 1.0 / interval
        total += sp.utility * x * -math.expm1(-sp.decay / x)
    return total
