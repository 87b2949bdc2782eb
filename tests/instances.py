"""Random solver instances and schedule validity checks shared by tests."""

import math

import numpy as np

from echocrawl.core import SourceParams
from echocrawl.optimizer import Schedule, g


def random_instance(rng, max_n=50, budget_slack=(1.05, 3.0), dead_fraction=0.05):
    """A random scheduling instance with the budget above total link rate.

    Budget above sum(lambda) keeps every instance feasible: in the worst
    case the solver drops sources until the remainder fits.
    """
    n = int(rng.integers(1, max_n + 1))
    lam = 10.0 ** rng.uniform(-5.0, -2.0, n)
    mu = 10.0 ** rng.uniform(-6.0, -3.0, n)
    profit = 10.0 ** rng.uniform(-2.0, 1.7, n)
    dead = rng.random(n) < dead_fraction
    if dead.all():
        dead[0] = False  # keep at least one schedulable source
    profit[dead] = 0.0
    params = {
        i: SourceParams(float(lam[i]), float(profit[i]), float(mu[i]))
        for i in range(n)
    }
    budget = float(lam.sum() * rng.uniform(*budget_slack))
    return params, budget


def random_tied_instance(rng, max_n=8, max_kinds=3, budget_share=(0.2, 1.0)):
    """A small instance whose sources share a few parameter sets, so
    utilities tie, with the budget below the total link rate."""
    kinds = [
        SourceParams(
            float(10.0 ** rng.uniform(-4.0, -2.0)),
            float(10.0 ** rng.uniform(-2.0, 1.0)),
            float(10.0 ** rng.uniform(-5.0, -3.0)),
        )
        for _ in range(int(rng.integers(1, max_kinds + 1)))
    ]
    n = int(rng.integers(1, max_n + 1))
    params = {i: kinds[int(rng.integers(len(kinds)))] for i in range(n)}
    budget = sum(sp.lambda_rate for sp in params.values()) * float(rng.uniform(*budget_share))
    return params, budget


def check_schedule(params, budget, sched: Schedule, eps=1e-6, kkt_rel=1e-6):
    """Assert budget residual, stationarity, and the infinite-interval rule."""
    finite = [(sid, iv) for sid, iv in sched.intervals.items() if math.isfinite(iv)]
    rate = sum(1.0 / iv for _, iv in finite)
    lam = sum(params[sid].lambda_rate for sid, _ in finite)
    residual = rate - (budget - lam)
    assert abs(residual) <= eps, f"budget residual {residual}"

    for sid, iv in finite:
        sp = params[sid]
        err = abs(sp.utility * g(sp.decay * iv) - sched.omega)
        assert err <= kkt_rel * sched.omega, f"KKT error {err} at source {sid}"

    for sid, iv in sched.intervals.items():
        sp = params[sid]
        if sp.lambda_rate <= 0 or sp.profit <= 0:
            assert math.isinf(iv)
        elif math.isinf(iv):
            assert sid in sched.pinched or sched.omega >= sp.utility * (1 - 1e-9)
        else:
            assert sched.omega < sp.utility * (1 + 1e-9)
    return residual
