"""Recrawl scheduling for sources of ephemeral new pages.

The package splits into:

- core: shared types, the profit decay model, and trace quality metrics.
- optimizer: the budget-constrained recrawl interval solver.
- estimators: online (P, mu) curve fitting and lambda estimation.
- policies: six crawl policies behind one interface.
- simulator: synthetic scenario generation and the fetch-slot event loop.
- discovery: content-source identification and greedy source cover.
- fileio: versioned CSV formats and experiment configs.
- cli: the command-line driver (`echocrawl`).
"""

from .core import (
    CrawlPage,
    CrawlRecord,
    MetricConfig,
    ProfitCurve,
    RecrawlSource,
    SourceParams,
    dynamic_quality,
    overall_quality,
    profit_at,
)
from .discovery import (
    HostSnapshot,
    LinkCorpus,
    find_content_sources,
    greedy_source_cover,
)
from .estimators import (
    ClickHistogram,
    EstimatorState,
    estimate_lambda,
    fit_profit_curve,
)
from .fileio import (
    ConfigError,
    ExperimentConfig,
    FileFormatError,
    parse_experiment_config,
    scenario_fingerprint,
)
from .optimizer import (
    NoConvergenceError,
    Schedule,
    ScheduleInfeasibleError,
    SolverConfig,
    closed_form_quality,
    g,
    g_inverse,
    solve_schedule,
)
from .policies import POLICY_NAMES, CrawlPolicy, make_policy
from .simulator import (
    MetricReport,
    RunConfig,
    Scenario,
    ScenarioConfig,
    SimulationError,
    SourceSpec,
    generate_scenario,
    oracle_upper_bound,
    run,
    simulate_schedule_follower,
)

__all__ = [
    "CrawlPage",
    "CrawlRecord",
    "MetricConfig",
    "ProfitCurve",
    "RecrawlSource",
    "SourceParams",
    "dynamic_quality",
    "overall_quality",
    "profit_at",
    "HostSnapshot",
    "LinkCorpus",
    "find_content_sources",
    "greedy_source_cover",
    "ClickHistogram",
    "EstimatorState",
    "estimate_lambda",
    "fit_profit_curve",
    "ConfigError",
    "ExperimentConfig",
    "FileFormatError",
    "parse_experiment_config",
    "scenario_fingerprint",
    "NoConvergenceError",
    "Schedule",
    "ScheduleInfeasibleError",
    "SolverConfig",
    "closed_form_quality",
    "g",
    "g_inverse",
    "solve_schedule",
    "POLICY_NAMES",
    "CrawlPolicy",
    "make_policy",
    "MetricReport",
    "RunConfig",
    "Scenario",
    "ScenarioConfig",
    "SimulationError",
    "SourceSpec",
    "generate_scenario",
    "oracle_upper_bound",
    "run",
    "simulate_schedule_follower",
]

__version__ = "0.1.0"
