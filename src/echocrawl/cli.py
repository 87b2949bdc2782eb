"""Command-line driver for scenario generation, crawls, fits, and reports.

Subcommands::

    generate   synthesize a scenario file (+ click log) from a config
    run        execute a (policy x budget x seed) grid, one trace/report each
    fit        estimate per-source (lambda, P, mu) from a click-log file
    schedule   solve optimal recrawl intervals for a source-params file
    discover   list candidate content sources from host snapshots
    cover      greedy source cover of an observed link corpus
    report     aggregate run reports into a summary table and quality series

Global flags ``--config``, ``--seed``, ``--out``, ``--quiet`` are accepted
before or after the subcommand name.  Exit codes: 0 success, 2 config
error, 3 infeasible or non-converged solve, 4 I/O or file-format error.
``--config preset:main`` (or ``preset:starved``) loads a bundled synthetic
preset instead of a file from disk.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from importlib import resources
from pathlib import Path

from .discovery import DEFAULT_MIN_SOURCE_AGE, find_content_sources, greedy_source_cover
from .estimators import EstimatorState, fit_profit_curve
from .optimizer import (
    NoConvergenceError,
    ScheduleInfeasibleError,
    SolverConfig,
    solve_schedule,
)
from .core import SourceParams
from .policies import POLICY_NAMES
from .simulator import RunConfig, Scenario, generate_scenario, oracle_upper_bound, run
from . import fileio
from .fileio import ConfigError, ExperimentConfig, FileFormatError

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


# ---------------------------------------------------------------------------
# shared plumbing


def _load_config(spec: "str | None") -> "dict":
    """Load the --config mapping from a path or a bundled ``preset:<name>``."""
    if spec is None:
        raise ConfigError("this subcommand requires --config")
    if spec.startswith("preset:"):
        name = spec.split(":", 1)[1]
        resource = resources.files("echocrawl").joinpath("data", f"preset-{name}.yaml")
        if not resource.is_file():
            raise ConfigError(f"unknown preset {name!r}; bundled: main, starved")
        return fileio.load_yaml_mapping(resource)
    return fileio.load_yaml_mapping(spec)


def _experiment(args) -> ExperimentConfig:
    config = fileio.parse_experiment_config(_load_config(args.config))
    if args.seed is not None:
        config = dataclasses.replace(
            config,
            scenario=dataclasses.replace(config.scenario, seed=args.seed),
            seeds=(args.seed,),
        )
    if args.out is not None:
        config = dataclasses.replace(config, out=args.out)
    return config


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _run_file_stem(policy: str, budget: float, seed: int) -> str:
    return f"{policy}_b{budget!r}_s{seed}"


def _execute_seed(
    scenario: Scenario, config: ExperimentConfig, seed: int, outdir: Path
) -> "list[tuple[str, float, int, float]]":
    """Run every (policy, budget) cell for one seed and write its files."""
    fingerprint = fileio.scenario_fingerprint(scenario.config)
    oracle = oracle_upper_bound(scenario)
    results = []
    for policy in config.policies:
        for budget in config.budgets:
            run_config = config.make_run_config(policy, budget)
            trace, report = run(scenario, run_config)
            stem = _run_file_stem(policy, budget, seed)
            meta = {
                "fingerprint": fingerprint,
                "policy": policy,
                "budget": budget,
                "seed": seed,
                "horizon": scenario.config.horizon,
            }
            fileio.write_trace(outdir / f"{stem}.trace.csv", trace, meta)
            fileio.write_report(
                outdir / f"{stem}.report.csv", report, seed, oracle, fingerprint
            )
            fileio.write_series(
                outdir / f"{stem}.series.csv",
                report.series,
                {**meta, "warmup": report.warmup},
            )
            results.append((policy, budget, seed, report.overall_quality))
    return results


def _seed_worker(payload) -> "list[tuple[str, float, int, float]]":
    config, seed, outdir = payload
    scenario = generate_scenario(dataclasses.replace(config.scenario, seed=seed))
    return _execute_seed(scenario, config, seed, Path(outdir))


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    node = _load_config(args.config)
    config = fileio.parse_scenario_config(node.get("scenario", node))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    scenario = generate_scenario(config)
    outdir = Path(args.out or ".")
    scenario_path = outdir / f"scenario_s{config.seed}.csv"
    clicks_path = outdir / f"clicks_s{config.seed}.csv"
    fileio.write_scenario(scenario_path, scenario)
    fileio.write_click_log(clicks_path, scenario)
    total_clicks = sum(p.total_clicks for p in scenario.pages.values())
    _say(
        args,
        f"wrote {scenario_path} and {clicks_path}: "
        f"{scenario.n_sources} sources, {len(scenario.pages)} pages, "
        f"{total_clicks} clicks, oracle {oracle_upper_bound(scenario):.6g}",
    )
    return EXIT_OK


def cmd_run(args) -> int:
    config = _experiment(args)
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.scenario is not None:
        scenario = fileio.read_scenario(args.scenario)
        expected = fileio.scenario_fingerprint(config.scenario)
        got = fileio.scenario_fingerprint(scenario.config)
        if got != expected:
            raise ConfigError(
                f"scenario file {args.scenario} (fingerprint {got}) does not match "
                f"the config's scenario ({expected})"
            )
        seeds = (scenario.config.seed,)
        batches = [_execute_seed(scenario, config, scenario.config.seed, outdir)]
    elif args.jobs > 1:
        seeds = config.seeds
        payloads = [(config, seed, str(outdir)) for seed in seeds]
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            batches = list(pool.map(_seed_worker, payloads))
    else:
        seeds = config.seeds
        batches = []
        for seed in seeds:
            scenario = generate_scenario(dataclasses.replace(config.scenario, seed=seed))
            batches.append(_execute_seed(scenario, config, seed, outdir))
    total = 0
    for batch in batches:
        for policy, budget, seed, quality in batch:
            total += 1
            _say(args, f"ran {policy} budget={budget!r} seed={seed}: Q={quality:.6g}")
    _say(
        args,
        f"wrote {total} runs ({len(config.policies)} policies x "
        f"{len(config.budgets)} budgets x {len(seeds)} seeds) under {outdir}",
    )
    return EXIT_OK


# The EstimatorState parameters a config's ``fit:`` mapping may set.
_FIT_KEYS = ("bin_size", "max_click_age", "default_profit", "default_decay", "default_lambda")


def cmd_fit(args) -> int:
    node = _load_config(args.config) if args.config else {}
    state = fileio.read_config(EstimatorState, node.get("fit", {}), "fit", keys=_FIT_KEYS)
    log = fileio.read_click_log(args.clicklog)

    created_by_source: "dict[int, list[float]]" = {}
    for pid in sorted(log.pages):
        sid, created = log.pages[pid]
        state.register_page(pid, sid, created)
        created_by_source.setdefault(sid, []).append(created)
    t_push = max((t for _, t in log.clicks), default=0.0)
    state.push_logs(log.clicks, t_push)

    rows = []
    for sid in log.sources:
        creations = sorted(created_by_source[sid])
        span = creations[-1] - creations[0]
        if len(creations) >= 2 and span > 0:
            lam = (len(creations) - 1) / span
        else:
            lam = state.default_lambda
        hist = state.histogram(sid)
        clicks = hist.cumulative[-1] if hist.cumulative else 0
        fitted = hist.page_count > 0 and clicks > 0 and len(hist.cumulative) >= 2
        profit, decay = state.default_profit, state.default_decay
        if fitted:
            # the plain least-squares fit, without the online estimator's
            # decay floor
            curve = fit_profit_curve(hist)
            profit, decay = curve.profit, curve.decay
        rows.append(
            fileio.ParamsRow(
                source_id=sid,
                params=SourceParams(lambda_rate=lam, profit=profit, decay=decay),
                pages=len(creations),
                clicks=int(clicks),
                fitted=fitted,
            )
        )
    outdir = Path(args.out or ".")
    params_path = outdir / "params.csv"
    meta = {"t_push": t_push, "pages": len(log.pages), "clicks": len(log.clicks)}
    fileio.write_params(params_path, rows, meta)
    n_fitted = sum(1 for r in rows if r.fitted)
    _say(
        args,
        f"wrote {params_path}: {len(rows)} sources, {n_fitted} fitted, "
        f"{len(rows) - n_fitted} on defaults",
    )
    if not rows:
        logger.warning("click log %s holds no pages; wrote an empty params file", args.clicklog)
    if not args.quiet:
        for row in rows:
            print(
                f"  source {row.source_id}: lambda={row.params.lambda_rate:.6g} "
                f"P={row.params.profit:.6g} mu={row.params.decay:.6g} "
                f"({'fitted' if row.fitted else 'defaults'}, "
                f"{row.pages} pages, {row.clicks} clicks)"
            )
    return EXIT_OK


def cmd_schedule(args) -> int:
    items, _ = fileio.read_params(args.params)
    if args.budget <= 0:
        raise ConfigError(f"--budget must be > 0, got {args.budget}")
    if args.epsilon <= 0:
        raise ConfigError(f"--epsilon must be > 0, got {args.epsilon}")
    try:
        schedule = solve_schedule(
            dict(items), args.budget, SolverConfig(epsilon=args.epsilon)
        )
    except ScheduleInfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except NoConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    outdir = Path(args.out or ".")
    path = outdir / "schedule.csv"
    fileio.write_schedule(path, schedule, args.epsilon)
    finite = schedule.finite_items()
    _say(
        args,
        f"wrote {path}: {len(finite)}/{len(schedule.intervals)} sources scheduled, "
        f"omega={schedule.omega:.6g}, residual={schedule.residual:.3g}",
    )
    if not args.quiet:
        for sid, interval in sorted(schedule.intervals.items()):
            text = "inf" if math.isinf(interval) else f"{interval:.6g}s"
            print(f"  source {sid}: interval {text}")
    return EXIT_OK


def cmd_discover(args) -> int:
    if args.min_age < 0:
        raise ConfigError(f"--min-age must be >= 0, got {args.min_age}")
    snapshots = fileio.read_snapshots(args.snapshots)
    sources = find_content_sources(snapshots, args.min_age)
    outdir = Path(args.out or ".")
    path = outdir / "sources.csv"
    fileio.write_table(
        path,
        "sourcelist",
        {"min_age": float(args.min_age), "hosts": len(snapshots)},
        ((pid,) for pid in sources),
    )
    _say(args, f"wrote {path}: {len(sources)} candidate sources from {len(snapshots)} hosts")
    return EXIT_OK


def cmd_cover(args) -> int:
    corpus = fileio.read_corpus(args.corpus)
    try:
        picks = greedy_source_cover(corpus, args.target)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    outdir = Path(args.out or ".")
    path = outdir / "cover.csv"
    total = len(corpus.distinct_pages())
    fileio.write_cover(path, picks, args.target, total)
    reached = picks[-1][1] if picks else 0.0
    _say(
        args,
        f"wrote {path}: {len(picks)} sources cover {reached:.1%} "
        f"of {total} pages (target {args.target:.1%})",
    )
    return EXIT_OK


def cmd_report(args) -> int:
    reports = [fileio.read_report(path) for path in args.reports]
    fingerprints = {r.fingerprint for r in reports}
    if len(fingerprints) > 1:
        raise ConfigError(
            f"report files mix scenario families (fingerprints {sorted(fingerprints)}); "
            "aggregate one scenario config at a time"
        )
    fingerprint = next(iter(fingerprints))

    def aggregate(values: "list[float]") -> "tuple[float, float]":
        mean = statistics.fmean(values)
        std = statistics.stdev(values) if len(values) > 1 else 0.0
        return mean, std

    groups: "dict[tuple[str, float], list[fileio.ReportRow]]" = {}
    for r in reports:
        groups.setdefault((r.policy, r.budget), []).append(r)
    rows = []
    for (policy, budget), members in sorted(groups.items()):
        seeds = {m.seed for m in members}
        if len(seeds) != len(members):
            raise ConfigError(
                f"duplicate seeds for policy={policy} budget={budget!r}: "
                "each (policy, budget, seed) may appear once"
            )
        mean_q, std_q = aggregate([m.overall_quality for m in members])
        rows.append(
            (
                policy,
                budget,
                len(members),
                mean_q,
                std_q,
                statistics.fmean([m.total_profit for m in members]),
                statistics.fmean([m.recrawls for m in members]),
                statistics.fmean([m.page_fetches for m in members]),
            )
        )
    # One oracle row for the whole table: the bound depends only on the
    # scenario seed, never on policy or budget.
    by_seed = {r.seed: r.oracle for r in reports}
    mean_o, std_o = aggregate([by_seed[s] for s in sorted(by_seed)])
    rows.append(("oracle", None, len(by_seed), mean_o, std_o, None, None, None))

    outdir = Path(args.out or ".")
    summary_path = outdir / "summary.csv"
    fileio.write_summary(summary_path, rows, fingerprint)

    series_rows = []
    missing = 0
    for path, report in zip(args.reports, reports):
        name = str(path)
        if not name.endswith(".report.csv"):
            missing += 1
            continue
        series_path = Path(name[: -len(".report.csv")] + ".series.csv")
        if not series_path.exists():
            missing += 1
            continue
        points, _ = fileio.read_series(series_path)
        series_rows.extend(
            (report.policy, report.budget, report.seed, t, q) for t, q in points
        )
    series_path = outdir / "series.csv"
    fileio.write_table(series_path, "qseries", {"fingerprint": fingerprint}, series_rows)
    if missing:
        logger.warning("no sibling .series.csv for %d report file(s)", missing)

    _say(args, f"wrote {summary_path} and {series_path}")
    if not args.quiet:
        print(f"{'policy':<14} {'budget':>10} {'seeds':>5} {'mean_Q':>12} {'std_Q':>12}")
        for policy, budget, n, mean_q, std_q, *_ in rows:
            btext = "-" if budget is None else f"{budget!r}"
            print(f"{policy:<14} {btext:>10} {n:>5} {mean_q:>12.6g} {std_q:>12.6g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML config file, or preset:<name> for a bundled one")
    common.add_argument("--seed", type=int, help="override the config's seed(s)")
    common.add_argument("--out", help="output directory (default: config's, else '.')")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    parser = argparse.ArgumentParser(
        prog="echocrawl",
        description="Recrawl scheduling and crawl simulation for ephemeral new pages.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    p = sub.add_parser(
        "generate", parents=[common], help="synthesize a scenario file and click log"
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "run", parents=[common], help="run the config's (policy x budget x seed) grid"
    )
    p.add_argument("--scenario", help="run on a pre-generated scenario file instead")
    p.add_argument(
        "--jobs", type=int, default=1, help="worker processes fanned out across seeds"
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("fit", parents=[common], help="fit source parameters from a click log")
    p.add_argument("clicklog", help="click-log CSV (page_id, source_id, created_s, click_time_s)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser(
        "schedule", parents=[common], help="solve recrawl intervals for a params file"
    )
    p.add_argument("params", help="source-params CSV (source_id, lambda_rate, profit, decay)")
    p.add_argument("--budget", type=float, required=True, help="crawl rate N in fetches/second")
    epsilon = SolverConfig().epsilon
    p.add_argument("--epsilon", type=float, default=epsilon, help="budget residual tolerance")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser(
        "discover", parents=[common], help="candidate content sources from host snapshots"
    )
    p.add_argument("snapshots", help="snapshots CSV (host, main_page_id, page_id, age_s)")
    p.add_argument(
        "--min-age",
        type=float,
        default=DEFAULT_MIN_SOURCE_AGE,
        help="age in seconds before a linked page counts as a source (default 3 days)",
    )
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("cover", parents=[common], help="greedy source cover of a link corpus")
    p.add_argument("corpus", help="corpus CSV (source_page_id, page_id, time_s)")
    p.add_argument(
        "--target", type=float, default=0.8, help="coverage fraction to reach (default 0.8)"
    )
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser(
        "report", parents=[common], help="aggregate report files into summary + series"
    )
    p.add_argument("reports", nargs="+", help="report CSV files from `run`")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileFormatError as exc:
        print(f"file format error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
