#!/usr/bin/env python3
"""Show that every output check passes on a real output and fails on a
corrupted copy of it.

    python3 benchmark/selftest.py

Each case runs the program on a small input, runs the check on the real
output (it must pass), corrupts one thing, and runs the check again (it
must report a problem).  Exits 1 if any case does not behave so.
"""

import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from echocrawl import cli, fileio, simulator  # noqa: E402
from echocrawl.core import CrawlPage, CrawlRecord, RecrawlSource  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

DAY = 86400.0
results: "list[bool]" = []


def case(check: str, corruption: str, clean: "list[str]", corrupted: "list[str]") -> None:
    ok = not clean and bool(corrupted)
    results.append(ok)
    verdict = "ok  " if ok else "BAD "
    detail = "; ".join(corrupted)[:150] if corrupted else "no problem reported"
    if clean:
        detail = f"clean output rejected: {clean[0]}"
    print(f"{verdict} {check:<10} {corruption:<44} -> {detail}")


def rewrite_cell(src: Path, dst: Path, row: int, col: int, value: str) -> None:
    """Copy a versioned CSV, replacing one cell of data row `row`."""
    lines = src.read_text().splitlines(keepends=True)
    cells = lines[2 + row].rstrip("\n").split(",")
    cells[col] = value
    lines[2 + row] = ",".join(cells) + "\n"
    dst.write_text("".join(lines))


def crawl_cases() -> None:
    scenario = simulator.generate_scenario(workloads.preset_mix(2, 2 * DAY, 3))
    budget = 0.02
    trace, report = simulator.run(scenario, simulator.RunConfig("echo-newpages", budget))
    clean = checks.check_crawl(scenario, budget, trace, report)
    pages = [i for i, r in enumerate(trace) if isinstance(r.action, CrawlPage) and r.realized_profit > 0]
    first = trace[pages[0]]
    recrawl = next(i for i, r in enumerate(trace) if isinstance(r.action, RecrawlSource) and i > pages[0])

    def corrupt(index, record=None, **fields):
        t = list(trace)
        if record is not None:
            t[index] = record
        return checks.check_crawl(scenario, budget, t, replace(report, **fields))

    case("crawl", "one fetch's profit +1", clean,
         corrupt(pages[0], replace(first, realized_profit=first.realized_profit + 1)))
    case("crawl", "a recrawl slot re-fetches a fetched page", clean,
         corrupt(recrawl, CrawlRecord(trace[recrawl].time, first.action, first.realized_profit)))
    unlisted = max(scenario.pages)  # created last, so never listed before any fetch
    case("crawl", "a fetch of a page never listed", clean,
         corrupt(pages[0], CrawlRecord(first.time, CrawlPage(unlisted), 0.0)))
    case("crawl", "report idle_slots + 1", clean, corrupt(0, idle_slots=report.idle_slots + 1))
    case("crawl", "report overall_quality x 1.01", clean,
         corrupt(0, overall_quality=report.overall_quality * 1.01))
    case("crawl", "report discovered_pages - 1", clean,
         corrupt(0, discovered_pages=report.discovered_pages - 1))


def schedule_cases(tmp: Path) -> None:
    rng = np.random.default_rng(5)
    params = workloads.make_params(rng, 60)
    params_path = tmp / "params.csv"
    fileio.write_params(params_path, (fileio.ParamsRow(s, p) for s, p in params.items()))
    rate = sum(p.lambda_rate for p in params.values())
    solved = []
    for tag, budget in (("low", 0.5 * rate), ("high", 1.5 * rate)):
        out = tmp / tag
        assert cli.main(["schedule", str(params_path), "--budget", repr(budget),
                         "--out", str(out), "--quiet"]) == 0
        solved.append((budget, out / "schedule.csv"))
    budget, path = solved[1]
    clean = checks.check_schedule_file(params, budget, path).problems
    intervals = checks.parse_schedule(path)
    finite = sorted(s for s, iv in intervals.items() if iv != float("inf"))
    bad = tmp / "bad.csv"
    rewrite_cell(path, bad, finite[0], 1, repr(intervals[finite[0]] * 1.05))
    case("schedule", "one interval x 1.05", clean,
         checks.check_schedule_file(params, budget, bad).problems)
    rewrite_cell(path, bad, finite[0], 1, "inf")
    case("schedule", "a valuable source dropped", clean,
         checks.check_schedule_file(params, budget, bad, pinched=frozenset()).problems)

    omega = float(checks.schedule_meta(path)["omega"])
    pairs = [(s, intervals[s]) for s in finite]
    x_a, x_b = 1 / pairs[0][1], 1 / pairs[1][1]
    shift = 0.05 * min(x_a, x_b)
    moved = [(pairs[0][0], 1 / (x_a - shift)), (pairs[1][0], 1 / (x_b + shift))] + pairs[2:]
    case("exchange", "rate moved between two sources", checks.exchange_problems(params, pairs, omega),
         checks.exchange_problems(params, moved, omega))

    results_by_budget = [(b, checks.check_schedule_file(params, b, p)) for b, p in solved]
    swapped = [(results_by_budget[0][0], results_by_budget[1][1]),
               (results_by_budget[1][0], results_by_budget[0][1])]
    case("monotone", "qualities of the two budgets swapped",
         checks.check_budget_monotone(results_by_budget),
         checks.check_budget_monotone(swapped))


def fit_cases(tmp: Path) -> None:
    scenario = simulator.generate_scenario(workloads.preset_mix(1, 7 * DAY, 4))
    log = tmp / "clicks.csv"
    fileio.write_click_log(log, scenario)
    assert cli.main(["fit", str(log), "--out", str(tmp / "fit"), "--quiet"]) == 0
    path = tmp / "fit" / "params.csv"
    clean = checks.check_fit(scenario, path)
    _, rows = checks.read_table(path)
    fitted = next(i for i, r in enumerate(rows) if r[6] == "yes" and float(r[2]) > 0.5)
    bad = tmp / "bad-params.csv"
    rewrite_cell(path, bad, fitted, 2, repr(float(rows[fitted][2]) * 1.5))
    case("fit", "a fitted profit x 1.5", clean, checks.check_fit(scenario, bad))
    rewrite_cell(path, bad, fitted, 1, repr(float(rows[fitted][1]) * 2))
    case("fit", "a lambda-hat x 2", clean, checks.check_fit(scenario, bad))


def discovery_cases(tmp: Path) -> None:
    rng = np.random.default_rng(6)
    snapshots = workloads.make_snapshots(rng, 50, 20, 600)
    snaps = tmp / "snaps.csv"
    fileio.write_snapshots(snaps, snapshots)
    assert cli.main(["discover", str(snaps), "--out", str(tmp / "disc"), "--quiet"]) == 0
    path = tmp / "disc" / "sources.csv"
    clean = checks.check_discover(snapshots, path)
    lines = path.read_text().splitlines(keepends=True)
    bad = tmp / "bad-sources.csv"
    bad.write_text("".join(lines[:-1]))
    case("discover", "last source removed", clean, checks.check_discover(snapshots, bad))
    bad.write_text("".join(lines + lines[-1:]))
    case("discover", "last source listed twice", clean, checks.check_discover(snapshots, bad))

    corpus = workloads.make_corpus(rng, 80, 2000)
    corpus_path = tmp / "corpus.csv"
    fileio.write_corpus(corpus_path, corpus)
    assert cli.main(["cover", str(corpus_path), "--target", "0.8",
                     "--out", str(tmp / "cover"), "--quiet"]) == 0
    path = tmp / "cover" / "cover.csv"
    clean = checks.check_cover(corpus, 0.8, path)
    lines = path.read_text().splitlines(keepends=True)
    bad = tmp / "bad-cover.csv"
    bad.write_text("".join(lines[:2] + [lines[3], lines[2]] + lines[4:]))
    case("cover", "first two picks swapped", clean, checks.check_cover(corpus, 0.8, bad))
    bad.write_text("".join(lines[:-1]))
    case("cover", "last pick removed", clean, checks.check_cover(corpus, 0.8, bad))


def main() -> int:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        crawl_cases()
        schedule_cases(Path(tmp))
        fit_cases(Path(tmp))
        discovery_cases(Path(tmp))
    print(f"{sum(results)}/{len(results)} corruptions caught, clean outputs accepted")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
