"""The benchmark's workloads: inputs made from a seed, rounds of fixed work.

A workload is set up once per process and then runs whole rounds; every
round performs the same operations on the same inputs, so per-operation
times can be compared across rounds and the outputs must repeat exactly.

Workloads only call the program; run.py times each operation.  Every
call into the program goes through a module attribute
(``simulator.run``, ``cli.main``, ``fileio.write_params`` ...), never a
name imported into this file, so the traced run can wrap those names from
outside without touching ``src/``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from echocrawl import cli, fileio, simulator
from echocrawl.core import SourceParams
from echocrawl.discovery import HostSnapshot, LinkCorpus

import checks

HERE = Path(__file__).resolve().parent
# Solver input captured from the preset:main seed-0 echo-schedule crawl at
# budget 0.003681, simulated hour 32.5; remade by make_found1_params.py.
FOUND1_PARAMS = HERE / "data" / "found1_params.csv"
FOUND1_BUDGET = 0.003681

DAY = 86400.0
PARAMS_SEED = 0


def load_preset() -> "fileio.ExperimentConfig":
    """The bundled preset:main experiment, parsed by the program."""
    text = resources.files("echocrawl").joinpath("data", "preset-main.yaml").read_text(
        encoding="utf-8"
    )
    return fileio.parse_experiment_config(yaml.safe_load(text))


def preset_block() -> "tuple[simulator.SourceSpec, ...]":
    """The preset's six interleaved sources (feed, news, blog, feed, blog,
    blog), which it lists once and repeats five times."""
    return load_preset().scenario.source_specs[:6]


def preset_mix(repeat: int, horizon: float, seed: int) -> "simulator.ScenarioConfig":
    """The preset's interleaved source mix tiled `repeat` times."""
    return dataclasses.replace(
        load_preset().scenario, source_specs=preset_block() * repeat, horizon=horizon, seed=seed
    )


def total_link_rate(config: "simulator.ScenarioConfig") -> float:
    return math.fsum(spec.lambda_rate for spec in config.source_specs)


class CrawlWorkload:
    """Simulated crawls: a (scenario x policy x budget) grid per round."""

    name = ""
    policies: "tuple[str, ...]" = ()

    def __init__(self, seed: int, workdir: Path):
        self.scenarios = [
            simulator.generate_scenario(config) for config in self.scenario_configs(seed)
        ]
        self.cells = [
            (index, policy, budget)
            for index in range(len(self.scenarios))
            for policy in self.policies
            for budget in self.budgets()
        ]
        self.first: "list | None" = None
        self.last: "list | None" = None
        self.mismatched_rounds = 0

    def scenario_configs(self, seed: int) -> "list[simulator.ScenarioConfig]":
        raise NotImplementedError

    def budgets(self) -> "tuple[float, ...]":
        raise NotImplementedError

    def run_config(self, policy: str, budget: float) -> "simulator.RunConfig":
        return simulator.RunConfig(policy=policy, budget=budget)

    def cell_name(self, index: int, policy: str, budget: float) -> str:
        name = f"{policy}@{budget!r}"
        return name if len(self.scenarios) == 1 else f"{name}/scenario{index}"

    def operations(self) -> "list[tuple[str, Callable[[], str]]]":
        """This round's operations; each returns an error message or ""."""
        # Only the latest round's outputs are kept (for the checks), and
        # dropped before the next round starts, so peak memory does not
        # depend on how many rounds fit in the run.
        self.last = None
        self.outputs = []
        return [(self.cell_name(*cell), functools.partial(self._crawl, *cell)) for cell in self.cells]

    def _crawl(self, index: int, policy: str, budget: float) -> str:
        config = self.run_config(policy, budget)
        self.outputs.append(simulator.run(self.scenarios[index], config))
        return ""

    def end_round(self, failed: "set[str]") -> None:
        digest = [(hash(tuple(trace)), report) for trace, report in self.outputs]
        if self.first is None:
            self.first = digest
        elif digest != self.first:
            self.mismatched_rounds += 1
        self.last = self.outputs

    def slots_per_round(self) -> int:
        return sum(len(trace) + report.idle_slots for trace, report in self.last)

    def captured_clicks_per_day(self) -> float:
        """Mean simulated post-warm-up quality over the grid, in clicks/day."""
        return DAY * sum(report.overall_quality for _, report in self.last) / len(self.cells)

    def check(self) -> "list[str]":
        problems = []
        if self.mismatched_rounds:
            problems.append(f"{self.mismatched_rounds} round(s) differ from the first")
        for (index, policy, budget), (trace, report) in zip(self.cells, self.last):
            for problem in checks.check_crawl(self.scenarios[index], budget, trace, report):
                problems.append(f"{self.cell_name(index, policy, budget)}: {problem}")
        return problems

    def info(self, medians: "dict[str, float]") -> "dict[str, tuple[float, str]]":
        """Simulated fetch slots per host second of the round."""
        return {"crawl_slots_per_s": (self.slots_per_round() / sum(medians.values()), "slots/s")}


class CrawlPreset(CrawlWorkload):
    """preset:main as bundled (scenario seed 0) for its full week at the
    preset's three budgets.

    The inputs do not depend on the benchmark seed: the cost of this grid
    moves by about a fifth between scenario seeds (the solver's drop-gap
    path), which would hide any change smaller than that.
    """

    name = "crawl-preset"
    policies = ("echo-schedule", "echo-newpages", "echo-greedy")

    def __init__(self, seed: int, workdir: Path):
        self.preset = load_preset()
        super().__init__(seed, workdir)

    def scenario_configs(self, seed):
        return [self.preset.scenario]

    def budgets(self):
        return self.preset.budgets

    def run_config(self, policy, budget):
        return self.preset.make_run_config(policy, budget)


class CrawlWide(CrawlWorkload):
    """Two scenarios of 240 sources of the preset mix, one day each, budget
    above their total link rate.

    Two scenarios of 240 sources rather than one of 480: the all-source scan
    costs sources x slots, and shorter crawls pair more closely with the
    reference kernel runs around them.
    """

    name = "crawl-wide"
    policies = ("echo-greedy", "bfs")
    REPEAT = 40  # blocks of the preset's 6-source mix
    BUDGET_OVER_LINK_RATE = 1.25

    def scenario_configs(self, seed):
        return [preset_mix(self.REPEAT, DAY, 2 * seed + k) for k in range(2)]

    def budgets(self):
        return (self.BUDGET_OVER_LINK_RATE * total_link_rate(self.scenarios[0].config),)


class OfflineBatch:
    """The file-based offline path through ``cli.main``: fit, schedule,
    discover, cover, and a read-back of every schedule written."""

    name = "offline-batch"
    FIT_REPEAT = 25  # 150 sources of the preset mix, one week of clicks
    N_PARAMS = 100_000
    BUDGET_FACTORS = (1.5, 0.5)  # x the params' total link rate
    N_HOSTS = 4000
    LINKS_PER_HOST = 40
    SNAPSHOT_POOL = 60_000
    N_CORPUS_SOURCES = 1500
    N_CORPUS_PAGES = 30_000
    COVER_TARGET = 0.8

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir
        rng = np.random.default_rng([seed, 7])

        self.fit_scenario = simulator.generate_scenario(
            preset_mix(self.FIT_REPEAT, 7 * DAY, seed)
        )
        self.clicklog = workdir / "clicks.csv"
        fileio.write_click_log(self.clicklog, self.fit_scenario)

        # The 10^5-source parameter set is the same for every seed: how many
        # drop-gap passes the starved solve needs jumps between draws (1.8 s
        # to 7.6 s on two seeds), which would swamp the run-to-run spread.
        self.params = make_params(np.random.default_rng(PARAMS_SEED), self.N_PARAMS)
        self.params_path = workdir / "params.csv"
        fileio.write_params(
            self.params_path,
            (fileio.ParamsRow(sid, sp) for sid, sp in self.params.items()),
            {"seed": PARAMS_SEED},
        )
        link_rate = math.fsum(sp.lambda_rate for sp in self.params.values())
        self.budgets = tuple(f * link_rate for f in self.BUDGET_FACTORS)

        self.snapshots = make_snapshots(
            rng, self.N_HOSTS, self.LINKS_PER_HOST, self.SNAPSHOT_POOL
        )
        self.snapshots_path = workdir / "snapshots.csv"
        fileio.write_snapshots(self.snapshots_path, self.snapshots)

        self.corpus = make_corpus(rng, self.N_CORPUS_SOURCES, self.N_CORPUS_PAGES)
        self.corpus_path = workdir / "corpus.csv"
        fileio.write_corpus(self.corpus_path, self.corpus)

        self.first: "dict[str, str] | None" = None
        self.mismatched_rounds = 0
        self.failed_ops: "set[str]" = set()
        self.qualities: "list[float]" = []

    # -- one round ----------------------------------------------------------

    @staticmethod
    def _cli(*argv: str) -> str:
        code = cli.main([*argv, "--quiet"])
        return "" if code == 0 else f"exit code {code}"

    @staticmethod
    def _read_back(path: Path) -> str:
        try:
            fileio.read_schedule(path)
        except (fileio.FileFormatError, OSError) as exc:
            return str(exc)
        return ""

    def schedule_dirs(self) -> "list[tuple[str, Path, float]]":
        out = [
            (f"schedule-{tag}", self.dir / f"schedule-{tag}", budget)
            for tag, budget in zip(("above", "below"), self.budgets)
        ]
        return out + [("schedule-found1", self.dir / "schedule-found1", FOUND1_BUDGET)]

    def operations(self) -> "list[tuple[str, Callable[[], str]]]":
        """This round's operations; each returns an error message or ""."""
        call = functools.partial
        ops = [("fit", call(self._cli, "fit", str(self.clicklog), "--out", str(self.dir / "fit")))]
        for name, out, budget in self.schedule_dirs():
            params = FOUND1_PARAMS if name.endswith("found1") else self.params_path
            argv = ("schedule", str(params), "--budget", repr(budget), "--out", str(out))
            ops.append((name, call(self._cli, *argv)))
            ops.append((f"read-{name}", call(self._read_back, out / "schedule.csv")))
        discover = ("discover", str(self.snapshots_path), "--out", str(self.dir / "discover"))
        ops.append(("discover", call(self._cli, *discover)))
        cover = ("cover", str(self.corpus_path), "--target", repr(self.COVER_TARGET),
                 "--out", str(self.dir / "cover"))
        ops.append(("cover", call(self._cli, *cover)))
        return ops

    def end_round(self, failed: "set[str]") -> None:
        digests = {path.name: _digest(path) for path in self.output_files()}
        if self.first is None:
            self.first = digests
            self.failed_ops = failed
        elif digests != self.first:
            self.mismatched_rounds += 1

    def output_files(self) -> "list[Path]":
        files = [self.dir / "fit" / "params.csv"]
        files += [out / "schedule.csv" for _, out, _ in self.schedule_dirs()]
        return files + [self.dir / "discover" / "sources.csv", self.dir / "cover" / "cover.csv"]

    # -- outputs ------------------------------------------------------------

    def check(self) -> "list[str]":
        """Check the outputs of every operation that did not fail."""
        failed = self.failed_ops
        problems = []
        if self.mismatched_rounds:
            problems.append(f"{self.mismatched_rounds} round(s) wrote different files")
        if "fit" not in failed:
            problems += checks.check_fit(self.fit_scenario, self.dir / "fit" / "params.csv")
        solved = []
        for name, out, budget in self.schedule_dirs()[:2]:
            if {name, f"read-{name}"} & failed:
                continue
            result = checks.check_schedule_file(self.params, budget, out / "schedule.csv")
            problems += [f"{name}: {p}" for p in result.problems]
            solved.append((budget, result))
        problems += checks.check_budget_monotone(solved)
        self.qualities = [result.quality for _, result in solved]
        if "discover" not in failed:
            problems += checks.check_discover(
                self.snapshots, self.dir / "discover" / "sources.csv"
            )
        if "cover" not in failed:
            problems += checks.check_cover(
                self.corpus, self.COVER_TARGET, self.dir / "cover" / "cover.csv"
            )
        return problems

    def captured_clicks_per_day(self) -> float:
        """Model-predicted clicks/day of the 10^5-source schedules (mean),
        from the closed-form quality the checks recompute."""
        return DAY * sum(self.qualities) / max(len(self.qualities), 1)

    def info(self, medians: "dict[str, float]") -> "dict[str, tuple[float, str]]":
        """Per-step rates from the median operation times."""
        solve_s = sum(medians[name] for name, _, _ in self.schedule_dirs())
        n_solved = len(self.params) * len(self.budgets) + _count_rows(FOUND1_PARAMS)
        pages = len(self.corpus.distinct_pages())
        return {
            "fit_sources_per_s": (
                len(self.fit_scenario.config.source_specs) / medians["fit"],
                "sources/s",
            ),
            "solve_sources_per_s": (n_solved / solve_s, "sources/s"),
            "cover_pages_per_s": (pages / (medians["discover"] + medians["cover"]), "pages/s"),
        }


def make_params(rng: np.random.Generator, n: int) -> "dict[int, SourceParams]":
    """n sources cycling through the preset's classes, each parameter scaled
    by an independent log-normal factor so no two utilities coincide."""
    block = preset_block()
    lam = np.array([block[i % 6].lambda_rate for i in range(n)])
    profit = np.array([block[i % 6].profit_mean for i in range(n)])
    decay = np.array([block[i % 6].decay for i in range(n)])
    lam *= rng.lognormal(0.0, 0.3, n)
    profit *= rng.lognormal(0.0, 0.3, n)
    decay *= rng.lognormal(0.0, 0.3, n)
    return {
        i: SourceParams(float(lam[i]), float(profit[i]), float(decay[i])) for i in range(n)
    }


def make_snapshots(
    rng: np.random.Generator, hosts: int, links: int, pool: int
) -> "list[HostSnapshot]":
    """Hosts whose main pages and linked pages overlap, ages up to a week."""
    mains = rng.choice(pool, size=hosts, replace=False)
    out = []
    for host, main in enumerate(mains):
        pages = rng.choice(pool, size=links, replace=False)
        pages = pages[pages != main]
        ages = rng.uniform(0.0, 7 * DAY, size=pages.size)
        out.append(HostSnapshot(host, int(main), zip(pages.tolist(), ages.tolist())))
    return out


def make_corpus(rng: np.random.Generator, sources: int, pages: int) -> LinkCorpus:
    """Sources linking to heavy-tailed numbers of pages, with link times."""
    sizes = np.minimum(5 + rng.pareto(1.5, sources) * 20, pages // 4).astype(int)
    links = []
    for sid, size in enumerate(sizes):
        targets = rng.choice(pages, size=int(size), replace=False)
        times = rng.uniform(0.0, 7 * DAY, size=targets.size)
        links.extend(zip([1_000_000 + sid] * targets.size, targets.tolist(), times.tolist()))
    return LinkCorpus(links)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


def _count_rows(path: Path) -> int:
    with path.open(encoding="utf-8") as fh:
        return sum(1 for line in fh) - 2


WORKLOADS = {w.name: w for w in (CrawlPreset, CrawlWide, OfflineBatch)}
