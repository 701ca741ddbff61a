"""The benchmark's four workloads: what one pass runs and how it is checked.

A pass is a fixed amount of work made from one 64-bit master seed.  Sweep
workloads evaluate their cells through ``experiments.run_cells``; ``audit``
calls ``audit.run_audit``.  Package functions are always looked up as module
attributes at call time, so the tracer's patches are seen.

Why these workloads:

* ``grid``: the acceptance sweep's 56 cells at two jobs, then the report
  writers ``votegame sweep`` calls.  The real traffic behind Tier-1 wall time
  and the only workload that uses the process pool; cell costs differ by
  about 1000x, so load imbalance shows.
* ``deep``: agents scan deep into lazy rankings; xoshiro draws and
  ``IncrementalRanking.first_in`` take nearly all the time.
* ``wide``: thousands of ``Fraction`` thresholds; ``eliminate`` and
  ``update_thresholds`` take nearly all the time and draws almost none.
* ``audit``: the randomized audit at its default sizes, with mixed
  denominators, the static rule, eager shuffles, ``play()`` with stage
  records and certificates, and rejection-sampled configs.

``BENCHMARK.json`` gates ``grid`` and ``audit`` only, which between them
reach every layer: this host's speed swings by a fifth over tens of seconds,
so runs must be long, and four workloads of long runs do not fit the time
its runs are given.  ``deep`` and ``wide`` split the sweep's layers apart
(``deep``'s cells are inside ``grid``); ``report.py`` and ``run.py`` run
them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

# The package is imported from the checkout's own source tree, never from an
# installed copy, so the benchmark measures the code beside it.
SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "votegame" / "__init__.py").is_file():
    raise SystemExit(f"error: no votegame source tree at {SRC}")
sys.path.insert(0, str(SRC))

import votegame  # noqa: E402
from votegame import audit, experiments  # noqa: E402
from votegame.engine import LengthConvention  # noqa: E402

if not Path(votegame.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"error: votegame was imported from {votegame.__file__}")

FULL_ROWS = (10, 20, 40, 80)
SUBSAMPLED_ROWS = (160, 320, 640, 1280, 2560)
SUBSAMPLED_AGENTS = (2, 128, 256, 512)
GRID_CELLS = tuple(
    [(m, n) for m in FULL_ROWS for n in experiments.DEFAULT_AGENT_GRID]
    + [(m, n) for m in SUBSAMPLED_ROWS for n in SUBSAMPLED_AGENTS]
)
DEEP_CELLS = ((160, 512), (320, 256), (320, 512), (640, 512))
WIDE_CELLS = ((1280, 2), (2560, 2), (1280, 16), (2560, 16))

# Mean-length check: a cell's mean rounds over T trials must lie within
# MEAN_Z * sd / sqrt(T) + 1 / T of the reference mean recorded by
# reference.py.  The 1/T term absorbs one trial off by one round in cells
# whose reference spread is zero.  Fixed before any benchmark run.  The
# comparison is made on round totals, so that one trial off by one round
# passes exactly, and sd is at least 1/sqrt(N) for a reference of N trials:
# a cell that showed no spread in N trials can still have a 1-in-N event,
# as (2560, 2) has (both agents first name the same alternative, p = 1/m).
MEAN_Z = 8.0

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[tuple[int, int], ...]  # empty for the audit
    size: int           # trials per cell per pass, or games per audit pass
    jobs: int           # worker processes of an untraced pass
    traced_passes: int  # fixed work of a traced run, so its counts repeat
    reports: bool = False

    @property
    def games_per_pass(self) -> int:
        return self.size * len(self.cells) if self.cells else self.size


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid", GRID_CELLS, size=12, jobs=2, traced_passes=1, reports=True),
        Workload("deep", DEEP_CELLS, size=8, jobs=1, traced_passes=1),
        Workload("wide", WIDE_CELLS, size=120, jobs=1, traced_passes=4),
        Workload("audit", (), size=2000, jobs=1, traced_passes=3),
    )
}


def pass_seeds(workload: Workload, seed: int):
    """Endless master seeds of one run; the same seed gives the same inputs."""
    rng = random.Random(f"{workload.name}/{seed}")
    while True:
        yield rng.getrandbits(64)


def build(name: str, seed: int) -> tuple[Workload, int]:
    """Everything a run needs before its first game: the workload and the
    first pass's master seed."""
    workload = WORKLOADS[name]
    return workload, next(pass_seeds(workload, seed))


def load_reference(path: Path = REFERENCE_PATH) -> dict[tuple[int, int], tuple[float, float]]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    sd_floor = 1 / math.sqrt(doc["trials"])
    return {
        (c["alternatives"], c["agents"]): (c["mean"], max(c["sd"], sd_floor))
        for c in doc["cells"].values()
    }


def mean_within(m: int, n: int, trials: int, rounds_total: int, reference) -> bool:
    """Whether a cell's mean rounds over ``trials`` is near the reference."""
    ref_mean, ref_sd = reference[(m, n)]
    tolerance = MEAN_Z * ref_sd * math.sqrt(trials) + 1
    return abs(rounds_total - ref_mean * trials) <= tolerance


def check_cell(res, m: int, n: int, trials: int, reference) -> bool:
    """Output check of one cell, independent of the random stream."""
    if (res.alternatives, res.agents, res.trials) != (m, n, trials):
        return False
    if res.winner_count + res.all_eliminated_count != trials:
        return False
    if not trials <= res.rounds_total <= (m - 1) * trials:
        return False
    return mean_within(m, n, trials, res.rounds_total, reference)


def pooled_failures(counts: list, reference) -> int:
    """Cell results (of ``run_pass`` counts) whose cell fails the mean-length
    check pooled over all of them; a pass is too short to catch a small bias
    in a cell with few trials.  Audit counts carry no cells and never fail."""
    pooled: dict[tuple[int, int], list[int]] = {}
    for _, m, n, trials, _, _, rounds_total, _ in (c for c in counts if len(c) == 8):
        acc = pooled.setdefault((m, n), [0, 0, 0])
        acc[0] += 1
        acc[1] += trials
        acc[2] += rounds_total
    failed = 0
    for (m, n), (results, trials, rounds_total) in pooled.items():
        if not mean_within(m, n, trials, rounds_total, reference):
            failed += results
    return failed


def failed_games(report, games: int) -> int:
    """Audited games that fail the check; every game if the report is off."""
    if report.games != games or report.condition_stages < report.games:
        return games
    if report.passed:
        return 0
    return len({v.game_index for v in report.violations})


@dataclass
class PassOutcome:
    games: int
    units: int
    failed: int
    counts: list  # exact per-cell (or per-audit) counts, for the digest


def run_pass(
    workload: Workload, master_seed: int, reference, out_dir: Path,
    jobs: int, per_cell: bool,
) -> PassOutcome:
    """Run one pass.  ``per_cell`` calls ``run_cells`` once per cell, which
    gives the tracer one span per cell; it needs ``jobs == 1``."""
    if not workload.cells:
        return _audit_pass(workload, master_seed)
    units, failed, counts = len(workload.cells), 0, []
    trials = workload.size
    calls = [[c] for c in workload.cells] if per_cell else [workload.cells]
    report, cells = None, {}
    for call in calls:
        try:
            report = experiments.run_cells(
                call, trials, master_seed, LengthConvention.ROUNDS_PLUS_FINAL,
                jobs=1 if per_cell else jobs,
            )
        except Exception:
            continue  # a cell that raises has no result: counted failed below
        cells.update(report.cells)
    for (m, n) in workload.cells:
        res = cells.get((m, n))
        if res is None or not check_cell(res, m, n, trials, reference):
            failed += 1
        if res is not None:
            counts.append(
                (master_seed, m, n, res.trials, res.winner_count,
                 res.all_eliminated_count, res.rounds_total, res.rounds_sq_total)
            )
    if workload.reports and not (
        len(cells) == units
        and _write_reports(dataclasses.replace(report, cells=cells), out_dir)
    ):
        failed = units
    return PassOutcome(trials * units, units, failed, counts)


def _write_reports(report, out_dir: Path) -> bool:
    """Run the writers ``votegame sweep`` calls and check what they wrote."""
    try:
        trends = experiments.trend_check(report)
        out_dir.mkdir(parents=True, exist_ok=True)
        experiments.write_grid_csv(report, out_dir / "grid.csv")
        experiments.write_report_json(report, out_dir / "report.json")
        doc = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        rows = (out_dir / "grid.csv").read_text(encoding="utf-8").splitlines()
    except Exception:
        return False
    return (
        len(doc["cells"]) == len(report.cells)
        and len(rows) == 1 + len(report.alternative_counts())
        and len(trends.rows) + len(trends.columns)
        == len(report.alternative_counts()) + len(report.agent_counts())
    )


def _audit_pass(workload: Workload, master_seed: int) -> PassOutcome:
    games = workload.size
    try:
        report = audit.run_audit(
            trials=games, master_seed=master_seed, max_reported=games
        )
    except Exception:
        return PassOutcome(games, games, games, [])
    counts = [
        (master_seed, report.games, report.stages_checked,
         report.condition_stages, report.updating_games, len(report.violations))
    ]
    return PassOutcome(games, games, failed_games(report, games), counts)


def digest(counts: list) -> str:
    """Digest of a run's exact counts; for information, never gated on."""
    return hashlib.sha256(repr(sorted(counts)).encode()).hexdigest()[:16]
