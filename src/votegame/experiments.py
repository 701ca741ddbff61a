"""Monte Carlo harness for average game length over an (m x n) grid.

Each cell (alternatives m, agents n) plays `trials` independent games with
one vote per agent, all thresholds initialized to 2n/m, uniform random
preferences, and the updating threshold rule.  Trial randomness is derived
from (master seed, m, n, trial), so adding or removing cells never perturbs
other cells, and trials can run in any order or in parallel with identical
results.

Because the initial threshold mass 2n strictly exceeds the vote mass n and
the updating rule conserves it, every stage of every trial eliminates at
least one alternative; the harness asserts that (and the m-1 length bound)
on every game it plays.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

from .core import InvalidConfig
from .engine import (
    EngineOptions,
    LengthConvention,
    NonTerminating,
    ThresholdRule,
    Winner,
    run_stages,
)
from .prefs import Seed, incremental_rankings
from .rng import mix64

DEFAULT_AGENT_GRID = (2, 4, 8, 16, 32, 64, 128, 256, 512)
DEFAULT_ALTERNATIVE_GRID = (10, 20, 40, 80, 160, 320, 640, 1280, 2560)

THRESHOLD_INIT_RULE = "2n/m"  # the only supported initialization

# Published reference grid of average game lengths (100 trials per cell,
# alternatives x agents) that this harness reproduces.  The small-agent
# corner is known not to match any engine counting convention exactly; see
# calibrate_convention.
_REFERENCE_ROWS: dict[int, tuple[float, ...]] = {
    10: (2.89, 3.00, 2.66, 2.15, 2.01, 2.00, 2.00, 2.00, 2.00),
    20: (2.96, 3.00, 3.00, 2.99, 2.49, 2.20, 2.01, 2.00, 2.00),
    40: (3.00, 3.00, 3.00, 3.00, 3.12, 2.90, 2.49, 2.16, 2.00),
    80: (3.00, 3.00, 3.00, 3.00, 3.00, 3.37, 3.03, 3.05, 2.37),
    160: (2.98, 3.00, 3.00, 3.00, 3.00, 3.00, 4.02, 3.09, 3.29),
    320: (2.99, 3.00, 3.00, 3.00, 3.00, 3.00, 3.00, 4.34, 3.10),
    640: (3.00, 3.00, 3.00, 3.00, 3.00, 3.00, 3.00, 3.00, 4.52),
    1280: (3.00, 3.00, 3.00, 3.00, 3.00, 3.00, 3.00, 3.00, 3.00),
    2560: (3.00, 3.00, 3.00, 3.00, 3.00, 3.00, 3.00, 3.00, 3.00),
}
REFERENCE_AVG_LENGTHS: dict[tuple[int, int], float] = {
    (m, n): value
    for m, row in _REFERENCE_ROWS.items()
    for n, value in zip(DEFAULT_AGENT_GRID, row)
}


@dataclass(frozen=True)
class SweepSpec:
    alternative_counts: tuple[int, ...] = DEFAULT_ALTERNATIVE_GRID
    agent_counts: tuple[int, ...] = DEFAULT_AGENT_GRID
    trials: int = 100
    master_seed: int = 0
    length_convention: LengthConvention = LengthConvention.ROUNDS_PLAYED

    def __post_init__(self):
        object.__setattr__(
            self, "alternative_counts", tuple(self.alternative_counts)
        )
        object.__setattr__(self, "agent_counts", tuple(self.agent_counts))
        if self.trials < 1:
            raise InvalidConfig("trials must be at least 1")
        if not self.alternative_counts or not self.agent_counts:
            raise InvalidConfig("both grid axes must be nonempty")
        if any(m < 2 for m in self.alternative_counts):
            raise InvalidConfig("alternative counts must be at least 2")
        if any(n < 1 for n in self.agent_counts):
            raise InvalidConfig("agent counts must be at least 1")

    def cells(self) -> list[tuple[int, int]]:
        return [
            (m, n) for m in self.alternative_counts for n in self.agent_counts
        ]


@dataclass(frozen=True)
class CellResult:
    """Aggregated lengths and outcome counts for one (m, n) cell."""

    alternatives: int
    agents: int
    trials: int
    winner_count: int
    all_eliminated_count: int
    rounds_total: int     # rounds played, summed over decided trials
    rounds_sq_total: int  # sum of squared rounds, for standard errors

    @property
    def decided(self) -> int:
        return self.winner_count + self.all_eliminated_count

    @property
    def winner_rate(self) -> Fraction:
        return Fraction(self.winner_count, self.trials)

    @property
    def all_eliminated_rate(self) -> Fraction:
        return Fraction(self.all_eliminated_count, self.trials)

    def mean_length(self, convention: LengthConvention) -> Fraction:
        """Exact mean game length over decided trials."""
        if self.decided == 0:
            raise ValueError("cell has no decided trials")
        mean = Fraction(self.rounds_total, self.decided)
        if convention is LengthConvention.ROUNDS_PLUS_FINAL:
            mean += 1
        return mean

    def std_error(self) -> float:
        """Standard error of the mean length (convention-independent)."""
        d = self.decided
        if d <= 1:
            return 0.0
        mean = self.rounds_total / d
        var = max(0.0, self.rounds_sq_total / d - mean * mean) * d / (d - 1)
        return math.sqrt(var / d)


@dataclass(frozen=True)
class ExperimentReport:
    master_seed: int
    trials: int
    length_convention: LengthConvention
    engine_version: str
    cells: dict[tuple[int, int], CellResult] = field(default_factory=dict)

    def mean_length(
        self, m: int, n: int, convention: Optional[LengthConvention] = None
    ) -> Fraction:
        return self.cells[(m, n)].mean_length(convention or self.length_convention)

    def alternative_counts(self) -> list[int]:
        return sorted({m for m, _ in self.cells})

    def agent_counts(self) -> list[int]:
        return sorted({n for _, n in self.cells})


def _run_cell(m: int, n: int, trials: int, master_seed: int) -> CellResult:
    threshold = Fraction(2 * n, m)
    initial_thresholds = {x: threshold for x in range(1, m + 1)}
    weights = {agent: 1 for agent in range(1, n + 1)}
    options = EngineOptions(threshold_rule=ThresholdRule.UPDATING)
    winner = all_eliminated = rounds_total = rounds_sq_total = 0
    for t in range(trials):
        seed = Seed(master_seed, mix64(m, n, t))
        rankings = incremental_rankings(n, m, seed)
        choosers = {
            agent: rankings[agent - 1].first_in for agent in range(1, n + 1)
        }
        stages, outcome = run_stages(
            weights, range(1, m + 1), initial_thresholds, choosers, options
        )
        k = len(stages)
        if isinstance(outcome, NonTerminating) or k > m - 1:
            raise RuntimeError(
                f"elimination guarantee broken at cell ({m}, {n}) trial {t}: "
                f"{outcome!r} after {k} stages"
            )
        if isinstance(outcome, Winner):
            winner += 1
        else:
            all_eliminated += 1
        rounds_total += k
        rounds_sq_total += k * k
    return CellResult(
        alternatives=m,
        agents=n,
        trials=trials,
        winner_count=winner,
        all_eliminated_count=all_eliminated,
        rounds_total=rounds_total,
        rounds_sq_total=rounds_sq_total,
    )


def _cell_worker(args: tuple[int, int, int, int]) -> tuple[tuple[int, int], CellResult]:
    m, n, trials, master_seed = args
    return (m, n), _run_cell(m, n, trials, master_seed)


def run_cells(
    cells: Iterable[tuple[int, int]],
    trials: int,
    master_seed: int,
    length_convention: LengthConvention = LengthConvention.ROUNDS_PLAYED,
    jobs: int = 1,
) -> ExperimentReport:
    """Evaluate an explicit cell list (the sweep's engine room).

    Cells are independent work units; `jobs` > 1 spreads them over worker
    processes.  Results are identical for any job count because every trial's
    randomness comes from its own (master, m, n, trial) coordinates.
    """
    from . import __version__

    cell_list = list(dict.fromkeys(cells))
    work = [(m, n, trials, master_seed) for m, n in cell_list]
    results: dict[tuple[int, int], CellResult] = {}
    if jobs > 1 and len(work) > 1:
        # a pool forks all its workers up front, so never more than cells
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            for key, res in pool.map(_cell_worker, work):
                results[key] = res
    else:
        for args in work:
            key, res = _cell_worker(args)
            results[key] = res
    return ExperimentReport(
        master_seed=master_seed,
        trials=trials,
        length_convention=length_convention,
        engine_version=__version__,
        cells=results,
    )


def run_sweep(spec: SweepSpec, jobs: int = 1) -> ExperimentReport:
    """Run the full rectangular sweep described by a spec."""
    return run_cells(
        spec.cells(),
        trials=spec.trials,
        master_seed=spec.master_seed,
        length_convention=spec.length_convention,
        jobs=jobs,
    )


# ---------------------------------------------------------------------------
# Trend analysis


def _feasible_peaks(
    means: Sequence[float], tolerances: Sequence[float]
) -> tuple[int, ...]:
    """Indices p such that the sequence is rise-then-fall with peak p after
    perturbing each element by at most its tolerance."""
    k = len(means)
    lo = [m - t for m, t in zip(means, tolerances)]
    hi = [m + t for m, t in zip(means, tolerances)]
    # minimal non-decreasing chain over each prefix
    fwd_ok = [False] * k
    cur, ok = -math.inf, True
    for i in range(k):
        cur = max(cur, lo[i])
        ok = ok and cur <= hi[i]
        fwd_ok[i] = ok
    # minimal non-increasing chain over each suffix (scanned from the right)
    bwd_ok = [False] * k
    cur, ok = -math.inf, True
    for i in range(k - 1, -1, -1):
        cur = max(cur, lo[i])
        ok = ok and cur <= hi[i]
        bwd_ok[i] = ok
    return tuple(p for p in range(k) if fwd_ok[p] and bwd_ok[p])


@dataclass(frozen=True)
class TrendResult:
    axis: str  # "agents": n grows at fixed m; "alternatives": m shrinks at fixed n
    fixed: int
    keys: tuple[int, ...]
    means: tuple[float, ...]
    tolerances: tuple[float, ...]
    feasible_peaks: tuple[int, ...]

    @property
    def unimodal(self) -> bool:
        return bool(self.feasible_peaks)

    @property
    def interior_peak(self) -> bool:
        last = len(self.keys) - 1
        return any(0 < p < last for p in self.feasible_peaks)

    @property
    def rise_then_fall(self) -> bool:
        """Unimodal with a peak strictly inside the range; a peak available
        only at a boundary is not a rise-then-fall confirmation."""
        return self.unimodal and self.interior_peak

    @property
    def peak_key(self) -> Optional[int]:
        if not self.feasible_peaks:
            return None
        last = len(self.keys) - 1
        candidates = [p for p in self.feasible_peaks if 0 < p < last]
        if not candidates:
            candidates = list(self.feasible_peaks)
        best = max(candidates, key=lambda p: (self.means[p], -p))
        return self.keys[best]


@dataclass(frozen=True)
class TrendReport:
    rows: tuple[TrendResult, ...]
    columns: tuple[TrendResult, ...]

    @property
    def all_rise_then_fall(self) -> bool:
        return all(r.rise_then_fall for r in self.rows + self.columns)


def _trend_for(
    report: ExperimentReport,
    axis: str,
    fixed: int,
    keys: Sequence[int],
    cells: Sequence[tuple[int, int]],
    tolerance_se: float,
) -> TrendResult:
    convention = report.length_convention
    means = tuple(float(report.cells[c].mean_length(convention)) for c in cells)
    tolerances = tuple(
        tolerance_se * report.cells[c].std_error() for c in cells
    )
    return TrendResult(
        axis=axis,
        fixed=fixed,
        keys=tuple(keys),
        means=means,
        tolerances=tolerances,
        feasible_peaks=_feasible_peaks(means, tolerances),
    )


def trend_check(
    report: ExperimentReport,
    rows: Optional[Sequence[int]] = None,
    columns: Optional[Sequence[int]] = None,
    tolerance_se: float = 2.0,
) -> TrendReport:
    """Check the two expected shape properties of the length surface.

    Rows: at fixed alternative count, mean length over increasing agent
    count should rise to a peak and then fall.  Columns: at fixed agent
    count, the same should hold as the alternative count decreases.  A
    sequence passes if it can be made non-decreasing-then-non-increasing by
    moving each mean at most `tolerance_se` standard errors.
    """
    if rows is None:
        rows = report.alternative_counts()
    if columns is None:
        columns = report.agent_counts()
    row_results = []
    for m in rows:
        ns = sorted(n for mm, n in report.cells if mm == m)
        row_results.append(
            _trend_for(report, "agents", m, ns, [(m, n) for n in ns], tolerance_se)
        )
    col_results = []
    for n in columns:
        ms = sorted((m for m, nn in report.cells if nn == n), reverse=True)
        col_results.append(
            _trend_for(
                report, "alternatives", n, ms, [(m, n) for m in ms], tolerance_se
            )
        )
    return TrendReport(rows=tuple(row_results), columns=tuple(col_results))


# ---------------------------------------------------------------------------
# Length-convention calibration


@dataclass(frozen=True)
class CellCalibration:
    alternatives: int
    agents: int
    reference: float
    mean_rounds_played: Fraction
    mean_rounds_plus_final: Fraction

    @property
    def gap_rounds_played(self) -> float:
        return abs(float(self.mean_rounds_played) - self.reference)

    @property
    def gap_rounds_plus_final(self) -> float:
        return abs(float(self.mean_rounds_plus_final) - self.reference)


@dataclass(frozen=True)
class ConventionReport:
    trials: int
    master_seed: int
    cells: tuple[CellCalibration, ...]

    @property
    def total_gap_rounds_played(self) -> float:
        return sum(c.gap_rounds_played for c in self.cells)

    @property
    def total_gap_rounds_plus_final(self) -> float:
        return sum(c.gap_rounds_plus_final for c in self.cells)

    @property
    def recommended(self) -> LengthConvention:
        if self.total_gap_rounds_plus_final <= self.total_gap_rounds_played:
            return LengthConvention.ROUNDS_PLUS_FINAL
        return LengthConvention.ROUNDS_PLAYED


def calibrate_convention(
    trials: int = 10_000,
    master_seed: int = 0,
    cells: Sequence[tuple[int, int]] = ((10, 2), (10, 4), (10, 8)),
    jobs: int = 1,
) -> ConventionReport:
    """Measure small cells under both length conventions against references.

    Reports each cell's mean and its absolute deviation from the reference
    value under each convention, and recommends the convention with the
    smaller total deviation.  The recommendation is empirical, not a claim
    about how the reference study counted.
    """
    for cell in cells:
        if cell not in REFERENCE_AVG_LENGTHS:
            raise ValueError(f"no reference value for cell {cell}")
    report = run_cells(cells, trials, master_seed, jobs=jobs)
    calibrations = []
    for m, n in cells:
        res = report.cells[(m, n)]
        calibrations.append(
            CellCalibration(
                alternatives=m,
                agents=n,
                reference=REFERENCE_AVG_LENGTHS[(m, n)],
                mean_rounds_played=res.mean_length(LengthConvention.ROUNDS_PLAYED),
                mean_rounds_plus_final=res.mean_length(
                    LengthConvention.ROUNDS_PLUS_FINAL
                ),
            )
        )
    return ConventionReport(
        trials=trials, master_seed=master_seed, cells=tuple(calibrations)
    )


# ---------------------------------------------------------------------------
# Report files


def grid_csv(report: ExperimentReport) -> str:
    """Mean-length grid, rows = alternative counts, columns = agent counts."""
    ns = report.agent_counts()
    lines = ["alternatives\\agents," + ",".join(str(n) for n in ns)]
    for m in report.alternative_counts():
        row = [str(m)]
        for n in ns:
            cell = report.cells.get((m, n))
            row.append(
                f"{float(cell.mean_length(report.length_convention)):.2f}"
                if cell is not None
                else ""
            )
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def write_grid_csv(report: ExperimentReport, path: str | Path) -> None:
    Path(path).write_text(grid_csv(report), encoding="utf-8")


def report_to_dict(report: ExperimentReport) -> dict[str, Any]:
    cells = {}
    for (m, n), res in sorted(report.cells.items()):
        cells[f"{m}x{n}"] = {
            "alternatives": m,
            "agents": n,
            "trials": res.trials,
            "mean_length": float(res.mean_length(report.length_convention)),
            "mean_length_exact": str(res.mean_length(report.length_convention)),
            "std_error": res.std_error(),
            "winner_rate": float(res.winner_rate),
            "all_eliminated_rate": float(res.all_eliminated_rate),
        }
    return {
        "master_seed": report.master_seed,
        "trials": report.trials,
        "length_convention": report.length_convention.value,
        "threshold_init": THRESHOLD_INIT_RULE,
        "engine_version": report.engine_version,
        "cells": cells,
    }


def write_report_json(report: ExperimentReport, path: str | Path) -> None:
    text = json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")
