"""Monte Carlo harness for average game length over an (m x n) grid.

Each cell (alternatives m, agents n) plays `trials` independent games with
one vote per agent, all thresholds initialized to 2n/m, uniform random
preferences, and the updating threshold rule.  Each trial draws from one
stream seeded by (master seed, m, n, trial), so adding or removing cells
never perturbs other cells, and trials can run in any order or in parallel
with identical results.

A trial never materializes a ranking; it plays the displaced-agent redraw.
An agent whose vote survives keeps it.  When an agent's vote is eliminated,
everything it has revealed of its uniform ranking has been eliminated, so
its next vote is uniform over the current survivors.  The game is therefore
equal in distribution to play() on uniform random profiles.
Round 1 needs only each agent's top choice, and the alternatives nobody
voted for, which all fall in round 1, enter as one synthetic alternative
carrying their summed threshold mass, so a trial costs O(n), not O(m).

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

from .engine import (
    LengthConvention,
    NonTerminating,
    Outcome,
    StageRecord,
    ThresholdRule,
    Winner,
    run_stages,
)
# unused here; kept because perfbench/tracer.py patches this name
from .prefs import incremental_rankings  # noqa: F401
from .rng import Xoshiro256StarStar, mix64

DEFAULT_AGENT_GRID = (2, 4, 8, 16, 32, 64, 128, 256, 512)
DEFAULT_ALTERNATIVE_GRID = (10, 20, 40, 80, 160, 320, 640, 1280, 2560)

THRESHOLD_INIT_RULE = "2n/m"  # the only supported initialization

# A trend survives moving each cell mean by this many standard errors.
TREND_TOLERANCE_SE = 2.0

# Published reference grid of average game lengths (100 trials per cell,
# alternatives x agents) that this harness reproduces under the
# rounds_plus_final convention.  Where m > 2n the mean is exactly
# 3 - m**(1 - n) under that convention, so even the small-agent corner
# matches: (10, 2) gives 2.9 against the published 2.89.
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

    def alternative_counts(self) -> list[int]:
        return sorted({m for m, _ in self.cells})

    def agent_counts(self) -> list[int]:
        return sorted({n for _, n in self.cells})


_SWEEP_STREAM_TAG = 0x7377656570  # domain separation from other streams
_UNVOTED = 0  # synthetic id for the round-1 block of unvoted alternatives


def _sweep_game(m: int, n: int, stream) -> tuple[list[StageRecord], Outcome]:
    """Play one sweep game by displaced-agent redraw (see the module
    docstring); return its stages and outcome.  Only ``stream.below`` is
    used: each agent's top choice in agent order, then, at each stage where
    some votes are no longer live, one draw over the sorted survivors per
    displaced agent, in agent order.  The unvoted alternatives are
    ``_UNVOTED``, which no one votes for, so round 1 eliminates it and
    redistributes exactly their threshold mass.
    """
    below = stream.below
    votes = [below(m) + 1 for _ in range(n)]
    threshold = Fraction(2 * n, m)
    initial = dict.fromkeys(votes, threshold)
    if len(initial) < m:
        initial[_UNVOTED] = (m - len(initial)) * threshold

    def vote(live: frozenset[int]) -> list[int]:
        nonlocal votes
        if not live.issuperset(votes):
            ordered = sorted(live)
            k = len(ordered)
            # a new list: earlier stage records keep the profile they saw
            votes = [x if x in live else ordered[below(k)] for x in votes]
        return votes

    return run_stages((1,) * n, initial, initial, vote, ThresholdRule.UPDATING)


def _run_trials(
    m: int, n: int, trials: range, master_seed: int
) -> tuple[int, int, int, int]:
    """Play the given trials of cell (m, n); return their integer sums
    (winners, all eliminated, rounds, squared rounds)."""
    if not 0 <= master_seed < 1 << 64:
        raise ValueError("master seed must fit in 64 unsigned bits")
    winner = all_eliminated = rounds_total = rounds_sq_total = 0
    for t in trials:
        stream = Xoshiro256StarStar(mix64(_SWEEP_STREAM_TAG, master_seed, m, n, t))
        stages, outcome = _sweep_game(m, n, stream)
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
    return winner, all_eliminated, rounds_total, rounds_sq_total


def _run_cell(m: int, n: int, trials: int, master_seed: int) -> CellResult:
    return CellResult(m, n, trials, *_run_trials(m, n, range(trials), master_seed))


def _range_worker(task: tuple[list, int]) -> list[tuple[int, int, int, int]]:
    ranges, master_seed = task
    return [_run_trials(m, n, r, master_seed) for m, n, r in ranges]


def run_cells(
    cells: Iterable[tuple[int, int]],
    trials: int,
    master_seed: int,
    length_convention: LengthConvention = LengthConvention.ROUNDS_PLAYED,
    jobs: int = 1,
) -> ExperimentReport:
    """Evaluate an explicit cell list (the sweep's engine room).

    `jobs` > 1 spreads the work over worker processes, one task per worker:
    task k holds the k-th of as many contiguous ranges of every cell's
    trials as there are workers, so the slowest cell is shared out rather
    than left to run alone at the end.  Results are identical for any job
    count because every trial's randomness comes from its own (master, m,
    n, trial) coordinates and a cell's sums are integers.
    """
    from . import __version__

    cell_list = list(dict.fromkeys(cells))
    # a pool forks all its workers up front, so never more than cells
    workers = min(jobs, len(cell_list)) if jobs > 1 and len(cell_list) > 1 else 1
    bounds = [trials * k // workers for k in range(workers + 1)]
    work = [
        ([(m, n, range(bounds[k], bounds[k + 1])) for m, n in cell_list], master_seed)
        for k in range(workers)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            sums = list(pool.map(_range_worker, work))
    else:
        sums = list(map(_range_worker, work))
    # zip(*sums) regroups the workers' sums by cell
    results = {
        (m, n): CellResult(m, n, trials, *map(sum, zip(*parts)))
        for (m, n), parts in zip(cell_list, zip(*sums))
    }
    return ExperimentReport(
        master_seed=master_seed,
        trials=trials,
        length_convention=length_convention,
        engine_version=__version__,
        cells=results,
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
    feasible_peaks: tuple[int, ...]

    @property
    def rise_then_fall(self) -> bool:
        """Unimodal with a peak strictly inside the range; a peak available
        only at a boundary is not a rise-then-fall confirmation."""
        last = len(self.keys) - 1
        return any(0 < p < last for p in self.feasible_peaks)

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


def _trend_for(
    report: ExperimentReport,
    axis: str,
    fixed: int,
    cells: Sequence[tuple[int, int]],
) -> TrendResult:
    convention = report.length_convention
    means = tuple(float(report.cells[c].mean_length(convention)) for c in cells)
    tolerances = tuple(
        TREND_TOLERANCE_SE * report.cells[c].std_error() for c in cells
    )
    return TrendResult(
        axis=axis,
        fixed=fixed,
        keys=tuple(n if axis == "agents" else m for m, n in cells),
        means=means,
        feasible_peaks=_feasible_peaks(means, tolerances),
    )


def trend_check(report: ExperimentReport) -> TrendReport:
    """Check the two expected shape properties of the length surface.

    Rows: at fixed alternative count, mean length over increasing agent
    count should rise to a peak and then fall.  Columns: at fixed agent
    count, the same should hold as the alternative count decreases.  A
    sequence passes if it can be made non-decreasing-then-non-increasing by
    moving each mean at most `TREND_TOLERANCE_SE` standard errors.
    """
    cells = sorted(report.cells)
    rows = tuple(
        _trend_for(report, "agents", m, [c for c in cells if c[0] == m])
        for m in report.alternative_counts()
    )
    columns = tuple(
        _trend_for(report, "alternatives", n, [c for c in cells[::-1] if c[1] == n])
        for n in report.agent_counts()
    )
    return TrendReport(rows=rows, columns=columns)


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
