import json
from fractions import Fraction

import pytest

from votegame import experiments
from votegame.core import GameConfig
from votegame.engine import LengthConvention, NonTerminating, Winner, play
from votegame.experiments import (
    DEFAULT_AGENT_GRID,
    DEFAULT_ALTERNATIVE_GRID,
    REFERENCE_AVG_LENGTHS,
    _feasible_peaks,
    _run_cell,
    grid_csv,
    report_to_dict,
    run_cells,
    trend_check,
)
from votegame.prefs import Seed, generate
from votegame.rng import mix64
from votegame.serialize import read_sweep_spec, sweep_spec_from_dict


def test_default_grids_match_reference_table_shape():
    assert len(DEFAULT_AGENT_GRID) == 9
    assert len(DEFAULT_ALTERNATIVE_GRID) == 9
    assert len(REFERENCE_AVG_LENGTHS) == 81
    assert REFERENCE_AVG_LENGTHS[(10, 512)] == 2.00
    assert REFERENCE_AVG_LENGTHS[(2560, 2)] == 3.00
    assert REFERENCE_AVG_LENGTHS[(40, 32)] == 3.12


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        sweep_spec_from_dict({"trials": 0})
    with pytest.raises(ValueError):
        sweep_spec_from_dict({"alternative_counts": [1, 10]})
    with pytest.raises(ValueError, match="both grid axes must be nonempty"):
        sweep_spec_from_dict({"agent_counts": []})


def test_sweep_spec_file_round_trip(tmp_path, monkeypatch):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "alternative_counts": [10, 20],
                "agent_counts": [2, 4],
                "trials": 7,
                "master_seed": 123,
                "length_convention": "rounds_plus_final",
            }
        )
    )
    assert read_sweep_spec(path) == {
        "cells": [(10, 2), (10, 4), (20, 2), (20, 4)],
        "trials": 7,
        "master_seed": 123,
        "length_convention": LengthConvention.ROUNDS_PLUS_FINAL,
    }
    monkeypatch.delenv("VOTEGAME_SEED", raising=False)
    assert sweep_spec_from_dict({}) == {
        "cells": [(m, n) for m in DEFAULT_ALTERNATIVE_GRID for n in DEFAULT_AGENT_GRID],
        "trials": 100,
        "master_seed": 0,
        "length_convention": LengthConvention.ROUNDS_PLAYED,
    }


def test_sweep_spec_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown"):
        sweep_spec_from_dict({"trials": 3, "color": "red"})


# --- cell evaluation --------------------------------------------------------


def test_cell_results_are_deterministic():
    a = _run_cell(10, 16, 40, 77)
    b = _run_cell(10, 16, 40, 77)
    assert a == b
    # (10, 16) has real length variance, so a new master seed shows up
    c = _run_cell(10, 16, 40, 78)
    assert a != c


def test_cell_matches_full_engine_on_materialized_preferences():
    # the sweep's lazily revealed rankings must realize exactly the games the
    # reference path plays with fully materialized preference orders
    m, n, trials, master = 6, 4, 30, 424242
    rounds = winners = 0
    for t in range(trials):
        seed = Seed(master, mix64(m, n, t))
        config = GameConfig(
            weights=(1,) * n,
            alternatives=frozenset(range(1, m + 1)),
            preferences=generate(n, m, seed),
            initial_thresholds={x: Fraction(2 * n, m) for x in range(1, m + 1)},
        )
        trace = play(config)
        assert not isinstance(trace.outcome, NonTerminating)
        rounds += trace.rounds_played
        winners += isinstance(trace.outcome, Winner)
    cell = _run_cell(m, n, trials, master)
    assert cell.rounds_total == rounds
    assert cell.winner_count == winners
    assert cell.decided == trials


def test_run_cells_parallel_equals_serial():
    cells = [(10, 2), (10, 4), (20, 2)]
    # each cell's trials are split across the workers: evenly, unevenly,
    # and with fewer trials than workers (an empty range)
    for trials, jobs in ((40, 2), (7, 2), (7, 3), (1, 2)):
        serial = run_cells(cells, trials=trials, master_seed=3, jobs=1)
        parallel = run_cells(cells, trials=trials, master_seed=3, jobs=jobs)
        assert list(parallel.cells) == cells
        assert serial.cells == parallel.cells
        assert report_to_dict(serial) == report_to_dict(parallel)


def test_pool_never_has_more_workers_than_cells(monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return map(fn, work)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    run_cells([(10, 2), (10, 4), (20, 2)], trials=2, master_seed=1, jobs=64)
    run_cells([(10, 2), (10, 4), (20, 2)], trials=2, master_seed=1, jobs=2)
    assert sizes == [3, 2]


@pytest.mark.parametrize("trials, jobs", [(7, 3), (1, 2), (10, 64)])
def test_each_cell_splits_into_ranges_that_partition_its_trials(
    monkeypatch, trials, jobs
):
    tasks = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            work = list(work)
            tasks.append((self.workers, work))
            return map(fn, work)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    cells = [(10, 2), (10, 4), (20, 2)]
    run_cells(cells, trials=trials, master_seed=1, jobs=jobs)
    [(workers, work)] = tasks
    assert workers == min(jobs, len(cells))
    assert len(work) == workers * len(cells)
    for i, cell in enumerate(cells):
        of_cell = work[i * workers:(i + 1) * workers]
        assert {(m, n) for m, n, _, _ in of_cell} == {cell}
        assert [t for _, _, r, _ in of_cell for t in r] == list(range(trials))


def test_report_rates_and_exact_means():
    report = run_cells([(10, 2)], trials=50, master_seed=1)
    cell = report.cells[(10, 2)]
    assert cell.winner_rate + cell.all_eliminated_rate == 1
    mean_rp = cell.mean_length(LengthConvention.ROUNDS_PLAYED)
    mean_rpf = cell.mean_length(LengthConvention.ROUNDS_PLUS_FINAL)
    assert mean_rpf == mean_rp + 1
    assert mean_rp == Fraction(cell.rounds_total, 50)


def test_spec_cells_cover_the_grid():
    spec = sweep_spec_from_dict(
        {"alternative_counts": [10, 20], "agent_counts": [2, 4], "trials": 5,
         "master_seed": 2}
    )
    report = run_cells(**spec)
    assert set(report.cells) == {(10, 2), (10, 4), (20, 2), (20, 4)}


def test_grid_csv_layout():
    report = run_cells(
        [(10, 2), (10, 4), (20, 2), (20, 4)],
        trials=5,
        master_seed=2,
        length_convention=LengthConvention.ROUNDS_PLUS_FINAL,
    )
    text = grid_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "alternatives\\agents,2,4"
    assert lines[1].startswith("10,")
    assert lines[2].startswith("20,")
    assert len(lines) == 3


# --- trend machinery --------------------------------------------------------


def test_feasible_peaks_constant_sequence():
    peaks = _feasible_peaks([3.0, 3.0, 3.0, 3.0], [0.0] * 4)
    assert peaks == (0, 1, 2, 3)


def test_feasible_peaks_strictly_increasing_is_boundary_only():
    peaks = _feasible_peaks([1.0, 2.0, 3.0], [0.0] * 3)
    assert peaks == (2,)


def test_feasible_peaks_strictly_decreasing_is_boundary_only():
    peaks = _feasible_peaks([3.0, 2.0, 1.0], [0.0] * 3)
    assert peaks == (0,)


def test_feasible_peaks_reference_row_shape():
    means = [3.00, 3.00, 3.00, 3.00, 3.12, 2.90, 2.49, 2.16, 2.00]
    assert _feasible_peaks(means, [0.0] * 9) == (4,)


def test_feasible_peaks_tolerance_absorbs_noise():
    means = [2.98, 3.00, 3.00, 4.02, 3.09, 3.29, 2.00]
    assert not _feasible_peaks(means, [0.0] * 7)
    peaks = _feasible_peaks(means, [0.11] * 7)
    assert 3 in peaks


def test_feasible_peaks_not_unimodal_at_all():
    assert _feasible_peaks([1.0, 5.0, 1.0, 5.0, 1.0], [0.1] * 5) == ()


def test_trend_check_rows_and_columns():
    report = run_cells(
        [(m, n) for m in (10, 20) for n in (2, 4, 8)],
        trials=30,
        master_seed=6,
        length_convention=LengthConvention.ROUNDS_PLUS_FINAL,
    )
    trends = trend_check(report)
    assert {r.fixed for r in trends.rows} == {10, 20}
    assert {c.fixed for c in trends.columns} == {2, 4, 8}
    row = trends.rows[0]
    assert row.keys == (2, 4, 8)
    col = trends.columns[0]
    assert col.keys == (20, 10)  # columns scan decreasing alternative counts
