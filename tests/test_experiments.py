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
    SweepSpec,
    _feasible_peaks,
    _run_cell,
    calibrate_convention,
    grid_csv,
    report_to_dict,
    run_cells,
    run_sweep,
    trend_check,
)
from votegame.prefs import Seed, UniformRandom, generate
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
        SweepSpec(trials=0)
    with pytest.raises(ValueError):
        SweepSpec(alternative_counts=(1, 10))
    with pytest.raises(ValueError):
        SweepSpec(agent_counts=())


def test_sweep_spec_file_round_trip(tmp_path):
    spec = SweepSpec(
        alternative_counts=(10, 20),
        agent_counts=(2, 4),
        trials=7,
        master_seed=123,
        length_convention=LengthConvention.ROUNDS_PLUS_FINAL,
    )
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
    assert read_sweep_spec(path) == spec


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
            preferences=tuple(p.ranking for p in generate(UniformRandom(n, m, seed))),
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
    serial = run_cells(cells, trials=40, master_seed=3, jobs=1)
    parallel = run_cells(cells, trials=40, master_seed=3, jobs=2)
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


def test_report_rates_and_exact_means():
    report = run_cells([(10, 2)], trials=50, master_seed=1)
    cell = report.cells[(10, 2)]
    assert cell.winner_rate + cell.all_eliminated_rate == 1
    mean_rp = cell.mean_length(LengthConvention.ROUNDS_PLAYED)
    mean_rpf = cell.mean_length(LengthConvention.ROUNDS_PLUS_FINAL)
    assert mean_rpf == mean_rp + 1
    assert mean_rp == Fraction(cell.rounds_total, 50)


def test_run_sweep_covers_the_grid():
    spec = SweepSpec(
        alternative_counts=(10, 20), agent_counts=(2, 4), trials=5, master_seed=2
    )
    report = run_sweep(spec)
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


# --- convention calibration -------------------------------------------------


def test_calibrate_convention_reports_both_gaps():
    report = calibrate_convention(trials=300, master_seed=11)
    assert len(report.cells) == 3
    for cell in report.cells:
        assert cell.gap_rounds_played >= 0
        assert cell.gap_rounds_plus_final >= 0
        assert cell.mean_rounds_plus_final == cell.mean_rounds_played + 1
    # small-agent games here end in exactly two rounds, so adding a terminal
    # round lands on the reference plateau while rounds-played sits 1 below
    assert report.recommended is LengthConvention.ROUNDS_PLUS_FINAL


def test_calibrate_convention_rejects_unknown_cell():
    with pytest.raises(ValueError):
        calibrate_convention(trials=10, cells=[(11, 2)])
