import json
import math
from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from naive_engine import closed_form_rounds_played, exhaustive_profiles
from test_oracle import outcome_kind, sweep_config

from votegame import experiments
from votegame.engine import LengthConvention, ThresholdRule, play, run_stages
from votegame.experiments import (
    DEFAULT_AGENT_GRID,
    DEFAULT_ALTERNATIVE_GRID,
    REFERENCE_AVG_LENGTHS,
    _feasible_peaks,
    _run_cell,
    _sweep_game,
    grid_csv,
    report_to_dict,
    run_cells,
    trend_check,
)
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


def test_master_seed_must_fit_in_64_bits():
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="64 unsigned bits"):
            _run_cell(10, 2, 1, seed)


def test_cell_results_are_deterministic():
    a = _run_cell(10, 16, 40, 77)
    b = _run_cell(10, 16, 40, 77)
    assert a == b
    # (10, 16) has real length variance, so a new master seed shows up
    c = _run_cell(10, 16, 40, 78)
    assert a != c


class DrawTree:
    """A stream that walks every path of a game's draw tree depth-first.

    ``below(k)`` replays the scripted path and extends it with 0; each call
    branches k ways with weight 1/k.  ``advance`` moves to the next path."""

    def __init__(self):
        self.path = []  # [draw, bound] per below() call
        self.pos = 0

    def below(self, bound):
        if self.pos == len(self.path):
            self.path.append([0, bound])
        draw, scripted = self.path[self.pos]
        assert scripted == bound  # same draws so far, same game so far
        self.pos += 1
        return draw

    def weight(self):
        assert self.pos == len(self.path)
        return math.prod(Fraction(1, bound) for _, bound in self.path)

    def advance(self):
        while self.path and self.path[-1][0] + 1 == self.path[-1][1]:
            self.path.pop()
        if not self.path:
            return False
        self.path[-1][0] += 1
        self.pos = 0
        return True


def signature(stages, outcome):
    """A game up to relabelling: its outcome kind and, stage by stage, the
    survivors' (tally, updated threshold) pairs.  The number of stages is
    the rounds played."""
    return outcome_kind(outcome)[0], tuple(
        tuple(sorted((s.tally[x], s.thresholds_after[x]) for x in s.survivors))
        for s in stages
    )


def draw_tree_law(game):
    """Exact law of the signature of ``game(stream)`` over every path of its
    draw tree, and the most draws any path made."""
    tree, law, longest = DrawTree(), defaultdict(Fraction), 0
    while True:
        law[signature(*game(tree))] += tree.weight()
        longest = max(longest, len(tree.path))
        if not tree.advance():
            return dict(law), longest


def sweep_game_law(m, n):
    return draw_tree_law(lambda stream: _sweep_game(m, n, stream))


def revealed_rankings_law(m, n):
    """Law of sweep games on uniform rankings of all m alternatives, each
    revealed one position at a time, uniformly over its unseen alternatives,
    when the engine asks for the agent's first live choice."""

    def agent(stream):
        ranking, unseen = [], list(range(1, m + 1))

        def choose(live):
            for x in ranking:
                if x in live:
                    return x
            while True:
                ranking.append(unseen.pop(stream.below(len(unseen))))
                if ranking[-1] in live:
                    return ranking[-1]

        return choose

    def game(stream):
        thresholds = dict.fromkeys(range(1, m + 1), Fraction(2 * n, m))
        choosers = [agent(stream) for _ in range(n)]
        return run_stages(
            (1,) * n, thresholds, thresholds, choosers, ThresholdRule.UPDATING
        )

    return draw_tree_law(game)


def play_law(m, n):
    """Law of `play` over every profile.  With uniform thresholds
    relabelling is a symmetry that keeps signatures, so fixing agent 1's
    ranking leaves the law unchanged."""
    identity = tuple(range(1, m + 1))
    profiles = [(identity, *rest) for rest in exhaustive_profiles(m, n - 1)]
    counts = Counter()
    for profile in profiles:
        trace = play(sweep_config(m, profile))
        counts[signature(trace.stages, trace.outcome)] += 1
    return {key: Fraction(c, len(profiles)) for key, c in counts.items()}


def never_stuck(law):
    return all(kind != "non_terminating" for kind, _ in law)


@pytest.mark.parametrize(
    "m, n", [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (5, 2)]
)
def test_sweep_game_law_equals_play_on_every_profile(m, n):
    law, _ = sweep_game_law(m, n)
    assert never_stuck(law)
    assert law == play_law(m, n)
    # the oracle of the next test, checked where play can be enumerated
    assert revealed_rankings_law(m, n)[0] == law


def test_displaced_agents_redraw_as_revealed_rankings_would():
    # no agent ever redraws in the cells above; here some do
    m, n = 5, 5
    law, longest = sweep_game_law(m, n)
    assert longest > n
    assert never_stuck(law)
    assert law == revealed_rankings_law(m, n)[0]


@pytest.mark.parametrize("m, n", [(7, 3), (9, 4)])
def test_sweep_game_mean_equals_the_closed_form(m, n):
    law, _ = sweep_game_law(m, n)
    assert never_stuck(law)
    mean = sum(len(stages) * p for (_, stages), p in law.items())
    assert mean == closed_form_rounds_played(m, n)


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
