"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The heavy randomized suites are shared through session fixtures so
the whole module costs one audit run plus one Monte Carlo sweep.
"""

import json
import math
from importlib import resources

import pytest

from naive_engine import closed_form_rounds_played
from test_oracle import compare_exhaustively

from votegame.audit import run_audit
from votegame.cli import _resolve_config_path, main as cli_main
from votegame.engine import LengthConvention, NonTerminating, play
from votegame.experiments import (
    DEFAULT_AGENT_GRID,
    REFERENCE_AVG_LENGTHS,
    run_cells,
    trend_check,
)
from votegame.serialize import load_run_config

MASTER_SEED = 20260811
SWEEP_TRIALS = 1000

FULL_ROWS = (10, 20, 40, 80)
SUBSAMPLED_ROWS = (160, 320, 640, 1280, 2560)
SUBSAMPLED_AGENTS = (2, 128, 256, 512)


def _report(line: str) -> None:
    print(f"\n{line}")


@pytest.fixture(scope="session")
def audit_10k():
    return run_audit(
        trials=10_000, master_seed=MASTER_SEED, max_agents=16, max_alternatives=12
    )


@pytest.fixture(scope="session")
def sweep_1k():
    cells = [(m, n) for m in FULL_ROWS for n in DEFAULT_AGENT_GRID]
    cells += [(m, n) for m in SUBSAMPLED_ROWS for n in SUBSAMPLED_AGENTS]
    return run_cells(
        cells,
        trials=SWEEP_TRIALS,
        master_seed=MASTER_SEED,
        length_convention=LengthConvention.ROUNDS_PLUS_FINAL,
        jobs=2,
    )


def test_criterion_1_elimination_at_every_guaranteed_stage(audit_10k):
    bad = [v for v in audit_10k.violations if v.kind == "no_elimination"]
    assert audit_10k.games == 10_000
    assert audit_10k.condition_stages >= audit_10k.games
    assert bad == [], bad
    _report(
        "ACCEPTANCE 1 guaranteed elimination per stage "
        f"({audit_10k.condition_stages} stages across {audit_10k.games} games): PASS"
    )


def test_criterion_2_length_bound(audit_10k):
    bad = [v for v in audit_10k.violations if v.kind == "length_bound"]
    assert bad == [], bad
    _report(
        f"ACCEPTANCE 2 length bound K <= m-1 on {audit_10k.games} games: PASS"
    )


def test_criterion_3_threshold_mass_conservation(audit_10k):
    bad = [v for v in audit_10k.violations if v.kind == "mass_not_conserved"]
    assert audit_10k.updating_games > 0
    assert bad == [], bad
    _report(
        "ACCEPTANCE 3 bit-exact threshold-mass conservation "
        f"({audit_10k.updating_games} updating-rule games): PASS"
    )


def test_criterion_4_bundled_fixed_point_regression():
    config, rule, _, _ = load_run_config(
        _resolve_config_path("bundled:nonterminating_cycle")
    )
    trace = play(config, rule)
    assert trace.outcome == NonTerminating(at_stage=1)
    _report("ACCEPTANCE 4 bundled fixed-point fixture is non-terminating at stage 1: PASS")


def test_criterion_5_reference_cells_within_tolerance(sweep_1k):
    plus_final = LengthConvention.ROUNDS_PLUS_FINAL
    required = [(10, n) for n in (64, 128, 256, 512)]
    required += [(m, n) for m in (1280, 2560) for n in SUBSAMPLED_AGENTS]
    misses = []
    for cell in required:
        ref = REFERENCE_AVG_LENGTHS[cell]
        gap = abs(float(sweep_1k.cells[cell].mean_length(plus_final)) - ref)
        if gap > 0.1:
            misses.append((cell, ref, gap))
    assert not misses, misses

    # where m > 2n a game plays exactly 2 - m**(1 - n) rounds on average,
    # so the published plateau fixes the counting convention by proof
    closed = [(m, n) for m, n in REFERENCE_AVG_LENGTHS if m > 2 * n]
    assert len(closed) == 53
    for m, n in closed:
        ref = REFERENCE_AVG_LENGTHS[(m, n)]
        exact = closed_form_rounds_played(m, n)
        assert abs(ref - float(1 + exact)) <= 0.1, (m, n, ref)
        assert abs(ref - float(exact)) > 0.8, (m, n, ref)

    # every swept game there ends with a winner in round 1 or with
    # everything eliminated in round 2, and winners are as rare as predicted
    swept = [(m, n) for m, n in sweep_1k.cells if m > 2 * n]
    assert len(swept) == 28
    for m, n in swept:
        res = sweep_1k.cells[(m, n)]
        t, w = res.trials, res.winner_count
        assert res.decided == t, (m, n)
        assert res.rounds_total == 2 * t - w, (m, n)
        assert res.rounds_sq_total == 4 * t - 3 * w, (m, n)
        p = 1 / m ** (n - 1)
        assert abs(w - t * p) <= 5 * math.sqrt(t * p * (1 - p)) + 1, (m, n, w)

    for m, n in ((10, 2), (10, 4), (10, 8)):
        measured = float(sweep_1k.cells[(m, n)].mean_length(plus_final))
        if m > 2 * n:
            exact = 1 + closed_form_rounds_played(m, n)
            closed_text = f"exact {exact} = {float(exact):.3f}"
        else:
            closed_text = "no closed form (m <= 2n)"
        _report(
            f"  cell m={m} n={n}: reference {REFERENCE_AVG_LENGTHS[(m, n)]:.2f}, "
            f"measured {measured:.3f}, {closed_text}"
        )
    _report(
        f"ACCEPTANCE 5 reference cells within +-0.1 under the "
        f"{plus_final.value} convention ({len(required)} cells; closed form "
        f"on {len(closed)} reference and {len(swept)} swept cells): PASS"
    )


def test_criterion_6_trend_claims(sweep_1k):
    trends = trend_check(sweep_1k)
    checked = [r for r in trends.rows if r.fixed in (20, 40, 80)]
    checked += [c for c in trends.columns if c.fixed in (128, 256, 512)]
    failures = []
    for result in checked:
        if result.axis == "agents":
            label, peak = f"row m={result.fixed}", f"n={result.peak_key}"
            refs = [REFERENCE_AVG_LENGTHS[(result.fixed, n)] for n in result.keys]
        else:
            label, peak = f"column n={result.fixed}", f"m={result.peak_key}"
            refs = [REFERENCE_AVG_LENGTHS[(m, result.fixed)] for m in result.keys]
        if result.rise_then_fall:
            _report(f"  {label}: rise-then-fall, peak at {peak}")
        else:
            failures.append(label)
            _report(
                f"  {label}: NOT rise-then-fall within 2 standard errors\n"
                f"    measured:  {['%.3f' % v for v in result.means]}\n"
                f"    reference: {['%.2f' % v for v in refs]}\n"
                f"    (the reference sequence contains the same secondary "
                f"bump; it is a real feature of the model, resolved once "
                f"standard errors shrink below it)"
            )
    if failures:
        _report(f"ACCEPTANCE 6 rise-then-fall trends: FAIL ({', '.join(failures)})")
    else:
        _report("ACCEPTANCE 6 rise-then-fall trends on rows and columns: PASS")
    assert not failures, failures


def test_criterion_7_sweep_determinism_across_job_counts(tmp_path):
    spec = {
        "alternative_counts": [10, 20, 40],
        "agent_counts": [2, 4, 8],
        "trials": 100,
        "master_seed": MASTER_SEED,
        "length_convention": "rounds_plus_final",
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    outputs = []
    for name, jobs in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / name
        code = cli_main(
            ["sweep", str(spec_path), "--out-dir", str(out), "--jobs", str(jobs)]
        )
        assert code == 0
        outputs.append(
            (
                (out / "grid.csv").read_bytes(),
                (out / "report.json").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1] == outputs[2]
    _report("ACCEPTANCE 7 byte-identical sweep output for --jobs 1 and 8: PASS")


def test_criterion_8_exhaustive_oracle_equivalence():
    games = compare_exhaustively(max_agents=3, max_alternatives=3)
    assert games > 0
    _report(
        f"ACCEPTANCE 8 naive-oracle equivalence on {games} exhaustive games: PASS"
    )


def test_bundled_fixture_ships_with_the_package():
    ref = resources.files("votegame").joinpath("data", "nonterminating_cycle.json")
    assert ref.is_file()
