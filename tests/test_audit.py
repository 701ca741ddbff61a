from fractions import Fraction

import pytest

from votegame.audit import (
    off_by_one_elimination,
    random_guaranteed_config,
    run_audit,
)
from votegame.core import guarantees_elimination
from votegame.rng import Xoshiro256StarStar


def test_random_configs_satisfy_the_mass_condition():
    for seed in range(50):
        rng = Xoshiro256StarStar(seed)
        config = random_guaranteed_config(rng, max_agents=16, max_alternatives=12)
        assert 1 <= len(config.weights) <= 16
        assert 2 <= len(config.alternatives) <= 12
        assert all(1 <= w <= 3 for w in config.weights)
        assert guarantees_elimination(config.initial_thresholds, config.weights)


def test_audit_passes_on_the_real_engine():
    report = run_audit(trials=400, master_seed=5)
    assert report.passed
    assert report.games == 400
    assert report.condition_stages >= 400  # at least stage 1 of every game
    assert 0 < report.updating_games < 400


def test_audit_is_deterministic():
    a = run_audit(trials=100, master_seed=9)
    b = run_audit(trials=100, master_seed=9)
    assert a == b


def test_audit_catches_an_off_by_one_engine():
    report = run_audit(
        trials=400, master_seed=5, elimination_override=off_by_one_elimination
    )
    assert not report.passed
    kinds = {v.kind for v in report.violations}
    assert "no_elimination" in kinds


def test_off_by_one_rule_really_is_lenient():
    counts = {1: 1, 2: 1}
    thresholds = {1: Fraction(2), 2: Fraction(2)}
    survivors, gone = off_by_one_elimination(counts, thresholds)
    assert survivors == {1, 2} and not gone


def test_audit_rejects_zero_trials():
    with pytest.raises(ValueError):
        run_audit(trials=0)


def test_audit_rejects_a_master_seed_outside_64_unsigned_bits():
    # masking would play the games of seed 2^64 - 1 for -1, and of 0 for 2^64
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="64 unsigned bits"):
            run_audit(trials=1, master_seed=seed)
