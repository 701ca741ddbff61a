from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from votegame.core import GameConfig, guarantees_elimination, threshold_total
from votegame.engine import (
    AllEliminated,
    GameTrace,
    NonTerminating,
    StageLimitExceeded,
    StageRecord,
    ThresholdRule,
    Winner,
    audit_elimination_guarantee,
    play,
)

F = Fraction
STATIC = ThresholdRule.STATIC


def cycle_config(threshold=1):
    # three agents with pairwise-distinct top choices; with unit thresholds
    # every tally exactly meets its threshold, a perfect fixed point
    return GameConfig(
        weights=(1, 1, 1),
        alternatives=frozenset({1, 2, 3}),
        preferences=((1, 2, 3), (2, 3, 1), (3, 2, 1)),
        initial_thresholds={x: threshold for x in (1, 2, 3)},
    )


def test_fixed_point_is_detected_as_non_terminating():
    trace = play(cycle_config(), STATIC)
    assert trace.outcome == NonTerminating(at_stage=1)
    assert trace.rounds_played == 1
    stage = trace.stages[0]
    assert stage.eliminated == frozenset()
    assert stage.tally == {1: 1, 2: 1, 3: 1}
    assert stage.thresholds_after == stage.thresholds_before


def test_unanimous_first_round_winner():
    config = GameConfig(
        weights=(1, 1),
        alternatives=frozenset({1, 2, 3}),
        preferences=((1, 2, 3), (1, 3, 2)),
        initial_thresholds={x: F(1, 2) for x in (1, 2, 3)},
    )
    trace = play(config)
    assert trace.outcome == Winner(1)
    assert trace.rounds_played == 1
    stage = trace.stages[0]
    assert stage.tally == {1: 2, 2: 0, 3: 0}
    assert stage.eliminated == {2, 3}
    # the sole survivor absorbs the whole threshold mass
    assert stage.thresholds_after == {1: F(3, 2)}


def test_two_agents_ten_alternatives_all_eliminated_in_two_rounds():
    config = GameConfig(
        weights=(1, 1),
        alternatives=frozenset(range(1, 11)),
        preferences=(tuple(range(1, 11)), tuple(range(10, 0, -1))),
        initial_thresholds={x: F(2, 5) for x in range(1, 11)},
    )
    trace = play(config)
    assert trace.outcome == AllEliminated()
    assert trace.rounds_played == 2
    first, second = trace.stages
    assert first.survivors == {1, 10}
    assert first.thresholds_after == {1: F(2), 10: F(2)}
    assert second.tally == {1: 1, 10: 1}
    assert second.thresholds_after == {}


def test_trivial_config_plays_one_stage():
    config = cycle_config(threshold=5)
    assert config.trivial_all_eliminated
    trace = play(config)
    assert trace.outcome == AllEliminated()
    assert trace.rounds_played == 1


def test_single_alternative_game_has_zero_rounds():
    config = GameConfig(
        weights=(1, 1),
        alternatives=frozenset({1}),
        preferences=((1,), (1,)),
        initial_thresholds={1: 1},
    )
    trace = play(config)
    assert trace.outcome == Winner(1)
    assert trace.rounds_played == 0


def test_safety_valve_trips_on_tiny_cap():
    # a doctored rule that reports an elimination but keeps every alternative
    # live defeats fixed-point detection, so only the fixed cap can stop it
    def never_shrinks(counts, thresholds):
        live = frozenset(counts)
        return live, frozenset({min(live)})

    config = GameConfig(
        weights=(1, 1),
        alternatives=frozenset(range(1, 11)),
        preferences=(tuple(range(1, 11)), tuple(range(10, 0, -1))),
        initial_thresholds={x: F(2, 5) for x in range(1, 11)},
    )
    with pytest.raises(StageLimitExceeded, match="safety cap of 18 stages"):
        play(config, STATIC, never_shrinks)


def test_certificate_on_guaranteed_config():
    config = GameConfig(
        weights=(1, 1),
        alternatives=frozenset(range(1, 11)),
        preferences=(tuple(range(1, 11)), tuple(range(10, 0, -1))),
        initial_thresholds={x: F(2, 5) for x in range(1, 11)},
    )
    report = audit_elimination_guarantee(play(config))
    assert report.passed
    assert report.stages_checked == report.condition_stages == 2


def test_certificate_vacuous_when_condition_never_holds():
    report = audit_elimination_guarantee(play(cycle_config(), STATIC))
    assert report.passed
    assert (report.stages_checked, report.condition_stages) == (1, 0)
    assert report.violations == ()


def cycle_stage(stage=1, threshold=1, after=None):
    # the cycle's stage: one vote for each alternative, nothing eliminated
    before = {x: F(threshold) for x in (1, 2, 3)}
    return StageRecord(
        stage=stage,
        live_before=frozenset({1, 2, 3}),
        thresholds_before=before,
        profile=[1, 2, 3],
        tally={1: 1, 2: 1, 3: 1},
        eliminated=frozenset(),
        thresholds_after=before if after is None else after,
    )


GROWN_MASS = {1: F(2), 2: F(1), 3: F(1)}  # mass 3 becomes 4


@pytest.mark.parametrize(
    "rule, stages, expected",
    [
        # mass 6 > 3 votes, yet nothing is eliminated
        (STATIC, [cycle_stage(threshold=2)], [(1, "no_elimination")]),
        # three stages with three alternatives, where the bound is two
        (STATIC, [cycle_stage(k) for k in (1, 2, 3)], [(3, "length_bound")]),
        (ThresholdRule.UPDATING, [cycle_stage(after=GROWN_MASS)],
         [(1, "mass_not_conserved")]),
        # static thresholds owe no conservation
        (STATIC, [cycle_stage(after=GROWN_MASS)], []),
    ],
    ids=["no_elimination", "length_bound", "mass_not_conserved", "static-mass"],
)
def test_certificate_flags_injected_violation(rule, stages, expected):
    outcome = NonTerminating(at_stage=len(stages))
    doctored = GameTrace(cycle_config(), rule, tuple(stages), outcome)
    report = audit_elimination_guarantee(doctored)
    assert [(v.stage, v.kind) for v in report.violations] == expected
    assert report.passed == (not expected)


# --- randomized trace coherence --------------------------------------------


@st.composite
def small_configs(draw):
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 4))
    alts = list(range(1, m + 1))
    prefs = tuple(tuple(draw(st.permutations(alts))) for _ in range(n))
    weights = tuple(draw(st.integers(1, 3)) for _ in range(n))
    thresholds = {
        x: F(draw(st.integers(0, 12)), draw(st.integers(1, 4))) for x in alts
    }
    rule = draw(st.sampled_from([ThresholdRule.UPDATING, ThresholdRule.STATIC]))
    return GameConfig(weights, frozenset(alts), prefs, thresholds), rule


@given(small_configs())
def test_trace_coherand_bounds(case):
    config, rule = case
    trace = play(config, rule)
    m = len(config.alternatives)
    assert trace.rounds_played <= m - 1

    live = frozenset(config.alternatives)
    thresholds = config.initial_thresholds
    for record in trace.stages:
        assert record.live_before == live
        assert record.thresholds_before == thresholds
        assert record.eliminated <= record.live_before
        assert set(record.thresholds_after) == set(record.survivors)
        assert len(record.profile) == len(config.weights)
        assert sum(record.tally.values()) == config.total_votes
        if rule is ThresholdRule.UPDATING and record.survivors:
            assert threshold_total(record.thresholds_after) == threshold_total(
                record.thresholds_before
            )
        live = record.survivors
        thresholds = record.thresholds_after

    outcome = trace.outcome
    if isinstance(outcome, Winner):
        assert trace.stages == () or len(trace.stages[-1].survivors) == 1
    elif isinstance(outcome, AllEliminated):
        assert len(trace.stages[-1].survivors) == 0
    else:
        assert isinstance(outcome, NonTerminating)
        final = trace.stages[-1]
        assert final.eliminated == frozenset()
        assert outcome.at_stage == final.stage

    assert play(config, rule) == trace


@given(small_configs())
def test_guarantee_condition_is_preserved_by_updating_rule(case):
    config, _ = case
    if not guarantees_elimination(config.initial_thresholds, config.weights):
        return
    trace = play(config, ThresholdRule.UPDATING)
    for record in trace.stages:
        assert guarantees_elimination(record.thresholds_before, config.weights)
        assert len(record.eliminated) >= 1
