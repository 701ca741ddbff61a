"""Engine vs naive transcription on exhaustively enumerated small games."""

from fractions import Fraction
from itertools import product

from naive_engine import exhaustive_profiles, naive_game, threshold_grids

from votegame.core import GameConfig
from votegame.engine import (
    AllEliminated,
    NonTerminating,
    ThresholdRule,
    Winner,
    audit_elimination_guarantee,
    play,
)


def outcome_kind(outcome):
    if isinstance(outcome, Winner):
        return "winner", outcome.alternative
    if isinstance(outcome, AllEliminated):
        return "all_eliminated", None
    assert isinstance(outcome, NonTerminating)
    return "non_terminating", None


def compare_exhaustively(max_agents, max_alternatives, weight_values=(1,)):
    """Compare per-stage survivor sets on every profile and every weight
    vector drawn from `weight_values`, and certify every game played."""
    games = 0
    for m in range(2, max_alternatives + 1):
        for n in range(1, max_agents + 1):
            for weights in product(weight_values, repeat=n):
                for thresholds in threshold_grids(m, n):
                    for profile in exhaustive_profiles(m, n):
                        config = GameConfig(
                            weights=weights,
                            alternatives=frozenset(range(1, m + 1)),
                            preferences=profile,
                            initial_thresholds=dict(thresholds),
                        )
                        for rule in (ThresholdRule.UPDATING, ThresholdRule.STATIC):
                            trace = play(config, rule)
                            naive = naive_game(
                                [list(p) for p in profile],
                                weights,
                                {x: Fraction(f) for x, f in thresholds.items()},
                                rule.value,
                            )
                            engine_sets = [set(s.survivors) for s in trace.stages]
                            naive_sets, naive_kind, naive_winner = naive
                            case = (m, weights, profile, thresholds)
                            assert engine_sets == naive_sets, case
                            kind, winner = outcome_kind(trace.outcome)
                            assert kind == naive_kind, case
                            assert winner == naive_winner, case
                            assert audit_elimination_guarantee(trace).passed, case
                            games += 1
    return games


def test_small_exhaustive_agreement():
    # unequal weights catch an engine that pairs a vote with the wrong
    # agent's weight, which unit weights (and criterion 8) cannot see
    games = compare_exhaustively(
        max_agents=3, max_alternatives=3, weight_values=(1, 2)
    )
    assert games == 23_616
