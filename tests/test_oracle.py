"""Engine vs naive transcription on exhaustively enumerated small games."""

from fractions import Fraction
from itertools import product

from hypothesis import given, strategies as st
from naive_engine import (
    closed_form_rounds_played,
    exhaustive_profiles,
    naive_game,
    threshold_grids,
)

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


def sweep_config(m, rankings):
    """A sweep game: unit weights and every threshold 2n/m."""
    n = len(rankings)
    return GameConfig(
        weights=(1,) * n,
        alternatives=frozenset(range(1, m + 1)),
        preferences=rankings,
        initial_thresholds={x: Fraction(2 * n, m) for x in range(1, m + 1)},
    )


def test_closed_form_is_exact_on_every_small_profile():
    # with uniform thresholds relabelling is a symmetry, so fixing agent 1's
    # ranking leaves every outcome share unchanged
    for m, n in ((3, 1), (5, 2), (6, 2)):
        identity = tuple(range(1, m + 1))
        configs = [
            sweep_config(m, (identity, *rest))
            for rest in exhaustive_profiles(m, n - 1)
        ]
        updating = [play(c, ThresholdRule.UPDATING) for c in configs]
        static = [play(c, ThresholdRule.STATIC) for c in configs]
        rounds = sum(trace.rounds_played for trace in updating)
        assert Fraction(rounds, len(configs)) == closed_form_rounds_played(m, n)
        # a frozen game also plays two rounds, so the mean alone would not
        # tell the updating rule from the static one
        cleared = sum(t.outcome == AllEliminated() for t in updating)
        frozen = sum(t.outcome == NonTerminating(at_stage=2) for t in static)
        disagree = 1 - Fraction(1, m ** (n - 1))
        assert Fraction(cleared, len(configs)) == disagree
        assert Fraction(frozen, len(configs)) == disagree


@st.composite
def sweep_games(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(2 * n + 1, 2 * n + 30))
    permutation = st.permutations(range(1, m + 1)).map(tuple)
    return sweep_config(m, draw(st.lists(permutation, min_size=n, max_size=n)))


@given(sweep_games())
def test_sweep_game_ends_by_round_two_when_m_exceeds_2n(config):
    tops = {ranking[0] for ranking in config.preferences}
    updating = play(config, ThresholdRule.UPDATING)
    static = play(config, ThresholdRule.STATIC)
    if len(tops) == 1:
        assert updating.outcome == static.outcome == Winner(tops.pop())
        assert updating.rounds_played == static.rounds_played == 1
    else:
        assert updating.outcome == AllEliminated()
        assert updating.rounds_played == 2
        assert static.outcome == NonTerminating(at_stage=2)
