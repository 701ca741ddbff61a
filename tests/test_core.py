from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from votegame.core import (
    GameConfig,
    InvalidConfig,
    PreferenceOrder,
    as_rational,
    eliminate,
    guarantees_elimination,
    sincere_choice,
    tally,
    threshold_total,
    update_thresholds,
)

F = Fraction


def even_thresholds(m, value):
    return {x: F(value) for x in range(1, m + 1)}


# --- sincere choice -------------------------------------------------------


def test_sincere_choice_picks_top_live():
    assert sincere_choice(PreferenceOrder((2, 3, 1)), {1, 2, 3}) == 2
    assert sincere_choice(PreferenceOrder((2, 3, 1)), {1}) == 1
    assert sincere_choice(PreferenceOrder((5, 1, 4, 2, 3)), {2, 3, 4}) == 4


def test_sincere_choice_rejects_empty_live():
    with pytest.raises(ValueError):
        sincere_choice(PreferenceOrder((1, 2)), set())


@given(
    ranking=st.permutations(list(range(1, 7))),
    live=st.sets(st.integers(1, 6), min_size=1, max_size=6),
)
def test_sincere_choice_is_minimal_ranked_live(ranking, live):
    choice = sincere_choice(PreferenceOrder(tuple(ranking)), live)
    assert choice in live
    earlier = ranking[: ranking.index(choice)]
    assert not (set(earlier) & live)


# --- tally ----------------------------------------------------------------


def test_tally_examples():
    ones = {1: 1, 2: 1, 3: 1}
    assert tally({1: 1, 2: 2, 3: 3}, ones, {1, 2, 3}) == {1: 1, 2: 1, 3: 1}
    assert tally({1: 1, 2: 1, 3: 1}, ones, {1, 2, 3}) == {1: 3, 2: 0, 3: 0}
    assert tally({1: 1, 2: 1, 3: 2}, {1: 2, 2: 3, 3: 1}, {1, 2}) == {1: 5, 2: 1}


def test_tally_rejects_vote_for_eliminated():
    with pytest.raises(ValueError, match="non-live"):
        tally({1: 3}, {1: 1}, {1, 2})


@given(
    weights=st.lists(st.integers(1, 5), min_size=1, max_size=8),
    data=st.data(),
)
def test_tally_conserves_total_weight(weights, data):
    live = {1, 2, 3, 4}
    profile = {
        agent: data.draw(st.sampled_from(sorted(live)))
        for agent in range(1, len(weights) + 1)
    }
    wmap = {agent: w for agent, w in enumerate(weights, start=1)}
    counts = tally(profile, wmap, live)
    assert sum(counts.values()) == sum(weights)
    assert set(counts) == live


# --- elimination ----------------------------------------------------------


def test_eliminate_survival_on_exact_equality():
    survivors, gone = eliminate({1: 2, 2: 2, 3: 2}, even_thresholds(3, 2))
    assert survivors == {1, 2, 3} and gone == frozenset()


def test_eliminate_below_threshold():
    survivors, gone = eliminate({1: 3, 2: 0, 3: 0}, even_thresholds(3, 1))
    assert survivors == {1} and gone == {2, 3}


def test_eliminate_with_fractional_threshold():
    counts = {x: 0 for x in range(1, 11)}
    counts[4] = 1
    counts[9] = 1
    survivors, gone = eliminate(counts, even_thresholds(10, F(2, 5)))
    assert survivors == {4, 9}
    assert gone == set(range(1, 11)) - {4, 9}


def test_eliminate_requires_matching_keys():
    with pytest.raises(ValueError):
        eliminate({1: 1}, even_thresholds(2, 1))


@given(
    counts=st.dictionaries(
        st.integers(1, 8), st.integers(0, 10), min_size=1, max_size=8
    ),
    data=st.data(),
)
def test_eliminate_partitions_live_set(counts, data):
    thresholds = {
        x: F(data.draw(st.integers(0, 30)), data.draw(st.integers(1, 4)))
        for x in counts
    }
    survivors, gone = eliminate(counts, thresholds)
    assert survivors | gone == set(counts)
    assert not survivors & gone
    for x in survivors:
        assert counts[x] >= thresholds[x]
    for x in gone:
        assert counts[x] < thresholds[x]


# --- threshold update -----------------------------------------------------


def test_update_redistributes_proportionally():
    # two survivors at one vote each against 0.4 thresholds; eight eliminated
    # alternatives contribute 8 * 0.4 = 3.2, split evenly by equal popularity
    prev = even_thresholds(10, F(2, 5))
    counts = {x: 0 for x in range(1, 11)}
    counts[1] = counts[2] = 1
    new = update_thresholds(prev, counts, {1, 2}, set(range(3, 11)))
    assert new == {1: F(2), 2: F(2)}


def test_update_single_survivor_takes_everything():
    prev = {1: F(1, 2), 2: F(1, 2), 3: F(1, 2)}
    new = update_thresholds(prev, {1: 2, 2: 0, 3: 0}, {1}, {2, 3})
    assert new == {1: F(3, 2)}


def test_update_no_elimination_changes_nothing():
    prev = even_thresholds(3, 1)
    new = update_thresholds(prev, {1: 1, 2: 1, 3: 1}, {1, 2, 3}, set())
    assert new == prev


def test_update_zero_popularity_splits_equally():
    prev = {1: F(1), 2: F(1), 3: F(5)}
    new = update_thresholds(prev, {1: 1, 2: 1, 3: 0}, {1, 2}, {3})
    assert new == {1: F(7, 2), 2: F(7, 2)}
    assert threshold_total(new) == threshold_total(prev)


def test_update_rejects_empty_survivors():
    with pytest.raises(ValueError):
        update_thresholds({1: F(1)}, {1: 0}, set(), {1})


def test_update_rejects_negative_popularity():
    with pytest.raises(ValueError, match="negative popularity"):
        update_thresholds({1: F(5), 2: F(1)}, {1: 1, 2: 0}, {1}, {2})


@st.composite
def stage_outcomes(draw):
    m = draw(st.integers(2, 7))
    counts = {x: draw(st.integers(0, 6)) for x in range(1, m + 1)}
    thresholds = {
        x: F(draw(st.integers(0, 20)), draw(st.integers(1, 5)))
        for x in range(1, m + 1)
    }
    return counts, thresholds


@given(stage_outcomes())
def test_update_conserves_threshold_mass(stage):
    counts, thresholds = stage
    survivors, gone = eliminate(counts, thresholds)
    if not survivors:
        return
    new = update_thresholds(thresholds, counts, survivors, gone)
    assert set(new) == set(survivors)
    assert threshold_total(new) == threshold_total(thresholds)


# --- elimination guarantee condition --------------------------------------


def test_guarantee_condition_strict_inequality():
    ones = {1: 1, 2: 1, 3: 1}
    assert guarantees_elimination(even_thresholds(3, 2), ones)
    assert not guarantees_elimination(even_thresholds(3, 1), ones)


@pytest.mark.parametrize("n,m", [(2, 10), (3, 7), (512, 2560), (1, 2)])
def test_guarantee_holds_for_doubled_vote_mass(n, m):
    thresholds = even_thresholds(m, F(2 * n, m))
    weights = {a: 1 for a in range(1, n + 1)}
    assert threshold_total(thresholds) == 2 * n
    assert guarantees_elimination(thresholds, weights)


# --- config validation ----------------------------------------------------


def test_as_rational_forms():
    assert as_rational(3) == F(3)
    assert as_rational("0.4") == F(2, 5)
    assert as_rational("2/5") == F(2, 5)
    assert as_rational(F(7, 3)) == F(7, 3)
    with pytest.raises(InvalidConfig):
        as_rational("votes")
    with pytest.raises(InvalidConfig):
        as_rational(True)


def valid_config(**overrides):
    fields = dict(
        weights=(1, 1, 1),
        alternatives=frozenset({1, 2, 3}),
        preferences=((1, 2, 3), (2, 3, 1), (3, 2, 1)),
        initial_thresholds={1: 1, 2: 1, 3: 1},
    )
    fields.update(overrides)
    return GameConfig(**fields)


def test_config_accepts_and_normalizes():
    config = valid_config()
    assert config.n == 3
    assert config.total_votes == 3
    assert config.initial_thresholds[1] == F(1)
    assert isinstance(config.preferences[0], PreferenceOrder)
    assert not config.trivial_all_eliminated


def test_config_flags_trivial_all_eliminated():
    config = valid_config(initial_thresholds={1: 4, 2: 4, 3: 4})
    assert config.trivial_all_eliminated


@pytest.mark.parametrize(
    "overrides,message",
    [
        (dict(weights=()), "weights"),
        (dict(weights=(1, 0, 1)), "weights"),
        (dict(preferences=((1, 2, 3), (2, 3, 1))), "preferences"),
        (dict(preferences=((1, 2, 3), (2, 3, 1), (1, 2, 2))), "duplicates"),
        (dict(preferences=((1, 2, 3), (2, 3, 1), (1, 2, 4))), "permutation"),
        (dict(initial_thresholds={1: 1, 2: 1}), "initial_thresholds"),
        (dict(initial_thresholds={1: 1, 2: 1, 3: -1}), "initial_thresholds"),
        (dict(alternatives=frozenset()), "alternatives"),
    ],
)
def test_config_rejects_malformed(overrides, message):
    with pytest.raises(InvalidConfig, match=message):
        valid_config(**overrides)
