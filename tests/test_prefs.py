import json
from collections import Counter

import pytest

from votegame.core import InvalidConfig, PreferenceOrder
from votegame.prefs import (
    Seed,
    UniformRandom,
    generate,
    incremental_rankings,
    read_profile_file,
)


def test_single_alternative_profile():
    out = generate(UniformRandom(4, 1, Seed(99)))
    assert out == [PreferenceOrder((1,))] * 4


def test_seed_determinism():
    a = generate(UniformRandom(5, 8, Seed(7, 3)))
    b = generate(UniformRandom(5, 8, Seed(7, 3)))
    assert a == b
    c = generate(UniformRandom(5, 8, Seed(7, 4)))
    assert a != c
    d = generate(UniformRandom(5, 8, Seed(8, 3)))
    assert a != d


def test_trials_are_independent_streams():
    # trial 5 is the same whether or not other trials were generated first
    fresh = generate(UniformRandom(3, 6, Seed(11, 5)))
    for t in range(5):
        generate(UniformRandom(3, 6, Seed(11, t)))
    assert generate(UniformRandom(3, 6, Seed(11, 5))) == fresh


def test_agents_have_distinct_streams():
    orders = generate(UniformRandom(40, 10, Seed(21)))
    assert len(set(orders)) > 1


def test_uniform_frequencies_over_sixty_thousand_draws():
    # 20,000 trials x 3 agents = 60,000 permutations of 3 alternatives;
    # every one of the 6 orders should land within 0.01 of 1/6
    counts = Counter()
    for trial in range(20_000):
        for p in generate(UniformRandom(3, 3, Seed(314159, trial))):
            counts[p.ranking] += 1
    assert len(counts) == 6
    total = sum(counts.values())
    assert total == 60_000
    for ranking, count in counts.items():
        assert abs(count / total - 1 / 6) < 0.01, ranking


def test_incremental_rankings_match_generate():
    seed = Seed(2024, 17)
    eager = generate(UniformRandom(6, 9, seed))
    lazy = incremental_rankings(6, 9, seed)
    for ranking, order in zip(lazy, eager, strict=True):
        full = order.ranking
        assert [ranking.first_in(set(full[i:])) for i in range(9)] == list(full)


def test_seed_validation():
    with pytest.raises(ValueError):
        Seed(-1)
    with pytest.raises(ValueError):
        Seed(1 << 64)
    with pytest.raises(ValueError):
        Seed(0, -1)


def test_read_profile_file(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps([["a", "b"], ["b", "a"]]))
    assert read_profile_file(path) == [["a", "b"], ["b", "a"]]


@pytest.mark.parametrize(
    "doc",
    [[], [["a", "a"]], [["a"], "b"], "nope", [[1, 2]]],
)
def test_read_profile_file_rejects_malformed(tmp_path, doc):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidConfig):
        read_profile_file(path)
