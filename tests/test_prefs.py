import json
from collections import Counter

import pytest

from votegame.core import InvalidConfig
from votegame.prefs import generate, incremental_rankings
from votegame.serialize import load_run_config


def test_single_alternative_profile():
    out = generate(4, 1, 99)
    assert out == [(1,)] * 4


def test_seed_determinism():
    a = generate(5, 8, 7, 3)
    b = generate(5, 8, 7, 3)
    assert a == b
    c = generate(5, 8, 7, 4)
    assert a != c
    d = generate(5, 8, 8, 3)
    assert a != d


def test_trials_are_independent_streams():
    # trial 5 is the same whether or not other trials were generated first
    fresh = generate(3, 6, 11, 5)
    for t in range(5):
        generate(3, 6, 11, t)
    assert generate(3, 6, 11, 5) == fresh


def test_agents_have_distinct_streams():
    orders = generate(40, 10, 21)
    assert len(set(orders)) > 1


def test_uniform_frequencies_over_sixty_thousand_draws():
    # 20,000 trials x 3 agents = 60,000 permutations of 3 alternatives;
    # every one of the 6 orders should land within 0.01 of 1/6
    counts = Counter()
    for trial in range(20_000):
        for p in generate(3, 3, 314159, trial):
            counts[p] += 1
    assert len(counts) == 6
    total = sum(counts.values())
    assert total == 60_000
    for ranking, count in counts.items():
        assert abs(count / total - 1 / 6) < 0.01, ranking


def test_incremental_rankings_match_generate():
    eager = generate(6, 9, 2024, 17)
    lazy = incremental_rankings(6, 9, 2024, 17)
    for ranking, full in zip(lazy, eager, strict=True):
        assert [ranking.first_in(set(full[i:])) for i in range(9)] == list(full)


def test_seed_validation():
    for master, trial in ((-1, 0), (1 << 64, 0), (0, -1), (0, 1 << 64)):
        with pytest.raises(ValueError, match="64 unsigned bits"):
            generate(2, 3, master, trial)


def load_with_profile(tmp_path, profile):
    # profile files are read by serialize.load_run_config, like inline rankings
    (tmp_path / "profile.json").write_text(json.dumps(profile))
    config = tmp_path / "game.json"
    config.write_text(json.dumps({
        "alternatives": ["a", "b"],
        "preferences": {"file": str(tmp_path / "profile.json")},
        "thresholds": "2n/m",
    }))
    return load_run_config(config)[0]


def test_read_profile_file(tmp_path):
    config = load_with_profile(tmp_path, [["a", "b"], ["b", "a"]])
    assert config.preferences == ((1, 2), (2, 1))


@pytest.mark.parametrize(
    "doc",
    [[], [["a", "a"]], [["a"], "b"], "nope", [[1, 2]]],
)
def test_read_profile_file_rejects_malformed(tmp_path, doc):
    with pytest.raises(InvalidConfig):
        load_with_profile(tmp_path, doc)
