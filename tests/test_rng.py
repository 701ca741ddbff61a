from collections import Counter

import pytest

from votegame.rng import IncrementalRanking, Xoshiro256StarStar, mix64, shuffled

# First six outputs after SplitMix64 state expansion, frozen from the
# published reference implementation of xoshiro256** (cross-compiled C).
REFERENCE_STREAMS = {
    0: (
        11091344671253066420,
        13793997310169335082,
        1900383378846508768,
        7684712102626143532,
        13521403990117723737,
        18442103541295991498,
    ),
    42: (
        1546998764402558742,
        6990951692964543102,
        12544586762248559009,
        17057574109182124193,
        18295552978065317476,
        14199186830065750584,
    ),
    0xDEADBEEFCAFEF00D: (
        11399401986271211195,
        1585385652154531860,
        10005412245774160782,
        8949352449651941944,
        14139734282999090898,
        15808653711773441028,
    ),
}


def test_stream_matches_published_reference():
    for seed, expected in REFERENCE_STREAMS.items():
        gen = Xoshiro256StarStar(seed)
        assert tuple(gen.next_u64() for _ in range(6)) == expected


def test_mix64_is_stable_and_separates_inputs():
    assert mix64(1, 2, 3) == mix64(1, 2, 3)
    seen = {mix64(a, b) for a in range(20) for b in range(20)}
    assert len(seen) == 400
    assert mix64(1, 2) != mix64(2, 1)


def test_below_range_and_errors():
    gen = Xoshiro256StarStar(7)
    assert gen.below(1) == 0
    for bound in (2, 3, 10, 1000):
        for _ in range(200):
            assert 0 <= gen.below(bound) < bound
    assert 0 <= gen.below(1 << 64) < 1 << 64
    # above 2^64 no 64-bit draw could be accepted, so below would spin forever
    for bound in (0, (1 << 64) + 1):
        with pytest.raises(ValueError):
            gen.below(bound)


def test_below_is_roughly_uniform():
    gen = Xoshiro256StarStar(123)
    n = 60_000
    counts = Counter(gen.below(6) for _ in range(n))
    for value in range(6):
        assert abs(counts[value] / n - 1 / 6) < 0.01


def test_shuffled_is_a_permutation():
    out = shuffled(range(1, 11), Xoshiro256StarStar(5))
    assert sorted(out) == list(range(1, 11))


def reveal(ranking, eager):
    """Every position of a lazy ranking, probed in order against the eager one."""
    return tuple(ranking.first_in(set(eager[i:])) for i in range(len(eager)))


def test_incremental_matches_eager_shuffle():
    for seed in range(100):
        for size in (1, 2, 3, 5, 17, 64):
            eager = shuffled(range(1, size + 1), Xoshiro256StarStar(seed))
            lazy = IncrementalRanking(size, Xoshiro256StarStar(seed))
            assert reveal(lazy, eager) == eager


def test_incremental_consultation_never_changes_the_permutation():
    for seed in range(50):
        full = shuffled(range(1, 13), Xoshiro256StarStar(seed))
        probed = IncrementalRanking(12, Xoshiro256StarStar(seed))
        assert probed.first_in({full[0]}) == full[0]
        assert probed.first_in(set(full[3:])) == full[3]
        assert probed.first_in({full[-1]}) == full[-1]
        assert reveal(probed, full) == full


def test_first_in_errors_when_nothing_matches():
    ranking = IncrementalRanking(4, Xoshiro256StarStar(1))
    with pytest.raises(ValueError):
        ranking.first_in({99})
