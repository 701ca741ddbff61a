from collections import Counter

import pytest
from hypothesis import given, strategies as st

from votegame.rng import (
    IncrementalRanking,
    Xoshiro256StarStar,
    mix64,
    shuffled,
)

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


U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


def test_mix64_rejects_coordinates_outside_64_unsigned_bits():
    # masking would alias -1 onto 2^64 - 1 and 2^64 onto 0
    for part in (-1, 1 << 64):
        with pytest.raises(ValueError, match="64 unsigned bits"):
            mix64(1, part)


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


class ScriptedStream:
    """A generator stand-in whose draws are given in advance."""

    def __init__(self, draws):
        self.draws = list(draws)

    def next_u64(self):
        return self.draws.pop(0)

    below = Xoshiro256StarStar.below


def test_reveal_draws_exactly_what_below_draws():
    # the reveal calls below(size - i) once per settled position; after any
    # series of reveals the generator must be where the same below calls
    # would have left it
    for seed in range(40):
        for size in (2, 3, 7, 12, 100):
            full = shuffled(range(1, size + 1), Xoshiro256StarStar(seed))
            for deepest in (0, size // 3, size - 1):
                rng = Xoshiro256StarStar(seed)
                ranking = IncrementalRanking(size, rng)
                for cut in (deepest // 2, 0, deepest):
                    assert ranking.first_in(set(full[cut:])) == full[cut]
                reference = Xoshiro256StarStar(seed)
                for i in range(min(deepest + 1, size - 1)):
                    reference.below(size - i)
                assert rng.next_u64() == reference.next_u64()


TWO64 = 1 << 64


def below_by_limit(rng, bound):
    """The rejection loop on the exact limit alone: what ``below`` must draw."""
    if bound == 1:
        return 0
    limit = TWO64 - TWO64 % bound
    while True:
        draw = rng.next_u64()
        if draw < limit:
            return draw % bound


@pytest.mark.parametrize("bound", [2, 3, 5, 6, 1000, (1 << 63) + 1, TWO64 - 1])
def test_below_takes_a_draw_under_the_cut_at_once(bound):
    stream = ScriptedStream([TWO64 - bound - 1, 99])
    assert Xoshiro256StarStar.below(stream, bound) == (TWO64 - bound - 1) % bound
    assert stream.draws == [99]


@pytest.mark.parametrize("bound", [3, 5])
def test_below_keeps_a_draw_past_the_cut_under_the_limit(bound):
    # 2^64 = 1 mod 3 and mod 5, so both limits are 2^64 - 1; 2^64 - 3 is at
    # the cut 2^64 - 3 of bound 3 and above the cut 2^64 - 5 of bound 5
    stream = ScriptedStream([TWO64 - 3, 99])
    assert Xoshiro256StarStar.below(stream, bound) == (TWO64 - 3) % bound
    assert stream.draws == [99]


@pytest.mark.parametrize("bound", [3, 5])
def test_below_rejects_a_draw_at_the_limit(bound):
    stream = ScriptedStream([TWO64 - 1, TWO64 - 1, 17, 99])
    assert Xoshiro256StarStar.below(stream, bound) == 17 % bound
    assert stream.draws == [99]


@pytest.mark.parametrize("bound", [2, 4, 1 << 32, 1 << 63, TWO64])
def test_below_never_rejects_a_power_of_two_bound(bound):
    stream = ScriptedStream([TWO64 - 1, 99])
    assert Xoshiro256StarStar.below(stream, bound) == (TWO64 - 1) % bound
    assert stream.draws == [99]


@given(bound=st.integers(1, TWO64), data=st.data())
def test_below_draws_what_the_exact_limit_loop_draws(bound, data):
    # draws near the cut and the limit, then 0, which every bound accepts
    limit = TWO64 - TWO64 % bound
    edges = {0, TWO64 - bound - 1, TWO64 - bound, limit - 1, limit, TWO64 - 1}
    near = st.sampled_from(sorted(d for d in edges if 0 <= d < TWO64))
    draws = data.draw(st.lists(near | U64, max_size=6)) + [0, 99]
    fast, slow = ScriptedStream(draws), ScriptedStream(draws)
    assert Xoshiro256StarStar.below(fast, bound) == below_by_limit(slow, bound)
    assert fast.draws == slow.draws


def test_below_leaves_the_generator_where_the_exact_limit_loop_does():
    for seed in range(20):
        fast, slow = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
        for bound in (1, 2, 3, 7, 640, 2560, (1 << 63) + 1, TWO64):
            assert fast.below(bound) == below_by_limit(slow, bound)
        assert fast.next_u64() == slow.next_u64()


@pytest.mark.parametrize("size", [3, 5, 12])
def test_reveal_rejects_draws_as_below_does(size):
    # The reveal calls below, so it must reject exactly the words below
    # rejects.  A real stream at these sizes rejects with probability below
    # 1e-16, so the draws are scripted.  2^64 - 1 is at or above the
    # rejection limit of every bound that is not a power of two; 2^64 - 2 is
    # above below's cut 2^64 - bound but below the exact limit of bounds 3
    # and 5.
    draws = [(1 << 64) - 1, (1 << 64) - 2] + [7 * k + 5 for k in range(size)]
    reference = ScriptedStream(draws)
    expected = list(range(1, size + 1))
    for i in range(size - 1):
        j = i + Xoshiro256StarStar.below(reference, size - i)
        expected[i], expected[j] = expected[j], expected[i]
    assert len(draws) - len(reference.draws) > size - 1  # something was rejected
    scripted = ScriptedStream(draws)
    ranking = IncrementalRanking(size, scripted)
    assert reveal(ranking, expected) == tuple(expected)
    assert scripted.draws == reference.draws


def test_incremental_ranking_size_bounds():
    for size in (0, (1 << 64) + 1):
        with pytest.raises(ValueError):
            IncrementalRanking(size, Xoshiro256StarStar(1))
