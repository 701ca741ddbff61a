"""Pinned deterministic randomness.

Every random decision in this package flows through the generators defined
here, never through platform RNGs, so results are bit-identical across
machines, Python versions, and runs.  The stream generator is xoshiro256**
(Blackman & Vigna 2018); 64-bit seeds are expanded into generator state with
SplitMix64, and stream seeds are derived by hashing integer coordinates with
the SplitMix64 finalizer; ``mix64`` is the one place a coordinate is checked
to fit in 64 unsigned bits.  Every bounded draw is a call of ``below``, the
one rejection sampler, so shuffles and lazy rankings are exactly uniform.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable

_MASK64 = (1 << 64) - 1
_TWO64 = 1 << 64
_GOLDEN = 0x9E3779B97F4A7C15


def _finalize(z: int) -> int:
    """SplitMix64 output function: a strong, bijective 64-bit mixer."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix64(*parts: int) -> int:
    """Hash a tuple of integers to a 64-bit stream seed.

    Used to derive independent substreams from coordinates such as
    (master seed, trial, agent): distinct tuples give unrelated seeds, and a
    stream depends only on its own coordinates, never on which other streams
    were instantiated.  A part outside [0, 2^64) raises ``ValueError``
    rather than aliasing a valid one.
    """
    h = _GOLDEN
    for p in parts:
        if not 0 <= p <= _MASK64:
            raise ValueError(f"stream coordinate {p} must fit in 64 unsigned bits")
        h = _finalize(((h ^ p) + _GOLDEN) & _MASK64)
    return h


def _splitmix64_fill(seed: int, count: int) -> list[int]:
    out = []
    s = seed & _MASK64
    for _ in range(count):
        s = (s + _GOLDEN) & _MASK64
        out.append(_finalize(s))
    return out


class Xoshiro256StarStar:
    """xoshiro256** stream seeded from a single 64-bit value via SplitMix64."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        words = _splitmix64_fill(seed, 4)
        if not any(words):  # all-zero state is the one forbidden fixed point
            words[3] = 1
        self._s0, self._s1, self._s2, self._s3 = words

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        x = (s1 * 5) & _MASK64
        # rotl(x, 7) * 9, masked once: bits above 2^64 never reach the low 64
        result = ((x << 7) | (x >> 57)) * 9 & _MASK64
        s2 ^= s0
        s3 ^= s1
        self._s0 = s0 ^ s3
        self._s1 = s1 ^ s2
        self._s2 = s2 ^ ((s1 << 17) & _MASK64)
        self._s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        return result

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) with rejection, so no modulo bias."""
        if not 0 < bound <= _TWO64:  # above 2^64 no draw would be accepted
            raise ValueError("bound must be in [1, 2^64]")
        if bound == 1:
            return 0
        # A draw is kept iff it is under the limit 2^64 - 2^64 % bound.  A
        # draw under 2^64 - bound is under it, since 2^64 % bound < bound;
        # only a draw at or above that cut needs the exact limit.
        draw = self.next_u64()
        if draw >= _TWO64 - bound:
            limit = _TWO64 - _TWO64 % bound
            while draw >= limit:
                draw = self.next_u64()
        return draw % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates; position i is final after step i."""
        m = len(items)
        for i in range(m - 1):
            j = i + self.below(m - i)
            items[i], items[j] = items[j], items[i]


class IncrementalRanking:
    """A uniform random permutation of 1..size revealed prefix-first.

    Runs the same Fisher-Yates walk as ``Xoshiro256StarStar.shuffle`` but
    settles positions only on demand, over a sparse view of the array (only
    displaced entries are stored), so a caller that consults a short prefix
    pays O(prefix) time and space no matter how large the permutation is.
    Whatever is consulted agrees position for position with ``shuffled``
    over the same stream; callers that need the whole ranking use that.
    """

    __slots__ = ("_size", "_rng", "_slots", "_final")

    def __init__(self, size: int, rng: Xoshiro256StarStar):
        if not 1 <= size <= _TWO64:  # the bounds ``below`` accepts
            raise ValueError("size must be in [1, 2^64]")
        self._size = size
        self._rng = rng
        self._slots: dict[int, int] = {}  # position -> value where it differs from identity
        self._final = 0  # positions below this index are settled

    def first_in(self, live: AbstractSet[int]) -> int:
        """First alternative of the ranking that is in `live`.

        Settling position i calls ``below(size - i)``, as step i of
        ``shuffle`` does, so the stream makes the same draws in the same order.
        """
        size = self._size
        slots = self._slots
        get = slots.get
        below = self._rng.below
        final = self._final
        i = 0
        while i < size:
            if i < final:
                value = get(i, i + 1)
            elif i < size - 1:
                j = i + below(size - i)
                value = get(j, j + 1)
                slots[j] = get(i, i + 1)
                slots[i] = value
                final = self._final = i + 1
            else:
                value = get(i, i + 1)
                final = self._final = size
            if value in live:
                return value
            i += 1
        raise ValueError("no member of the live set appears in the ranking")


def shuffled(items: Iterable[int], rng: Xoshiro256StarStar) -> tuple[int, ...]:
    """Fisher-Yates shuffle of `items` as a new tuple."""
    out = list(items)
    rng.shuffle(out)
    return tuple(out)
