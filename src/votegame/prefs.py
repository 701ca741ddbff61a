"""Seeded uniform random preference profiles.

A profile draws one independent xoshiro256** stream per agent, derived
from (master seed, trial index, agent index), so trials and agents never
share or consume each other's randomness: generating trial 7 gives the same
orders whether or not trials 0..6 were ever generated.  No file I/O here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rng import IncrementalRanking, Xoshiro256StarStar, mix64_each, shuffled

_PREF_STREAM_TAG = 0x70726566  # domain separation from other streams


@dataclass(frozen=True, slots=True)
class Seed:
    """All randomness of one trial: a 64-bit master seed plus a trial index."""

    master: int
    trial_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master < (1 << 64):
            raise ValueError("master seed must fit in 64 unsigned bits")
        if not 0 <= self.trial_index < (1 << 64):
            raise ValueError("trial index must fit in 64 unsigned bits")


def _agent_seeds(n: int, seed: Seed) -> list[int]:
    """The pinned stream seeds of agents 1..n in one trial."""
    return mix64_each(
        (_PREF_STREAM_TAG, seed.master, seed.trial_index), range(1, n + 1)
    )


def incremental_rankings(n: int, m: int, seed: Seed) -> list[IncrementalRanking]:
    """Per-agent lazily revealed uniform rankings of alternatives 1..m.

    Revealed in full, these give exactly ``generate(n, m, seed)``;
    the lazy form lets the engine pay only for the prefix each agent actually
    consults, which matters when alternatives vastly outnumber agents.
    """
    return [
        IncrementalRanking(m, Xoshiro256StarStar(s)) for s in _agent_seeds(n, seed)
    ]


def generate(n: int, m: int, seed: Seed) -> list[tuple[int, ...]]:
    """n i.i.d. uniform random strict orders over alternatives 1..m, one per
    agent, each an eager shuffle of that agent's own stream."""
    alternatives = range(1, m + 1)
    return [
        shuffled(alternatives, Xoshiro256StarStar(s)) for s in _agent_seeds(n, seed)
    ]
