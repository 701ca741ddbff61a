"""Seeded uniform random preference profiles.

A profile draws one independent xoshiro256** stream per agent, derived
from (master seed, trial index, agent index), so trials and agents never
share or consume each other's randomness: generating trial 7 gives the same
orders whether or not trials 0..6 were ever generated.  Both coordinates
must lie in [0, 2^64), which ``rng.mix64`` checks.  No file I/O here.
"""

from __future__ import annotations

from .rng import IncrementalRanking, Xoshiro256StarStar, mix64, shuffled

_PREF_STREAM_TAG = 0x70726566  # domain separation from other streams


def _agent_streams(n: int, master_seed: int, trial: int) -> list[Xoshiro256StarStar]:
    """The pinned streams of agents 1..n in one trial."""
    return [
        Xoshiro256StarStar(mix64(_PREF_STREAM_TAG, master_seed, trial, agent))
        for agent in range(1, n + 1)
    ]


def incremental_rankings(
    n: int, m: int, master_seed: int, trial: int = 0
) -> list[IncrementalRanking]:
    """Per-agent lazily revealed uniform rankings of alternatives 1..m.

    Revealed in full, these give exactly ``generate(n, m, master_seed,
    trial)``; the lazy form lets the engine pay only for the prefix each
    agent actually consults, which matters when alternatives vastly
    outnumber agents.
    """
    return [IncrementalRanking(m, s) for s in _agent_streams(n, master_seed, trial)]


def generate(
    n: int, m: int, master_seed: int, trial: int = 0
) -> list[tuple[int, ...]]:
    """n i.i.d. uniform random strict orders over alternatives 1..m, one per
    agent, each an eager shuffle of that agent's own stream."""
    alternatives = range(1, m + 1)
    return [shuffled(alternatives, s) for s in _agent_streams(n, master_seed, trial)]
