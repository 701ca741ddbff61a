"""Reproducible agent preference profiles.

Uniform random profiles draw one independent xoshiro256** stream per agent,
derived from (master seed, trial index, agent index), so trials and agents
never share or consume each other's randomness: generating trial 7 gives the
same orders whether or not trials 0..6 were ever generated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .core import InvalidConfig, PreferenceOrder
from .rng import IncrementalRanking, Xoshiro256StarStar, mix64, shuffled

_PREF_STREAM_TAG = 0x70726566  # domain separation from other streams


@dataclass(frozen=True, slots=True)
class Seed:
    """All randomness of one trial: a 64-bit master seed plus a trial index."""

    master: int
    trial_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master < (1 << 64):
            raise ValueError("master seed must fit in 64 unsigned bits")
        if self.trial_index < 0:
            raise ValueError("trial index must be nonnegative")


@dataclass(frozen=True)
class UniformRandom:
    """n i.i.d. uniform random strict orders over m alternatives."""

    agents: int
    alternatives: int
    seed: Seed

    def __post_init__(self):
        if self.agents < 1:
            raise ValueError("need at least one agent")
        if self.alternatives < 1:
            raise ValueError("need at least one alternative")


def agent_stream(seed: Seed, agent: int) -> Xoshiro256StarStar:
    """The pinned random stream owned by one agent in one trial."""
    return Xoshiro256StarStar(
        mix64(_PREF_STREAM_TAG, seed.master, seed.trial_index, agent)
    )


def incremental_rankings(n: int, m: int, seed: Seed) -> list[IncrementalRanking]:
    """Per-agent lazily revealed uniform rankings of alternatives 1..m.

    Revealed in full, these give exactly ``generate(UniformRandom(n, m, seed))``;
    the lazy form lets the engine pay only for the prefix each agent actually
    consults, which matters when alternatives vastly outnumber agents.
    """
    return [
        IncrementalRanking(m, agent_stream(seed, agent))
        for agent in range(1, n + 1)
    ]


def generate(spec: UniformRandom) -> list[PreferenceOrder]:
    """Produce one preference order per agent, each an eager shuffle of its
    own stream."""
    alternatives = range(1, spec.alternatives + 1)
    return [
        PreferenceOrder(shuffled(alternatives, agent_stream(spec.seed, agent)))
        for agent in range(1, spec.agents + 1)
    ]


def read_profile_file(path: str | Path) -> list[list[str]]:
    """Load an explicit profile: a JSON list of per-agent label rankings."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise InvalidConfig(f"profile file is not valid JSON: {exc}") from exc
    if not isinstance(doc, list) or not doc:
        raise InvalidConfig("profile file must be a nonempty JSON list of rankings")
    out: list[list[str]] = []
    for i, record in enumerate(doc):
        if not isinstance(record, list) or not all(isinstance(x, str) for x in record):
            raise InvalidConfig(
                f"profile file: record {i + 1} is not a list of label strings"
            )
        if len(set(record)) != len(record):
            raise InvalidConfig(f"profile file: record {i + 1} repeats a label")
        out.append(list(record))
    return out
