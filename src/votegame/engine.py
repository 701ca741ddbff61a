"""Repeated-game driver: stages, traces, termination and its audit.

The engine loops single stages until at most one alternative is live.  A
stage that eliminates nothing reproduces its exact state next round (voting
is deterministic and preferences fixed), so the game would repeat forever;
the engine detects that immediately and stops with a ``NonTerminating``
outcome instead of looping.  Consequently every run returns after at most
(initial alternatives - 1) stages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from . import core
from .core import AlternativeId, GameConfig

Vote = Callable[[frozenset[AlternativeId]], list[AlternativeId]]
EliminationRule = Callable[
    [Mapping[AlternativeId, int], Mapping[AlternativeId, Fraction]],
    tuple[frozenset[AlternativeId], frozenset[AlternativeId]],
]


class ThresholdRule(enum.Enum):
    """How thresholds evolve between stages."""

    UPDATING = "updating"  # survivors absorb eliminated threshold mass
    STATIC = "static"      # thresholds never change


class LengthConvention(enum.Enum):
    """How a finished game's length is reported.

    ROUNDS_PLAYED counts rounds of voting that actually happened; a game
    decided in its first round has length 1.  ROUNDS_PLUS_FINAL adds one
    terminal confirmation round to every decided game.
    """

    ROUNDS_PLAYED = "rounds_played"
    ROUNDS_PLUS_FINAL = "rounds_plus_final"


@dataclass(frozen=True)
class StageRecord:
    """Everything that happened in one round of voting."""

    stage: int
    live_before: frozenset[AlternativeId]
    thresholds_before: dict[AlternativeId, Fraction]
    profile: list[AlternativeId]  # agent i+1's vote at index i
    tally: dict[AlternativeId, int]
    eliminated: frozenset[AlternativeId]
    thresholds_after: dict[AlternativeId, Fraction]  # survivors only

    @property
    def survivors(self) -> frozenset[AlternativeId]:
        return self.live_before - self.eliminated


@dataclass(frozen=True, slots=True)
class Winner:
    alternative: AlternativeId


@dataclass(frozen=True, slots=True)
class AllEliminated:
    pass


@dataclass(frozen=True, slots=True)
class NonTerminating:
    at_stage: int


Outcome = Union[Winner, AllEliminated, NonTerminating]


@dataclass(frozen=True)
class GameTrace:
    config: GameConfig
    rule: ThresholdRule
    stages: tuple[StageRecord, ...]
    outcome: Outcome

    @property
    def rounds_played(self) -> int:
        return len(self.stages)


class StageLimitExceeded(RuntimeError):
    """The safety cap tripped; this indicates an engine bug, not a game state."""


def run_stages(
    weights: Sequence[int],
    alternatives: Iterable[AlternativeId],
    initial_thresholds: Mapping[AlternativeId, Fraction],
    vote: Vote,
    rule: ThresholdRule,
    eliminate: Optional[EliminationRule] = None,
) -> tuple[list[StageRecord], Outcome]:
    """Drive a repeated game; vote(live) yields the stage's profile, agent
    i+1's vote at index i.

    This is the single game loop behind both ``play`` (materialized
    preference orders) and the sweep harness (displaced-agent redraw).
    ``eliminate`` replaces ``core.eliminate`` only for the audit's negative
    controls.  ``StageLimitExceeded`` past the fixed safety cap means an
    engine bug.
    """
    live = frozenset(alternatives)
    thresholds = dict(initial_thresholds)
    # unreachable if the engine is correct (a game lasts at most m - 1
    # stages); present purely to turn bugs into loud failures
    cap = len(live) + 8
    eliminate = eliminate or core.eliminate
    updating = rule is ThresholdRule.UPDATING
    stages: list[StageRecord] = []
    k = 0
    while len(live) >= 2:
        k += 1
        if k > cap:
            raise StageLimitExceeded(
                f"stage {k} exceeds the safety cap of {cap} stages"
            )
        profile = vote(live)
        counts = core.tally(profile, weights, live)
        survivors, eliminated = eliminate(counts, thresholds)
        if updating and survivors:
            after = core.update_thresholds(thresholds, counts, survivors, eliminated)
        else:
            after = {x: thresholds[x] for x in survivors}
        stages.append(
            StageRecord(k, live, thresholds, profile, counts, eliminated, after)
        )
        if len(survivors) <= 1:
            outcome: Outcome = (
                Winner(next(iter(survivors))) if survivors else AllEliminated()
            )
            return stages, outcome
        if not eliminated:
            # Same live set, same thresholds, same deterministic votes next
            # round: the game is a fixed point and would repeat forever.
            return stages, NonTerminating(at_stage=k)
        live = survivors
        thresholds = after
    if live:
        return stages, Winner(next(iter(live)))
    return stages, AllEliminated()


def play(
    config: GameConfig,
    rule: ThresholdRule = ThresholdRule.UPDATING,
    eliminate: Optional[EliminationRule] = None,
) -> GameTrace:
    """Play one full repeated game from a config and record its trace."""
    stages, outcome = run_stages(
        config.weights,
        config.alternatives,
        config.initial_thresholds,
        lambda live: [core.sincere_choice(p, live) for p in config.preferences],
        rule,
        eliminate,
    )
    return GameTrace(config, rule, tuple(stages), outcome)


@dataclass(frozen=True)
class Violation:
    stage: int
    kind: str  # "no_elimination" | "length_bound" | "mass_not_conserved"
    detail: str


@dataclass(frozen=True)
class CertificateReport:
    """Every guarantee a played game must keep, checked stage by stage."""

    stages_checked: int
    condition_stages: int  # stages at which the elimination guarantee applied
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def audit_elimination_guarantee(trace: GameTrace) -> CertificateReport:
    """Check a trace's guarantees with zero tolerance:

      * every stage where total thresholds exceeded total votes eliminated
        at least one alternative;
      * the game ran at most (initial alternatives - 1) stages;
      * under the updating rule, survivor threshold mass after each stage
        equals the pre-update total, bit-exactly.
    """
    violations = []
    condition_stages = 0
    for s in trace.stages:
        if core.guarantees_elimination(s.thresholds_before, trace.config.weights):
            condition_stages += 1
            if not s.eliminated:
                violations.append(Violation(
                    s.stage,
                    "no_elimination",
                    "guarantee condition held but nothing was eliminated",
                ))
    bound = len(trace.config.alternatives) - 1
    if trace.rounds_played > bound:
        violations.append(Violation(
            trace.rounds_played,
            "length_bound",
            f"{trace.rounds_played} stages played, bound is {bound}",
        ))
    if trace.rule is ThresholdRule.UPDATING:
        for s in trace.stages:
            if not s.thresholds_after:
                continue  # nothing survived; no update was applied
            before = core.threshold_total(s.thresholds_before)
            after = core.threshold_total(s.thresholds_after)
            if before != after:
                violations.append(Violation(
                    s.stage,
                    "mass_not_conserved",
                    f"threshold mass {before} became {after}",
                ))
    return CertificateReport(len(trace.stages), condition_stages, tuple(violations))
