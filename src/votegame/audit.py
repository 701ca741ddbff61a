"""Randomized self-audit of the engine's termination guarantees.

Plays thousands of random games whose initial threshold mass strictly
exceeds the total vote weight and certifies each one with
``engine.audit_elimination_guarantee``, with zero tolerance.

Configs cover random sizes, weights 1..3, random rational thresholds
(rejection-sampled so the mass condition holds), and both threshold rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import core, engine
from .core import GameConfig
from .engine import EliminationRule, ThresholdRule
from .rng import Xoshiro256StarStar, mix64, shuffled

_AUDIT_STREAM_TAG = 0x61756474


@dataclass(frozen=True)
class AuditViolation:
    game_index: int
    stage: int
    kind: str  # "no_elimination" | "mass_not_conserved" | "length_bound"
    detail: str


@dataclass(frozen=True)
class AuditReport:
    games: int
    stages_checked: int
    condition_stages: int  # stages at which the elimination guarantee applied
    updating_games: int
    violations: tuple[AuditViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def off_by_one_elimination(counts, thresholds):
    """Negative-control elimination rule: survives one vote under threshold.

    Used only to prove the audit can catch a broken engine; never wired into
    real play.
    """
    survivors = frozenset(
        x for x, r in counts.items() if Fraction(r) >= thresholds[x] - 1
    )
    return survivors, frozenset(counts) - survivors


def random_guaranteed_config(
    rng: Xoshiro256StarStar, max_agents: int, max_alternatives: int
) -> GameConfig:
    """Random config whose threshold mass strictly exceeds its vote mass."""
    n = 1 + rng.below(max_agents)
    m = 2 + rng.below(max_alternatives - 1)
    weights = tuple(1 + rng.below(3) for _ in range(n))
    preferences = tuple(shuffled(range(1, m + 1), rng) for _ in range(n))
    total_votes = sum(weights)
    for _ in range(10_000):
        thresholds = {}
        for x in range(1, m + 1):
            denom = 1 + rng.below(6)
            # numerators scaled so a single threshold averages total/m, which
            # puts the mass condition near a coin flip per attempt
            numer = rng.below(2 * total_votes * denom // m + 2)
            thresholds[x] = Fraction(numer, denom)
        if core.guarantees_elimination(thresholds, weights):
            return GameConfig(weights, frozenset(range(1, m + 1)), preferences, thresholds)
    raise RuntimeError("threshold rejection sampling failed to converge")


def run_audit(
    trials: int = 10_000,
    master_seed: int = 0,
    max_agents: int = 16,
    max_alternatives: int = 12,
    elimination_override: Optional[EliminationRule] = None,
    max_reported: int = 100,
) -> AuditReport:
    """Play `trials` random guaranteed-elimination games and audit each one."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    violations: list[AuditViolation] = []
    stages_checked = 0
    condition_stages = 0
    updating_games = 0
    for i in range(trials):
        rng = Xoshiro256StarStar(mix64(_AUDIT_STREAM_TAG, master_seed, i))
        config = random_guaranteed_config(rng, max_agents, max_alternatives)
        rule = ThresholdRule.STATIC if rng.below(2) else ThresholdRule.UPDATING
        if elimination_override is not None:
            # negative controls run on static thresholds: the updating rule
            # rejects below-threshold "survivors" outright, which would stop
            # a doctored game before the certificate ever saw it
            rule = ThresholdRule.STATIC
        if rule is ThresholdRule.UPDATING:
            updating_games += 1
        trace = engine.play(config, rule, elimination_override)

        certificate = engine.audit_elimination_guarantee(trace)
        stages_checked += certificate.stages_checked
        condition_stages += certificate.condition_stages
        for v in certificate.violations[: max(0, max_reported - len(violations))]:
            violations.append(AuditViolation(i, v.stage, v.kind, v.detail))

    return AuditReport(
        games=trials,
        stages_checked=stages_checked,
        condition_stages=condition_stages,
        updating_games=updating_games,
        violations=tuple(violations),
    )
