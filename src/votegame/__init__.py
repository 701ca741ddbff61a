"""Multistage voting games with threshold-based alternative elimination."""

__version__ = "0.1.0"

from .core import (
    GameConfig,
    InvalidConfig,
    as_rational,
    eliminate,
    guarantees_elimination,
    sincere_choice,
    tally,
    threshold_total,
    update_thresholds,
)
from .engine import (
    AllEliminated,
    CertificateReport,
    GameTrace,
    LengthConvention,
    NonTerminating,
    Outcome,
    StageLimitExceeded,
    StageRecord,
    ThresholdRule,
    Winner,
    audit_elimination_guarantee,
    play,
    run_stages,
)
from .prefs import generate

__all__ = [
    "AllEliminated",
    "CertificateReport",
    "GameConfig",
    "GameTrace",
    "InvalidConfig",
    "LengthConvention",
    "NonTerminating",
    "Outcome",
    "StageLimitExceeded",
    "StageRecord",
    "ThresholdRule",
    "Winner",
    "as_rational",
    "audit_elimination_guarantee",
    "eliminate",
    "generate",
    "guarantees_elimination",
    "play",
    "run_stages",
    "sincere_choice",
    "tally",
    "threshold_total",
    "update_thresholds",
]
