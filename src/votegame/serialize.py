"""Every file format: game configs, profile files and sweep specs are read,
traces are written.

Each reader validates its document completely and raises ``InvalidConfig``
with a one-line message for anything malformed, so a bad file never reaches
the engine.  One rule picks the master seed for every command.

Traces are written, never read: rational values travel as exact
"numerator/denominator" strings (plain integers stay plain), never as
floats.  Documents are emitted with sorted keys and a fixed layout, making
serialized output byte-stable across runs.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping, Optional

from .core import GameConfig, InvalidConfig, as_rational
from .engine import (
    AllEliminated,
    GameTrace,
    LengthConvention,
    NonTerminating,
    Outcome,
    StageRecord,
    ThresholdRule,
    Winner,
)
from .experiments import (
    DEFAULT_AGENT_GRID,
    DEFAULT_ALTERNATIVE_GRID,
    THRESHOLD_INIT_RULE,
)
from .prefs import generate

TRACE_FORMAT = "votegame-trace-v2"
SEED_ENV_VAR = "VOTEGAME_SEED"
_SEED_LIMIT = 1 << 64
# game sizes stop at the paper's largest grid sizes, so a game always fits
# in memory
_AGENT_LIMIT = max(DEFAULT_AGENT_GRID) + 1
_ALTERNATIVE_LIMIT = max(DEFAULT_ALTERNATIVE_GRID) + 1


def _read_json(path: str | Path, what: str) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InvalidConfig(f"{what} not found: {path}")
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise InvalidConfig(f"{what} is not valid JSON: {exc}")


def _require_keys(doc: Any, allowed: set[str], where: str) -> None:
    if not isinstance(doc, dict):
        raise InvalidConfig(f"{where}: must be a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        raise InvalidConfig(f"{where}: unknown field {sorted(unknown)[0]!r}")


def _integer(value: Any, where: str, low: int, high: Optional[int] = None) -> int:
    """`value` itself if it is an int (never a bool) in [low, high)."""
    if (
        not isinstance(value, int)
        or isinstance(value, bool)
        or value < low
        or (high is not None and value >= high)
    ):
        bound = f"in [{low}, {high})" if high is not None else f">= {low}"
        raise InvalidConfig(f"{where}: must be an integer {bound}, got {value!r}")
    return value


def default_seed(flag_value: Optional[int], file_value: Any = None) -> int:
    """The master seed rule of every command: the --seed flag, else the
    file's master_seed, else $VOTEGAME_SEED, else 0.  A malformed file
    seed is an error even when the flag wins."""
    if file_value is not None:
        _integer(file_value, "master_seed", 0, _SEED_LIMIT)
    seed = flag_value if flag_value is not None else file_value
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            return 0
        try:
            seed = int(env)
        except ValueError as exc:
            raise InvalidConfig(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}"
            ) from exc
    return _integer(seed, "master_seed", 0, _SEED_LIMIT)


def _thresholds_to_dict(thresholds: Mapping[int, Fraction]) -> dict[str, str]:
    return {str(x): str(f) for x, f in sorted(thresholds.items())}


def config_to_dict(config: GameConfig) -> dict[str, Any]:
    return {
        "weights": list(config.weights),
        "alternatives": sorted(config.alternatives),
        "preferences": [list(p) for p in config.preferences],
        "initial_thresholds": _thresholds_to_dict(config.initial_thresholds),
    }


def rule_from_dict(doc: Any) -> ThresholdRule:
    """The threshold rule named by a game config's ``engine`` object."""
    _require_keys(doc, {"threshold_rule"}, "engine")
    try:
        return ThresholdRule(doc.get("threshold_rule", "updating"))
    except ValueError as exc:
        raise InvalidConfig(f"engine: {exc}") from exc


def outcome_to_dict(outcome: Outcome) -> dict[str, Any]:
    if isinstance(outcome, Winner):
        return {"kind": "winner", "alternative": outcome.alternative}
    if isinstance(outcome, AllEliminated):
        return {"kind": "all_eliminated"}
    if isinstance(outcome, NonTerminating):
        return {"kind": "non_terminating", "at_stage": outcome.at_stage}
    raise TypeError(f"not an outcome: {outcome!r}")


def stage_to_dict(record: StageRecord) -> dict[str, Any]:
    return {
        "stage": record.stage,
        "live_before": sorted(record.live_before),
        "thresholds_before": _thresholds_to_dict(record.thresholds_before),
        "profile": {str(a): x for a, x in enumerate(record.profile, start=1)},
        "tally": {str(x): r for x, r in sorted(record.tally.items())},
        "eliminated": sorted(record.eliminated),
        "thresholds_after": _thresholds_to_dict(record.thresholds_after),
    }


def trace_to_dict(
    trace: GameTrace, labels: Optional[Mapping[int, str]] = None
) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "format": TRACE_FORMAT,
        "config": config_to_dict(trace.config),
        "options": {"threshold_rule": trace.rule.value},
        "stages": [stage_to_dict(s) for s in trace.stages],
        "outcome": outcome_to_dict(trace.outcome),
    }
    if labels is not None:
        doc["labels"] = {str(x): name for x, name in sorted(labels.items())}
    return doc


def dumps(doc: Mapping[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_trace(
    trace: GameTrace, path: str | Path, labels: Optional[Mapping[int, str]] = None
) -> None:
    Path(path).write_text(dumps(trace_to_dict(trace, labels)), encoding="utf-8")


def load_run_config(
    path: Path, seed_override: Optional[int] = None
) -> tuple[GameConfig, ThresholdRule, dict[int, str], Optional[str]]:
    """Parse a run config file into (config, rule, id->label, trace_out)."""
    doc = _read_json(path, "config file")
    _require_keys(
        doc,
        {"alternatives", "weights", "preferences", "thresholds", "engine", "trace_out"},
        "config",
    )

    alt_labels = doc.get("alternatives")
    if (
        not isinstance(alt_labels, list)
        or not alt_labels
        or not all(isinstance(x, str) for x in alt_labels)
    ):
        raise InvalidConfig("alternatives: must be a nonempty list of labels")
    if len(set(alt_labels)) != len(alt_labels):
        raise InvalidConfig("alternatives: labels must be unique")
    label_to_id = {label: i + 1 for i, label in enumerate(alt_labels)}
    id_to_label = {i + 1: label for i, label in enumerate(alt_labels)}
    m = len(alt_labels)

    prefs_doc = doc.get("preferences")
    if isinstance(prefs_doc, list):
        preferences = _label_rankings_to_ids(prefs_doc, label_to_id)
    elif isinstance(prefs_doc, dict) and set(prefs_doc) == {"file"}:
        if not isinstance(prefs_doc["file"], str):
            raise InvalidConfig("preferences.file: must be a path string")
        rankings = _read_json(prefs_doc["file"], "profile file")
        if not isinstance(rankings, list):
            raise InvalidConfig("profile file: must be a JSON list of rankings")
        preferences = _label_rankings_to_ids(rankings, label_to_id)
    elif isinstance(prefs_doc, dict) and set(prefs_doc) == {"uniform"}:
        uni = prefs_doc["uniform"]
        _require_keys(
            uni, {"agents", "master_seed", "trial"}, "preferences.uniform"
        )
        agents = _integer(
            uni.get("agents"), "preferences.uniform.agents", 1, _AGENT_LIMIT
        )
        preferences = generate(
            agents,
            m,
            default_seed(seed_override, uni.get("master_seed")),
            _integer(
                uni.get("trial", 0), "preferences.uniform.trial", 0, _SEED_LIMIT
            ),
        )
    else:
        raise InvalidConfig(
            "preferences: must be a list of rankings, {'uniform': ...}, or {'file': ...}"
        )
    n = len(preferences)

    weights_doc = doc.get("weights", [1] * n)
    if not isinstance(weights_doc, list) or len(weights_doc) != n:
        raise InvalidConfig(f"weights: need one weight per agent ({n})")

    thr_doc = doc.get("thresholds")
    if thr_doc == THRESHOLD_INIT_RULE:
        thresholds = {x: as_rational(2 * n) / m for x in range(1, m + 1)}
    elif isinstance(thr_doc, dict):
        if set(thr_doc) != set(alt_labels):
            raise InvalidConfig(
                "thresholds: keys must be exactly the alternative labels"
            )
        thresholds = {label_to_id[lab]: as_rational(v) for lab, v in thr_doc.items()}
    else:
        raise InvalidConfig(
            f"thresholds: must be a label map or the string {THRESHOLD_INIT_RULE!r}"
        )

    rule = rule_from_dict(doc.get("engine", {}))
    trace_out = doc.get("trace_out")
    if trace_out is not None and not isinstance(trace_out, str):
        raise InvalidConfig("trace_out: must be a path string")

    config = GameConfig(
        weights=tuple(weights_doc),
        alternatives=frozenset(range(1, m + 1)),
        preferences=preferences,
        initial_thresholds=thresholds,
    )
    return config, rule, id_to_label, trace_out


def _label_rankings_to_ids(rankings, label_to_id) -> tuple[tuple[int, ...], ...]:
    out = []
    for i, ranking in enumerate(rankings):
        if not isinstance(ranking, list):
            raise InvalidConfig(f"preferences: agent {i + 1} entry is not a list")
        ids = []
        for label in ranking:
            if not isinstance(label, str) or label not in label_to_id:
                raise InvalidConfig(
                    f"preferences: agent {i + 1} ranks unknown alternative {label!r}"
                )
            ids.append(label_to_id[label])
        out.append(tuple(ids))
    return tuple(out)


def _integers(
    doc: Mapping[str, Any], key: str, default, low: int, high: int
) -> tuple[int, ...]:
    values = doc.get(key, default)
    if not isinstance(values, (list, tuple)):
        raise InvalidConfig(f"{key}: must be a list of integers")
    return tuple(_integer(v, key, low, high) for v in values)


def sweep_spec_from_dict(
    doc: Any, seed_override: Optional[int] = None
) -> dict[str, Any]:
    """The keyword arguments of ``experiments.run_cells`` for a sweep spec."""
    _require_keys(
        doc,
        {
            "alternative_counts",
            "agent_counts",
            "trials",
            "master_seed",
            "length_convention",
        },
        "sweep spec",
    )
    try:
        convention = LengthConvention(doc.get("length_convention", "rounds_played"))
    except ValueError as exc:
        raise InvalidConfig(f"length_convention: {exc}") from exc
    alternative_counts = _integers(
        doc, "alternative_counts", DEFAULT_ALTERNATIVE_GRID, 2, _ALTERNATIVE_LIMIT
    )
    agent_counts = _integers(doc, "agent_counts", DEFAULT_AGENT_GRID, 1, _AGENT_LIMIT)
    spec = {
        "cells": [(m, n) for m in alternative_counts for n in agent_counts],
        "trials": _integer(doc.get("trials", 100), "trials", 1),
        "master_seed": default_seed(seed_override, doc.get("master_seed")),
        "length_convention": convention,
    }
    if not spec["cells"]:
        raise InvalidConfig("both grid axes must be nonempty")
    return spec


def read_sweep_spec(
    path: str | Path, seed_override: Optional[int] = None
) -> dict[str, Any]:
    return sweep_spec_from_dict(_read_json(path, "sweep spec file"), seed_override)
