"""Every file format of the package: game configs, sweep specs and traces.

Each reader validates its document completely and raises ``InvalidConfig``
with a one-line message for anything malformed, so a bad file never reaches
the engine.  One rule picks the master seed for every command.

Traces round-trip losslessly: rational values travel as exact
"numerator/denominator" strings (plain integers stay plain), never as
floats, so a loaded trace compares equal to the one that was saved.
Documents are emitted with sorted keys and a fixed layout, making serialized
output byte-stable across runs.
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
    EngineOptions,
    GameTrace,
    LengthConvention,
    NonTerminating,
    Outcome,
    StageRecord,
    ThresholdRule,
    Winner,
)
from .experiments import THRESHOLD_INIT_RULE, SweepSpec
from .prefs import Seed, UniformRandom, generate, read_profile_file

TRACE_FORMAT = "votegame-trace-v1"
SEED_ENV_VAR = "VOTEGAME_SEED"
_SEED_LIMIT = 1 << 64


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
    file's master_seed, else $VOTEGAME_SEED, else 0."""
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


def _thresholds_from_dict(doc: Mapping[str, str]) -> dict[int, Fraction]:
    return {int(x): as_rational(f) for x, f in doc.items()}


def config_to_dict(config: GameConfig) -> dict[str, Any]:
    return {
        "weights": list(config.weights),
        "alternatives": sorted(config.alternatives),
        "preferences": [list(p.ranking) for p in config.preferences],
        "initial_thresholds": _thresholds_to_dict(config.initial_thresholds),
    }


def config_from_dict(doc: Mapping[str, Any]) -> GameConfig:
    try:
        return GameConfig(
            weights=tuple(doc["weights"]),
            alternatives=frozenset(doc["alternatives"]),
            preferences=tuple(tuple(p) for p in doc["preferences"]),
            initial_thresholds=_thresholds_from_dict(doc["initial_thresholds"]),
        )
    except KeyError as exc:
        raise InvalidConfig(f"config document is missing field {exc}") from exc


def options_to_dict(options: EngineOptions) -> dict[str, Any]:
    return {
        "threshold_rule": options.threshold_rule.value,
        "length_convention": options.length_convention.value,
        "max_stages": options.max_stages,
    }


def options_from_dict(doc: Any) -> EngineOptions:
    """The one engine-option parser, for game configs and traces alike."""
    _require_keys(
        doc, {"threshold_rule", "length_convention", "max_stages"}, "engine"
    )
    max_stages = doc.get("max_stages")
    if max_stages is not None:
        _integer(max_stages, "engine.max_stages", 1)
    try:
        return EngineOptions(
            threshold_rule=ThresholdRule(doc.get("threshold_rule", "updating")),
            length_convention=LengthConvention(
                doc.get("length_convention", "rounds_played")
            ),
            max_stages=max_stages,
        )
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


def outcome_from_dict(doc: Mapping[str, Any]) -> Outcome:
    kind = doc.get("kind")
    if kind == "winner":
        return Winner(doc["alternative"])
    if kind == "all_eliminated":
        return AllEliminated()
    if kind == "non_terminating":
        return NonTerminating(doc["at_stage"])
    raise InvalidConfig(f"unknown outcome kind: {kind!r}")


def stage_to_dict(record: StageRecord) -> dict[str, Any]:
    return {
        "stage": record.stage,
        "live_before": sorted(record.live_before),
        "thresholds_before": _thresholds_to_dict(record.thresholds_before),
        "profile": {str(a): x for a, x in sorted(record.profile.items())},
        "tally": {str(x): r for x, r in sorted(record.tally.items())},
        "eliminated": sorted(record.eliminated),
        "thresholds_after": _thresholds_to_dict(record.thresholds_after),
    }


def stage_from_dict(doc: Mapping[str, Any]) -> StageRecord:
    return StageRecord(
        stage=doc["stage"],
        live_before=frozenset(doc["live_before"]),
        thresholds_before=_thresholds_from_dict(doc["thresholds_before"]),
        profile={int(a): x for a, x in doc["profile"].items()},
        tally={int(x): r for x, r in doc["tally"].items()},
        eliminated=frozenset(doc["eliminated"]),
        thresholds_after=_thresholds_from_dict(doc["thresholds_after"]),
    )


def trace_to_dict(
    trace: GameTrace, labels: Optional[Mapping[int, str]] = None
) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "format": TRACE_FORMAT,
        "config": config_to_dict(trace.config),
        "options": options_to_dict(trace.options),
        "stages": [stage_to_dict(s) for s in trace.stages],
        "outcome": outcome_to_dict(trace.outcome),
    }
    if labels is not None:
        doc["labels"] = {str(x): name for x, name in sorted(labels.items())}
    return doc


def trace_from_dict(doc: Mapping[str, Any]) -> GameTrace:
    if doc.get("format") != TRACE_FORMAT:
        raise InvalidConfig(f"not a {TRACE_FORMAT} document")
    return GameTrace(
        config=config_from_dict(doc["config"]),
        options=options_from_dict(doc["options"]),
        stages=tuple(stage_from_dict(s) for s in doc["stages"]),
        outcome=outcome_from_dict(doc["outcome"]),
    )


def trace_labels(doc: Mapping[str, Any]) -> Optional[dict[int, str]]:
    labels = doc.get("labels")
    if labels is None:
        return None
    return {int(x): name for x, name in labels.items()}


def dumps(doc: Mapping[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_trace(
    trace: GameTrace, path: str | Path, labels: Optional[Mapping[int, str]] = None
) -> None:
    Path(path).write_text(dumps(trace_to_dict(trace, labels)), encoding="utf-8")


def load_trace(path: str | Path) -> GameTrace:
    return trace_from_dict(_read_json(path, "trace file"))


def load_run_config(
    path: Path, seed_override: Optional[int] = None
) -> tuple[GameConfig, EngineOptions, dict[int, str], Optional[str]]:
    """Parse a run config file into (config, options, id->label, trace_out)."""
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
        rankings = read_profile_file(prefs_doc["file"])
        preferences = _label_rankings_to_ids(rankings, label_to_id)
    elif isinstance(prefs_doc, dict) and set(prefs_doc) == {"uniform"}:
        uni = prefs_doc["uniform"]
        _require_keys(
            uni, {"agents", "master_seed", "trial"}, "preferences.uniform"
        )
        agents = _integer(uni.get("agents"), "preferences.uniform.agents", 1)
        seed = Seed(
            default_seed(seed_override, uni.get("master_seed")),
            _integer(uni.get("trial", 0), "preferences.uniform.trial", 0),
        )
        preferences = tuple(
            p.ranking for p in generate(UniformRandom(agents, m, seed))
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

    options = options_from_dict(doc.get("engine", {}))
    trace_out = doc.get("trace_out")
    if trace_out is not None and not isinstance(trace_out, str):
        raise InvalidConfig("trace_out: must be a path string")

    config = GameConfig(
        weights=tuple(weights_doc),
        alternatives=frozenset(range(1, m + 1)),
        preferences=preferences,
        initial_thresholds=thresholds,
    )
    return config, options, id_to_label, trace_out


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


def _integers(doc: Mapping[str, Any], key: str, default, low: int) -> tuple[int, ...]:
    values = doc.get(key, default)
    if not isinstance(values, (list, tuple)):
        raise InvalidConfig(f"{key}: must be a list of integers")
    return tuple(_integer(v, key, low) for v in values)


def sweep_spec_from_dict(doc: Any) -> SweepSpec:
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
    defaults = SweepSpec()
    try:
        convention = LengthConvention(
            doc.get("length_convention", defaults.length_convention.value)
        )
    except ValueError as exc:
        raise InvalidConfig(f"length_convention: {exc}") from exc
    return SweepSpec(
        alternative_counts=_integers(
            doc, "alternative_counts", defaults.alternative_counts, 2
        ),
        agent_counts=_integers(doc, "agent_counts", defaults.agent_counts, 1),
        trials=_integer(doc.get("trials", defaults.trials), "trials", 1),
        master_seed=default_seed(None, doc.get("master_seed")),
        length_convention=convention,
    )


def read_sweep_spec(path: str | Path) -> SweepSpec:
    return sweep_spec_from_dict(_read_json(path, "sweep spec file"))
