from fractions import Fraction

import pytest

from votegame.core import GameConfig, InvalidConfig
from votegame.engine import (
    AllEliminated,
    EngineOptions,
    NonTerminating,
    ThresholdRule,
    Winner,
    play,
)
from votegame.serialize import (
    config_from_dict,
    config_to_dict,
    dumps,
    load_trace,
    options_from_dict,
    options_to_dict,
    outcome_from_dict,
    outcome_to_dict,
    save_trace,
    trace_from_dict,
    trace_labels,
    trace_to_dict,
)


def sample_config():
    return GameConfig(
        weights=(2, 1),
        alternatives=frozenset({1, 2, 3}),
        preferences=((1, 2, 3), (3, 1, 2)),
        initial_thresholds={1: Fraction(2, 5), 2: Fraction(3), 3: Fraction(1, 7)},
    )


def test_config_round_trip():
    config = sample_config()
    doc = config_to_dict(config)
    assert doc["initial_thresholds"] == {"1": "2/5", "2": "3", "3": "1/7"}
    assert config_from_dict(doc) == config


def test_config_from_dict_missing_field():
    with pytest.raises(InvalidConfig, match="missing"):
        config_from_dict({"weights": [1]})


def test_options_round_trip():
    options = EngineOptions(threshold_rule=ThresholdRule.STATIC)
    assert options_to_dict(options) == {"threshold_rule": "static"}
    assert options_from_dict(options_to_dict(options)) == options
    assert options_from_dict({}) == EngineOptions()


@pytest.mark.parametrize(
    "outcome", [Winner(3), AllEliminated(), NonTerminating(at_stage=2)]
)
def test_outcome_round_trip(outcome):
    assert outcome_from_dict(outcome_to_dict(outcome)) == outcome


def test_outcome_rejects_unknown_kind():
    with pytest.raises(InvalidConfig):
        outcome_from_dict({"kind": "stalemate"})


def test_trace_round_trip_bit_exact():
    trace = play(sample_config())
    doc = trace_to_dict(trace, labels={1: "red", 2: "green", 3: "blue"})
    restored = trace_from_dict(doc)
    assert restored == trace
    assert trace_labels(doc) == {1: "red", 2: "green", 3: "blue"}
    # re-serializing the restored trace gives the identical document
    assert trace_to_dict(restored, labels=trace_labels(doc)) == doc


@pytest.mark.parametrize("max_stages", ["lots", True, 0])
def test_trace_rejects_bad_max_stages(max_stages):
    # max_stages is no longer an engine option, so any value is an unknown field
    doc = trace_to_dict(play(sample_config()))
    doc["options"]["max_stages"] = max_stages
    with pytest.raises(InvalidConfig, match="unknown field 'max_stages'"):
        trace_from_dict(doc)


@pytest.mark.parametrize(
    "options, message",
    [
        ({"length_convention": "rounds_played"}, "unknown field 'length_convention'"),
        ({"threshold_rule": "sometimes"}, "sometimes"),
        (5, "must be a JSON object"),
    ],
)
def test_trace_rejects_bad_options(options, message):
    doc = trace_to_dict(play(sample_config()))
    doc["options"] = options
    with pytest.raises(InvalidConfig, match=message):
        trace_from_dict(doc)


def v1_document():
    # the previous trace format, whose options also held length_convention
    # and max_stages
    doc = trace_to_dict(play(sample_config()))
    doc["format"] = "votegame-trace-v1"
    doc["options"].update(length_convention="rounds_played", max_stages=None)
    return doc


def test_trace_rejects_foreign_document():
    for doc in [{"format": "something-else"}, v1_document(), []]:
        with pytest.raises(InvalidConfig, match="not a votegame-trace-v2 document"):
            trace_from_dict(doc)


def missing_config(doc):
    del doc["config"]


def config_not_object(doc):
    doc["config"] = 5


def stage_missing_key(doc):
    del doc["stages"][0]["tally"]


def stages_not_list(doc):
    doc["stages"] = 5


@pytest.mark.parametrize(
    "damage", [missing_config, config_not_object, stage_missing_key, stages_not_list]
)
def test_trace_rejects_malformed_document(damage):
    doc = trace_to_dict(play(sample_config()))
    damage(doc)
    with pytest.raises(InvalidConfig, match="malformed trace document"):
        trace_from_dict(doc)


def test_trace_file_round_trip(tmp_path):
    trace = play(sample_config())
    path = tmp_path / "game.trace.json"
    save_trace(trace, path)
    assert load_trace(path) == trace


def test_dumps_is_byte_stable():
    trace = play(sample_config())
    assert dumps(trace_to_dict(trace)) == dumps(trace_to_dict(trace))
