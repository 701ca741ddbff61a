import json
from fractions import Fraction
from pathlib import Path

import pytest

from votegame.cli import main
from votegame.core import GameConfig
from votegame.engine import (
    AllEliminated,
    NonTerminating,
    ThresholdRule,
    Winner,
    play,
)
from votegame.serialize import (
    config_to_dict,
    dumps,
    outcome_to_dict,
    rule_from_dict,
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
    # the writer half only: thresholds become exact strings
    doc = config_to_dict(sample_config())
    assert doc == {
        "weights": [2, 1],
        "alternatives": [1, 2, 3],
        "preferences": [[1, 2, 3], [3, 1, 2]],
        "initial_thresholds": {"1": "2/5", "2": "3", "3": "1/7"},
    }


def test_options_round_trip():
    trace = play(sample_config(), ThresholdRule.STATIC)
    assert trace_to_dict(trace)["options"] == {"threshold_rule": "static"}
    assert rule_from_dict({"threshold_rule": "static"}) is ThresholdRule.STATIC
    assert rule_from_dict({}) is ThresholdRule.UPDATING


# the writer half only: traces are written, never read back
OUTCOME_DOCS = {
    Winner(3): {"kind": "winner", "alternative": 3},
    AllEliminated(): {"kind": "all_eliminated"},
    NonTerminating(at_stage=2): {"kind": "non_terminating", "at_stage": 2},
}


@pytest.mark.parametrize("outcome", list(OUTCOME_DOCS))
def test_outcome_round_trip(outcome):
    assert outcome_to_dict(outcome) == OUTCOME_DOCS[outcome]


GOLDEN = Path(__file__).parent / "golden"

# alternatives a-f, 4 uniform agents: stage 1 eliminates b, c, d and f, and
# stage 2 eliminates a and e against the updated thresholds
UNIFORM_UPDATING = {
    "alternatives": ["a", "b", "c", "d", "e", "f"],
    "preferences": {"uniform": {"agents": 4, "master_seed": 1}},
    "thresholds": "2n/m",
}


@pytest.mark.parametrize(
    "name",
    [
        "nonterminating_cycle",
        "trivial_all_eliminated",
        "unanimous_winner",
        "uniform_updating",
    ],
)
def test_play_trace_matches_golden_file(tmp_path, name):
    if name == "uniform_updating":
        config = tmp_path / "game.json"
        config.write_text(json.dumps(UNIFORM_UPDATING))
        source = str(config)
    else:
        source = f"bundled:{name}"
    trace_path = tmp_path / "out.trace.json"
    main(["play", source, "--trace-out", str(trace_path)])
    assert trace_path.read_bytes() == (GOLDEN / f"{name}.trace.json").read_bytes()


def test_dumps_is_byte_stable():
    trace = play(sample_config())
    assert dumps(trace_to_dict(trace)) == dumps(trace_to_dict(trace))
