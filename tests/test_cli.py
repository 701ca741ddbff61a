import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from votegame import experiments
from votegame.cli import main


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def cycle_config_doc(**overrides):
    doc = {
        "alternatives": ["x1", "x2", "x3"],
        "weights": [1, 1, 1],
        "preferences": [["x1", "x2", "x3"], ["x2", "x3", "x1"], ["x3", "x2", "x1"]],
        "thresholds": {"x1": 1, "x2": 1, "x3": 1},
        "engine": {"threshold_rule": "static"},
    }
    doc.update(overrides)
    return doc


def test_play_bundled_non_terminating_fixture(capsys):
    code = main(["play", "bundled:nonterminating_cycle"])
    out = capsys.readouterr().out
    assert code == 3
    assert "non-terminating at stage 1" in out


def test_play_bundled_unanimous_winner(capsys):
    code = main(["play", "bundled:unanimous_winner"])
    out = capsys.readouterr().out
    assert code == 0
    assert "winner: x1" in out


def test_play_bundled_trivial_warns_and_ends(capsys):
    code = main(["play", "bundled:trivial_all_eliminated"])
    out = capsys.readouterr().out
    assert code == 0
    assert "warning" in out
    assert "all eliminated" in out


def test_play_unknown_bundled_name(capsys):
    code = main(["play", "bundled:nope"])
    assert code == 1
    assert "no bundled config" in capsys.readouterr().err


def test_play_writes_the_trace_named_in_the_config(tmp_path, capsys):
    # the cycle config is the bundled nonterminating_cycle fixture
    trace_path = tmp_path / "out.trace.json"
    doc = cycle_config_doc(trace_out=str(trace_path))
    code = main(["play", write_json(tmp_path / "game.json", doc)])
    assert code == 3
    golden = Path(__file__).parent / "golden" / "nonterminating_cycle.trace.json"
    assert trace_path.read_bytes() == golden.read_bytes()


def test_play_rejects_unknown_field(tmp_path, capsys):
    config = write_json(tmp_path / "bad.json", cycle_config_doc(extra=1))
    code = main(["play", config])
    assert code == 1
    assert "unknown field 'extra'" in capsys.readouterr().err


def test_play_rejects_bad_max_stages(tmp_path, capsys):
    # the engine object holds only threshold_rule: the removed max_stages and
    # length_convention fields are unknown fields
    for field, value in [("max_stages", 1), ("length_convention", "rounds_played")]:
        doc = cycle_config_doc(engine={"threshold_rule": "static", field: value})
        config = write_json(tmp_path / "bad.json", doc)
        code = main(["play", config])
        assert code == 1
        assert capsys.readouterr().err == f"error: engine: unknown field {field!r}\n"


def test_play_rejects_bad_threshold_keys(tmp_path, capsys):
    doc = cycle_config_doc(thresholds={"x1": 1, "x2": 1})
    config = write_json(tmp_path / "bad.json", doc)
    code = main(["play", config])
    assert code == 1
    assert "thresholds" in capsys.readouterr().err


def test_play_rejects_unknown_label_in_preferences(tmp_path, capsys):
    doc = cycle_config_doc(
        preferences=[["x1", "x2", "x9"], ["x2", "x3", "x1"], ["x3", "x2", "x1"]]
    )
    config = write_json(tmp_path / "bad.json", doc)
    code = main(["play", config])
    assert code == 1
    assert "x9" in capsys.readouterr().err


def test_play_missing_file(capsys):
    code = main(["play", "/nonexistent/game.json"])
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_play_uniform_preferences_with_seed(tmp_path, capsys):
    doc = {
        "alternatives": ["a", "b", "c", "d"],
        "preferences": {"uniform": {"agents": 3}},
        "thresholds": "2n/m",
    }
    config = write_json(tmp_path / "uniform.json", doc)
    code = main(["play", config, "--seed", "99"])
    assert code == 0  # the guaranteed-elimination initialization always decides
    first = capsys.readouterr().out
    main(["play", config, "--seed", "99"])
    assert capsys.readouterr().out == first
    main(["play", config, "--seed", "100"])
    # a different seed may or may not change the outcome text; just ensure it runs
    assert capsys.readouterr().out


def test_seed_env_var_is_honored(tmp_path, capsys, monkeypatch):
    doc = {
        "alternatives": ["a", "b", "c", "d"],
        "preferences": {"uniform": {"agents": 3}},
        "thresholds": "2n/m",
    }
    config = write_json(tmp_path / "uniform.json", doc)
    monkeypatch.setenv("VOTEGAME_SEED", "99")
    main(["play", config])
    via_env = capsys.readouterr().out
    monkeypatch.delenv("VOTEGAME_SEED")
    main(["play", config, "--seed", "99"])
    assert capsys.readouterr().out == via_env


def sweep_spec_doc():
    return {
        "alternative_counts": [10, 20],
        "agent_counts": [2, 4],
        "trials": 20,
        "master_seed": 5,
        "length_convention": "rounds_plus_final",
    }


def test_sweep_writes_grid_and_report(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", sweep_spec_doc())
    out_dir = tmp_path / "results"
    code = main(["sweep", spec, "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "grid.csv").is_file()
    assert (out_dir / "report.json").is_file()
    printed = capsys.readouterr().out
    assert "row m=10" in printed
    assert "column n=2" in printed


GOLDEN_SWEEP = Path(__file__).parent / "golden" / "sweep"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_matches_golden_files(tmp_path, capsys, jobs):
    # this grid prints all three trend-line kinds: rise-then-fall, peak at
    # boundary and not unimodal
    doc = {
        "alternative_counts": [10, 20, 40],
        "agent_counts": [2, 8, 32, 128],
        "trials": 40,
        "master_seed": 25,
        "length_convention": "rounds_plus_final",
    }
    spec = write_json(tmp_path / "spec.json", doc)
    out_dir = tmp_path / "out"
    assert main(["sweep", spec, "--out-dir", str(out_dir), "--jobs", jobs]) == 0
    stdout = capsys.readouterr().out.replace(str(out_dir), "<out-dir>")
    assert stdout == (GOLDEN_SWEEP / "stdout.txt").read_text(encoding="utf-8")
    for name in ("grid.csv", "report.json"):
        assert (out_dir / name).read_bytes() == (GOLDEN_SWEEP / name).read_bytes()


def test_sweep_rejects_bad_spec(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {"trials": 0})
    code = main(["sweep", spec, "--out-dir", str(tmp_path / "o")])
    assert code == 1


def test_sweep_checks_out_dir_before_running_cells(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(
        experiments, "run_cells", lambda *args, **kwargs: calls.append(args)
    )
    spec = write_json(tmp_path / "spec.json", sweep_spec_doc())
    out_file = tmp_path / "taken"
    out_file.write_text("")
    assert_clean_rejection(["sweep", spec, "--out-dir", str(out_file)], capsys)
    assert calls == []


def test_sweep_jobs_validation(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", sweep_spec_doc())
    assert_clean_rejection(
        ["sweep", spec, "--out-dir", str(tmp_path / "o"), "--jobs", "0"],
        capsys,
        "error: --jobs: must be an integer >= 1, got 0",
    )


def test_audit_small_clean_run(capsys):
    code = main(["audit", "--trials", "50", "--seed", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 violations" in out


def test_audit_detects_injected_mutant(capsys):
    code = main(["audit", "--trials", "80", "--seed", "4", "--inject-off-by-one"])
    out = capsys.readouterr().out
    assert code == 2
    assert "no_elimination" in out


def test_audit_zero_trials_is_usage_error(capsys):
    above = str((1 << 64) + 1)
    bad_flags = (
        ["--trials", "0"],
        ["--max-agents", "0"],
        ["--max-alternatives", "1"],
        ["--max-agents", above],
        ["--max-alternatives", above],
        ["--max-agents", "513", "--trials", "1"],
        ["--max-alternatives", "2561", "--trials", "1"],
    )
    for flags in bad_flags:
        code = main(["audit", *flags])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: {flags[0]}: must be an integer"
        )


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["play"])  # missing config argument
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 1


def uniform_config_doc(**overrides):
    doc = {
        "alternatives": ["a", "b", "c", "d"],
        "preferences": {"uniform": {"agents": 3}},
        "thresholds": "2n/m",
    }
    doc.update(overrides)
    return doc


def assert_clean_rejection(argv, capsys, message=""):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1, err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert message in err


def test_sweep_honors_seed_env_var(tmp_path, capsys, monkeypatch):
    doc = sweep_spec_doc()
    del doc["master_seed"]
    spec = write_json(tmp_path / "spec.json", doc)
    monkeypatch.setenv("VOTEGAME_SEED", "5")
    assert main(["sweep", spec, "--out-dir", str(tmp_path / "env")]) == 0
    report = json.loads((tmp_path / "env" / "report.json").read_text())
    assert report["master_seed"] == 5
    # the flag still wins over the environment
    assert main(["sweep", spec, "--out-dir", str(tmp_path / "f"), "--seed", "6"]) == 0
    assert json.loads((tmp_path / "f" / "report.json").read_text())["master_seed"] == 6
    # ... before the environment is even read
    monkeypatch.setenv("VOTEGAME_SEED", "abc")
    assert main(["sweep", spec, "--out-dir", str(tmp_path / "g"), "--seed", "6"]) == 0
    assert json.loads((tmp_path / "g" / "report.json").read_text())["master_seed"] == 6


def test_malformed_file_seed_is_an_error_despite_the_flag(tmp_path, capsys):
    play_doc = uniform_config_doc(
        preferences={"uniform": {"agents": 3, "master_seed": -1}}
    )
    config = write_json(tmp_path / "game.json", play_doc)
    assert_clean_rejection(["play", config, "--seed", "5"], capsys, "got -1")
    spec = write_json(tmp_path / "spec.json", {**sweep_spec_doc(), "master_seed": -1})
    argv = ["sweep", spec, "--out-dir", str(tmp_path / "out"), "--seed", "5"]
    assert_clean_rejection(argv, capsys, "got -1")


TWO_STAGE_RANKINGS = [["a", "b", "c", "d"]] * 2 + [["b", "a", "c", "d"]] * 2


def two_stage_config_doc(preferences=TWO_STAGE_RANKINGS):
    # two stages: a and b survive stage 1 on exactly 2 votes each, then both
    # fall short of the absorbed thresholds
    return {
        "alternatives": ["a", "b", "c", "d"],
        "preferences": preferences,
        "thresholds": "2n/m",
    }


def test_play_reports_a_tripped_stage_cap(tmp_path, capsys):
    # the stage cap is no longer settable (engine.max_stages is an unknown
    # field, see test_play_rejects_bad_max_stages); the game that a cap of 1
    # used to trip still plays out in two stages
    config = write_json(tmp_path / "game.json", two_stage_config_doc())
    assert main(["play", config]) == 0
    assert "all eliminated (rounds played: 2)" in capsys.readouterr().out


def test_play_profile_file_matches_inline_rankings(tmp_path, capsys):
    inline = write_json(tmp_path / "inline.json", two_stage_config_doc())
    assert main(["play", inline]) == 0
    expected = capsys.readouterr().out
    profile = write_json(tmp_path / "profile.json", TWO_STAGE_RANKINGS)
    from_file = write_json(
        tmp_path / "from_file.json", two_stage_config_doc({"file": profile})
    )
    assert main(["play", from_file]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "profile, message",
    [
        ([], "weights: need at least one agent"),
        ([["a", "a", "b", "c"]], "duplicates"),
        ([["a", "b", "c", "d"], "b"], "agent 2 entry is not a list"),
        ("nope", "profile file: must be a JSON list"),
        ([[1, 2, 3, 4]], "unknown alternative 1"),
    ],
    ids=["empty", "repeated-label", "record-not-list", "not-list", "non-string-labels"],
)
def test_play_rejects_malformed_profile_file(tmp_path, capsys, profile, message):
    path = write_json(tmp_path / "profile.json", profile)
    config = write_json(tmp_path / "game.json", two_stage_config_doc({"file": path}))
    assert_clean_rejection(["play", config], capsys, message)


@pytest.mark.parametrize(
    "command, doc",
    [
        ("sweep", {**sweep_spec_doc(), "trials": "5"}),
        ("sweep", {**sweep_spec_doc(), "alternative_counts": [10.5]}),
        ("sweep", {**sweep_spec_doc(), "master_seed": -1}),
        # sizes stop at the grid's largest, like the audit's size flags
        ("sweep", {**sweep_spec_doc(), "alternative_counts": [2561],
                   "agent_counts": [2], "trials": 1}),
        ("sweep", {**sweep_spec_doc(), "alternative_counts": [10],
                   "agent_counts": [513], "trials": 1}),
        ("play", uniform_config_doc(preferences={"uniform": {"agents": 513}})),
        ("play", uniform_config_doc(
            preferences={"uniform": {"agents": 3, "master_seed": -3}}
        )),
        ("play", uniform_config_doc(
            preferences={"uniform": {"agents": 3, "trial": -1}}
        )),
        ("play", uniform_config_doc(
            preferences={"uniform": {"agents": 3, "trial": 1 << 64}}
        )),
        ("play", cycle_config_doc(engine=5)),
        ("play", cycle_config_doc(engine={"threshold_rule": "sometimes"})),
        ("play", cycle_config_doc(preferences={"file": "missing.json"})),
        ("play", cycle_config_doc(thresholds={"x1": "1e3000000", "x2": 1, "x3": 1})),
    ],
    ids=[
        "trials-string",
        "fractional-count",
        "negative-seed",
        "too-many-alternatives",
        "too-many-agents",
        "too-many-uniform-agents",
        "negative-uniform-seed",
        "negative-trial",
        "trial-too-large",
        "engine-not-object",
        "bad-threshold-rule",
        "missing-profile-file",
        "exponent-threshold",
    ],
)
def test_malformed_input_is_one_error_line(tmp_path, capsys, monkeypatch, command, doc):
    monkeypatch.chdir(tmp_path)
    argv = [command, write_json(tmp_path / "doc.json", doc)]
    if command == "sweep":
        argv += ["--out-dir", "out"]
    assert_clean_rejection(argv, capsys)


# Every value below is malformed where it is put, so every generated
# document must be rejected.
NOT_INT = st.one_of(
    st.booleans(), st.floats(), st.text(max_size=3), st.lists(st.integers(), max_size=2)
)
NOT_LIST = st.one_of(st.integers(), st.text(max_size=3), st.booleans(), st.none())
NOT_OBJECT = st.one_of(
    st.integers(), st.text(max_size=3), st.lists(st.integers(), max_size=2)
)
BAD_SEED = st.one_of(
    st.integers(max_value=-1), st.integers(min_value=1 << 64), NOT_INT
)


def below(low):
    return st.one_of(st.integers(max_value=low - 1), NOT_INT)


def counts_below(low):
    return st.one_of(
        NOT_LIST, st.just([]), st.lists(below(low), min_size=1, max_size=3)
    )


def uniform(**fields):
    return st.fixed_dictionaries({"uniform": st.fixed_dictionaries(fields)})


BAD_PLAY_FIELDS = {
    "alternatives": st.one_of(
        NOT_LIST, st.just([]), st.just(["a", "a"]), st.lists(st.integers(), min_size=1)
    ),
    "weights": st.one_of(
        NOT_LIST,
        st.lists(st.integers(1, 3), max_size=2),
        st.lists(below(1), min_size=3, max_size=3),
    ),
    "preferences": st.one_of(
        st.integers(),
        st.just([]),
        st.lists(
            st.lists(st.sampled_from(["e", 1, None, []]), min_size=1),
            min_size=1,
            max_size=3,
        ),
        st.fixed_dictionaries({"file": NOT_INT}),
        st.fixed_dictionaries({"uniform": NOT_OBJECT}),
        uniform(agents=below(1)),
        uniform(agents=st.just(3), trial=BAD_SEED),
        uniform(agents=st.just(3), master_seed=BAD_SEED),
    ),
    "thresholds": st.one_of(
        st.integers(),
        st.text(max_size=3),
        st.dictionaries(st.sampled_from("abcd"), st.integers(0, 3), max_size=3),
        st.fixed_dictionaries(
            dict.fromkeys(
                "abcd", st.one_of(st.integers(max_value=-1), st.booleans(), st.floats())
            )
        ),
    ),
    "engine": st.one_of(
        NOT_OBJECT,
        st.dictionaries(
            st.sampled_from(["max_stages", "length_convention"]),
            st.integers(),
            min_size=1,
        ),
        st.fixed_dictionaries(
            {"threshold_rule": st.one_of(st.text(max_size=3), st.integers())}
        ),
        st.dictionaries(st.text(min_size=1, max_size=3), st.integers(), min_size=1),
    ),
    "trace_out": st.one_of(
        st.integers(), st.booleans(), st.lists(st.integers(), max_size=2)
    ),
    "color": st.integers(),
}
BAD_SWEEP_FIELDS = {
    "alternative_counts": counts_below(2),
    "agent_counts": counts_below(1),
    "trials": below(1),
    "master_seed": BAD_SEED,
    "length_convention": st.one_of(st.text(max_size=3), st.integers(), st.none()),
    "color": st.integers(),
}


def malformed(base, bad_fields):
    one_bad_field = st.sampled_from(sorted(bad_fields)).flatmap(
        lambda key: bad_fields[key].map(lambda value: {**base, key: value})
    )
    return st.one_of(one_bad_field, NOT_OBJECT)


FUZZ = settings(
    max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@FUZZ
@given(doc=malformed(uniform_config_doc(), BAD_PLAY_FIELDS))
def test_fuzz_malformed_play_config(tmp_path, capsys, monkeypatch, doc):
    monkeypatch.delenv("VOTEGAME_SEED", raising=False)
    assert_clean_rejection(["play", write_json(tmp_path / "game.json", doc)], capsys)


@FUZZ
@given(
    doc=malformed(
        {"alternative_counts": [10], "agent_counts": [2], "trials": 1},
        BAD_SWEEP_FIELDS,
    )
)
def test_fuzz_malformed_sweep_spec(tmp_path, capsys, doc):
    spec = write_json(tmp_path / "spec.json", doc)
    assert_clean_rejection(["sweep", spec, "--out-dir", str(tmp_path / "out")], capsys)
