"""Tests of the benchmark itself: its output checks catch doctored results,
and a tiny run of every workload prints every metric it declares.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import TARGETS, Tracer
from votegame import audit, experiments

BENCHMARK = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
COUNT_METRICS = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


@pytest.fixture(scope="module")
def real_cell():
    return experiments.run_cells([(40, 32)], 20, 7).cells[(40, 32)]


def test_real_cell_passes_the_check(real_cell, reference):
    assert workloads.check_cell(real_cell, 40, 32, 20, reference)


@pytest.mark.parametrize(
    "doctor",
    [
        lambda r: dict(winner_count=r.winner_count + 1),
        lambda r: dict(all_eliminated_count=r.all_eliminated_count - 1),
        lambda r: dict(rounds_total=r.rounds_total + r.trials),  # every game one round longer
        lambda r: dict(rounds_total=r.rounds_total - r.trials),
        lambda r: dict(rounds_total=39 * r.trials + 1),  # beyond the m-1 bound
        lambda r: dict(trials=r.trials + 1),
    ],
    ids=["winner", "all_eliminated", "longer", "shorter", "bound", "trials"],
)
def test_doctored_cell_is_counted_failed(real_cell, reference, doctor):
    bad = dataclasses.replace(real_cell, **doctor(real_cell))
    assert not workloads.check_cell(bad, 40, 32, 20, reference)


def test_one_rare_game_in_a_zero_spread_cell_passes(reference):
    # (2560, 2) showed no spread in the reference, but both agents naming the
    # same alternative first ends a game a round early with p = 1/2560
    assert reference[(2560, 2)][1] > 0
    assert workloads.mean_within(2560, 2, 10, 19, reference)
    assert workloads.mean_within(2560, 2, 120, 239, reference)
    assert not workloads.mean_within(2560, 2, 10, 17, reference)


def test_pooled_bias_is_counted_failed(reference):
    # each pass alone passes its check, but the run as a whole is one round
    # long in every fourth game of (640, 512)
    m, n, trials = 640, 512, 8
    mean = reference[(m, n)][0]
    rounds = round(mean * trials) + trials // 4
    assert workloads.mean_within(m, n, trials, rounds, reference)
    counts = [(seed, m, n, trials, trials, 0, rounds, 0) for seed in range(200)]
    assert workloads.pooled_failures(counts, reference) == 200
    fair = [(seed, m, n, trials, trials, 0, round(mean * trials), 0) for seed in range(200)]
    assert workloads.pooled_failures(fair, reference) == 0


def _tiny(name, **overrides):
    sizes = {"grid": 1, "deep": 1, "wide": 4, "audit": 50}
    return dataclasses.replace(
        workloads.WORKLOADS[name], size=sizes[name], traced_passes=1, **overrides
    )


def test_doctored_sweep_pass_fails_every_cell(monkeypatch, reference, tmp_path):
    real = experiments.run_cells

    def doctored(*args, **kwargs):
        report = real(*args, **kwargs)
        cells = {
            k: dataclasses.replace(r, rounds_total=r.rounds_total + r.trials)
            for k, r in report.cells.items()
        }
        return dataclasses.replace(report, cells=cells)

    monkeypatch.setattr(experiments, "run_cells", doctored)
    w = _tiny("wide")
    outcome = workloads.run_pass(w, 3, reference, tmp_path, 1, False)
    assert outcome.failed == outcome.units == len(w.cells)


def test_raising_cell_is_counted_failed(monkeypatch, reference, tmp_path):
    real = experiments.run_cells

    def raising(cells, *args, **kwargs):
        if list(cells) == [(2560, 16)]:
            raise RuntimeError("injected")
        return real(cells, *args, **kwargs)

    monkeypatch.setattr(experiments, "run_cells", raising)
    outcome = workloads.run_pass(_tiny("wide"), 3, reference, tmp_path, 1, True)
    assert outcome.failed == 1


def test_off_by_one_audit_is_counted_failed(monkeypatch, reference, tmp_path):
    # mirrors the audit's own negative control: a lenient engine must fail
    real = audit.run_audit
    monkeypatch.setattr(
        audit, "run_audit",
        lambda **kw: real(elimination_override=audit.off_by_one_elimination, **kw),
    )
    outcome = workloads.run_pass(_tiny("audit"), 3, reference, tmp_path, 1, False)
    assert 0 < outcome.failed <= outcome.units


def test_doctored_audit_report_is_counted_failed():
    report = audit.run_audit(trials=30, master_seed=1)
    assert workloads.failed_games(report, 30) == 0
    assert workloads.failed_games(report, 31) == 31
    short = dataclasses.replace(report, condition_stages=report.games - 1)
    assert workloads.failed_games(short, 30) == 30


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric(name, trace, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    run.run(_tiny(name), seed=5, seconds=0, trace=bool(trace))
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] for line in lines)
    assert any(line.split()[:1] == ["failed_share"] for line in lines)


def test_traced_counts_repeat_exactly(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    results = []
    for _ in range(2):
        run.run(_tiny("deep"), seed=9, seconds=0, trace=True)
        metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
        results.append({k: metrics[k]["value"] for k in COUNT_METRICS})
    assert results[0] == results[1]
    assert results[0]["rng.draws"] > 0 and results[0]["engine.stages"] > 0


def test_tracer_restores_what_it_patched():
    before = [owner.__dict__[attr] for owner, attr, _, _ in TARGETS]
    with Tracer():
        assert any(
            owner.__dict__[attr] is not fn
            for (owner, attr, _, _), fn in zip(TARGETS, before)
        )
    assert [owner.__dict__[attr] for owner, attr, _, _ in TARGETS] == before


def test_without_the_package_the_benchmark_exits_nonzero(tmp_path):
    here = Path(__file__).parent
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
