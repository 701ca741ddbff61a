"""votegame benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 55 --trace 0

Each run is a closed loop in one process (plus at most ``jobs`` pool
workers): it plays passes of the workload (see ``workloads.py``) back to
back, each made from its own master seed drawn from ``--seed``, until
``--seconds`` have passed, and checks every pass's output.  Each cell's mean
game length is also checked once more, pooled over the whole run.

``--trace 0`` reports the end-to-end metrics over the whole run; sums,
not medians of per-pass figures, because passes differ in their inputs:

* ``games_per_s``: games over the summed wall time of the passes (a game is
  a trial of a cell, or an audited game).
* ``cpu_s_per_game``: the summed CPU time of the passes, of this process and
  its reaped pool workers, per game.
* ``setup_s``: a fresh interpreter importing votegame and building the
  workload's inputs, the median of probes run between passes.
* ``peak_rss_mb``: peak RSS of this process or any of its children.

``failed_share`` (failed units / attempted units, a unit being a cell or an
audited game; a unit that raises counts as failed) is printed with them and
carried by the result's ``attempted`` and ``failed`` keys.

``--trace 1`` spends half the time on untraced passes, then runs a fixed
number of passes (so exact counts repeat at a fixed seed) serially with
``tracer.Tracer`` patched in.  It reports per-layer metrics; each layer's
share of the traced passes' time, net of the tracer's own cost; the process
pool's busy time and idle share, from the untraced passes; and
``trace.overhead``, one minus traced over untraced games per second of the
same serial passes.  Self times have the tracer's calibrated per-call cost
taken out; ``rng.ns_per_draw`` is rng self time over draws, stream seeding
included.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (run metadata, a
pure-Python reference loop timed before and after as a host-speed reading,
the exact-count digest, per-pass figures) goes to ``perfbench/out/``, and a
traced run writes its spans there too.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
MIN_SETUPS = 7

END_TO_END_UNITS = {
    "games_per_s": "1/s",
    "cpu_s_per_game": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# A fresh interpreter that imports the package and builds a workload's inputs.
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "workloads.build(sys.argv[2], int(sys.argv[3]))"
)


@dataclasses.dataclass
class PassStat:
    games: int
    units: int
    failed: int
    wall_s: float
    cpu_self_s: float
    cpu_children_s: float

    @property
    def games_per_s(self) -> float:
        return self.games / self.wall_s


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def measure(
    workload, seeds, reference, jobs, per_cell, seconds, min_passes, counts,
    between=None,
):
    """Run passes back to back until ``seconds`` have passed and at least
    ``min_passes`` are done; ``seconds=0`` runs exactly ``min_passes``.
    ``between`` runs before each pass, outside its timing."""
    stats = []
    start = time.perf_counter()
    while len(stats) < min_passes or time.perf_counter() - start < seconds:
        if between is not None:
            between()
        seed = next(seeds)
        c0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        outcome = workloads.run_pass(
            workload, seed, reference, OUT_DIR / f"{workload.name}-reports",
            jobs, per_cell,
        )
        wall = time.perf_counter() - t0
        stats.append(
            PassStat(
                outcome.games, outcome.units, outcome.failed, wall,
                _cpu(resource.RUSAGE_SELF) - c0[0],
                _cpu(resource.RUSAGE_CHILDREN) - c0[1],
            )
        )
        counts.extend(outcome.counts)
    return stats


def median_of(stats, fn) -> float:
    return statistics.median(fn(s) for s in stats)


def setup_probe(name: str, seed: int) -> float:
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-I", "-c", SETUP_PROBE, str(HERE), name, str(seed)],
        check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def host_drift_s() -> float:
    """Time a fixed pure-Python loop; a reading of host speed, never used to
    normalise the metrics."""
    t0 = time.perf_counter()
    x = 0
    for i in range(1_500_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024


def end_to_end(workload, seed, seconds, reference, counts):
    # Set-up is probed between passes, about MIN_SETUPS times spread over the
    # run, so it samples the same stretch of host speed as the passes do.
    setups = []
    last = [time.perf_counter()]

    def probe():
        if time.perf_counter() - last[0] >= seconds / MIN_SETUPS:
            setups.append(setup_probe(workload.name, seed))
            last[0] = time.perf_counter()

    stats = measure(
        workload, workloads.pass_seeds(workload, seed), reference,
        workload.jobs, False, seconds, 1, counts, probe,
    )
    while len(setups) < MIN_SETUPS:
        setups.append(setup_probe(workload.name, seed))
    games = sum(s.games for s in stats)
    metrics = {
        "games_per_s": games / sum(s.wall_s for s in stats),
        "cpu_s_per_game": sum(s.cpu_self_s + s.cpu_children_s for s in stats) / games,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, stats


def per_layer(workload, seed, seconds, reference, counts):
    stats = []
    budget = seconds / 2
    if workload.jobs > 1:
        budget /= 2
        pool = measure(
            workload, workloads.pass_seeds(workload, seed), reference,
            workload.jobs, False, budget, 1, counts,
        )
        stats += pool
    serial = measure(
        workload, workloads.pass_seeds(workload, seed), reference,
        1, True, budget, workload.traced_passes, counts,
    )
    stats += serial
    if workload.jobs == 1:
        pool = serial
    with Tracer() as tracer:
        traced = measure(
            workload, workloads.pass_seeds(workload, seed), reference,
            1, True, 0, workload.traced_passes, counts,
        )
    stats += traced
    traced_wall = sum(s.wall_s for s in traced)
    jobs = workload.jobs

    def busy(s):
        return s.cpu_children_s if jobs > 1 else s.cpu_self_s

    st = tracer.stats
    draws = st["rng.next_u64"].calls
    first_in = st["prefs.first_in"]
    rng_self = tracer.layer_self_s("rng")
    metrics = {
        "rng.draws": (draws, "count"),
        "rng.streams": (st["rng.stream"].calls, "count"),
        "rng.self_s": (rng_self, "s"),
        "rng.ns_per_draw": (rng_self / draws * 1e9 if draws else 0.0, "ns"),
        "prefs.first_in_calls": (first_in.calls, "count"),
        "prefs.votes_per_draw": (
            first_in.calls / first_in.draws if first_in.draws else 0.0, "ratio"
        ),
        "prefs.self_s": (tracer.layer_self_s("prefs"), "s"),
        "prefs.setup_s": (st["prefs.incremental_rankings"].total_s, "s"),
        "core.tally.calls": (st["core.tally"].calls, "count"),
        "core.tally.self_s": (st["core.tally"].net_self_s, "s"),
        "core.eliminate.calls": (st["core.eliminate"].calls, "count"),
        "core.eliminate.alternatives": (st["core.eliminate"].items, "count"),
        "core.eliminate.self_s": (st["core.eliminate"].net_self_s, "s"),
        "core.update.calls": (st["core.update"].calls, "count"),
        "core.update.self_s": (st["core.update"].net_self_s, "s"),
        "engine.games": (st["engine.run_stages"].calls, "count"),
        "engine.stages": (st["engine.run_stages"].items, "count"),
        "engine.self_s": (tracer.layer_self_s("engine"), "s"),
        "engine.check_s": (st["engine.check"].total_s, "s"),
        "experiments.cells": (st["experiments.cell"].items, "count"),
        "experiments.self_s": (st["experiments.cell"].net_self_s, "s"),
        "experiments.report_s": (st["experiments.report"].total_s, "s"),
        "experiments.pool.busy_s": (median_of(pool, busy), "s"),
        "experiments.pool.idle_share": (
            median_of(pool, lambda s: 1 - busy(s) / (jobs * s.wall_s)), "ratio"
        ),
        "audit.config_s": (st["audit.config"].total_s, "s"),
        "audit.config_draws": (st["audit.config"].draws, "count"),
        "audit.check_s": (st["audit.run"].net_self_s + st["audit.check"].total_s, "s"),
        "trace.overhead": (
            1 - (sum(s.games for s in traced) / traced_wall)
            / median_of(serial, lambda s: s.games_per_s),
            "ratio",
        ),
    }
    program_s = traced_wall - tracer.cost_s()
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (tracer.layer_self_s(layer) / program_s, "ratio")
    return metrics, stats, tracer


def metadata(workload, seed, seconds, trace) -> dict:
    src = workloads.SRC
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(src).as_posix().encode())
            h.update(path.read_bytes())
    commit = None  # a checkout without git history
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": dataclasses.asdict(workload),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def record_path(name: str, seed: int, trace: bool) -> Path:
    return OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; prints the report and returns the result object."""
    meta = metadata(workload, seed, seconds, int(trace))
    reference = workloads.load_reference()
    counts: list = []
    drift_before = host_drift_s()
    if trace:
        metrics, stats, tracer = per_layer(workload, seed, seconds, reference, counts)
    else:
        metrics, stats = end_to_end(workload, seed, seconds, reference, counts)
    drift_after = host_drift_s()
    attempted = sum(s.units for s in stats)
    # A cell whose pooled mean is off fails in every pass; max() so no unit
    # that also failed its own pass's check is counted twice.
    failed = max(
        sum(s.failed for s in stats), workloads.pooled_failures(counts, reference)
    )
    unit = "cells" if workload.cells else "games"
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    path = record_path(workload.name, seed, trace)
    path.parent.mkdir(exist_ok=True)
    record = {
        "meta": meta,
        "result": result,
        "failed_share": failed / attempted,
        "host_drift_s": {"before": drift_before, "after": drift_after},
        "counts_digest": workloads.digest(counts),
        "passes": [vars(s) for s in stats],
    }
    path.write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        path.with_suffix(".spans.json").write_text(json.dumps(tracer.span_records()))

    print(
        f"workload {workload.name} seed {seed} trace {int(trace)}: "
        f"{len(stats)} passes of {workload.games_per_pass} games, jobs {workload.jobs}"
    )
    for name, (value, u) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {u}")
    print(f"  {'failed_share':<30} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} {unit} failed)")
    print(f"  host_drift_s before {drift_before:.4f} after {drift_after:.4f} "
          f"(reference loop; metrics are not normalised by it)")
    print(f"  counts_digest {record['counts_digest']}  record {path}")
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="votegame benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
