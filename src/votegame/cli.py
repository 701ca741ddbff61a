"""Command-line surface: play one game, run a sweep, or audit the engine.

Exit codes are a stable contract: 0 success, 1 usage or config error,
2 audit violations, 3 a played game was non-terminating.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from importlib import resources
from pathlib import Path
from typing import Optional

from . import audit as audit_mod
from . import experiments, serialize
from .core import InvalidConfig
from .engine import AllEliminated, NonTerminating, StageLimitExceeded, Winner, play

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATIONS = 2
EXIT_NON_TERMINATING = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments by default; 2 is reserved for audit
    # violations here, so usage problems must exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _resolve_config_path(arg: str) -> Path:
    if arg.startswith("bundled:"):
        name = arg[len("bundled:"):]
        ref = resources.files("votegame").joinpath("data", f"{name}.json")
        if not ref.is_file():
            raise InvalidConfig(f"no bundled config named {name!r}")
        return Path(str(ref))
    return Path(arg)


def _format_votes(record, id_to_label) -> str:
    return " ".join(
        f"{id_to_label[x]}={r}" for x, r in sorted(record.tally.items())
    )


def cmd_play(args) -> int:
    path = _resolve_config_path(args.config)
    config, options, labels, trace_out = serialize.load_run_config(path, args.seed)
    if config.trivial_all_eliminated:
        print(
            "warning: every threshold exceeds the total vote weight; "
            "stage 1 eliminates everything"
        )
    try:
        trace = play(config, options)
    except StageLimitExceeded as exc:  # a user-set engine.max_stages tripped
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for record in trace.stages:
        gone = ", ".join(labels[x] for x in sorted(record.eliminated)) or "none"
        line = f"stage {record.stage}: eliminated {gone}"
        if len(record.live_before) <= 20:
            line += f" | votes {_format_votes(record, labels)}"
        print(line)
    if args.trace_out:
        trace_out = args.trace_out
    if trace_out:
        serialize.save_trace(trace, trace_out, labels)
        print(f"trace written to {trace_out}")
    outcome = trace.outcome
    if isinstance(outcome, Winner):
        print(
            f"winner: {labels[outcome.alternative]} "
            f"(rounds played: {trace.rounds_played})"
        )
        return EXIT_OK
    if isinstance(outcome, AllEliminated):
        print(f"all eliminated (rounds played: {trace.rounds_played})")
        return EXIT_OK
    assert isinstance(outcome, NonTerminating)
    print(f"non-terminating at stage {outcome.at_stage}")
    return EXIT_NON_TERMINATING


def _trend_line(result) -> str:
    if result.axis == "agents":
        head = f"row m={result.fixed}"
        peak = f"n={result.peak_key}"
    else:
        head = f"column n={result.fixed}"
        peak = f"m={result.peak_key}"
    if not result.unimodal:
        return f"{head}: not unimodal within tolerance"
    if result.rise_then_fall:
        return f"{head}: rise-then-fall, peak at {peak}"
    return f"{head}: peak at boundary ({peak})"


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    spec = serialize.read_sweep_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, master_seed=serialize.default_seed(args.seed))
    report = experiments.run_sweep(spec, jobs=args.jobs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid_path = out_dir / "grid.csv"
    report_path = out_dir / "report.json"
    experiments.write_grid_csv(report, grid_path)
    experiments.write_report_json(report, report_path)
    print(f"wrote {grid_path}")
    print(f"wrote {report_path}")
    trends = experiments.trend_check(report)
    for result in trends.rows + trends.columns:
        print(_trend_line(result))
    return EXIT_OK


def cmd_audit(args) -> int:
    for flag, value, low in (
        ("--trials", args.trials, 1),
        ("--max-agents", args.max_agents, 1),
        ("--max-alternatives", args.max_alternatives, 2),
    ):
        if value < low:
            print(f"error: {flag} must be at least {low}", file=sys.stderr)
            return EXIT_USAGE
    override = audit_mod.off_by_one_elimination if args.inject_off_by_one else None
    report = audit_mod.run_audit(
        trials=args.trials,
        master_seed=serialize.default_seed(args.seed),
        max_agents=args.max_agents,
        max_alternatives=args.max_alternatives,
        elimination_override=override,
    )
    print(
        f"audited {report.games} games "
        f"({report.stages_checked} stages; guarantee held at "
        f"{report.condition_stages})"
    )
    print(
        f"threshold-mass conservation checked on {report.updating_games} "
        f"updating-rule games"
    )
    for v in report.violations[:10]:
        print(f"violation: game {v.game_index} stage {v.stage}: {v.kind} ({v.detail})")
    print(f"{len(report.violations)} violations")
    return EXIT_OK if report.passed else EXIT_VIOLATIONS


def build_parser() -> _Parser:
    parser = _Parser(
        prog="votegame",
        description="Multistage voting games with alternative elimination.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_play = sub.add_parser("play", help="play one game from a config file")
    p_play.add_argument(
        "config", help="config file path, or bundled:<name> for a packaged fixture"
    )
    p_play.add_argument("--trace-out", help="write the full game trace here")
    p_play.add_argument(
        "--seed", type=int, help="master seed for generated preferences"
    )
    p_play.set_defaults(func=cmd_play)

    p_sweep = sub.add_parser("sweep", help="run a Monte Carlo length sweep")
    p_sweep.add_argument("spec", help="sweep spec JSON file")
    p_sweep.add_argument("--out-dir", default=".", help="output directory")
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_sweep.add_argument(
        "--seed", type=int, help="override the sweep file's master seed"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_audit = sub.add_parser(
        "audit", help="randomized audit of elimination and conservation guarantees"
    )
    p_audit.add_argument("--trials", type=int, default=10_000)
    p_audit.add_argument("--seed", type=int)
    p_audit.add_argument("--max-agents", type=int, default=16)
    p_audit.add_argument("--max-alternatives", type=int, default=12)
    p_audit.add_argument(
        "--inject-off-by-one", action="store_true", help=argparse.SUPPRESS
    )
    p_audit.set_defaults(func=cmd_audit)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfig, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
