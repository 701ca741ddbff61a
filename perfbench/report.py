"""Run every workload untraced and traced, and print one table of all metrics.

    python3 perfbench/report.py --seed 1 --seconds 55 [--out perfbench/baseline.json]

Each run is its own ``run.py`` process, so peak RSS is per workload.  With
``--out`` the runs' full records (metadata, metrics, host-drift readings,
count digests) are saved together as a baseline.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    records = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                check=True, stdout=subprocess.DEVNULL,
            )
            records.setdefault(name, {})["traced" if trace else "untraced"] = (
                json.loads(run.record_path(name, args.seed, trace).read_text())
            )

    names = list(records)
    print(f"{'metric':<30} {'unit':<6}" + "".join(f"{n:>14}" for n in names))
    for kind in ("untraced", "traced"):
        first = records[names[0]][kind]["result"]["metrics"]
        for metric, v in first.items():
            cells = "".join(
                f"{records[n][kind]['result']['metrics'][metric]['value']:>14.6g}"
                for n in names
            )
            print(f"{metric:<30} {v['unit']:<6}{cells}")
        cells = "".join(f"{records[n][kind]['failed_share']:>14.6g}" for n in names)
        print(f"{'failed_share' if kind == 'untraced' else 'failed_share (traced)':<30} "
              f"{'ratio':<6}{cells}")
    if args.out:
        args.out.write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
