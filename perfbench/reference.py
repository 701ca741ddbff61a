"""Record the reference mean and spread of game length for every benchmark cell.

The benchmark's output check compares each cell's mean rounds played with
these values, so it holds for any random stream that plays the same game.
Recorded once from the package as it stood when the benchmark was defined;
rerun only when the game itself (not its random stream) changes:

    python3 perfbench/reference.py

Results do not depend on the job count, so it uses every usable CPU.
"""

from __future__ import annotations

import json
import math
import os

import workloads
from votegame import experiments

TRIALS = 2000
MASTER_SEED = 0x5EED_BE7C


def main() -> None:
    cells = list(
        dict.fromkeys(workloads.GRID_CELLS + workloads.DEEP_CELLS + workloads.WIDE_CELLS)
    )
    report = experiments.run_cells(
        cells, TRIALS, MASTER_SEED, jobs=len(os.sched_getaffinity(0))
    )
    out = {}
    for (m, n), res in sorted(report.cells.items()):
        d = res.decided
        mean = res.rounds_total / d
        var = max(0.0, res.rounds_sq_total / d - mean * mean) * d / (d - 1)
        out[f"{m}x{n}"] = {
            "alternatives": m,
            "agents": n,
            "mean": mean,
            "sd": math.sqrt(var),
        }
    doc = {"trials": TRIALS, "master_seed": MASTER_SEED, "cells": out}
    workloads.REFERENCE_PATH.write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
