"""Per-layer tracing by patching the package's public functions from outside.

``Tracer`` replaces module and class attributes of ``votegame`` with timing
wrappers while it is active and restores them on exit; nothing under
``src/`` is edited.  Every wrapper counts calls and accumulates inclusive and
self time, where self time is the wrapper's interval minus the intervals of
the traced calls made inside it.  Cell, game and stage-operation calls also
record a span (id, parent, root, name, start, end) held in memory; the hot
leaf calls (``next_u64``, ``below``, ``first_in``) run millions of times and
are only aggregated.  Each wrapper's own cost per call is calibrated on a
no-op when tracing starts and taken out of the self times reported; what
remains of it (the call into the wrapper) lands in the caller.

Layers and what is patched:

* rng: ``Xoshiro256StarStar`` construction, ``next_u64``, ``below``, ``shuffle``
* prefs: ``incremental_rankings``, ``IncrementalRanking.first_in``
* core: ``tally``, ``eliminate``, ``update_thresholds``
* engine: ``run_stages``, ``play``, ``audit_elimination_guarantee``
* experiments: ``run_cells`` and the report writers
* audit: ``run_audit``, ``random_guaranteed_config``, and the
  ``core.threshold_total`` calls it makes to check mass conservation
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict

import workloads  # noqa: F401  (puts the checkout's source tree on sys.path)
from votegame import audit, core, engine, experiments, prefs, rng

LAYERS = ("rng", "prefs", "core", "engine", "experiments", "audit")

# (owner, attribute, key, span?) -- the key's first part names the layer.
# run_stages and incremental_rankings are bound by name in two modules.
TARGETS = (
    (rng.Xoshiro256StarStar, "__init__", "rng.stream", False),
    (rng.Xoshiro256StarStar, "next_u64", "rng.next_u64", False),
    (rng.Xoshiro256StarStar, "below", "rng.below", False),
    (rng.Xoshiro256StarStar, "shuffle", "rng.shuffle", False),
    (prefs, "incremental_rankings", "prefs.incremental_rankings", False),
    (experiments, "incremental_rankings", "prefs.incremental_rankings", False),
    (rng.IncrementalRanking, "first_in", "prefs.first_in", False),
    (core, "tally", "core.tally", True),
    (core, "eliminate", "core.eliminate", True),
    (core, "update_thresholds", "core.update", True),
    (engine, "run_stages", "engine.run_stages", True),
    (experiments, "run_stages", "engine.run_stages", True),
    (engine, "play", "engine.play", True),
    (engine, "audit_elimination_guarantee", "engine.check", True),
    (experiments, "run_cells", "experiments.cell", True),
    (experiments, "trend_check", "experiments.report", True),
    (experiments, "write_grid_csv", "experiments.report", True),
    (experiments, "write_report_json", "experiments.report", True),
    (audit, "run_audit", "audit.run", True),
    (audit, "random_guaranteed_config", "audit.config", False),
    (core, "threshold_total", "audit.check", False),
)

# Keys whose calls also record how many draws were made inside them.
DRAW_SCOPES = ("prefs.first_in", "audit.config")


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "items", "draws", "cost")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.items = 0  # stages played, alternatives eliminated over, cells run
        self.draws = 0  # draws made inside, for DRAW_SCOPES keys
        self.cost = 0.0  # the wrapper's own seconds per call, calibrated

    @property
    def net_self_s(self) -> float:
        """Self time less the wrapper's own calibrated cost."""
        return max(0.0, self.self_s - self.calls * self.cost)


# How a call's result or arguments add to Stat.items.
_ITEMS = {
    "engine.run_stages": lambda args, result: len(result[0]),
    "core.eliminate": lambda args, result: len(args[0]),
    "experiments.cell": lambda args, result: len(result.cells),
}


def _noop(*args):
    return None


class Tracer:
    """Context manager: patches on enter, restores on exit."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.spans: list[tuple] = []
        # Seconds covered by traced calls inside the innermost open call: a
        # wrapper zeroes it on entry, reads its children's time from it on
        # exit, then restores its caller's value plus its own interval.
        self._child_s = [0.0]
        self._span_stack: list[int] = []
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []
        self.t0 = time.perf_counter()

    def __enter__(self):
        costs = {}
        for owner, attr, key, span in TARGETS:
            kind = (key == "rng.next_u64", span, key in DRAW_SCOPES)
            if kind not in costs:
                costs[kind] = _calibrate(kind)
            stat = self.stats[key]
            stat.cost = costs[kind]
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(stat, original, *kind, _ITEMS.get(key), key))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, stat, fn, leaf, span, scoped, items, key):
        # Each wrapper reads the clock first and last, with its bookkeeping in
        # between, so its cost falls in its own interval (and is calibrated
        # out of its self time) rather than in its caller's.
        acc = self._child_s
        perf = time.perf_counter

        if leaf:
            # next_u64: the hottest call, and nothing traced runs inside it
            def leaf_wrapper(rng_):
                t0 = perf()
                result = fn(rng_)
                stat.calls += 1
                dt = perf() - t0
                stat.self_s += dt
                acc[0] += dt
                return result

            return leaf_wrapper

        if not span and not scoped:
            def plain(*args, **kwargs):
                t0 = perf()
                outer = acc[0]
                acc[0] = 0.0
                try:
                    return fn(*args, **kwargs)
                finally:
                    inner = acc[0]
                    stat.calls += 1
                    dt = perf() - t0
                    stat.self_s += dt - inner
                    stat.total_s += dt
                    acc[0] = outer + dt

            return plain

        draws = self.stats["rng.next_u64"]
        spans, span_stack, ids = self.spans, self._span_stack, self._ids

        def wrapper(*args, **kwargs):
            t0 = perf()
            outer = acc[0]
            acc[0] = 0.0
            d0 = draws.calls
            if span:
                sid = next(ids)
                parent = span_stack[-1] if span_stack else 0
                root = span_stack[0] if span_stack else sid
                span_stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                if span:
                    span_stack.pop()
                inner = acc[0]
                stat.calls += 1
                if scoped:
                    stat.draws += draws.calls - d0
                t1 = perf()
                dt = t1 - t0
                stat.self_s += dt - inner
                stat.total_s += dt
                acc[0] = outer + dt
            if span:
                spans.append((sid, parent, root, key, t0, t1))
            if items is not None:
                stat.items += items(args, result)
            return result

        return wrapper

    def layer_self_s(self, layer: str) -> float:
        return sum(
            s.net_self_s for k, s in self.stats.items() if k.split(".")[0] == layer
        )

    def cost_s(self) -> float:
        """The wrappers' own calibrated cost, summed over every traced call."""
        return sum(s.calls * s.cost for s in self.stats.values())

    def span_records(self) -> list[dict]:
        return [
            {
                "id": sid,
                "parent": parent,
                "root": root,
                "name": name,
                "start_s": round(t0 - self.t0, 9),
                "end_s": round(t1 - self.t0, 9),
            }
            for sid, parent, root, name, t0, t1 in self.spans
        ]


def _calibrate(kind, calls: int = 1000, reps: int = 7) -> float:
    """Seconds a wrapper of this kind adds to its own self time per call,
    measured around a no-op (the best of several repetitions)."""
    scratch = Tracer()
    stat = Stat()
    wrapped = scratch._wrap(stat, _noop, *kind, None, "calibration")
    best = float("inf")
    for _ in range(reps):
        stat.calls, stat.self_s = 0, 0.0
        for _ in range(calls):
            wrapped(None)
        best = min(best, stat.self_s / calls)
    return best
