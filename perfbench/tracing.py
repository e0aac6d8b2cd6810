"""Spans around the benchmark's calls into rbcsp, and a traced ULSA replay.

Spans are kept in memory; the benchmark writes them out as JSON lines when
it ends.  Each span has an id, the id of the span that was open when it started
(its parent), a name, start and end times from `time.perf_counter`, and
attributes.  Spans sit at the benchmark's own call boundaries; nothing is
added inside the program.
"""

from __future__ import annotations

import itertools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np
from rbcsp import StepStats, TargetSpec, check_target, init_state, step


class Tracer:
    """Collects spans; nested `span` blocks record their enclosing span as parent."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": next(self._ids), "parent": self._open[-1] if self._open else None,
               "name": name, "attrs": attrs}
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
            self.spans.append(rec)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))


class NullTracer(Tracer):
    """Records nothing; used for the untraced runs that give end-to-end metrics."""

    @contextmanager
    def span(self, name: str, **attrs):
        yield {}


@dataclass
class Replay:
    """What a replayed run did, in the terms of `ulsa.RunRecord`."""

    iterations: int
    stats: StepStats
    best_conflicts: int
    assignment: Optional[list[int]]
    subset: Optional[list[int]]
    best_assignment: Optional[list[int]]
    init_s: float
    step_s: float
    check_s: float
    check_calls: int
    check_hits: int


def replay(tracer: Tracer, instance, seed: int, target: Optional[TargetSpec] = None,
           budget: int = 0, track_best: bool = False) -> Replay:
    """Re-run `ulsa.run`'s loop through the public init_state, step and check_target.

    `run` draws its uniforms in blocks from the same PCG64 stream that `step`
    draws from one at a time, so without restarts the two follow the same
    trajectory.  Step time is summed into the caller's span rather than given
    a span per step, since a run takes up to millions of steps.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    with tracer.span("ulsa.init_state") as sp:
        state = init_state(instance, rng)
    init_s = sp["end"] - sp["start"]
    stats = StepStats()
    best = state.num_conflicts
    best_assignment = state.values_tuple() if track_best else None
    cap = target.conflict_cap if target is not None else -1
    iters = calls = hits = 0
    check_s = 0.0
    success = False
    subset = None
    start = time.perf_counter()
    while True:
        conflicts = state.num_conflicts
        if conflicts < best:
            best = conflicts
            if track_best:
                best_assignment = state.values_tuple()
        if conflicts == 0:
            success = True
            break
        if conflicts <= cap:
            with tracer.span("target.check_target", iteration=iters) as sp:
                found = check_target(state, target)
            check_s += sp["end"] - sp["start"]
            calls += 1
            if found is not None:
                hits += 1
                success = True
                subset = found
                break
        if budget and iters >= budget:
            break
        step(state, rng, stats)
        iters += 1
    loop_s = time.perf_counter() - start
    return Replay(
        iterations=iters,
        stats=stats,
        best_conflicts=best,
        assignment=state.as_assignment().as_list() if success else None,
        subset=subset,
        best_assignment=list(best_assignment) if track_best else None,
        init_s=init_s,
        step_s=loop_s - check_s,
        check_s=check_s,
        check_calls=calls,
        check_hits=hits,
    )


def replay_mismatches(rep: Replay, iterations, stats, assignment, subset,
                      best_conflicts, best_assignment=None) -> list[str]:
    """Differences between a replay and the record of the run it replays."""
    got = {
        "iterations": rep.iterations,
        "counters": [rep.stats.iterations, rep.stats.expansions, rep.stats.worsening],
        "assignment": rep.assignment,
        "subset": rep.subset,
        "best_conflicts": rep.best_conflicts,
    }
    want = {
        "iterations": iterations,
        "counters": stats,
        "assignment": assignment,
        "subset": subset,
        "best_conflicts": best_conflicts,
    }
    if best_assignment is not None:
        got["best_assignment"] = rep.best_assignment
        want["best_assignment"] = best_assignment
    return [f"replay {key} differs from the run" for key in want if got[key] != want[key]]
