"""ULSA: unweighted stochastic local search for random binary CSPs.

Each iteration picks a violated constraint uniformly at random, prefers its
older-timestamped endpoint, and reassigns one endpoint to a conflict-
minimizing value, always a *different* value, even when that worsens the
total.  When the preferred endpoint cannot change without increasing
conflicts and the other endpoint was not the variable changed last iteration,
the candidate set expands to both endpoints ("neighborhood expansion").  No
weights or penalties are maintained; occasional forced worsening moves are
what gets the search out of local optima.

The per-iteration work is one or two gathers of a variable's incident
relation rows plus bookkeeping over the changed variable's slots.  `run`
takes its steps in a compiled kernel (_kernel.c) when one can be built, and
in `_step`, the Python reference, otherwise; both follow the same
trajectory.  The kernel keeps a per-run cache that a change updates at the
far end of its slots: every variable's conflict count at every value where
the host and the instance allow it, and each slot's current row otherwise
(see `_KernelRun`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from . import _native
from .core import Assignment, CspInstance, SearchState, conflict_count
from .target import TargetSpec, check_target, subset_conflicts

_MASK = 1 << 30  # bigger than any conflict count; hides the current value


@dataclass
class StepStats:
    """Counters over applied iterations.

    expansions: iterations whose candidate set grew to both endpoints.
    worsening: iterations whose applied change strictly increased conflicts.
    """

    iterations: int = 0
    expansions: int = 0
    worsening: int = 0

    @property
    def expansion_rate(self) -> float:
        return self.expansions / self.iterations if self.iterations else 0.0

    @property
    def worsening_rate(self) -> float:
        return self.worsening / self.iterations if self.iterations else 0.0

    def merge(self, other: "StepStats") -> None:
        self.iterations += other.iterations
        self.expansions += other.expansions
        self.worsening += other.worsening


@dataclass(frozen=True)
class UlsaConfig:
    """Run configuration.

    max_iterations: total step budget across restarts; 0 means unbounded.
    target: optional partial-solution spec checked whenever the current
        conflict count is at or below its cap.
    restart_interval: reinitialize from scratch every this many iterations.
    """

    max_iterations: int = 0
    target: Optional[TargetSpec] = None
    restart_interval: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")
        if self.restart_interval is not None and self.restart_interval <= 0:
            raise ValueError(f"restart_interval must be positive, "
                             f"got {self.restart_interval}")


@dataclass
class RunRecord:
    """Outcome of a single run.

    On success, `assignment` holds the final full assignment and, for target
    runs, `subset` the sorted conflict-free variable subset.  When best-state
    tracking is on, `best_assignment`/`best_violated` snapshot the lowest-
    conflict state seen.
    """

    seed: int
    iterations: int
    wall_time: float
    success: bool
    best_conflicts: int
    stats: StepStats
    assignment: Optional[list[int]] = None
    subset: Optional[list[int]] = None
    restarts: int = 0
    best_assignment: Optional[list[int]] = field(default=None, repr=False)
    best_violated: Optional[list[int]] = field(default=None, repr=False)


def init_state(instance: CspInstance, rng: np.random.Generator) -> SearchState:
    """Greedy randomized initialization.

    Variables are visited in a uniformly random permutation; each is set to a
    value minimizing conflicts against the already-initialized variables
    only, ties broken uniformly at random.  Timestamps start at 0 with the
    iteration counter, so nothing counts as "changed" yet.  The visits run
    in the compiled kernel when it is loaded, and in Python otherwise, with
    the same draws.
    """
    tb = instance._tables
    n, d = instance.n, instance.d
    perm = rng.permutation(n)
    lib = _native.kernel()
    values = np.zeros(n, dtype=np.int64)
    if lib is not None:
        lib.ulsa_init(tb.bits.ctypes.data, tb.inc_start.ctypes.data, tb.slot_other.ctypes.data,
                      tb.rev.ctypes.data, d, perm.ctypes.data, n,
                      rng.bit_generator.ctypes.bit_generator, values.ctypes.data)
        return SearchState(instance, Assignment(values, np.ones(n, dtype=bool)))
    initialized = np.zeros(n, dtype=bool)
    bounds = tb.inc_start.tolist()
    for v in perm.tolist():
        s0, s1 = bounds[v], bounds[v + 1]
        oi = tb.slot_other[s0:s1]
        live = initialized[oi]
        rows = tb.base[s0:s1][live] + values[oi[live]]
        counts = np.add.reduce(tb.flags(rows), axis=0, dtype=np.int32)
        cands = np.flatnonzero(counts == counts.min())
        values[v] = int(cands[int(rng.random() * len(cands))])
        initialized[v] = True
    return SearchState(instance, Assignment(values, initialized))


def can_change_without_increase(state: SearchState, var: int) -> bool:
    """True iff some other value of var keeps the total conflict count level
    or lowers it."""
    counts, cur, _ = state._counts_cols(var)
    counts[int(state.x[var])] = _MASK
    return bool(counts.min() <= cur)


def step(state: SearchState, rng: np.random.Generator,
         stats: Optional[StepStats] = None) -> None:
    """Apply one search iteration to `state`. Requires at least one conflict."""
    if len(state.violated) == 0:
        raise ValueError("step requires at least one violated constraint")
    if state.instance.d < 2:
        raise ValueError("domain size 1 leaves no alternative value to move to")
    _step(state, rng.random, stats)


def _step(state: SearchState, draw: Callable[[], float],
          stats: Optional[StepStats]) -> None:
    tb = state._tb
    cid = state.violated.pick(draw())
    a, b = tb.con_a.item(cid), tb.con_b.item(cid)
    t_a, t_b = state.t.item(a), state.t.item(b)
    if t_a < t_b:
        i, j = a, b
    elif t_b < t_a:
        i, j = b, a
    else:
        i, j = (a, b) if draw() < 0.5 else (b, a)

    counts_i, cur_i, cols_i = state._counts_cols(i)
    ci = counts_i.tolist()
    ci[state.x.item(i)] = _MASK
    min_i = min(ci)

    expanded = min_i > cur_i and state.t.item(j) != state.n_iter
    if not expanded:
        cands = [u for u, c in enumerate(ci) if c == min_i]
        var = i
        value = cands[int(draw() * len(cands))]
        cols = cols_i
        applied_delta = min_i - cur_i
    else:
        counts_j, cur_j, cols_j = state._counts_cols(j)
        cj = counts_j.tolist()
        cj[state.x.item(j)] = _MASK
        min_j = min(cj)
        delta_i = min_i - cur_i
        delta_j = min_j - cur_j
        applied_delta = delta_i if delta_i < delta_j else delta_j
        cands_i = ([u for u, c in enumerate(ci) if c == min_i]
                   if delta_i == applied_delta else [])
        cands_j = ([u for u, c in enumerate(cj) if c == min_j]
                   if delta_j == applied_delta else [])
        ni = len(cands_i)
        r = int(draw() * (ni + len(cands_j)))
        if r < ni:
            var, value, cols = i, cands_i[r], cols_i
        else:
            var, value, cols = j, cands_j[r - ni], cols_j

    state._apply_with_cols(var, value, cols)
    if stats is not None:
        stats.iterations += 1
        if expanded:
            stats.expansions += 1
        if applied_delta > 0:
            stats.worsening += 1


_BLOCK = 4096


class _Uniforms:
    """rng's uniforms drawn in blocks of _BLOCK: the same sequence as repeated
    rng.random().  Each call returns the next one, refilling `block` in place
    when it is used up; the compiled kernel refills the same buffer the same
    way, from the same generator."""

    __slots__ = ("rng", "block", "pos")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.block = np.empty(_BLOCK)
        self.pos = _BLOCK  # the first block is drawn at the first step

    def __call__(self) -> float:
        if self.pos == len(self.block):
            self.rng.random(out=self.block)
            self.pos = 0
        self.pos += 1
        return self.block[self.pos - 1]


# -- compiled step kernel ------------------------------------------------------
#
# `ulsa_advance` and `ulsa_init` in _kernel.c, from the library _native.kernel()
# opens; when it is None, `run` and `init_state` step in Python.  Both paths
# follow the same trajectory over the same arrays of SearchState.

# the most steps one kernel call takes, so that Ctrl-C is seen within a second or so
_SLICE = 1 << 20


class _KernelRun:
    """The compiled kernel bound to one run.

    The kernel takes every step of the run on the state's own arrays: it
    updates `x`, `t` and the violated index's `_ids` and `pos` in place.  The
    struct points at a state's arrays from its first call on, as after a
    restart; the violated count and the clock are set before each call and
    read back after it, with the step counters.  From the first call on, the
    kernel owns the block of uniforms and its cursor, and refills the block
    from the run's generator.

    The run also holds the buffer of the kernel's cache, allocated once and
    64-byte aligned; the kernel chooses a step path for each state it is
    handed, writes it to the struct's `counted`, and fills the cache from
    the state's `x`:
    - the count table, on hosts with AVX-512BW when d <= 64 and no variable
      has more than 255 incident slots: byte u of v's 64-byte row is the
      number of conflicts v would have at value u;
    - the row cache otherwise: row s is slot s's packed row of `bits` under
      the current value of its other endpoint, 2m·W words in all.
    `advance` sets `fresh` whenever the struct is pointed at a new state,
    and the kernel keeps the cache current from then on, so nothing but the
    kernel may change that state's `x`.
    """

    def __init__(self, lib: Any, instance: CspInstance, uniforms: _Uniforms,
                 stats: StepStats, cap: int, budget: int, interval: Optional[int]):
        flat = instance._tables
        self.fn = lib.ulsa_advance
        self.stats = stats
        self.budget = budget
        # kept alive with the struct pointing into them
        self.flat, self.uniforms = flat, uniforms
        words = max(len(flat.slot_cid) * flat.bits.shape[1], 8 * instance.n)
        buf = np.empty(words + 8, dtype=np.uint64)
        skip = -buf.ctypes.data % 64 // 8
        self.cache = buf[skip:skip + words]
        self.c = _native._RunStruct(
            flat.bits.ctypes.data, flat.inc_start.ctypes.data, flat.slot_other.ctypes.data,
            flat.slot_cid.ctypes.data, flat.rev.ctypes.data, flat.con_a.ctypes.data,
            flat.con_b.ctypes.data, instance.n, instance.d, self.cache.ctypes.data,
            iterations=stats.iterations, expansions=stats.expansions,
            worsening=stats.worsening, u=uniforms.block.ctypes.data,
            nu=len(uniforms.block), upos=uniforms.pos,
            gen=uniforms.rng.bit_generator.ctypes.bit_generator,
            cap=cap, interval=interval or 0)
        # the state whose arrays the struct points into, kept alive with it
        self.state: Optional[SearchState] = None

    def advance(self, state: SearchState, best: int) -> None:
        """Step `state` until a run event, or for _SLICE steps."""
        c, stats, violated = self.c, self.stats, state.violated
        if self.state is not state:
            self.state = state
            c.x, c.t = state.x.ctypes.data, state.t.ctypes.data
            c.ids, c.pos = violated._ids.ctypes.data, violated.pos.ctypes.data
            c.fresh = 1
        c.nviol, c.n_iter = violated.n, state.n_iter
        c.best = best
        c.budget = stats.iterations + _SLICE
        if self.budget:
            c.budget = min(c.budget, self.budget)
        self.fn(c)
        violated.n, state.n_iter = c.nviol, c.n_iter
        stats.iterations, stats.expansions, stats.worsening = (
            c.iterations, c.expansions, c.worsening)


def run(instance: CspInstance, config: UlsaConfig, seed: int,
        track_best: bool = False) -> RunRecord:
    """Run to a full solution, a met target, or budget exhaustion.

    The run owns a fresh PCG64 stream seeded with `seed`; identical
    (instance, config, seed) reproduce the identical trajectory.  A
    configured target is checked at every state whose conflict count is at
    or below its cap, which keeps the check off the hot path.  Budget
    exhaustion is a non-success outcome, not an error.
    """
    target = config.target
    if target is not None:
        target.removal_budget(instance.n)  # validates size <= n
    if instance.d < 2 and instance.num_constraints:
        # every constraint must disallow (0,0), so a conflict can never be fixed
        raise ValueError("domain size 1 leaves no alternative value to move to")
    rng = np.random.Generator(np.random.PCG64(seed))
    start = time.perf_counter()
    stats = StepStats()
    state = init_state(instance, rng)
    # a restart's init_state shares rng and draws after the current block of
    # uniforms (the golden restart runs pin this order)
    uniforms = _Uniforms(rng)

    budget = config.max_iterations
    interval = config.restart_interval
    restarts = 0
    best = instance.num_constraints + 1  # above any count: the loop records the start
    best_assignment = best_violated = subset = None

    cap = target.conflict_cap if target is not None else -1
    lib = _native.kernel()
    kernel = None if lib is None else _KernelRun(lib, instance, uniforms, stats,
                                                 cap, budget, interval)
    while True:
        conflicts = state.num_conflicts
        if conflicts < best:
            best = conflicts
            if track_best:
                best_assignment = state.x.tolist()
                best_violated = sorted(state.violated_ids())
        if conflicts == 0:
            break
        if conflicts <= cap:
            subset = check_target(state, target)
            if subset is not None:
                break
        if budget and stats.iterations >= budget:
            break
        if interval is not None and state.n_iter >= interval:
            state = init_state(instance, rng)
            restarts += 1
            continue
        if kernel is None:
            _step(state, uniforms, stats)
        else:
            kernel.advance(state, best)

    wall = time.perf_counter() - start
    success = state.num_conflicts == 0 or subset is not None
    assignment = state.x.tolist() if success else None
    if success:  # a recount over the instance's sorted pairs, independent of SearchState
        left = (conflict_count(instance, Assignment.from_values(assignment)) if subset is None
                else subset_conflicts(instance, assignment, subset))
        if left != 0:
            raise AssertionError("success witness fails the independent recount")
    return RunRecord(
        seed=seed,
        iterations=stats.iterations,
        wall_time=wall,
        success=success,
        best_conflicts=best,
        stats=stats,
        assignment=assignment,
        subset=subset,
        restarts=restarts,
        best_assignment=best_assignment,
        best_violated=best_violated,
    )
