"""ULSA: unweighted stochastic local search for random binary CSPs.

Each iteration picks a violated constraint uniformly at random, prefers its
older-timestamped endpoint, and reassigns one endpoint to a conflict-
minimizing value, always a *different* value, even when that worsens the
total.  When the preferred endpoint cannot change without increasing
conflicts and the other endpoint was not the variable changed last iteration,
the candidate set expands to both endpoints ("neighborhood expansion").  No
weights or penalties are maintained; occasional forced worsening moves are
what gets the search out of local optima.

The per-iteration work is one or two stacked-table gathers from the core
search state plus O(1) bookkeeping.  `run` takes its steps in a compiled
kernel (_ulsa_kernel.c) when one can be built, and in `_step`, the Python
reference, otherwise; both follow the same trajectory.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from .core import Assignment, CspInstance, SearchState
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
    stats_enabled: include step counters in the run record.
    """

    max_iterations: int = 0
    target: Optional[TargetSpec] = None
    restart_interval: Optional[int] = None
    stats_enabled: bool = True

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
    stats: Optional[StepStats] = None
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
    iteration counter, so nothing counts as "changed" yet.
    """
    tb = instance._tables
    values = np.zeros(instance.n, dtype=np.int64)
    initialized = np.zeros(instance.n, dtype=bool)
    for v in rng.permutation(instance.n).tolist():
        oi = tb.other_idx[v]
        live = initialized[oi]
        rows = tb.base[v][live] + values[oi[live]]
        counts = np.add.reduce(tb.rows[v].take(rows, axis=0), axis=0, dtype=np.int32)
        best = counts.min()
        cands = np.flatnonzero(counts == best)
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
    ids = state.violated.ids
    cid = ids[int(draw() * len(ids))]
    a, b = tb.con_a[cid], tb.con_b[cid]
    t = state.t
    if t[a] < t[b]:
        i, j = a, b
    elif t[b] < t[a]:
        i, j = b, a
    else:
        i, j = (a, b) if draw() < 0.5 else (b, a)

    counts_i, cur_i, cols_i = state._counts_cols(i)
    ci = counts_i.tolist()
    ci[state._xl[i]] = _MASK
    min_i = min(ci)

    expanded = min_i > cur_i and t[j] != state.n_iter
    if not expanded:
        cands = [u for u, c in enumerate(ci) if c == min_i]
        var = i
        value = cands[int(draw() * len(cands))]
        cols = cols_i
        applied_delta = min_i - cur_i
    else:
        counts_j, cur_j, cols_j = state._counts_cols(j)
        cj = counts_j.tolist()
        cj[state._xl[j]] = _MASK
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
    rng.random().  Each call returns the next one; the compiled kernel reads
    `block` from `pos` and moves `pos` past what it used."""

    __slots__ = ("rng", "block", "pos")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.block = np.empty(0)  # the first block is drawn at the first step
        self.pos = 0

    def __call__(self) -> float:
        if self.pos == len(self.block):
            self.block = self.rng.random(_BLOCK)
            self.pos = 0
        self.pos += 1
        return self.block[self.pos - 1]


# -- compiled step kernel ------------------------------------------------------
#
# _ulsa_kernel.c is built with the local C compiler on first use and cached
# per user; when that fails, `run` steps in Python.  Both paths follow the
# same trajectory.

_KERNEL_SOURCE = Path(__file__).with_name("_ulsa_kernel.c")
_CFLAGS = ("-O3", "-shared", "-fPIC")
_kernel: Any = ...  # ulsa_advance once loaded, None if unavailable, ... until tried


def _cache_dir() -> Path:
    root = Path(os.environ.get("XDG_CACHE_HOME", ""))
    path = (root if root.is_absolute() else Path.home() / ".cache") / "rbcsp"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = path.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise PermissionError(f"{path} is writable by other users")
    return path


def _compile() -> Path:
    """Path of the kernel library, compiled unless cached.

    The file name is keyed by the source, the compiler command and the
    platform; a build is published by renaming a finished temporary file, so
    concurrent first uses are safe.
    """
    source = _KERNEL_SOURCE.read_bytes()
    cmd = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cmd[0]) is None:  # Python was built with a compiler not here
        cmd = ["cc"]
    cmd += _CFLAGS
    key = hashlib.sha256(b"\0".join(
        [source, " ".join(cmd).encode(), sysconfig.get_platform().encode()]))
    lib = _cache_dir() / f"ulsa_kernel-{key.hexdigest()[:24]}.so"
    if not lib.exists():
        fd, tmp = tempfile.mkstemp(dir=lib.parent, suffix=".so.tmp")
        os.close(fd)
        try:
            subprocess.run(cmd + ["-x", "c", "-o", tmp, "-"], input=source,
                           capture_output=True, check=True, timeout=300)
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return lib


def _load_kernel() -> Any:
    """ulsa_advance from the kernel library, loaded once per process, or None."""
    global _kernel
    if _kernel is ...:
        try:
            fn = ctypes.CDLL(str(_compile())).ulsa_advance
            fn.argtypes = [ctypes.POINTER(_RunStruct)]
            fn.restype = None
            _kernel = fn
        # no compiler or cache directory, a failed build, a library that does
        # not load: step in Python
        except (OSError, subprocess.SubprocessError, AttributeError, ValueError):
            _kernel = None
    return _kernel


_P = ctypes.c_void_p
_I = ctypes.c_int64


class _RunStruct(ctypes.Structure):
    """`ulsa_run` in _ulsa_kernel.c, field for field."""

    _fields_ = [
        ("rows", _P), ("inc_start", _P), ("slot_other", _P), ("slot_cid", _P),
        ("con_a", _P), ("con_b", _P), ("d", _I),
        ("x", _P), ("t", _P), ("ids", _P), ("pos", _P), ("nviol", _I), ("n_iter", _I),
        ("iterations", _I), ("expansions", _I), ("worsening", _I),
        ("u", _P), ("nu", _I), ("upos", _I),
        ("best", _I), ("cap", _I), ("budget", _I), ("interval", _I),
        ("counts_i", _P), ("counts_j", _P), ("cands", _P),
    ]


class _KernelRun:
    """The compiled kernel bound to one run, with buffers of its own.

    While the kernel steps, it owns the state: `state.x` is updated in
    place, and the violated ids, the clock and the counters are copied back
    at each exit.  The timestamps, the violated positions and the `_xl`
    mirror are copied back only before a Python step, and a state Python has
    stepped or rebuilt is copied in before the next kernel call.
    """

    def __init__(self, fn: Any, instance: CspInstance, uniforms: _Uniforms,
                 stats: StepStats, cap: int, budget: int, interval: Optional[int]):
        flat = instance._tables.flat
        n, d, m = instance.n, instance.d, instance.num_constraints
        self.fn = fn
        self.uniforms = uniforms
        self.stats = stats
        self.flat = flat  # kept alive with the struct pointing into it
        self.t = np.zeros(n, dtype=np.int64)
        self.ids = np.empty(m, dtype=np.int32)
        self.pos = np.empty(m, dtype=np.int32)
        self.scratch = np.empty(4 * d, dtype=np.int32)
        addr = self.scratch.ctypes.data
        self.c = _RunStruct(
            flat.rows.ctypes.data, flat.inc_start.ctypes.data,
            flat.slot_other.ctypes.data, flat.slot_cid.ctypes.data,
            flat.con_a.ctypes.data, flat.con_b.ctypes.data, d,
            None, self.t.ctypes.data, self.ids.ctypes.data, self.pos.ctypes.data,
            cap=cap, budget=budget, interval=interval or 0,
            counts_i=addr, counts_j=addr + 4 * d, cands=addr + 8 * d)
        self.state: Optional[SearchState] = None  # the state the buffers hold
        self.block: Optional[np.ndarray] = None

    def advance(self, state: SearchState, best: int) -> bool:
        """Step `state` until a run event; False, with `state` complete and
        no step taken, when fewer than 3 uniforms are left in the block."""
        c, u, stats = self.c, self.uniforms, self.stats
        if len(u.block) - u.pos < 3:
            if self.state is state:  # not when a restart replaced it
                state.t = self.t.tolist()
                state.violated.pos = self.pos.tolist()
                state._xl = state.x.tolist()
                self.state = None
            return False
        if self.state is not state:
            self.state = state
            ids = state.violated.ids
            self.t[:] = state.t
            self.ids[:len(ids)] = ids
            self.pos[:] = state.violated.pos
            c.x = state.x.ctypes.data
            c.nviol = len(ids)
            c.n_iter = state.n_iter
            c.iterations, c.expansions, c.worsening = (
                stats.iterations, stats.expansions, stats.worsening)
        if u.block is not self.block:
            self.block = u.block
            c.u = u.block.ctypes.data
            c.nu = len(u.block)
        c.upos = u.pos
        c.best = best
        self.fn(c)
        u.pos = c.upos
        state.violated.ids[:] = self.ids[:c.nviol].tolist()
        state.n_iter = c.n_iter
        stats.iterations, stats.expansions, stats.worsening = (
            c.iterations, c.expansions, c.worsening)
        return True


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
    fn = _load_kernel()
    kernel = None if fn is None else _KernelRun(fn, instance, uniforms, stats,
                                                cap, budget, interval)
    viol_ids = state.violated.ids
    while True:
        conflicts = len(viol_ids)
        if conflicts < best:
            best = conflicts
            if track_best:
                best_assignment = state.x.tolist()
                best_violated = sorted(viol_ids)
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
            viol_ids = state.violated.ids
            restarts += 1
            continue
        # the kernel steps to the next event; Python takes the step that
        # straddles two blocks of uniforms, and every step without the kernel
        if kernel is None or not kernel.advance(state, best):
            _step(state, uniforms, stats)

    wall = time.perf_counter() - start
    success = not viol_ids or subset is not None
    assignment = state.x.tolist() if success else None
    if success:  # a recount over the instance's sorted pairs, independent of SearchState
        checked = range(instance.n) if subset is None else subset
        if subset_conflicts(instance, assignment, checked) != 0:
            raise AssertionError("success witness fails the independent recount")
    return RunRecord(
        seed=seed,
        iterations=stats.iterations,
        wall_time=wall,
        success=success,
        best_conflicts=best,
        stats=stats if config.stats_enabled else None,
        assignment=assignment,
        subset=subset,
        restarts=restarts,
        best_assignment=best_assignment,
        best_violated=best_violated,
    )
