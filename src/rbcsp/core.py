"""Binary CSP instances and search state with incremental conflict accounting.

An instance is a set of variables with a shared domain size plus an ordered
list of binary constraints, each given by its two endpoint variables and the
set of value pairs it disallows.  Duplicate constraints over the same variable
pair are kept and counted separately.

The search state keeps the violated-constraint set exactly up to date across
single-variable changes.  Per variable, the disallowed relations of all
incident constraints are stacked into one contiguous uint8 table so that the
conflict deltas for every candidate value come out of a single row gather and
column sum instead of a per-value rescan.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np


class CspFormatError(ValueError):
    """Malformed native CSP text."""


# Size caps checked on a header before anything proportional to it is
# allocated.  frb100-40 (n=100, d=40, ~1.3k constraints: 4 MB of tables,
# 78k clique edges) sits two or more orders of magnitude below each.
MAX_VARIABLES = 100_000
MAX_TABLE_BYTES = 1 << 30  # 2·m·d² bytes of per-variable relation tables
MAX_CLIQUE_EDGES = 10_000_000  # n·d(d−1)/2 clique edges of the MIS form


def check_size(n: int, d: int, m: int) -> None:
    """Raise ValueError when (n, d, m) exceeds a size cap above."""
    for what, size, cap in (
        ("variables", n, MAX_VARIABLES),
        ("table bytes 2·m·d²", 2 * m * d * d, MAX_TABLE_BYTES),
        ("clique edges n·d(d−1)/2", n * d * (d - 1) // 2, MAX_CLIQUE_EDGES),
    ):
        if size > cap:
            raise ValueError(f"instance too large: {size} {what} exceed the cap of {cap}")


@dataclass(frozen=True)
class Constraint:
    """A binary constraint: the value pairs `disallowed` for (var_a, var_b).

    Pairs are oriented: (value_a, value_b) refers to var_a's and var_b's
    values in that order.  Pairs are normalized to a sorted tuple so equal
    constraints compare and hash equal.
    """

    var_a: int
    var_b: int
    disallowed: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.var_a == self.var_b:
            raise ValueError(f"constraint endpoints must differ, got {self.var_a}")
        pairs = tuple(sorted((int(a), int(b)) for a, b in self.disallowed))
        if not pairs:
            raise ValueError("constraint must disallow at least one value pair")
        if len(set(pairs)) != len(pairs):
            raise ValueError("disallowed value pairs must be distinct")
        object.__setattr__(self, "disallowed", pairs)

    @cached_property
    def pair_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.disallowed)

    def violates(self, value_a: int, value_b: int) -> bool:
        # a binary search of the sorted pairs; caches nothing, unlike pair_set
        pair = (value_a, value_b)
        i = bisect_left(self.disallowed, pair)
        return i < len(self.disallowed) and self.disallowed[i] == pair

    def matrix(self, d: int) -> np.ndarray:
        """uint8 (d, d) table, entry [value_a, value_b] == 1 iff disallowed."""
        m = np.zeros((d, d), dtype=np.uint8)
        pa = np.fromiter((p[0] for p in self.disallowed), dtype=np.int64)
        pb = np.fromiter((p[1] for p in self.disallowed), dtype=np.int64)
        m[pa, pb] = 1
        return m


@dataclass(frozen=True)
class CspInstance:
    """n variables over the common domain {0..d-1} plus binary constraints.

    Immutable after construction and safe to share across concurrent runs.
    The constraint list is ordered; duplicates are legal and each occurrence
    counts separately toward conflict totals.
    """

    n: int
    d: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.n < 1:
            raise ValueError(f"need at least one variable, got n={self.n}")
        if self.d < 1:
            raise ValueError(f"need a nonempty domain, got d={self.d}")
        for c in self.constraints:
            if not (0 <= c.var_a < self.n and 0 <= c.var_b < self.n):
                raise ValueError(
                    f"constraint ({c.var_a},{c.var_b}) references a variable "
                    f"outside [0,{self.n})"
                )
            for va, vb in c.disallowed:
                if not (0 <= va < self.d and 0 <= vb < self.d):
                    raise ValueError(
                        f"disallowed pair ({va},{vb}) outside domain [0,{self.d})²"
                    )

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @cached_property
    def _tables(self) -> "_Tables":
        return _Tables(self)

    def __getstate__(self):
        # drop the cached runtime tables; they are rebuilt on demand
        return {"n": self.n, "d": self.d, "constraints": self.constraints}

    def __setstate__(self, state):
        for key, value in state.items():
            object.__setattr__(self, key, value)


class Assignment:
    """Variable values plus per-variable initialized flags.

    The flags only matter while an assignment is being built up one variable
    at a time; constraints never conflict through an uninitialized endpoint.
    """

    __slots__ = ("values", "initialized")

    def __init__(self, values: np.ndarray, initialized: np.ndarray):
        self.values = values
        self.initialized = initialized

    @classmethod
    def empty(cls, n: int) -> "Assignment":
        return cls(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool))

    @classmethod
    def from_values(cls, values: Sequence[int]) -> "Assignment":
        arr = np.asarray(list(values), dtype=np.int64)
        return cls(arr, np.ones(len(arr), dtype=bool))

    def __len__(self) -> int:
        return len(self.values)

    def set(self, var: int, value: int) -> None:
        self.values[var] = value
        self.initialized[var] = True

    @property
    def is_complete(self) -> bool:
        return bool(self.initialized.all())

    def copy(self) -> "Assignment":
        return Assignment(self.values.copy(), self.initialized.copy())

    def as_list(self) -> list[int]:
        return [int(v) for v in self.values]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return bool(
            np.array_equal(self.values, other.values)
            and np.array_equal(self.initialized, other.initialized)
        )


def conflict_count(instance: CspInstance, assignment: Assignment) -> int:
    """Number of violated constraints, duplicates counted separately.

    Constraints with an uninitialized endpoint never conflict.  Raises
    ValueError if an initialized value lies outside [0, d).
    """
    vals = assignment.values
    init = assignment.initialized
    if len(vals) != instance.n:
        raise ValueError(f"assignment length {len(vals)} != n={instance.n}")
    live = vals[init]
    if live.size and (live.min() < 0 or live.max() >= instance.d):
        raise ValueError(f"assignment value outside domain [0,{instance.d})")
    total = 0
    for c in instance.constraints:
        if init[c.var_a] and init[c.var_b]:
            if c.violates(int(vals[c.var_a]), int(vals[c.var_b])):
                total += 1
    return total


class ViolatedIndex:
    """Set of constraint ids with O(1) add/discard/membership and O(1) pick.

    Backed by a dense list plus a position map (swap-remove on discard), so a
    uniform random member is just `ids[int(u * len)]`.
    """

    __slots__ = ("ids", "pos")

    def __init__(self, num_constraints: int):
        self.ids: list[int] = []
        self.pos: list[int] = [-1] * num_constraints

    def add(self, cid: int) -> None:
        if self.pos[cid] < 0:
            self.pos[cid] = len(self.ids)
            self.ids.append(cid)

    def discard(self, cid: int) -> None:
        p = self.pos[cid]
        if p < 0:
            return
        last = self.ids[-1]
        self.ids[p] = last
        self.pos[last] = p
        self.ids.pop()
        self.pos[cid] = -1

    def pick(self, u: float) -> int:
        """Uniform member for u drawn from [0, 1)."""
        return self.ids[int(u * len(self.ids))]

    def __contains__(self, cid: int) -> bool:
        return self.pos[cid] >= 0

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def as_set(self) -> set[int]:
        return set(self.ids)


class _FlatTables:
    """The one copy of the search tables, as flat contiguous arrays.

    Incidence slots are grouped by variable in CSR form: the slots of v are
    inc_start[v] .. inc_start[v+1]-1, in constraint id order.  Slot s holds
    constraint slot_cid[s], whose other endpoint is slot_other[s], and the
    oriented relation rows[s] of shape (d, d): rows[s, w, u] == 1 iff the
    constraint is violated when the other endpoint holds w and v holds u.
    con_a/con_b are the constraints' endpoints.  The compiled step kernel
    reads these arrays whole; `_Tables` hands out per-variable views.
    """

    __slots__ = ("rows", "inc_start", "slot_other", "slot_cid", "con_a", "con_b")

    def __init__(self, instance: CspInstance):
        n, d, cons = instance.n, instance.d, instance.constraints
        m = len(cons)
        con_a = np.fromiter((c.var_a for c in cons), dtype=np.int32, count=m)
        con_b = np.fromiter((c.var_b for c in cons), dtype=np.int32, count=m)
        # both slots of constraint cid: var a's at entry cid, var b's at m + cid
        var = np.concatenate([con_a, con_b])
        cid = np.concatenate([np.arange(m, dtype=np.int32)] * 2)
        order = np.lexsort((cid, var))
        slot = np.empty(2 * m, dtype=np.int64)
        slot[order] = np.arange(2 * m)
        sizes = [len(c.disallowed) for c in cons]
        flat_pairs = chain.from_iterable(chain.from_iterable(c.disallowed for c in cons))
        pairs = np.fromiter(flat_pairs, dtype=np.int64, count=2 * sum(sizes)).reshape(-1, 2)
        pair_cid = np.repeat(np.arange(m), sizes)
        va, vb = pairs[:, 0], pairs[:, 1]
        rows = np.zeros((2 * m, d, d), dtype=np.uint8)
        rows[slot[pair_cid], vb, va] = 1  # var a's slot: other is b
        rows[slot[m + pair_cid], va, vb] = 1  # var b's slot: other is a
        self.rows = rows
        self.inc_start = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(var, minlength=n), out=self.inc_start[1:])
        self.slot_other = np.concatenate([con_b, con_a])[order]
        self.slot_cid = cid[order]
        self.con_a = con_a
        self.con_b = con_b


class _Tables:
    """Static per-instance lookup structures shared by all search states.

    Per variable v, in incidence order (constraint id ascending):
    inc_ids[v] lists the incident constraint ids, other_idx[v] the other
    endpoint of each, and rows[v] packs their relations into one uint8 array
    of shape (k_v * d, d): row (slot*d + w) holds, for each candidate value u
    of v, the violation flag when the other endpoint of that slot's
    constraint holds w.  base[v][slot] = slot * d is the slot's first row.
    other_idx[v] and rows[v] are views into `flat`; base[v] is a prefix of
    one shared array.
    """

    __slots__ = ("n", "d", "con_a", "con_b", "inc_ids", "other_idx", "rows", "base",
                 "flat")

    def __init__(self, instance: CspInstance):
        n, d = instance.n, instance.d
        self.n = n
        self.d = d
        flat = self.flat = _FlatTables(instance)
        self.con_a = flat.con_a.tolist()
        self.con_b = flat.con_b.tolist()
        bounds = flat.inc_start.tolist()
        spans = list(zip(bounds, bounds[1:]))
        rows = flat.rows.reshape(-1, d)
        steps = np.arange(max(e - s for s, e in spans), dtype=np.int64) * d
        self.inc_ids = [flat.slot_cid[s:e].tolist() for s, e in spans]
        self.other_idx = [flat.slot_other[s:e] for s, e in spans]
        self.rows = [rows[s * d:e * d] for s, e in spans]
        self.base = [steps[:e - s] for s, e in spans]


class SearchState:
    """Mutable single-threaded search state over a fixed instance.

    Tracks the current assignment, per-variable change timestamps, the
    iteration counter, and the exact set of violated constraint ids.
    """

    __slots__ = ("instance", "x", "t", "n_iter", "violated", "_tb", "_xl")

    def __init__(self, instance: CspInstance, assignment: Assignment):
        if not assignment.is_complete:
            raise ValueError("search state requires a fully initialized assignment")
        vals = np.asarray(assignment.values, dtype=np.int64)
        if vals.min() < 0 or vals.max() >= instance.d:
            raise ValueError(f"assignment value outside domain [0,{instance.d})")
        self.instance = instance
        self._tb = instance._tables
        self.x = vals.copy()
        self._xl = self.x.tolist()  # plain-int mirror for scalar reads
        self.t = [0] * instance.n
        self.n_iter = 0
        self.violated = ViolatedIndex(instance.num_constraints)
        # both slots of a constraint hold its current flag; ids enter ascending
        flags = np.zeros(instance.num_constraints, dtype=np.uint8)
        for v, ids in enumerate(self._tb.inc_ids):
            flags[ids] = self._counts_cols(v)[2][:, self._xl[v]]
        for cid in np.flatnonzero(flags).tolist():
            self.violated.add(cid)

    # -- queries ------------------------------------------------------------

    @property
    def num_conflicts(self) -> int:
        return len(self.violated)

    def violated_ids(self) -> list[int]:
        return list(self.violated.ids)

    def as_assignment(self) -> Assignment:
        return Assignment.from_values(self.x)

    def values_tuple(self) -> tuple[int, ...]:
        return tuple(int(v) for v in self.x)

    def delta_conflicts(self, var: int, value: int) -> int:
        """Total-conflict change if x[var] were set to `value` (0 for a no-op)."""
        self._check_var_value(var, value)
        return int(self.evaluate_all_values(var)[value])

    def evaluate_all_values(self, var: int) -> np.ndarray:
        """Conflict deltas for every candidate value of var, as one vector.

        Entry u is the total-conflict change if x[var] were set to u; the
        entry at the current value is 0.  Computed by a single gather over
        the incident-constraint table, never by per-value rescans.
        """
        if not (0 <= var < self.instance.n):
            raise ValueError(f"variable {var} outside [0,{self.instance.n})")
        counts, cur, _ = self._counts_cols(var)
        return counts - cur

    def _counts_cols(self, var: int):
        """(counts, current, cols) for var.

        counts[u] = violated incident constraints if x[var] were u;
        cols[slot, u] = that slot's violation flag under value u.
        """
        tb = self._tb
        rows = tb.base[var] + self.x.take(tb.other_idx[var])
        cols = tb.rows[var].take(rows, axis=0)
        counts = np.add.reduce(cols, axis=0, dtype=np.int32)
        return counts, int(counts[self._xl[var]]), cols

    # -- mutation -----------------------------------------------------------

    def apply_change(self, var: int, value: int) -> None:
        """Set x[var] to a new value, bumping the clock and the timestamp.

        The violated set is updated incrementally and stays exactly equal to
        a from-scratch recount.  `value` must differ from the current value.
        """
        self._check_var_value(var, value)
        old = self._xl[var]
        if value == old:
            raise ValueError(
                f"variable {var} must change to a value different from {old}"
            )
        self._apply_with_cols(var, value, self._counts_cols(var)[2])

    def _apply_with_cols(self, var: int, value: int, cols: np.ndarray) -> None:
        """Set x[var] to `value` given var's gather `cols` from _counts_cols,
        bumping the clock and var's timestamp.

        The one update path of the violated set: the slots whose flag differs
        between the old and the new value are added or discarded.
        """
        old = self._xl[var]
        new_col = cols[:, value]
        changed = (new_col != cols[:, old]).nonzero()[0]
        if changed.size:
            ids = self._tb.inc_ids[var]
            violated = self.violated
            for li in changed.tolist():
                if new_col[li]:
                    violated.add(ids[li])
                else:
                    violated.discard(ids[li])
        self.x[var] = value
        self._xl[var] = value
        self.n_iter += 1
        self.t[var] = self.n_iter

    def _check_var_value(self, var: int, value: int) -> None:
        if not (0 <= var < self.instance.n):
            raise ValueError(f"variable {var} outside [0,{self.instance.n})")
        if not (0 <= value < self.instance.d):
            raise ValueError(f"value {value} outside domain [0,{self.instance.d})")


# -- native text format -----------------------------------------------------
#
#   p bcsp <n> <d> <m>
#   k <var_a> <var_b> <npairs>     followed by npairs lines
#   f <value_a> <value_b>
#   s <v_1> ... <v_n>              optional recorded solution
#   c ...                          comments anywhere
#
# All indices 0-based, whitespace-separated.


def dumps_csp(
    instance: CspInstance,
    solution: Optional[Assignment] = None,
    comments: Iterable[str] = (),
) -> str:
    # one string per constraint block, not one per line: a list of every
    # 'f' line would double the memory of the instance being written
    parts = [f"c {text}\n" for text in comments]
    parts.append(f"p bcsp {instance.n} {instance.d} {instance.num_constraints}\n")
    for c in instance.constraints:
        parts.append(f"k {c.var_a} {c.var_b} {len(c.disallowed)}\n"
                     + "".join([f"f {va} {vb}\n" for va, vb in c.disallowed]))
    if solution is not None:
        if not solution.is_complete or len(solution) != instance.n:
            raise ValueError("recorded solution must assign every variable")
        parts.append("s " + " ".join(str(int(v)) for v in solution.values) + "\n")
    return "".join(parts)


def loads_csp(text: str) -> tuple[CspInstance, Optional[Assignment]]:
    """Parse the native CSP text format.

    Returns the instance plus the recorded solution if an `s` line is present.
    Raises CspFormatError with a line number on malformed input, and on a
    header beyond the size caps of `check_size` before reading further.
    """
    header: Optional[tuple[int, int, int]] = None
    constraints: list[Constraint] = []
    solution: Optional[list[int]] = None
    pending: Optional[tuple[int, int, int, list[tuple[int, int]]]] = None

    def fail(lineno: Optional[int], msg: str) -> CspFormatError:
        return CspFormatError(msg if lineno is None else f"line {lineno}: {msg}")

    def close_block(lineno: Optional[int]) -> None:
        # a complete block clears `pending`, so an open one here is short
        if pending is not None:
            raise fail(lineno, f"constraint expected {pending[2]} 'f' lines, "
                               f"got {len(pending[3])}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0] == "c":
            continue
        tag = fields[0]
        if tag == "p":
            if header is not None:
                raise fail(lineno, "duplicate header")
            if len(fields) != 5 or fields[1] != "bcsp":
                raise fail(lineno, f"expected 'p bcsp <n> <d> <m>', got {raw!r}")
            try:
                n, d, m = (int(f) for f in fields[2:])
            except ValueError:
                raise fail(lineno, f"non-integer header field in {raw!r}") from None
            try:
                check_size(n, d, m)
            except ValueError as exc:
                raise fail(lineno, str(exc)) from None
            header = (n, d, m)
            continue
        if header is None:
            raise fail(lineno, f"'{tag}' line before 'p bcsp' header")
        if tag == "k":
            close_block(lineno)
            if len(fields) != 4:
                raise fail(lineno, f"expected 'k <var_a> <var_b> <npairs>', got {raw!r}")
            try:
                a, b, npairs = (int(f) for f in fields[1:])
            except ValueError:
                raise fail(lineno, f"non-integer field in {raw!r}") from None
            if npairs < 1:
                raise fail(lineno, "constraint must disallow at least one pair")
            pending = (a, b, npairs, [])
        elif tag == "f":
            if pending is None:
                raise fail(lineno, "'f' line outside a constraint block")
            if len(fields) != 3:
                raise fail(lineno, f"expected 'f <value_a> <value_b>', got {raw!r}")
            try:
                va, vb = int(fields[1]), int(fields[2])
            except ValueError:
                raise fail(lineno, f"non-integer field in {raw!r}") from None
            a, b, npairs, pairs = pending
            pairs.append((va, vb))
            if len(pairs) == npairs:
                try:
                    constraints.append(Constraint(a, b, tuple(pairs)))
                except ValueError as exc:
                    raise fail(lineno, str(exc)) from None
                pending = None
        elif tag == "s":
            if solution is not None:
                raise fail(lineno, "duplicate 's' line")
            try:
                solution = [int(f) for f in fields[1:]]
            except ValueError:
                raise fail(lineno, f"non-integer field in {raw!r}") from None
            if len(solution) != header[0]:
                raise fail(lineno, f"'s' line has {len(solution)} values, "
                                   f"expected {header[0]}")
        else:
            raise fail(lineno, f"unknown line tag {tag!r}")

    if header is None:
        raise CspFormatError("missing 'p bcsp' header")
    close_block(None)
    n, d, m = header
    if len(constraints) != m:
        raise CspFormatError(f"header declares {m} constraints, found {len(constraints)}")
    try:
        instance = CspInstance(n, d, tuple(constraints))
    except ValueError as exc:
        raise CspFormatError(str(exc)) from None
    asg: Optional[Assignment] = None
    if solution is not None:
        if any(not (0 <= v < d) for v in solution):
            raise CspFormatError(f"'s' value outside domain [0,{d})")
        asg = Assignment.from_values(solution)
    return instance, asg
