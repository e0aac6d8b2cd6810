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


_ARRAYS = ("con_a", "con_b", "pair_start", "codes")


class CspInstance:
    """n variables over the common domain {0..d-1} plus binary constraints.

    Stored as flat read-only arrays: constraint i joins variables con_a[i]
    and con_b[i] and disallows the value pairs (a, b) whose codes a·d + b
    are codes[pair_start[i]:pair_start[i+1]], ascending.  con_a, con_b and
    codes are int32 (codes int64 when d² ≥ 2³¹), pair_start is int64.
    `constraints` presents the same data as Constraint objects, built on
    first use.  The constraint list is ordered; duplicates are legal and each
    occurrence counts separately toward conflict totals.  Immutable after
    construction and safe to share across concurrent runs.
    """

    def __init__(self, n: int, d: int, constraints: Iterable[Constraint] = ()):
        if not 1 <= n < 2**31:
            raise ValueError(f"need 1 <= n < 2**31 variables, got n={n}")
        if d < 1:
            raise ValueError(f"need a nonempty domain, got d={d}")
        cons = tuple(constraints)
        sizes = [len(c.disallowed) for c in cons]
        try:
            ends = np.array([(c.var_a, c.var_b) for c in cons], dtype=np.int64).reshape(-1, 2)
            pairs = np.fromiter(chain.from_iterable(chain.from_iterable(
                c.disallowed for c in cons)), np.int64, 2 * sum(sizes)).reshape(-1, 2)
        except OverflowError:
            raise ValueError("a variable or value index overflows 64 bits") from None
        for arr, size, msg in (
                (ends, n, "constraint ({},{}) references a variable outside [0,{})"),
                (pairs, d, "disallowed pair ({},{}) outside domain [0,{})²")):
            bad = np.flatnonzero(((arr < 0) | (arr >= size)).any(axis=1))
            if bad.size:
                raise ValueError(msg.format(*arr[bad[0]].tolist(), size))
        self._init(n, d, ends[:, 0], ends[:, 1], np.cumsum([0] + sizes),
                   pairs[:, 0] * d + pairs[:, 1])
        self.__dict__["constraints"] = cons

    @classmethod
    def _from_arrays(cls, n: int, d: int, con_a, con_b, pair_start,
                     codes) -> "CspInstance":
        """An instance from arrays laid out as the class doc says and known to
        be valid: endpoints in [0, n) that differ, and nonempty, ascending,
        distinct codes below d² per constraint.  The arrays are copied."""
        instance = cls.__new__(cls)
        instance._init(n, d, con_a, con_b, pair_start, codes)
        return instance

    def _init(self, n, d, con_a, con_b, pair_start, codes) -> None:
        # a code a·d + b < d² takes 4 bytes unless d² does not fit in them
        arrays = [np.array(x, dtype=t).ravel() for x, t in zip(
            (con_a, con_b, pair_start, codes),
            (np.int32, np.int32, np.int64, np.int32 if d * d < 2**31 else np.int64))]
        for arr in arrays:
            arr.flags.writeable = False
        self.__dict__.update(n=int(n), d=int(d), **dict(zip(_ARRAYS, arrays)))

    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        va, vb = np.divmod(self.codes, self.d)
        pairs = list(zip(va.tolist(), vb.tolist()))
        bounds = self.pair_start.tolist()
        return tuple(Constraint(a, b, pairs[s:e]) for a, b, s, e in zip(
            self.con_a.tolist(), self.con_b.tolist(), bounds, bounds[1:]))

    @property
    def num_constraints(self) -> int:
        return len(self.con_a)

    @cached_property
    def _tables(self) -> "_Tables":
        return _Tables(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CspInstance):
            return NotImplemented
        return (self.n, self.d) == (other.n, other.d) and all(
            np.array_equal(getattr(self, k), getattr(other, k)) for k in _ARRAYS)

    def __hash__(self) -> int:
        return hash((self.n, self.d, *(getattr(self, k).tobytes() for k in _ARRAYS)))

    def __repr__(self) -> str:
        return f"CspInstance(n={self.n}, d={self.d}, m={self.num_constraints})"

    def __setattr__(self, name, value):
        raise AttributeError(f"CspInstance is immutable; cannot set {name!r}")

    def __getstate__(self):
        # the arrays only: constraint objects and runtime tables are rebuilt on demand
        return {k: self.__dict__[k] for k in ("n", "d", *_ARRAYS)}

    def __setstate__(self, state):
        self._init(**state)


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
    return _count_violated(instance, vals, init[instance.con_a] & init[instance.con_b])


def _count_violated(instance: CspInstance, values, active: np.ndarray) -> int:
    """Constraints flagged in `active` whose value pair under `values` is
    disallowed, by binary search of the instance's pair keys cid·d² + code,
    which ascend."""
    d, sizes = instance.d, np.diff(instance.pair_start)
    keys = np.repeat(np.arange(len(sizes)) * d * d, sizes) + instance.codes
    x = np.asarray(values, dtype=np.int64)
    cid = np.flatnonzero(active)
    va, vb = x[instance.con_a[cid]], x[instance.con_b[cid]]
    inside = (va >= 0) & (va < d) & (vb >= 0) & (vb < d)  # others are never disallowed
    key = ((cid * d + va) * d + vb)[inside]
    pos = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
    return int(np.count_nonzero(keys[pos] == key))


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
        n, d, m = instance.n, instance.d, instance.num_constraints
        con_a, con_b = instance.con_a, instance.con_b
        # both slots of constraint cid: var a's at entry cid, var b's at m + cid
        var = np.concatenate([con_a, con_b])
        cid = np.concatenate([np.arange(m, dtype=np.int32)] * 2)
        order = np.lexsort((cid, var))
        slot = np.empty(2 * m, dtype=np.int64)
        slot[order] = np.arange(2 * m)
        pair_cid = np.repeat(np.arange(m), np.diff(instance.pair_start))
        va, vb = np.divmod(instance.codes, d)
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
    # one string per constraint block, joined from shared "f a b" lines, one
    # per distinct pair code: a string per 'f' line would double the memory
    # of the instance being written
    d = instance.d
    codes, index = np.unique(instance.codes, return_inverse=True)
    distinct = [f"f {a} {b}\n" for a, b in zip(*(x.tolist() for x in np.divmod(codes, d)))]
    f_lines = np.array(distinct, dtype=object)[index].tolist()
    bounds = instance.pair_start.tolist()
    parts = [f"c {text}\n" for text in comments]
    parts.append(f"p bcsp {instance.n} {d} {instance.num_constraints}\n")
    for a, b, s, e in zip(instance.con_a.tolist(), instance.con_b.tolist(),
                          bounds, bounds[1:]):
        parts.append(f"k {a} {b} {e - s}\n" + "".join(f_lines[s:e]))
    if solution is not None:
        if not solution.is_complete or len(solution) != instance.n:
            raise ValueError("recorded solution must assign every variable")
        parts.append("s " + " ".join(str(int(v)) for v in solution.values) + "\n")
    return "".join(parts)


# The whitespace of str.split() and the line breaks of str.splitlines(); all
# lie below U+3001 (tests/test_core.py checks this against all of Unicode).
_SPACES = (0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x1F, 0x20, 0x85, 0xA0,
           0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000)
_BREAKS = (0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x85, 0x2028, 0x2029)
_SPACE, _BREAK = 1, 2
_CLASS = np.zeros(0x3002, dtype=np.uint8)  # the last entry stands for all above
_CLASS[list(_SPACES)] |= _SPACE
_CLASS[list(_BREAKS)] |= _BREAK
_MAX_DIGITS = 18  # longer tokens, like non-ASCII-digit ones, go through int()
_CHUNK = 1 << 20  # characters tokenized at a time


def _tokenize(text: str):
    """Whitespace-separated tokens of `text`, by the rules of str.split()
    within the lines of str.splitlines(), found with array operations.

    Returns (units, line_start, line_end, tok_start, tok_end, first, lines):
    the text's code points, each line's span, each token's span, and for
    each line holding tokens its first token and its 0-based number.  Spans
    index both `text` and `units`.
    """
    units = (np.frombuffer(text.encode("ascii"), np.uint8) if text.isascii() else
             np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32))
    index = np.int32 if len(units) < 2**31 else np.int64
    parts, pos = [], 0
    while True:
        # a chunk at a time, to keep the arrays per character small; a chunk
        # ends at a '\n', which ends both a line and a token
        cut = text.find("\n", pos + _CHUNK) + 1 or len(text)
        u = units[pos:cut]
        cls = _CLASS.take(u if u.itemsize == 1 else np.minimum(u, len(_CLASS) - 1))
        brk = np.flatnonzero(cls & _BREAK)
        crlf = (u[brk] == 13) & (u[np.minimum(brk + 1, len(u) - 1)] == 10)
        keep = ~np.concatenate(([False], crlf))[:-1]  # '\r\n' is one break, at the '\r'
        # a token starts at a solid unit after a space and ends before a space
        solid = (cls & _SPACE) == 0
        edge = solid.copy()
        edge[1:] &= ~solid[:-1]
        starts = (np.flatnonzero(edge) + pos).astype(index)
        edge[:] = solid
        edge[:-1] &= ~solid[1:]
        parts.append((brk[keep] + pos, crlf[keep], starts,
                      (np.flatnonzero(edge) + pos + 1).astype(index)))
        if cut == len(text):
            break
        pos = cut
    brk, crlf, tok_start, tok_end = (np.concatenate(x) for x in zip(*parts))
    del parts
    line_start = np.concatenate(([0], brk + 1 + crlf))
    line_end = np.concatenate((brk, [len(units)]))
    # the token after each break, and after the start as line 0's break
    after = np.searchsorted(tok_start, np.concatenate(([-1], brk)))
    has_tokens = np.diff(after, append=len(tok_start)) > 0
    return (units, line_start, line_end, tok_start, tok_end,
            after[has_tokens].astype(index), np.flatnonzero(has_tokens).astype(index))


def _integers(text: str, units: np.ndarray, start: np.ndarray, end: np.ndarray,
              d: int) -> np.ndarray:
    """The integers int(text[start:end]) of tokens, as int64, as far as
    whether they lie in [0, d) goes: a token int() refuses reads -1, and a
    value int() reads is clamped to [-1, d].  ASCII digit strings of up to
    _MAX_DIGITS are converted with array operations, anything else by int()."""
    size = end - start
    plain = size <= _MAX_DIGITS  # until a non-digit shows up
    values = np.zeros(len(start), dtype=np.int64)
    for k in range(int(size[plain].max(initial=0))):
        live = plain & (size > k)
        digit = units[np.where(live, start + k, 0)] - 48  # wraps below '0'
        plain &= ~live | (digit < 10)
        values = np.where(live, values * 10 + digit, values)
    for t in np.flatnonzero(~plain).tolist():
        try:
            values[t] = min(max(int(text[start[t]:end[t]]), -1), d)
        except ValueError:
            values[t] = -1
    return values


def _f_problem(raw: str, d: int) -> str:
    """What is wrong with the 'f' line `raw` inside a block, checked in
    order: its fields, its integers, its range, else a repeated pair."""
    fields = raw.split()
    if len(fields) != 3:
        return f"expected 'f <value_a> <value_b>', got {raw!r}"
    try:
        va, vb = int(fields[1]), int(fields[2])
    except ValueError:
        return f"non-integer field in {raw!r}"
    if not (0 <= va < d and 0 <= vb < d):
        return f"disallowed pair ({va},{vb}) outside domain [0,{d})²"
    return f"disallowed pair ({va},{vb}) repeats in its constraint"


def loads_csp(text: str) -> tuple[CspInstance, Optional[Assignment]]:
    """Parse the native CSP text format.

    Returns the instance plus the recorded solution if an `s` line is present.
    Raises CspFormatError with the number of the first bad line on malformed
    input, and on a header beyond the size caps of `check_size` before
    anything proportional to the header is allocated.

    The 'f' lines are read in bulk: one tokenization of the whole text, an
    array integer conversion and one sort.  The few other lines are checked
    one by one in a loop that knows how many 'f' lines lie between them.
    """
    units, line_start, line_end, ts, te, first, lines = _tokenize(text)
    ntok = np.diff(first, append=len(ts))
    one_char = te[first] - ts[first] == 1
    tags = units[ts[first]]
    is_f = one_char & (tags == ord("f"))
    other = ~(is_f | (one_char & (tags == ord("c"))))
    f_lines = lines[is_f]

    def fail(lineno: Optional[int], msg: str) -> CspFormatError:
        exc = CspFormatError(msg if lineno is None else f"line {lineno}: {msg}")
        exc.lineno = lineno
        return exc

    # every line but the 'f' and 'c' lines, in order, each knowing how many
    # 'f' lines precede it; the first misplaced line raises
    header: Optional[tuple[int, int, int]] = None
    blocks: list[tuple[int, int, int]] = []  # (var_a, var_b, npairs) per 'k' line
    solution: Optional[list[int]] = None
    want = got = done = 0  # 'f' lines the open block declares, has; all placed
    at_lines = lines[other].tolist()
    f_before = np.searchsorted(f_lines, at_lines).tolist() + [len(f_lines)]
    misplaced: Optional[CspFormatError] = None
    try:
        for at, f_seen in zip(at_lines + [None], f_before):
            if f_seen > done:
                if header is None:
                    raise fail(int(f_lines[done]) + 1, "'f' line before 'p bcsp' header")
                if f_seen - done > want - got:
                    raise fail(int(f_lines[done + want - got]) + 1,
                               "'f' line outside a constraint block")
                got, done = got + f_seen - done, f_seen
            if at is None:
                break
            lineno, raw = at + 1, text[line_start[at]:line_end[at]]
            fields = raw.split()
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
                if n < 1 or d < 1:
                    raise fail(lineno, f"need n >= 1 and d >= 1, got {raw!r}")
                header = (n, d, m)
                continue
            if header is None:
                raise fail(lineno, f"'{tag}' line before 'p bcsp' header")
            if got < want and tag in ("k", "s"):
                raise fail(lineno, f"constraint expected {want} 'f' lines, got {got}")
            if tag == "k":
                if len(fields) != 4:
                    raise fail(lineno, f"expected 'k <var_a> <var_b> <npairs>', got {raw!r}")
                try:
                    a, b, npairs = (int(f) for f in fields[1:])
                except ValueError:
                    raise fail(lineno, f"non-integer field in {raw!r}") from None
                if npairs < 1:
                    raise fail(lineno, "constraint must disallow at least one pair")
                if not (0 <= a < n and 0 <= b < n):
                    raise fail(lineno, f"constraint ({a},{b}) references a variable "
                                       f"outside [0,{n})")
                if a == b:
                    raise fail(lineno, f"constraint endpoints must differ, got {a}")
                blocks.append((a, b, npairs))
                want, got = npairs, 0
            elif tag == "s":
                if solution is not None:
                    raise fail(lineno, "duplicate 's' line")
                try:
                    solution = [int(f) for f in fields[1:]]
                except ValueError:
                    raise fail(lineno, f"non-integer field in {raw!r}") from None
                if len(solution) != n:
                    raise fail(lineno, f"'s' line has {len(solution)} values, expected {n}")
                if any(not 0 <= v < d for v in solution):
                    raise fail(lineno, f"'s' value outside domain [0,{d})")
            else:
                raise fail(lineno, f"unknown line tag {tag!r}")
        if header is None:
            raise fail(None, "missing 'p bcsp' header")
        if got < want:
            raise fail(None, f"constraint expected {want} 'f' lines, got {got}")
        if len(blocks) != m:
            raise fail(None, f"header declares {m} constraints, found {len(blocks)}")
    except CspFormatError as exc:
        misplaced = exc
    if header is None:
        raise misplaced

    # the values of the 'f' lines with three tokens; -1 marks a bad one
    tag_tok = first[is_f][ntok[is_f] == 3]
    pairs = np.full((2, len(f_lines)), -1, dtype=np.int64)
    for j in (1, 2):
        pairs[j - 1, ntok[is_f] == 3] = _integers(text, units, ts[tag_tok + j],
                                                  te[tag_tok + j], d)
    del units, ts, te
    va, vb = pairs
    ok = (va >= 0) & (va < d) & (vb >= 0) & (vb < d)
    cid = np.cumsum(one_char & (tags == ord("k")))[is_f] - 1  # true up to a misplaced line
    keys = (cid * d + va) * d + vb
    sorted_keys = np.sort(keys)  # the one sort: by block, then pair code
    if not ok.all() or (sorted_keys[1:] == sorted_keys[:-1]).any():
        # the first bad line: out of place, or a later copy of a pair in its block
        idx = np.flatnonzero(ok)
        idx = idx[np.argsort(keys[idx], kind="stable")]
        ok[idx[1:][keys[idx[1:]] == keys[idx[:-1]]]] = False
        at = int(f_lines[np.argmin(ok)])
        if misplaced is None or misplaced.lineno is None or at + 1 < misplaced.lineno:
            raise fail(at + 1, _f_problem(text[line_start[at]:line_end[at]], d))
    if misplaced is not None:
        raise misplaced

    ends = np.array(blocks, dtype=np.int64).reshape(-1, 3)
    instance = CspInstance._from_arrays(
        n, d, ends[:, 0], ends[:, 1], np.concatenate(([0], np.cumsum(ends[:, 2]))),
        sorted_keys - np.repeat(np.arange(m) * d * d, ends[:, 2]))
    return instance, None if solution is None else Assignment.from_values(solution)
