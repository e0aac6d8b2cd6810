"""Binary CSP instances and search state with incremental conflict accounting.

An instance is a set of variables with a shared domain size plus an ordered
list of binary constraints, each given by its two endpoint variables and the
set of value pairs it disallows.  Duplicate constraints over the same variable
pair are kept and counted separately.

The search state keeps the violated-constraint set exactly up to date across
single-variable changes.  The disallowed relations of each variable's
incident constraints lie in consecutive rows of one flat table of packed
bits, so that the conflict deltas for every candidate value come out of a
single row gather and column sum instead of a per-value rescan.
"""

from __future__ import annotations

import ctypes
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from math import isqrt
from typing import Any, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import _native


class CspFormatError(ValueError):
    """Malformed native CSP text."""


# Size caps checked on a header before anything proportional to it is
# allocated.  frb100-40 (n=100, d=40, ~1.3k constraints: 4 MB of tables,
# 78k clique edges) sits two or more orders of magnitude below each.
MAX_VARIABLES = 100_000
MAX_TABLE_BYTES = 1 << 30  # 2·m·d²: the relation tables' size at one byte per flag
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

    @classmethod
    def _trusted(cls, var_a: int, var_b: int,
                 disallowed: tuple[tuple[int, int], ...]) -> "Constraint":
        """A constraint from endpoints that differ and pairs already sorted
        and distinct, without the checks and the re-sort."""
        c = cls.__new__(cls)
        c.__dict__.update(var_a=var_a, var_b=var_b, disallowed=disallowed)
        return c

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


class _SharedPairs(dict):
    """code -> the value pair (code // d, code % d), each pair's tuple made
    on its first lookup and returned again for every later one."""

    def __init__(self, d: int):
        self.d = d

    def __missing__(self, code: int) -> tuple[int, int]:
        pair = self[code] = divmod(code, self.d)
        return pair


class CspInstance:
    """n variables over the common domain {0..d-1} plus binary constraints.

    Stored as flat read-only arrays: constraint i joins variables con_a[i]
    and con_b[i] and disallows the value pairs (a, b) whose codes a·d + b
    are codes[pair_start[i]:pair_start[i+1]], ascending.  con_a, con_b and
    codes are int32, pair_start is int64.  Every instance, however it is
    made (the constructor, `_from_arrays` or unpickling), meets the caps of
    `check_size`, which bound d at 4,472, so a code below d² fits in an
    int32.  `constraints` presents the same data as Constraint objects, built
    on first use from one shared (a, b) tuple per distinct value pair: 4.6 MB
    held at frb100-40, against 33 MB with a tuple per disallowed pair.  The
    constraint list is ordered; duplicates are legal and
    each occurrence counts separately toward conflict totals.  Immutable
    after construction and safe to share across concurrent runs.
    """

    def __init__(self, n: int, d: int, constraints: Iterable[Constraint] = ()):
        if n < 1:
            raise ValueError(f"need at least one variable, got n={n}")
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
        distinct codes below d² per constraint.  A contiguous array of the
        dtype the instance keeps is kept as it is, and made read-only, so the
        caller hands it over; any other is copied."""
        instance = cls.__new__(cls)
        instance._init(n, d, con_a, con_b, pair_start, codes, handed=True)
        return instance

    def _init(self, n, d, con_a, con_b, pair_start, codes, handed=False) -> None:
        n, d = int(n), int(d)
        check_size(n, d, len(con_a))
        arrays, take = [], np.ascontiguousarray if handed else np.array
        for x, t in zip((con_a, con_b, pair_start, codes),
                        (np.int32, np.int32, np.int64, np.int32)):
            arr = take(x, dtype=t)
            arr.flags.writeable = False
            arrays.append(arr if arr.ndim == 1 else arr.reshape(-1))
        self.__dict__.update(n=n, d=d, **dict(zip(_ARRAYS, arrays)))

    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        pair = _SharedPairs(self.d).__getitem__
        codes, bounds = self.codes, self.pair_start.tolist()
        # the pairs of each constraint are sorted and distinct already
        return tuple(Constraint._trusted(a, b, tuple(map(pair, codes[s:e].tolist())))
                     for a, b, s, e in zip(self.con_a.tolist(), self.con_b.tolist(),
                                           bounds, bounds[1:]))

    @property
    def num_constraints(self) -> int:
        return len(self.con_a)

    @cached_property
    def _tables(self) -> "_FlatTables":
        return _FlatTables(self)

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
    disallowed, by a binary search of each one's own ascending block of
    codes, all of the blocks at once."""
    d, codes = instance.d, instance.codes
    x = np.asarray(values, dtype=np.int64)
    cid = np.flatnonzero(active)
    va, vb = x[instance.con_a[cid]], x[instance.con_b[cid]]
    inside = (va >= 0) & (va < d) & (vb >= 0) & (vb < d)  # others are never disallowed
    cid, code = cid[inside], (va * d + vb)[inside]
    lo, end = instance.pair_start[cid], instance.pair_start[cid + 1]
    hi, top = end, len(codes) - 1
    # the first position of each block [lo, hi) holding a code >= the pair's
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        right = (lo < hi) & (codes[np.minimum(mid, top)] < code)
        lo, hi = np.where(right, mid + 1, lo), np.where(right, hi, mid)
    return int(np.count_nonzero((lo < end) & (codes[np.minimum(lo, top)] == code)))


class ViolatedIndex:
    """Set of constraint ids with O(1) add/discard/membership and O(1) pick.

    Backed by the first `n` entries of a dense int32 array `_ids` of capacity
    num_constraints plus an int32 position map `pos`, -1 for a non-member
    (swap-remove on discard), so a uniform random member is just
    `_ids[int(u * n)]`.  The compiled kernel updates the same two arrays, and
    `n` is copied back at each of its exits.
    """

    __slots__ = ("_ids", "pos", "n")

    def __init__(self, num_constraints: int, ids: Sequence[int] = ()):
        """An index holding `ids`, which must be distinct, in the order given."""
        members = np.asarray(ids, dtype=np.int32)
        self.n = len(members)
        self._ids = np.empty(num_constraints, dtype=np.int32)
        self._ids[:self.n] = members
        self.pos = np.full(num_constraints, -1, dtype=np.int32)
        self.pos[members] = np.arange(self.n, dtype=np.int32)

    @property
    def ids(self) -> np.ndarray:
        """The members in index order, a view that later changes overwrite."""
        return self._ids[:self.n]

    def add(self, cid: int) -> None:
        if self.pos.item(cid) < 0:
            self.pos[cid] = self.n
            self._ids[self.n] = cid
            self.n += 1

    def discard(self, cid: int) -> None:
        p = self.pos.item(cid)
        if p < 0:
            return
        self.n -= 1
        last = self._ids.item(self.n)
        self._ids[p] = last
        self.pos[last] = p
        self.pos[cid] = -1

    def pick(self, u: float) -> int:
        """Uniform member for u drawn from [0, 1)."""
        return self._ids.item(int(u * self.n))

    def __contains__(self, cid: int) -> bool:
        return self.pos.item(cid) >= 0

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids.tolist())

    def as_set(self) -> set[int]:
        return set(self.ids.tolist())


class _FlatTables:
    """The one copy of the search tables, as flat contiguous arrays.

    Incidence slots are grouped by variable in CSR form: the slots of v are
    inc_start[v] .. inc_start[v+1]-1, in constraint id order.  Slot s holds
    constraint slot_cid[s], whose other endpoint is slot_other[s], and its
    relation oriented toward v in d rows of `bits` from row base[s] = s·d:
    row s·d + w holds ceil(d / 64) uint64 words, and bit u % 64 of its word
    u // 64 is set iff the constraint is violated when the other endpoint
    holds w and v holds u.  rev[s] is the same constraint's slot at the
    other endpoint, so rev[rev[s]] == s.  con_a/con_b are the constraints'
    endpoints.

    bits is the one table of flags, built by the compiled `build_bits` when
    it is available; the Python reference paths unpack only the rows they
    gather, with `flags`.
    """

    __slots__ = ("d", "bits", "base", "inc_start", "slot_other", "slot_cid", "rev", "con_a",
                 "con_b", "_take_bytes")

    def __init__(self, instance: CspInstance):
        n, d, m = instance.n, instance.d, instance.num_constraints
        con_a, con_b = instance.con_a, instance.con_b
        # both slots of constraint cid: var a's at entry cid, var b's at m + cid
        var = np.concatenate([con_a, con_b])
        cid = np.concatenate([np.arange(m, dtype=np.int32)] * 2)
        order = np.lexsort((cid, var))
        slot = np.empty(2 * m, dtype=np.int64)
        slot[order] = np.arange(2 * m)
        self.d = d
        self.bits = _build_bits(instance, slot)
        # gathers rows of bits as bytes with each word little-endian, so that
        # bit u % 8 of byte u // 8 of a row is flag u on any host; the bytes
        # are a view of bits, not a copy, on a little-endian host
        self._take_bytes = self.bits.astype("<u8", copy=False).view(np.uint8).take
        self.inc_start = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(var, minlength=n), out=self.inc_start[1:])
        self.slot_other = np.concatenate([con_b, con_a])[order]
        self.slot_cid = cid[order]
        self.rev = np.empty(2 * m, dtype=np.int32)
        self.rev[slot] = np.concatenate([slot[m:], slot[:m]])
        self.base = np.arange(2 * m, dtype=np.int64) * d  # slot s's first row in bits
        self.con_a = con_a
        self.con_b = con_b

    def flags(self, rows: np.ndarray) -> np.ndarray:
        """The given rows of bits unpacked: uint8 flags of shape (len(rows), d),
        flag u of a row at column u."""
        # axis 1, count d and bit order by position: on a 2-core Xeon keywords
        # cost ~0.3 µs a call, about 2% of a Python step
        return np.unpackbits(self._take_bytes(rows, 0), 1, self.d, "little")


def _build_bits(instance: CspInstance, slot: np.ndarray) -> np.ndarray:
    """`_FlatTables.bits`, filled by the compiled builder when it is available,
    else by one numpy scatter; slot[cid] and slot[m + cid] are the slots of
    constraint cid's var a and var b."""
    d, m = instance.d, instance.num_constraints
    words = -(-d // 64)
    bits = np.zeros((2 * m * d, words), dtype=np.uint64)
    lib = _native.kernel()
    if lib is not None:
        lib.build_bits(instance.codes.ctypes.data, instance.pair_start.ctypes.data, m, d,
                       slot.ctypes.data, bits.ctypes.data)
        return bits
    pair_cid = np.repeat(np.arange(m), np.diff(instance.pair_start))
    va, vb = np.divmod(instance.codes, d)
    # var a's slot, whose other endpoint holds b, flags a; var b's slot flags b
    row = np.concatenate([slot[pair_cid] * d + vb, slot[m + pair_cid] * d + va])
    value = np.concatenate([va, vb])
    np.bitwise_or.at(bits.reshape(-1), row * words + (value >> 6),
                     np.uint64(1) << (value & 63).astype(np.uint64))
    return bits


class SearchState:
    """Mutable single-threaded search state over a fixed instance.

    Tracks the current assignment `x` and the per-variable change timestamps
    `t`, both int64 arrays, the iteration counter, and the exact set of
    violated constraint ids.  The compiled kernel steps these arrays in place.
    """

    __slots__ = ("instance", "x", "t", "n_iter", "violated", "_tb", "_inc")

    def __init__(self, instance: CspInstance, assignment: Assignment):
        if not assignment.is_complete:
            raise ValueError("search state requires a fully initialized assignment")
        vals = np.asarray(assignment.values, dtype=np.int64)
        if vals.min() < 0 or vals.max() >= instance.d:
            raise ValueError(f"assignment value outside domain [0,{instance.d})")
        self.instance = instance
        tb = self._tb = instance._tables
        self._inc = tb.inc_start.tolist()  # slot bounds as ints, for the Python gathers
        self.x = vals.copy()
        self.t = np.zeros(instance.n, dtype=np.int64)
        self.n_iter = 0
        # each slot's flag under x; both slots of a constraint hold the same
        # one, so the ids of the flagged slots are the violated ids
        u = np.repeat(self.x, np.diff(tb.inc_start))
        row = tb.base + self.x.take(tb.slot_other)
        flag = tb.bits[row, u >> 6] >> (u & 63).astype(np.uint64) & np.uint64(1)
        flags = np.zeros(instance.num_constraints, dtype=bool)
        flags[tb.slot_cid[flag != 0]] = True
        self.violated = ViolatedIndex(instance.num_constraints,
                                      np.flatnonzero(flags))  # ascending

    # -- queries ------------------------------------------------------------

    @property
    def num_conflicts(self) -> int:
        return len(self.violated)

    def violated_ids(self) -> list[int]:
        return self.violated.ids.tolist()

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
        cols[k, u] = the violation flag of var's k-th slot under value u.
        """
        tb = self._tb
        s0, s1 = self._inc[var], self._inc[var + 1]
        rows = tb.base[s0:s1] + self.x.take(tb.slot_other[s0:s1])
        cols = tb.flags(rows)
        counts = np.add.reduce(cols, axis=0, dtype=np.int32)
        return counts, counts.item(self.x.item(var)), cols

    # -- mutation -----------------------------------------------------------

    def apply_change(self, var: int, value: int) -> None:
        """Set x[var] to a new value, bumping the clock and the timestamp.

        The violated set is updated incrementally and stays exactly equal to
        a from-scratch recount.  `value` must differ from the current value.
        """
        self._check_var_value(var, value)
        old = self.x.item(var)
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
        old = self.x.item(var)
        new_col = cols[:, value]
        changed = (new_col != cols[:, old]).nonzero()[0]
        if changed.size:
            ids, s0 = self._tb.slot_cid, self._inc[var]
            now = new_col.tolist()
            violated = self.violated
            for li in changed.tolist():
                if now[li]:
                    violated.add(ids.item(s0 + li))
                else:
                    violated.discard(ids.item(s0 + li))
        self.x[var] = value
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
    """The native text of `instance`, with `solution` as its 's' line.  Each
    line of a comment, as str.splitlines() splits it, becomes its own 'c'
    line.  The 'k' and 'f' lines are written by the compiled writer when it
    is available; else, or if they overrun the buffer sized for them, by
    `_blocks`, the reference the writer is tested against."""
    n, d, m = instance.n, instance.d, instance.num_constraints
    if solution is not None:
        if not solution.is_complete or len(solution) != n:
            raise ValueError("recorded solution must assign every variable")
        # a negative value wraps to beyond any d, so one comparison checks both ends
        if (solution.values.astype(np.uint64) >= d).any():
            raise ValueError(f"recorded solution has a value outside domain [0,{d})")
    head = "".join([f"c {line}\n" for text in comments for line in text.splitlines()]
                   + [f"p bcsp {n} {d} {m}\n"])
    tail = "" if solution is None else "s " + " ".join(map(str, solution.values.tolist())) + "\n"
    lib, text = _native.kernel(), None
    if lib is not None:
        # a 'k' line holds two variables below n and a count of at most d²,
        # an 'f' line two values below d, looked up in a table of d entries
        lines = len(instance.codes)
        size = m * (5 + 2 * len(str(n)) + len(str(d * d))) + lines * (4 + 2 * len(str(d)))
        text = _write(lib.write_blocks, head, size, tail, d, m + lines,
                      instance.con_a.ctypes.data, instance.con_b.ctypes.data,
                      instance.pair_start.ctypes.data, m, instance.codes.ctypes.data, d)
    return "".join([head, *_blocks(instance), tail]) if text is None else text


def _blocks(instance: CspInstance) -> Iterator[str]:
    """The 'k' and 'f' lines of `dumps_csp`, one string per constraint block."""
    d, codes, bounds = instance.d, instance.codes, instance.pair_start.tolist()
    for a, b, s, e in zip(instance.con_a.tolist(), instance.con_b.tolist(), bounds, bounds[1:]):
        yield f"k {a} {b} {e - s}\n" + "".join([f"f {c // d} {c % d}\n"
                                               for c in codes[s:e].tolist()])


_TABLE_MAX = 10**7  # a compiled writer's table word holds a space and 7 digits


def _write(writer: Any, head: str, size: int, tail: str, entries: int, lines: int,
           *args) -> Optional[str]:
    """`head`, then the text a compiled writer writes for `args` into the
    `size` bytes after it, then `tail`: one buffer, decoded once; None if
    the writer's text does not fit.  The writer gets scratch for a digit
    table of `entries` words, or none when they would outnumber the text's
    `lines` or _TABLE_MAX."""
    ntab = entries if entries <= min(lines, _TABLE_MAX) else 0
    table = np.empty(9 * ntab, np.uint8)
    # surrogatepass: a comment may hold any code point, and decodes to itself
    head_b, tail_b = (t.encode("utf-8", "surrogatepass") for t in (head, tail))
    buf = np.empty(len(head_b) + size + len(tail_b), np.uint8)  # not zeroed: written before read
    buf[:len(head_b)] = np.frombuffer(head_b, np.uint8)
    used = writer(*args, table.ctypes.data, ntab, buf.ctypes.data + len(head_b), size)
    if used < 0:
        return None
    end = len(head_b) + used
    buf[end:end + len(tail_b)] = np.frombuffer(tail_b, np.uint8)
    return str(memoryview(buf)[:end + len(tail_b)], "utf-8", "surrogatepass")


# The whitespace of str.split() and the line breaks of str.splitlines(); all
# lie below U+3001 (tests/test_core.py checks this against all of Unicode).
_SPACES = (0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x1F, 0x20, 0x85, 0xA0,
           0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000)
_BREAKS = (0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x85, 0x2028, 0x2029)
_BREAK_CHARS = "".join(map(chr, _BREAKS))
_WIDE_BREAKS = "".join(c for c in _BREAK_CHARS if not c.isascii())
_PIECE_END = re.compile("\r\n?|[" + _BREAK_CHARS + "]")  # '\r\n' whole
_CHUNK = 1 << 15  # characters read at a time


def _pieces(text: str, size: int) -> Iterator[tuple[int, str]]:
    """(start, piece) for consecutive pieces of text of about `size`
    characters; each piece but the last ends at the first line break after
    `size` characters, which ends both a line and a token."""
    pos = 0
    while True:
        brk = _PIECE_END.search(text, pos + size)
        cut = brk.end() if brk else len(text)
        yield pos, text[pos:cut]
        if cut == len(text):
            return
        pos = cut


def _read(text: str, tag: str, limit: int):
    """Read a line-oriented text whose bulk lines are '<tag> <int> <int>',
    with lines as str.splitlines() finds them and tokens as str.split() does.

    Returns (bulk, values, others, spans).  bulk holds the 0-based numbers of
    the lines whose first token is `tag`, and values, one row per bulk line,
    the integers of its second and third tokens, clamped to [-1, limit] and
    stored in the smallest of int16, int32 and int64 that holds `limit`; a
    row is -1 where the line has not three tokens or int() refuses one.
    others holds the numbers of the other lines with tokens, apart from 'c'
    lines, and spans their (start, end) in `text`.  Line numbers and spans
    are int32 for a text below 2³¹ characters.

    This is the Python path of `loads_csp` and `parse_dimacs`, taken for any
    text their compiled pass refuses or when the kernel is not loaded, and
    the reference that pass is tested against.  The text is read a piece of
    about _CHUNK characters at a time (see _pieces) by `_read_piece`, and
    only the results above outlive a piece.  So the memory taken beyond them
    is bounded by _CHUNK for any text whose lines are at most _CHUNK
    characters long, and by about one copy of a longer line.
    """
    index = np.int32 if len(text) < 2**31 else np.int64
    value = next(t for t in (np.int16, np.int32, np.int64) if limit <= np.iinfo(t).max)
    found, lineno = [], 0
    for pos, piece in _pieces(text, _CHUNK):
        bulk, values, others, spans, breaks = _read_piece(piece, tag, limit)
        found.append(((bulk + lineno).astype(index), values.astype(value),
                      (others + lineno).astype(index), (spans + pos).astype(index)))
        lineno += breaks
    return [np.concatenate(column) for column in zip(*found)]


def _read_piece(piece: str, tag: str, limit: int):
    """_read's results for one piece, with line numbers and spans counted
    from the piece's start, and the number of line breaks in the piece."""
    bulk, values, others, spans = [], [], [], []
    lines = piece.splitlines(True)
    end = 0
    for lineno, line in enumerate(lines):
        start, end = end, end + len(line)
        # the kept line break splits as whitespace too; maxsplit leaves the
        # tail of a long line in one string
        fields = line.split(None, 3)
        if not fields or fields[0] == "c":
            continue
        if fields[0] != tag:
            others.append(lineno)
            spans += (start, start + len(line.splitlines()[0]))
            continue
        bulk.append(lineno)
        if len(fields) != 3:
            values += (-1, -1)
            continue
        for token in fields[1:]:
            try:
                value = int(token)
            except ValueError:
                value = -1
            # clamped inline: a call per token would double the loop's time
            values.append(-1 if value < -1 else limit if value > limit else value)
    breaks = len(lines) - (bool(lines) and lines[-1][-1] not in _BREAK_CHARS)
    return (np.array(bulk, dtype=np.int64), np.array(values, dtype=np.int64).reshape(-1, 2),
            np.array(others, dtype=np.int64), np.array(spans, dtype=np.int64).reshape(-1, 2),
            breaks)


def _line(text: str, lineno: int) -> str:
    """Line `lineno` (0-based) of text.splitlines(), split again a piece at a time."""
    lines = (line for _, piece in _pieces(text, _CHUNK) for line in piece.splitlines())
    return next(islice(lines, lineno, None))


def _f_problem(raw: str, d: int) -> str:
    """What is wrong with the 'f' line `raw` inside a block, checked in
    order: its fields, its integers, its range, else a repeated pair."""
    fields = raw.split(None, 3)  # a fourth field is one too many, however long
    if len(fields) != 3:
        return f"expected 'f <value_a> <value_b>', got {raw!r}"
    try:
        va, vb = int(fields[1]), int(fields[2])
    except ValueError:
        return f"non-integer field in {raw!r}"
    if not (0 <= va < d and 0 <= vb < d):
        return f"disallowed pair ({va},{vb}) outside domain [0,{d})²"
    return f"disallowed pair ({va},{vb}) repeats in its constraint"


def _one_pass_header(text: str, word: bytes, count: int):
    """(lib, raw, start, values) when the compiled `read_header` reads the
    first line of `text` with tokens, comments aside, as 'p <word>' and
    `count` plain numbers: the kernel, the text as UTF-8, the offset after
    the header and the numbers.  None when the kernel is not loaded, the
    text holds a line break beyond ASCII or a lone surrogate, or the header
    is refused.  Beyond ASCII, the one-pass readers accept characters in
    comment lines only (see the text readers of _kernel.c)."""
    lib = _native.kernel()
    if lib is None or not text.isascii() and any(c in text for c in _WIDE_BREAKS):
        return None
    try:
        raw = text.encode("utf-8")
    except UnicodeEncodeError:
        return None
    values = (ctypes.c_int64 * count)()
    start = lib.read_header(raw, len(raw), word, count, values)
    return None if start < 0 else (lib, raw, start, list(values))


def _loads_in_one_pass(text: str) -> Optional[tuple[CspInstance, Optional[Assignment]]]:
    """loads_csp's result from one compiled pass over the text into the
    instance's arrays, or None when the pass refuses it (see `read_csp`)."""
    found = _one_pass_header(text, b"bcsp", 3)
    if found is None:
        return None
    lib, raw, start, (n, d, m) = found
    try:
        check_size(n, d, m)
    except ValueError:
        return None
    if n < 1 or d < 1:
        return None
    # sized from the r bytes after the header as well as from it: a 'k' line
    # takes at least 8 of them, an 'f' line 6 and the 's' line 2 a value,
    # the last line one less
    r = len(raw) - start + 1
    mcap = min(m, r // 8)
    con_a, con_b = np.empty(mcap, dtype=np.int32), np.empty(mcap, dtype=np.int32)
    pair_start = np.empty(mcap + 1, dtype=np.int64)
    codes = np.empty(min(m * d * d, r // 6), dtype=np.int32)
    solution = np.empty(min(n, r // 2), dtype=np.int64)
    seen, ascending = (ctypes.c_int64 * 1)(), (ctypes.c_int64 * 1)()
    used = lib.read_csp(raw, len(raw), start, n, d, m, con_a.ctypes.data, con_b.ctypes.data,
                        pair_start.ctypes.data, mcap, codes.ctypes.data, len(codes),
                        solution.ctypes.data, len(solution), seen, ascending)
    if used < 0:
        return None
    codes.resize(used, refcheck=False)  # the buffer is ours alone
    if not ascending[0]:
        # each block's codes sorted, as keys block·d² + code; a block that
        # repeats a pair is left to the Python path, which names its line
        keys = np.repeat(np.arange(m, dtype=np.int64) * (d * d), np.diff(pair_start))
        keys += codes
        keys.sort(kind="stable")  # about one pass over nearly sorted keys
        if (keys[1:] == keys[:-1]).any():
            return None
        codes[:] = keys % (d * d)
    instance = CspInstance._from_arrays(n, d, con_a, con_b, pair_start, codes)
    return instance, Assignment(solution, np.ones(n, dtype=bool)) if seen[0] else None


def loads_csp(text: str) -> tuple[CspInstance, Optional[Assignment]]:
    """Parse the native CSP text format.

    Returns the instance plus the recorded solution if an `s` line is present.
    Raises CspFormatError with the number of the first bad line on malformed
    input, and on a header beyond the size caps of `check_size` before
    anything proportional to the header is allocated.

    A text is read in one compiled pass straight into the instance's arrays
    (`_loads_in_one_pass`) when the pass can prove it valid: its lines are
    ASCII, comments aside, and its numbers are digits after an optional '+',
    18 at most; blocks whose pairs are out of order are sorted after it.
    Any other text, and every text when the kernel is not loaded, takes the
    Python path, which raises every error: the 'f' lines are read in bulk
    by `_read`, then checked and sorted as arrays, and the few other lines
    are checked one by one in a loop that knows how many 'f' lines lie
    between them.  So a text the pass refuses costs time, never a
    different result.
    """
    parsed = _loads_in_one_pass(text)
    if parsed is not None:
        return parsed
    # values are clamped to a bound on d: an accepted header has n >= 1 and
    # so d(d−1)/2 <= MAX_CLIQUE_EDGES
    f_lines, pairs, at_lines, spans = _read(text, "f", isqrt(2 * MAX_CLIQUE_EDGES) + 1)

    def fail(lineno: Optional[int], msg: str) -> CspFormatError:
        exc = CspFormatError(msg if lineno is None else f"line {lineno}: {msg}")
        exc.lineno = lineno
        return exc

    # every line but the 'f' and 'c' lines, in order, each knowing how many
    # 'f' lines precede it; the first misplaced line raises
    header: Optional[tuple[int, int, int]] = None
    blocks: list[tuple[int, int, int]] = []  # (var_a, var_b, npairs) per 'k' line
    block_lines: list[int] = []  # and the number of each 'k' line
    solution: Optional[list[int]] = None
    want = got = done = 0  # 'f' lines the open block declares, has; all placed
    f_before = np.searchsorted(f_lines, at_lines).tolist() + [len(f_lines)]
    misplaced: Optional[CspFormatError] = None
    try:
        for at, span, f_seen in zip(at_lines.tolist() + [None], spans.tolist() + [None],
                                    f_before):
            if f_seen > done:
                if header is None:
                    raise fail(int(f_lines[done]) + 1, "'f' line before 'p bcsp' header")
                if f_seen - done > want - got:
                    raise fail(int(f_lines[done + want - got]) + 1,
                               "'f' line outside a constraint block")
                got, done = got + f_seen - done, f_seen
            if at is None:
                break
            lineno, raw = at + 1, text[span[0]:span[1]]
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
                block_lines.append(at)
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

    va, vb = pairs.T  # -1 marks a bad line
    ok = (va >= 0) & (va < d) & (vb >= 0) & (vb < d)
    # keys cid·d² + code, with cid true up to a misplaced line, built in place;
    # the 'f' lines from one 'k' line to the next are its block's, and those
    # before the first 'k' line get block -1
    starts = np.searchsorted(f_lines, np.asarray(block_lines, dtype=f_lines.dtype))
    keys = np.repeat(np.arange(-1, len(block_lines)),
                     np.diff(starts, prepend=0, append=len(f_lines)))
    for column in (va, vb):
        keys *= d
        keys += column
    # the one sort: by block, then pair code, unless the keys ascend already,
    # as in a written file, and so also hold no repeats
    ascending = bool((keys[1:] > keys[:-1]).all())
    sorted_keys = keys if ascending else np.sort(keys)
    if not ok.all() or not ascending and (sorted_keys[1:] == sorted_keys[:-1]).any():
        # the first bad line: out of place, or a later copy of a pair in its block
        idx = np.flatnonzero(ok)
        idx = idx[np.argsort(keys[idx], kind="stable")]
        ok[idx[1:][keys[idx[1:]] == keys[idx[:-1]]]] = False
        at = int(f_lines[np.argmin(ok)])
        if misplaced is None or misplaced.lineno is None or at + 1 < misplaced.lineno:
            raise fail(at + 1, _f_problem(_line(text, at), d))
    if misplaced is not None:
        raise misplaced

    del f_lines, pairs, va, vb, ok, keys
    ends = np.array(blocks, dtype=np.int64).reshape(-1, 3)
    np.remainder(sorted_keys, d * d, out=sorted_keys)
    instance = CspInstance._from_arrays(
        n, d, ends[:, 0], ends[:, 1], np.concatenate(([0], np.cumsum(ends[:, 2]))),
        sorted_keys)
    return instance, None if solution is None else Assignment.from_values(solution)
