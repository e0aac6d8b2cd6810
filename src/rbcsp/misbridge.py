"""Bidirectional bridge between binary CSPs and their independent-set graphs.

The graph form has one vertex per (variable, value): vertex v·d + a stands
for variable v holding value a.  Each variable's d vertices form a clique
(a variable holds one value), and every disallowed value pair contributes one
cross edge.  Independent sets of size T then correspond exactly to partial
solutions meeting a target of T.  The frbX-Y benchmark graphs are laid out
this way, block by block, which is what makes recovery of the CSP possible.

DIMACS ascii graph I/O (`p edge` / `e u v`, 1-indexed) is included since
that is how such benchmarks are distributed.
"""

from __future__ import annotations

import ctypes
import re
import warnings
from bisect import bisect_left, bisect_right
from collections.abc import Set
from typing import Iterable, Iterator, Optional

import numpy as np

from . import _native
from .core import _BREAKS, CspInstance, _line, _one_pass_header, _read, _write, check_size

# A graph's edge rows are two int32s, so it has at most 2³¹ − 1 vertices; a
# graph, a pickle or a 'p edge' header beyond this is refused.  Every graph
# `csp_to_mis` builds fits: under check_size, n ≤ 100,000 and d ≤ 4,472.
# 'e' values are read in int64, clamped to MAX_VERTICES + 1
MAX_VERTICES = (1 << 31) - 1
_EMIT_SLICE = 1 << 16  # edges emit_dimacs writes at a time
# the bytes that end a line of a text `read_dimacs` accepts, and its 'e'
# lines, whose spaces are the ASCII ones that break no line
_ASCII_BREAK = np.isin(np.arange(256), [c for c in _BREAKS if c < 0x80])
_E_LINE = re.compile(rb"e[\t\x1f ]+\+?([0-9]+)[\t\x1f ]+\+?([0-9]+)")


class DimacsFormatError(ValueError):
    """Malformed DIMACS ascii graph text."""


class MisStructureError(ValueError):
    """Graph does not have the block-clique shape of a converted CSP."""


class EdgeView(Set):
    """Read-only set view of a graph's edges: the rows of its `pairs` array
    as (u, v) tuples, u < v, iterated in ascending order.  Set operators
    return a frozenset."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs: np.ndarray):
        self._pairs = pairs

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self._pairs[:, 0].tolist(), self._pairs[:, 1].tolist())

    def __contains__(self, edge) -> bool:
        # binary searches: for u in the first column, then for v among u's rows
        first, second = self._pairs[:, 0], self._pairs[:, 1]
        try:
            u, v = edge
            lo = bisect_left(first, u)
            hi = bisect_right(first, u, lo)
            i = bisect_left(second, v, lo, hi)
            return i < hi and bool(second[i] == v)
        except (TypeError, ValueError):  # not a pair of numbers
            return False

    def __eq__(self, other) -> bool:
        if isinstance(other, EdgeView):
            return np.array_equal(self._pairs, other._pairs)
        return super().__eq__(other)

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)

    def __repr__(self) -> str:
        return f"EdgeView({list(self)})"


class MisGraph:
    """Undirected simple graph on the vertices 0..num_vertices−1.

    `pairs` holds the edges as a read-only (E, 2) int32 array of (u < v)
    rows, ascending and distinct; `edges` is a read-only set view of the same
    rows as (u, v) tuples.  The constructor is the canonicalizer: it takes
    any iterable of pairs in either order, and orders, deduplicates and
    range-checks them.  block_size is set for CSP block structure.  A graph
    of more than MAX_VERTICES vertices is refused, built or unpickled.
    """

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int]],
                 block_size: Optional[int] = None):
        if num_vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        _check_vertices(num_vertices)
        try:
            pairs = np.fromiter(edges, dtype=np.dtype((np.int64, 2)))
        except OverflowError:
            raise ValueError("a vertex index overflows 64 bits") from None
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        bad = np.flatnonzero((lo == hi) | (lo < 0) | (hi >= num_vertices))
        if bad.size:
            u, v = int(lo[bad[0]]), int(hi[bad[0]])
            raise ValueError(f"self-loop on vertex {u}" if u == v
                             else f"edge ({u},{v}) outside [0,{num_vertices})")
        if block_size is not None and (block_size < 1 or num_vertices % block_size):
            raise ValueError(f"{num_vertices} vertices do not split into blocks "
                             f"of {block_size}")
        rows = np.stack((lo, hi), axis=1, dtype=np.int32)  # in range: below num_vertices
        self._init(num_vertices, _canonical(rows)[0], block_size)

    @classmethod
    def _from_pairs(cls, num_vertices: int, pairs: np.ndarray,
                    block_size: Optional[int] = None) -> "MisGraph":
        """A graph from an (E, 2) integer array known to hold its edges as
        the class doc says: (u < v) rows, ascending, distinct, below
        num_vertices; kept as it is if int32, else copied to int32."""
        graph = cls.__new__(cls)
        graph._init(num_vertices, pairs, block_size)
        return graph

    def _init(self, num_vertices, pairs, block_size) -> None:
        _check_vertices(num_vertices)
        pairs = np.ascontiguousarray(pairs, dtype=np.int32)
        pairs.flags.writeable = False
        self.__dict__.update(num_vertices=int(num_vertices), pairs=pairs,
                             edges=EdgeView(pairs), block_size=block_size)

    @property
    def num_edges(self) -> int:
        return len(self.pairs)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return list(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MisGraph):
            return NotImplemented
        return ((self.num_vertices, self.block_size) == (other.num_vertices, other.block_size)
                and np.array_equal(self.pairs, other.pairs))

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.block_size, self.pairs.tobytes()))

    def __repr__(self) -> str:
        return (f"MisGraph(num_vertices={self.num_vertices}, num_edges={self.num_edges}, "
                f"block_size={self.block_size})")

    def __setattr__(self, name, value):
        raise AttributeError(f"MisGraph is immutable; cannot set {name!r}")

    def __getstate__(self):
        # the array only: the view is rebuilt on load
        return {k: self.__dict__[k] for k in ("num_vertices", "pairs", "block_size")}

    def __setstate__(self, state):
        self._init(**state)


def _check_vertices(num_vertices: int) -> None:
    """Raise ValueError for a vertex count beyond MAX_VERTICES."""
    if num_vertices > MAX_VERTICES:
        raise ValueError(f"graph too large: {num_vertices} vertices exceed the cap "
                         f"of {MAX_VERTICES}")


def _canonical(pairs: np.ndarray):
    """The distinct rows, sorted, of an (E, 2) array of (u < v) rows, each
    below MAX_VERTICES, and the ascending positions of the rows that repeat
    an earlier row.  Rows already strictly ascending, as in an emitted file,
    come back as they are."""
    u, v = pairs[:, 0], pairs[:, 1]
    if ((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))).all():
        return pairs, np.empty(0, dtype=np.intp)
    # stable: a row's first copy leads.  The keys u·span + v, below 2⁶² in
    # int64, sort as the rows do, and a stable sort of nearly ordered keys
    # runs in about one pass
    span = int(v.max()) + 1
    order = np.argsort(u.astype(np.int64) * span + v, kind="stable")
    pairs = np.take(pairs, order, axis=0)  # take and compress copy rows faster than indexing
    su, sv = pairs[:, 0], pairs[:, 1]
    first = np.ones(len(pairs), dtype=bool)
    np.not_equal(su[1:], su[:-1], out=first[1:])
    first[1:] |= sv[1:] != sv[:-1]
    return np.compress(first, pairs, axis=0), np.sort(order[~first])


def csp_to_mis(instance: CspInstance) -> MisGraph:
    """Convert to the independent-set formulation.

    Cross edges coming from duplicate constraints collapse (a graph has no
    parallel edges), so conflict counts on the graph side follow the
    deduplicated-constraint semantics.

    The compiled kernel writes the edges in their final order, each vertex's
    clique neighbours and then its cross neighbours block by block, into a
    buffer of n·d(d−1)/2 + len(codes) rows, one per clique edge and per
    code, which it then trims; one lexsort of the m constraints by their
    endpoints is all it needs from numpy.  `_mis_pairs`, which sorts one key
    per edge, is the fallback and the reference.
    """
    n, d = instance.n, instance.d
    lib = _native.kernel()
    if lib is None:
        return MisGraph._from_pairs(n * d, _mis_pairs(instance), block_size=d)
    con_a, con_b, codes = instance.con_a, instance.con_b, instance.codes
    m = len(con_a)
    # by (low endpoint, high endpoint, id): lexsort is stable
    order = np.lexsort((np.maximum(con_a, con_b), np.minimum(con_a, con_b)))
    order = order.astype(np.int64, copy=False)
    cursor = np.empty(m, dtype=np.int64)
    # the codes of a constraint with con_a > con_b are oriented into a copy
    oriented = np.empty(len(codes) if (con_a > con_b).any() else 0, dtype=np.int32)
    pairs = np.empty((n * (d * (d - 1) // 2) + len(codes), 2), dtype=np.int32)
    used = lib.mis_edges(con_a.ctypes.data, con_b.ctypes.data, instance.pair_start.ctypes.data,
                         codes.ctypes.data, order.ctypes.data, m, n, d, cursor.ctypes.data,
                         oriented.ctypes.data, pairs.ctypes.data)
    del order, cursor, oriented
    pairs.resize((used, 2), refcheck=False)  # the buffer is ours alone
    return MisGraph._from_pairs(n * d, pairs, block_size=d)


def _mis_pairs(instance: CspInstance) -> np.ndarray:
    """The edges of `csp_to_mis(instance)` as its (E, 2) int32 `pairs`
    array, from one int64 key per edge, sorted; the reference of the
    compiled build."""
    n, d = instance.n, instance.d
    num_vertices = n * d  # V² < 2⁶³ under the caps, so the keys below fit in int64
    lo, hi = np.triu_indices(d, 1)
    base = np.arange(n)[:, None] * d
    cid = np.repeat(np.arange(instance.num_constraints), np.diff(instance.pair_start))
    va, vb = np.divmod(instance.codes, d)
    a, b = (x.astype(np.int64)[cid] * d for x in (instance.con_a, instance.con_b))
    u = np.concatenate(((base + lo).ravel(), a + va))
    w = np.concatenate(((base + hi).ravel(), b + vb))
    del a, b, va, vb, cid
    # one key per edge, (min·V + max), sorted; repeats are neighbours
    keys = np.minimum(u, w)
    keys *= num_vertices
    keys += np.maximum(u, w)
    del u, w
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    return np.stack(np.divmod(keys, num_vertices), axis=1, dtype=np.int32)


def mis_to_csp(graph: MisGraph, d: int) -> CspInstance:
    """Recover the CSP from a block-structured independent-set graph.

    Every block of d consecutive vertices must be a complete clique, that is,
    hold d(d−1)/2 of the distinct edges; the lowest block short of that is
    reported with its count.  Cross edges between a block pair become that
    pair's single constraint; duplicate constraints of the original instance
    cannot be told apart, so recovery yields deduplicated constraints.
    Sizes beyond `check_size`'s caps are refused before anything scales with n.

    The compiled kernel walks `pairs` block by block, counting each block's
    clique edges and writing its cross edges, by a counting sort on the
    other block, as the codes of its constraints in their final order.  Its
    buffers hold a code per edge and min(E, n(n−1)/2) constraints, bounds no
    graph can pass, and are trimmed after.  `_csp_arrays`, which sorts one
    key per cross edge, is the fallback and the reference.
    """
    if d < 1:
        raise ValueError(f"block size must be positive, got {d}")
    if graph.num_vertices % d:
        raise MisStructureError(f"{graph.num_vertices} vertices do not split "
                                f"into blocks of {d}")
    n = graph.num_vertices // d
    if n < 1:
        raise MisStructureError("graph has no vertices")
    check_size(n, d, 0)
    clique = d * (d - 1) // 2
    if graph.num_edges < n * clique:
        raise MisStructureError(f"{graph.num_edges} edges are too few for "
                                f"{n} block cliques of {clique} edges")
    lib = _native.kernel()
    if lib is None:
        return CspInstance._from_arrays(n, d, *_csp_arrays(graph.pairs, n, d))
    num_edges = graph.num_edges
    bound = min(num_edges, n * (n - 1) // 2)
    inner, count = np.empty(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    mask = np.zeros((n + 63) // 64, dtype=np.uint64)
    con_a, con_b = np.empty(bound, dtype=np.int32), np.empty(bound, dtype=np.int32)
    pair_start = np.empty(bound + 1, dtype=np.int64)
    codes = np.empty(num_edges, dtype=np.int32)
    m = lib.mis_constraints(graph.pairs.ctypes.data, num_edges, n, d, inner.ctypes.data,
                            count.ctypes.data, mask.ctypes.data, con_a.ctypes.data,
                            con_b.ctypes.data, pair_start.ctypes.data, codes.ctypes.data)
    _check_cliques(inner, d)
    codes.resize(pair_start[m], refcheck=False)  # in place: these buffers are ours alone
    for array, size in ((con_a, m), (con_b, m), (pair_start, m + 1)):
        array.resize(size, refcheck=False)
    return CspInstance._from_arrays(n, d, con_a, con_b, pair_start, codes)


def _check_cliques(counts: np.ndarray, d: int) -> None:
    """Raise MisStructureError for the lowest block whose count of clique
    edges in `counts` is short of d(d−1)/2."""
    clique = d * (d - 1) // 2
    short = np.flatnonzero(counts != clique)
    if short.size:
        v = int(short[0])
        raise MisStructureError(f"block {v} (vertices {v * d}..{v * d + d - 1}) "
                                f"is not a clique: {counts[v]} of {clique} edges present")


def _csp_arrays(pairs: np.ndarray, n: int, d: int):
    """The arrays con_a, con_b, pair_start and codes of `mis_to_csp` for the
    edges `pairs` of n blocks of d vertices, from one sort of a key per
    cross edge; the reference of the compiled walk."""
    u, w = pairs.T  # u < w, so a cross edge's block pair is ordered
    inner = u // d == w // d
    _check_cliques(np.bincount(u[inner] // d, minlength=n), d)
    # one sort by (block pair, pair code), in int64: each block pair becomes
    # one constraint
    cross = pairs[~inner]
    del inner
    keys, va = np.divmod(cross[:, 0].astype(np.int64), d)
    bw, vb = np.divmod(cross[:, 1], d)
    del cross
    for column, scale in ((bw, n), (va, d), (vb, d)):  # in place: ((bu·n + bw)·d + va)·d + vb
        keys *= scale
        keys += column
    keys.sort()
    pair, codes = np.divmod(keys, d * d)
    starts = np.flatnonzero(np.diff(pair, prepend=-1))
    con_a, con_b = np.divmod(pair[starts], n)
    return con_a, con_b, np.append(starts, len(keys)), codes


def _read_header(raw: str) -> tuple[int, int]:
    """The vertex and edge counts of the 'p' line `raw`; a ValueError names
    what is wrong with it."""
    fields = raw.split()
    if len(fields) != 4 or fields[1] != "edge":
        raise ValueError(f"expected 'p edge <V> <E>', got {raw!r}")
    try:
        num_vertices, num_edges = int(fields[2]), int(fields[3])
    except ValueError:
        raise ValueError(f"non-integer header field in {raw!r}") from None
    if num_vertices < 0 or num_edges < 0:
        raise ValueError("negative count in header")
    _check_vertices(num_vertices)
    return num_vertices, num_edges


def _e_problem(raw: str, num_vertices: int) -> str:
    """What is wrong with the 'e' line `raw` after the header, checked in
    order: its fields, its integers, its range, else a self-loop."""
    fields = raw.split(None, 3)  # a fourth field is one too many, however long
    if len(fields) != 3:
        return f"expected 'e <u> <v>', got {raw!r}"
    try:
        u, v = int(fields[1]), int(fields[2])
    except ValueError:
        return f"non-integer field in {raw!r}"
    if not (1 <= u <= num_vertices and 1 <= v <= num_vertices):
        return f"vertex in ({u},{v}) outside 1..{num_vertices}"
    return f"self-loop on vertex {u}"


def _parse_in_one_pass(text: str):
    """(V, E, pairs, dropped) of the text's header, distinct edges, as rows
    of the graph's `pairs`, and dropped duplicates, as (line, u, v), from
    one compiled pass, or None when the pass refuses the text (see
    `read_dimacs`)."""
    found = _one_pass_header(text, b"edge", 2)
    if found is None:
        return None
    lib, raw, start, (num_vertices, declared_edges) = found
    if num_vertices > MAX_VERTICES:  # the Python path raises its error
        return None
    # an 'e' line takes at least 6 of the bytes after the header, the last
    # line 5; a text of more edges than declared is read again to that bound
    fits = (len(raw) - start + 1) // 6
    ascending = (ctypes.c_int64 * 1)()
    for cap in (min(declared_edges, fits), fits):
        pairs = np.empty((cap, 2), dtype=np.int32)
        used = lib.read_dimacs(raw, len(raw), start, num_vertices, pairs.ctypes.data, cap,
                               ascending, None)
        if used != -2:
            break
    if used < 0:
        return None
    del raw, found
    pairs.resize((used, 2), refcheck=False)  # the buffer is ours alone
    dropped = []
    if not ascending[0]:
        pairs, repeats = _canonical(pairs)
        if repeats.size:
            dropped = _repeated_lines(lib, text.encode("utf-8"), start, num_vertices, repeats)
    return num_vertices, declared_edges, pairs, dropped


def _repeated_lines(lib, raw: bytes, start: int, num_vertices: int,
                    repeats: np.ndarray) -> list[tuple[int, int, int]]:
    """(line, u, v) of the 'e' lines at the ascending positions `repeats`
    among those of the text `raw` that `read_dimacs` accepted, read again by
    it up to the last of them; lines are counted 1-based, and u and v are
    in the line's order."""
    rows = int(repeats[-1]) + 1
    at, scratch = np.empty(rows, dtype=np.int64), np.empty((rows, 2), dtype=np.int32)
    lib.read_dimacs(raw, len(raw), start, num_vertices, scratch.ctypes.data, rows,
                    (ctypes.c_int64 * 1)(), at.ctypes.data)
    at = at[repeats]
    # a line starts after each ASCII break, but for the '\n' of a '\r\n'
    head = np.frombuffer(raw, dtype=np.uint8, count=int(at[-1]))
    breaks = np.flatnonzero(head < 0x20)  # where every ASCII break lies
    breaks = breaks[_ASCII_BREAK[head[breaks]]]
    breaks = breaks[~((head[breaks] == 10) & (breaks > 0) & (head[breaks - 1] == 13))]
    linenos = np.searchsorted(breaks, at) + 1
    return [(lineno, *map(int, _E_LINE.match(raw, pos).groups()))
            for lineno, pos in zip(linenos.tolist(), at.tolist())]


def _parse_in_python(text: str):
    """`_parse_in_one_pass`'s results for any text, from `core._read`;
    raises DimacsFormatError for the first bad line."""
    e_lines, ends, at_lines, spans = _read(text, "e", MAX_VERTICES + 1)

    # the first bad line of each kind as (lineno, message); the earliest is reported
    problems: list[tuple[int, str]] = []
    header: Optional[tuple[int, int]] = None
    for at, (start, end) in zip(at_lines.tolist(), spans.tolist()):
        raw = text[start:end]
        tag = raw.split()[0]
        try:
            if tag != "p":
                raise ValueError(f"unknown line tag {tag!r}")
            if header is not None:
                raise ValueError("duplicate header")
            header, header_at = _read_header(raw), at
        except ValueError as exc:
            problems.append((at + 1, str(exc)))
            break
    if len(e_lines) and (header is None or e_lines[0] < header_at):
        problems.append((int(e_lines[0]) + 1, "'e' line before 'p edge' header"))
    elif header is not None:
        num_vertices, declared_edges = header
        u, v = ends.T  # -1 marks a bad line
        ok = (u >= 1) & (u <= num_vertices) & (v >= 1) & (v <= num_vertices) & (u != v)
        if not ok.all():
            at = int(e_lines[np.argmin(ok)])
            problems.append((at + 1, _e_problem(_line(text, at), num_vertices)))
    if problems:
        raise DimacsFormatError("line {}: {}".format(*min(problems)))
    if header is None:
        raise DimacsFormatError("missing 'p edge' header")
    pairs = np.empty(ends.shape, dtype=np.int32)
    np.minimum(u, v, out=pairs[:, 0])
    np.maximum(u, v, out=pairs[:, 1])
    pairs -= 1
    pairs, repeats = _canonical(pairs)
    dropped = list(zip((e_lines[repeats] + 1).tolist(), u[repeats].tolist(),
                       v[repeats].tolist()))
    return num_vertices, declared_edges, pairs, dropped


def parse_dimacs(text: str) -> MisGraph:
    """Parse DIMACS ascii graph format (1-indexed `e` lines, `c` comments).

    Self-loops are rejected; duplicate edges are dropped with a warning; an
    edge count differing from the header is warned about but tolerated.
    Lines, fields and numbers are read as by `loads_csp`, and a malformed
    text is refused with the number of its first bad line.

    As in `loads_csp`, a text is read in one compiled pass straight into the
    graph's rows (`_parse_in_one_pass`) when the pass can prove it valid;
    edges out of order are sorted after it, and the lines of repeated ones
    found by a second pass up to the last of them.  Any other text, and
    every text when the kernel is not loaded, takes the Python path
    (`_parse_in_python`), which raises every error: the 'e' lines are read
    in bulk by `core._read`, as `loads_csp` reads 'f' lines, and one sort
    orders them and finds the duplicates, unless they are already in order.
    The few other lines are checked one by one.
    """
    num_vertices, declared_edges, pairs, dropped = (_parse_in_one_pass(text)
                                                    or _parse_in_python(text))
    for lineno, u, v in dropped:
        warnings.warn(f"line {lineno}: duplicate edge ({u},{v}) dropped", stacklevel=2)
    if len(pairs) != declared_edges:
        warnings.warn(f"header declares {declared_edges} edges, found {len(pairs)}",
                      stacklevel=2)
    return MisGraph._from_pairs(num_vertices, pairs)


def emit_dimacs(graph: MisGraph, comments: Iterable[str] = ()) -> str:
    """Serialize to DIMACS ascii: 1-indexed, edges sorted.  Each line of a
    comment, as `str.splitlines()` splits it, becomes its own 'c' line.  The
    'e' lines are written by the compiled writer when it is available, into
    a buffer sized for two vertices of at most V a line; else, or if they
    overrun it, by `_edge_slices`, the reference it is tested against."""
    nv, ne = graph.num_vertices, graph.num_edges
    head = "".join([f"c {line}\n" for text in comments for line in text.splitlines()]
                   + [f"p edge {nv} {ne}\n"])
    lib, text = _native.kernel(), None
    if lib is not None:
        # a table indexed by vertex number, entries 0 .. V
        text = _write(lib.write_edges, head, ne * (4 + 2 * len(str(nv))), "", nv + 1, ne,
                      graph.pairs.ctypes.data, ne)
    return "".join([head, *_edge_slices(graph.pairs)]) if text is None else text


def _edge_slices(pairs: np.ndarray) -> Iterator[str]:
    """The 'e' lines of `emit_dimacs`, one string per _EMIT_SLICE edges, so
    that the strings of all edges, several times the text, are never held."""
    for start in range(0, len(pairs), _EMIT_SLICE):
        yield "".join([f"e {u + 1} {v + 1}\n"
                       for u, v in pairs[start:start + _EMIT_SLICE].tolist()])
