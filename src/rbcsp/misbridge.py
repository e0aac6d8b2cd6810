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

import warnings
from bisect import bisect_left, bisect_right
from collections.abc import Set
from typing import Iterable, Iterator, Optional

import numpy as np

from . import _native
from .core import CspInstance, _line, _read, _write, check_size

# A graph's vertices are int64 and 'e' values are read in int64, clamped to
# MAX_VERTICES + 1; a header beyond this is refused (any real graph is
# orders of magnitude below)
MAX_VERTICES = 1 << 62
_EMIT_SLICE = 1 << 16  # edges emit_dimacs writes at a time


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

    `pairs` holds the edges as a read-only (E, 2) int64 array of (u < v)
    rows, ascending and distinct; `edges` is a read-only set view of the same
    rows as (u, v) tuples.  The constructor is the canonicalizer: it takes
    any iterable of pairs in either order, and orders, deduplicates and
    range-checks them.  block_size is set for CSP block structure.
    """

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int]],
                 block_size: Optional[int] = None):
        if num_vertices < 0:
            raise ValueError("vertex count must be nonnegative")
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
        self._init(num_vertices, _canonical(np.stack((lo, hi), axis=1))[0], block_size)

    @classmethod
    def _from_pairs(cls, num_vertices: int, pairs: np.ndarray,
                    block_size: Optional[int] = None) -> "MisGraph":
        """A graph from an (E, 2) int64 array known to hold its edges as the
        class doc says: (u < v) rows, ascending, distinct, below num_vertices."""
        graph = cls.__new__(cls)
        graph._init(num_vertices, pairs, block_size)
        return graph

    def _init(self, num_vertices, pairs, block_size) -> None:
        pairs = np.ascontiguousarray(pairs, dtype=np.int64)
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


def _canonical(pairs: np.ndarray):
    """Sort the rows of an (E, 2) int64 array of (u < v) rows in place, and
    return its distinct rows and the ascending positions, from before the
    sort, of the rows that repeat an earlier row.  Rows already strictly
    ascending, as in an emitted file, come back as they are."""
    u, v = pairs[:, 0], pairs[:, 1]
    if ((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))).all():
        return pairs, np.empty(0, dtype=np.intp)
    order = np.lexsort((v, u))  # stable: a row's first copy leads
    pairs[:] = pairs[order]
    first = np.ones(len(pairs), dtype=bool)
    np.any(pairs[1:] != pairs[:-1], axis=1, out=first[1:])
    return pairs[first], np.sort(order[~first])


def csp_to_mis(instance: CspInstance) -> MisGraph:
    """Convert to the independent-set formulation.

    Cross edges coming from duplicate constraints collapse (a graph has no
    parallel edges), so conflict counts on the graph side follow the
    deduplicated-constraint semantics.  Sizes beyond `check_size`'s caps are
    refused before any edge is built.
    """
    n, d = instance.n, instance.d
    check_size(n, d, 0)
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
    pairs = np.stack(np.divmod(keys, num_vertices), axis=1)
    return MisGraph._from_pairs(num_vertices, pairs, block_size=d)


def mis_to_csp(graph: MisGraph, d: int) -> CspInstance:
    """Recover the CSP from a block-structured independent-set graph.

    Every block of d consecutive vertices must be a complete clique, that is,
    hold d(d−1)/2 of the distinct edges; the lowest block short of that is
    reported with its count.  Cross edges between a block pair become that
    pair's single constraint; duplicate constraints of the original instance
    cannot be told apart, so recovery yields deduplicated constraints.
    Sizes beyond `check_size`'s caps are refused before anything scales with n.
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
    u, w = graph.pairs.T  # u < w, so a cross edge's block pair is ordered
    inner = u // d == w // d
    counts = np.bincount(u[inner] // d, minlength=n)
    short = np.flatnonzero(counts != clique)
    if short.size:
        v = int(short[0])
        raise MisStructureError(f"block {v} (vertices {v * d}..{v * d + d - 1}) "
                                f"is not a clique: {counts[v]} of {clique} edges present")
    # one sort by (block pair, pair code): each block pair becomes one constraint
    cross = graph.pairs[~inner]
    del inner
    keys, va = np.divmod(cross[:, 0], d)
    bw, vb = np.divmod(cross[:, 1], d)
    del cross
    for column, scale in ((bw, n), (va, d), (vb, d)):  # in place: ((bu·n + bw)·d + va)·d + vb
        keys *= scale
        keys += column
    keys.sort()
    pair, codes = np.divmod(keys, d * d)
    starts = np.flatnonzero(np.diff(pair, prepend=-1))
    con_a, con_b = np.divmod(pair[starts], n)
    return CspInstance._from_arrays(n, d, con_a, con_b, np.append(starts, len(keys)),
                                    codes)


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
    if num_vertices > MAX_VERTICES:
        raise ValueError(f"graph too large: {num_vertices} vertices exceed the cap "
                         f"of {MAX_VERTICES}")
    return num_vertices, num_edges


def _e_problem(raw: str, num_vertices: int) -> str:
    """What is wrong with the 'e' line `raw` after the header, checked in
    order: its fields, its integers, its range, else a self-loop."""
    fields = raw.split()
    if len(fields) != 3:
        return f"expected 'e <u> <v>', got {raw!r}"
    try:
        u, v = int(fields[1]), int(fields[2])
    except ValueError:
        return f"non-integer field in {raw!r}"
    if not (1 <= u <= num_vertices and 1 <= v <= num_vertices):
        return f"vertex in ({u},{v}) outside 1..{num_vertices}"
    return f"self-loop on vertex {u}"


def parse_dimacs(text: str) -> MisGraph:
    """Parse DIMACS ascii graph format (1-indexed `e` lines, `c` comments).

    Self-loops are rejected; duplicate edges are dropped with a warning; an
    edge count differing from the header is warned about but tolerated.
    Lines, fields and numbers are read as by `loads_csp`, and a malformed
    text is refused with the number of its first bad line.

    The 'e' lines are read in bulk by `core._read`, as `loads_csp` reads
    'f' lines, and one lexsort orders them and finds the duplicates, unless
    they are already in order.  The few other lines are checked one by one.
    """
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
    pairs = np.empty_like(ends)
    np.minimum(u, v, out=pairs[:, 0])
    np.maximum(u, v, out=pairs[:, 1])
    pairs -= 1
    pairs, repeats = _canonical(pairs)
    for i in repeats.tolist():
        warnings.warn(f"line {e_lines[i] + 1}: duplicate edge ({u[i]},{v[i]}) dropped",
                      stacklevel=2)
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
    parts = [f"c {line}\n" for text in comments for line in text.splitlines()]
    parts.append(f"p edge {graph.num_vertices} {graph.num_edges}\n")
    lib, text = _native.kernel(), None
    if lib is not None:
        text = _write(lib.write_edges, graph.num_edges * (4 + 2 * len(str(graph.num_vertices))),
                      graph.pairs.ctypes.data, graph.num_edges)
    parts += _edge_slices(graph.pairs) if text is None else [text]
    return "".join(parts)


def _edge_slices(pairs: np.ndarray) -> Iterator[str]:
    """The 'e' lines of `emit_dimacs`, one string per _EMIT_SLICE edges, so
    that the strings of all edges, several times the text, are never held."""
    for start in range(0, len(pairs), _EMIT_SLICE):
        yield "".join([f"e {u + 1} {v + 1}\n"
                       for u, v in pairs[start:start + _EMIT_SLICE].tolist()])
