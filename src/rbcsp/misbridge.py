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
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional

import numpy as np

from .core import CspInstance, check_size


class DimacsFormatError(ValueError):
    """Malformed DIMACS ascii graph text."""


class MisStructureError(ValueError):
    """Graph does not have the block-clique shape of a converted CSP."""


@dataclass(frozen=True)
class MisGraph:
    """Undirected simple graph; `edges` is a frozenset of (u < v) pairs.

    The sole canonicalizer: any iterable of pairs in either order is ordered,
    frozen and range-checked here.  block_size is set for CSP block structure.
    """

    num_vertices: int
    edges: frozenset[tuple[int, int]]
    block_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        edges = frozenset(_ordered(self.edges, self.num_vertices))
        object.__setattr__(self, "edges", edges)
        size = self.block_size
        if size is not None and (size < 1 or self.num_vertices % size):
            raise ValueError(f"{self.num_vertices} vertices do not split into blocks "
                             f"of {size}")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def _ordered(pairs: Iterable[tuple[int, int]], num_vertices: int):
    """Yield (u < v) pairs, reusing ordered tuples, checked in the same pass."""
    for e in pairs:
        u, v = e
        if u > v:
            u, v = e = (v, u)
        if u == v or u < 0 or v >= num_vertices:
            raise ValueError(f"self-loop on vertex {u}" if u == v
                             else f"edge ({u},{v}) outside [0,{num_vertices})")
        yield e


def csp_to_mis(instance: CspInstance) -> MisGraph:
    """Convert to the independent-set formulation.

    Cross edges coming from duplicate constraints collapse (a graph has no
    parallel edges), so conflict counts on the graph side follow the
    deduplicated-constraint semantics.
    """
    n, d = instance.n, instance.d
    lo, hi = np.triu_indices(d, 1)
    base = np.arange(n)[:, None] * d
    cid = np.repeat(np.arange(instance.num_constraints), np.diff(instance.pair_start))
    va, vb = np.divmod(instance.codes, d)
    a, b = (x.astype(np.int64)[cid] * d for x in (instance.con_a, instance.con_b))
    u = np.concatenate(((base + lo).ravel(), a + va))
    w = np.concatenate(((base + hi).ravel(), b + vb))
    return MisGraph(n * d, zip(u.tolist(), w.tolist()), block_size=d)


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
    edges = np.fromiter(chain.from_iterable(graph.edges), dtype=np.int64,
                        count=2 * graph.num_edges).reshape(-1, 2)
    block, value = np.divmod(edges, d)  # u < w, so a cross edge's block pair is ordered
    inner = block[:, 0] == block[:, 1]
    counts = np.bincount(block[inner, 0], minlength=n)
    short = np.flatnonzero(counts != clique)
    if short.size:
        v = int(short[0])
        raise MisStructureError(f"block {v} (vertices {v * d}..{v * d + d - 1}) "
                                f"is not a clique: {counts[v]} of {clique} edges present")
    # one sort by (block pair, pair code): each block pair becomes one constraint
    (bu, bw), (va, vb) = block[~inner].T, value[~inner].T
    keys = ((bu * n + bw) * d + va) * d + vb
    keys.sort()
    pair, codes = np.divmod(keys, d * d)
    starts = np.flatnonzero(np.diff(pair, prepend=-1))
    con_a, con_b = np.divmod(pair[starts], n)
    return CspInstance._from_arrays(n, d, con_a, con_b, np.append(starts, len(keys)),
                                    codes)


def _lines(text: str, chunk: int = 1 << 16) -> Iterator[str]:
    """The lines of text.splitlines(), split from one piece of about `chunk`
    characters at a time; each piece ends at a '\n', which always ends a line."""
    pos = 0
    while pos < len(text):
        cut = text.find("\n", pos + chunk) + 1 or len(text)
        yield from text[pos:cut].splitlines()
        pos = cut


def parse_dimacs(text: str) -> MisGraph:
    """Parse DIMACS ascii graph format (1-indexed `e` lines, `c` comments).

    Self-loops are rejected; duplicate edges are dropped with a warning; an
    edge count differing from the header is warned about but tolerated.
    """
    num_vertices: Optional[int] = None
    declared_edges = 0
    edges: set[tuple[int, int]] = set()

    def fail(lineno: int, msg: str) -> DimacsFormatError:
        return DimacsFormatError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(_lines(text), start=1):
        fields = raw.split()
        if not fields or fields[0] == "c":
            continue
        tag = fields[0]
        if tag == "p":
            if num_vertices is not None:
                raise fail(lineno, "duplicate header")
            if len(fields) != 4 or fields[1] != "edge":
                raise fail(lineno, f"expected 'p edge <V> <E>', got {raw!r}")
            try:
                num_vertices, declared_edges = int(fields[2]), int(fields[3])
            except ValueError:
                raise fail(lineno, f"non-integer header field in {raw!r}") from None
            if num_vertices < 0 or declared_edges < 0:
                raise fail(lineno, "negative count in header")
        elif tag == "e":
            if num_vertices is None:
                raise fail(lineno, "'e' line before 'p edge' header")
            if len(fields) != 3:
                raise fail(lineno, f"expected 'e <u> <v>', got {raw!r}")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise fail(lineno, f"non-integer field in {raw!r}") from None
            if not (1 <= u <= num_vertices and 1 <= v <= num_vertices):
                raise fail(lineno, f"vertex in ({u},{v}) outside 1..{num_vertices}")
            if u == v:
                raise fail(lineno, f"self-loop on vertex {u}")
            edge = (u - 1, v - 1)
            if edge in edges or (v - 1, u - 1) in edges:
                warnings.warn(f"line {lineno}: duplicate edge ({u},{v}) dropped",
                              stacklevel=2)
            else:
                edges.add(edge)
        else:
            raise fail(lineno, f"unknown line tag {tag!r}")

    if num_vertices is None:
        raise DimacsFormatError("missing 'p edge' header")
    if len(edges) != declared_edges:
        warnings.warn(f"header declares {declared_edges} edges, found {len(edges)}",
                      stacklevel=2)
    return MisGraph(num_vertices, edges)


def emit_dimacs(graph: MisGraph, comments: Iterable[str] = ()) -> str:
    """Serialize to DIMACS ascii: 1-indexed, edges sorted."""
    lines = [f"c {text}" for text in comments]
    lines.append(f"p edge {graph.num_vertices} {graph.num_edges}")
    lines.extend(f"e {u + 1} {v + 1}" for u, v in graph.sorted_edges())
    return "\n".join(lines) + "\n"
