"""The compiled text writers: the same text as the Python writers, byte for
byte.

Each check writes an instance or a graph twice, once with the compiled
writer and once with `_native._lib` set to None, which makes `dumps_csp` and
`emit_dimacs` format each line with an f-string in `core._blocks` and
`misbridge._edge_slices`.  The compiled writers write into a buffer that
their callers size from n, d and V, copying the numbers of dense texts from
a digit table; the checks at digit boundaries show the text fits it, on the
table and off it, and a buffer short of the text is refused without being
overrun.
"""

from __future__ import annotations

import ctypes
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbcsp import _native, core, misbridge
from rbcsp.core import Assignment, Constraint, CspInstance, dumps_csp, loads_csp
from rbcsp.misbridge import MAX_VERTICES, MisGraph, csp_to_mis, emit_dimacs, parse_dimacs
from rbcsp.modelrb import generate_forced, phase_transition_params

COMMENTS = ("a comment", "two\nlines", "")


@pytest.fixture
def writers():
    if _native.kernel() is None:
        pytest.skip("the compiled kernel could not be built here")


def both_csp(monkeypatch, instance, solution=None) -> str:
    """dumps_csp's text, after checking that the Python path writes it too."""
    fast = dumps_csp(instance, solution, COMMENTS)
    with monkeypatch.context() as m:
        m.setattr(_native, "_lib", None)
        assert dumps_csp(instance, solution, COMMENTS) == fast
    return fast


def both_dimacs(monkeypatch, graph) -> str:
    """emit_dimacs's text, after checking that the Python path writes it too."""
    fast = emit_dimacs(graph, COMMENTS)
    with monkeypatch.context() as m:
        m.setattr(_native, "_lib", None)
        assert emit_dimacs(graph, COMMENTS) == fast
    return fast


def test_no_constraints(writers, monkeypatch):
    text = both_csp(monkeypatch, CspInstance(3, 2), Assignment.from_values([0, 1, 1]))
    assert text.endswith("p bcsp 3 2 0\ns 0 1 1\n")


def test_one_variable_one_value(writers, monkeypatch):
    text = both_csp(monkeypatch, CspInstance(1, 1), Assignment.from_values([0]))
    assert text.endswith("p bcsp 1 1 0\ns 0\n")
    assert loads_csp(text)[0] == CspInstance(1, 1)


@pytest.mark.parametrize("bad", [-1, 4, 99, -2**63])
def test_a_solution_outside_the_domain_is_refused(bad):
    # loads_csp refuses an 's' value outside [0, d), so dumps_csp may not write one
    instance = CspInstance(5, 4, (Constraint(0, 1, ((0, 0),)),))
    for at in (0, 4):
        values = [3, 0, 1, 2, 3]
        values[at] = bad
        with pytest.raises(ValueError, match=r"outside domain \[0,4\)"):
            dumps_csp(instance, Assignment.from_values(values))
    edge = Assignment.from_values([0, 3, 0, 3, 3])
    assert loads_csp(dumps_csp(instance, edge)) == (instance, edge)


def test_comments_of_any_code_point(writers, monkeypatch):
    # the compiled path encodes the comments into its buffer and decodes
    # them back, lone and paired surrogates included
    comments = ("caf\xe9 \u2603 \U0001f600", "\ud800 alone", "\ud83d\ude00 split", "\x00")
    instance, hidden = generate_forced(phase_transition_params(10), 1)
    text = dumps_csp(instance, hidden, comments)
    dimacs = emit_dimacs(csp_to_mis(instance), comments)
    assert text.startswith("".join(f"c {c}\n" for c in comments))
    assert dimacs.startswith("".join(f"c {c}\n" for c in comments))
    with monkeypatch.context() as m:
        m.setattr(_native, "_lib", None)
        assert dumps_csp(instance, hidden, comments) == text
        assert emit_dimacs(csp_to_mis(instance), comments) == dimacs


def test_graphs_without_edges(writers, monkeypatch):
    assert both_dimacs(monkeypatch, MisGraph(0, [])).endswith("p edge 0 0\n")
    assert both_dimacs(monkeypatch, MisGraph(5, [])).endswith("p edge 5 0\n")


def test_vertices_up_to_the_cap(writers, monkeypatch):
    # the last vertex of the largest graph, 2³¹ − 2, written as 2³¹ − 1
    edges = [(0, MAX_VERTICES - 1), (2**30 - 1, 2**30), (MAX_VERTICES - 2, MAX_VERTICES - 1)]
    text = both_dimacs(monkeypatch, MisGraph(MAX_VERTICES, edges))
    assert text.endswith(f"e 1 {2**31 - 1}\ne {2**30} {2**30 + 1}\n"
                         f"e {2**31 - 2} {2**31 - 1}\n")
    assert parse_dimacs(text).pairs.tolist() == [list(e) for e in edges]


def test_frb_scale(writers, monkeypatch):
    instance, hidden = generate_forced(phase_transition_params(40), 2)
    assert loads_csp(both_csp(monkeypatch, instance, hidden)) == (instance, hidden)
    graph = csp_to_mis(instance)
    assert parse_dimacs(both_dimacs(monkeypatch, graph)) == MisGraph._from_pairs(
        graph.num_vertices, graph.pairs)


class _Spy:
    """The kernel library, recording the table size each writer is given."""

    def __init__(self, lib):
        self.lib, self.ntabs = lib, []

    def __getattr__(self, name):
        fn = getattr(self.lib, name)

        def call(*args):  # a writer's: (…, table, ntab, out, cap)
            self.ntabs.append(args[-3])
            return fn(*args)
        return call


def compiled(monkeypatch, write, *args) -> tuple[str, list[int]]:
    """write(*args) with the Python writers made to raise: a text that only
    the compiled writer wrote, so _write returned it rather than None; and
    the size of the digit table the writer was given."""
    spy = _Spy(_native.kernel())
    with monkeypatch.context() as m:
        m.setattr(_native, "_lib", spy)
        m.setattr(core, "_blocks", mock.Mock(side_effect=AssertionError("_blocks")))
        m.setattr(misbridge, "_edge_slices", mock.Mock(side_effect=AssertionError("_edge_slices")))
        return write(*args), spy.ntabs


def test_texts_fit_at_digit_boundaries(writers, monkeypatch):
    # n, d and V where a number gains a digit, a constraint disallowing all
    # d² pairs, and vertices up to the cap, 2³¹ − 1
    for n, d in product((9, 10, 99, 100), repeat=2):
        instance = CspInstance(n, d, (Constraint(n - 1, n - 2, tuple(product(range(d), repeat=2))),
                                      Constraint(0, n - 1, ((d - 1, 0),))))
        # d² + 1 'f' lines: the table of the d values is taken
        assert compiled(monkeypatch, dumps_csp, instance, None, COMMENTS) == (
            both_csp(monkeypatch, instance), [d])
    for size in (9, 10, 99, 100, MAX_VERTICES):
        # three edges, fewer than the vertex numbers: no table
        graph = MisGraph(size, [(0, size - 1), (size - 2, size - 1), (0, 1)])
        assert compiled(monkeypatch, emit_dimacs, graph, COMMENTS) == (
            both_dimacs(monkeypatch, graph), [0])
    for size in (9, 10, 99, 100, 999, 1000, 9999, 10000):
        # a star and a path, 2V - 3 edges: the table of 1 .. V is taken,
        # and its last entries are written
        graph = MisGraph(size, [(0, v) for v in range(1, size)]
                         + [(v, v + 1) for v in range(1, size - 1)])
        assert compiled(monkeypatch, emit_dimacs, graph, COMMENTS) == (
            both_dimacs(monkeypatch, graph), [size + 1])


def test_a_buffer_short_of_the_text_is_refused(writers):
    # at every cap below the text's length the writer returns -1 and
    # writes no byte at or beyond the cap, off the digit table (d = 10 for 3
    # 'f' lines, V = 2³¹ − 1) and on it (d = 4 for 17 'f' lines, K₁₂), where a
    # line's two 8-byte stores take 18 bytes of room
    lib = _native.kernel()

    def blocks(instance, ntab):
        return (lib.write_blocks, (instance.con_a.ctypes.data, instance.con_b.ctypes.data,
                                   instance.pair_start.ctypes.data, instance.num_constraints,
                                   instance.codes.ctypes.data, instance.d),
                ntab, "".join(core._blocks(instance)))

    def edges(graph, ntab):
        return (lib.write_edges, (graph.pairs.ctypes.data, graph.num_edges),
                ntab, "".join(misbridge._edge_slices(graph.pairs)))

    sparse = CspInstance(12, 10, (Constraint(11, 0, ((9, 9), (0, 3))),
                                  Constraint(1, 2, ((5, 0),))))
    dense = CspInstance(12, 4, (Constraint(11, 0, tuple(product(range(4), repeat=2))),
                                Constraint(1, 2, ((3, 0),))))
    huge = MisGraph(MAX_VERTICES, [(0, MAX_VERTICES - 1), (9, 10)])
    k12 = MisGraph(12, list(combinations(range(12), 2)))
    for writer, args, ntab, text in (blocks(sparse, 0), blocks(dense, 4), edges(huge, 0),
                                     edges(k12, 13)):
        size = len(text)
        table = np.zeros(9 * ntab, np.uint8)
        buf = bytearray(size + 18)
        out = (ctypes.c_char * len(buf)).from_buffer(buf)
        assert writer(*args, table.ctypes.data, ntab, out, size) == size
        assert buf[:size] == text.encode()
        words, lengths = table[:8 * ntab].tobytes(), table[8 * ntab:].tolist()
        assert [words[8 * k:8 * k + lengths[k]] for k in range(ntab)] == [
            f" {k}".encode() for k in range(ntab)]
        for cap in range(size):
            buf[:] = b"#" * len(buf)
            assert writer(*args, table.ctypes.data, ntab, out, cap) == -1
            assert buf[cap:] == b"#" * (len(buf) - cap)


def test_concurrent_writes_are_independent(writers):
    # ctypes releases the GIL during a call, so two writers run at once;
    # each call builds its digit table in scratch of its own
    jobs = []
    for seed, n in ((1, 30), (2, 40)):
        instance, hidden = generate_forced(phase_transition_params(n), seed)
        jobs += [(dumps_csp, instance, hidden, COMMENTS), (emit_dimacs, csp_to_mis(instance))]
    serial = [write(*args) for write, *args in jobs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        for _ in range(4):
            assert list(pool.map(lambda job: job[0](*job[1:]), jobs * 3)) == serial * 3


@st.composite
def instances(draw):
    n, d = draw(st.integers(2, 6)), draw(st.integers(1, 7))
    constraints = []
    for _ in range(draw(st.integers(0, 5))):
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        pairs = draw(st.sets(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)),
                             min_size=1))
        constraints.append(Constraint(a, b, tuple(pairs)))
    return CspInstance(n, d, constraints)


@st.composite
def graphs(draw):
    size = draw(st.sampled_from([1, 30, 2**30, MAX_VERTICES]))
    vertex = st.integers(0, size - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                          max_size=20))
    return MisGraph(size, edges)


@settings(max_examples=200, deadline=None)
@given(instance=instances(), graph=graphs())
def test_random_texts_write_alike(instance, graph):
    # not the fixture: hypothesis does not reset a function-scoped one
    if _native.kernel() is None:
        pytest.skip("the compiled kernel could not be built here")
    with pytest.MonkeyPatch.context() as m:
        text = both_csp(m, instance)
        dimacs = both_dimacs(m, graph)
    assert loads_csp(text)[0] == instance
    assert parse_dimacs(dimacs) == graph
