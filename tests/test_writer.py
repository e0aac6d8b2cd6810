"""The compiled text writers: the same text as the Python writers, byte for
byte, and a silent fallback to them.

Each check writes an instance or a graph twice, once with the compiled
writer and once with `_native._lib` set to None, which makes `dumps_csp` and
`emit_dimacs` format each line with an f-string in `core._blocks` and
`misbridge._edge_slices`.  The compiled writers write into a buffer that
their callers size from n, d and V; the checks at digit boundaries show the
text fits it, and a buffer a byte short is refused without being overrun.
"""

from __future__ import annotations

import ctypes
import subprocess
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbcsp import _native, core, misbridge
from rbcsp.core import Assignment, Constraint, CspInstance, dumps_csp, loads_csp
from rbcsp.misbridge import MisGraph, csp_to_mis, emit_dimacs, parse_dimacs
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


def test_wide_codes(writers, monkeypatch):
    # d² ≥ 2³¹ stores the codes as int64; only the API builds such an
    # instance, since check_size refuses its header
    pairs = ((0, 1), (12345, 0), (46340, 46341), (49999, 0), (49999, 49999))
    instance = CspInstance(3, 50000, (Constraint(0, 1, pairs), Constraint(2, 0, pairs[3:])))
    assert instance.codes.dtype.itemsize == 8 and instance.codes.max() >= 2**31
    text = both_csp(monkeypatch, instance)
    assert text.endswith("k 0 1 5\nf 0 1\nf 12345 0\nf 46340 46341\nf 49999 0\n"
                         "f 49999 49999\nk 2 0 2\nf 49999 0\nf 49999 49999\n")


def test_graphs_without_edges(writers, monkeypatch):
    assert both_dimacs(monkeypatch, MisGraph(0, [])).endswith("p edge 0 0\n")
    assert both_dimacs(monkeypatch, MisGraph(5, [])).endswith("p edge 5 0\n")


def test_vertices_beyond_31_bits(writers, monkeypatch):
    edges = [(0, 2**40 - 1), (2**31 - 1, 2**31), (2**32, 2**33)]
    text = both_dimacs(monkeypatch, MisGraph(2**40, edges))
    assert text.endswith(f"e 1 {2**40}\ne {2**31} {2**31 + 1}\ne {2**32 + 1} {2**33 + 1}\n")
    assert parse_dimacs(text).pairs.tolist() == [list(e) for e in edges]


def test_frb_scale(writers, monkeypatch):
    instance, hidden = generate_forced(phase_transition_params(40), 2)
    assert loads_csp(both_csp(monkeypatch, instance, hidden)) == (instance, hidden)
    graph = csp_to_mis(instance)
    assert parse_dimacs(both_dimacs(monkeypatch, graph)) == MisGraph._from_pairs(
        graph.num_vertices, graph.pairs)


def compiled(monkeypatch, write, *args) -> str:
    """write(*args) with the Python writers made to raise: a text that only
    the compiled writer wrote, so _write returned it rather than None."""
    with monkeypatch.context() as m:
        m.setattr(core, "_blocks", mock.Mock(side_effect=AssertionError("_blocks")))
        m.setattr(misbridge, "_edge_slices", mock.Mock(side_effect=AssertionError("_edge_slices")))
        return write(*args)


def test_texts_fit_at_digit_boundaries(writers, monkeypatch):
    # n, d and V where a number gains a digit, a constraint disallowing all
    # d² pairs, vertices up to 2⁶² and codes stored as int64
    for n, d in product((9, 10, 99, 100), repeat=2):
        instance = CspInstance(n, d, (Constraint(n - 1, n - 2, tuple(product(range(d), repeat=2))),
                                      Constraint(0, n - 1, ((d - 1, 0),))))
        assert compiled(monkeypatch, dumps_csp, instance, None, COMMENTS) == both_csp(
            monkeypatch, instance)
    pairs = ((0, 1), (12345, 0), (46340, 46341), (49999, 0), (49999, 49999))
    wide = CspInstance(3, 50000, (Constraint(0, 1, pairs), Constraint(2, 0, pairs[3:])))
    assert compiled(monkeypatch, dumps_csp, wide, None, COMMENTS) == both_csp(monkeypatch, wide)
    for size in (9, 10, 99, 100, 2**62):
        graph = MisGraph(size, [(0, size - 1), (size - 2, size - 1), (0, 1)])
        assert compiled(monkeypatch, emit_dimacs, graph, COMMENTS) == both_dimacs(
            monkeypatch, graph)


def test_a_buffer_short_of_the_text_is_refused(writers):
    # at every cap below the text's length the writer returns -1 and
    # writes no byte at or beyond the cap
    lib = _native.kernel()
    instance = CspInstance(12, 10, (Constraint(11, 0, ((9, 9), (0, 3))),
                                    Constraint(1, 2, ((5, 0),))))
    graph = MisGraph(2**40, [(0, 2**40 - 1), (9, 10)])
    cases = [
        (lib.write_blocks, (instance.con_a.ctypes.data, instance.con_b.ctypes.data,
                            instance.pair_start.ctypes.data, instance.num_constraints,
                            instance.codes.ctypes.data, instance.codes.itemsize == 8, instance.d),
         "".join(core._blocks(instance))),
        (lib.write_edges, (graph.pairs.ctypes.data, graph.num_edges),
         "".join(misbridge._edge_slices(graph.pairs))),
    ]
    for writer, args, text in cases:
        size = len(text)
        buf = bytearray(size + 16)
        out = (ctypes.c_char * len(buf)).from_buffer(buf)
        assert writer(*args, out, size) == size and buf[:size] == text.encode()
        for cap in range(size):
            buf[:] = b"#" * len(buf)
            assert writer(*args, out, cap) == -1
            assert buf[cap:] == b"#" * (len(buf) - cap)


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
    size = draw(st.sampled_from([1, 30, 2**31, 2**62]))
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


def test_compile_failure_writes_alike_silently(monkeypatch, capfd):
    instance, hidden = generate_forced(phase_transition_params(20), 3)
    graph = csp_to_mis(instance)
    expected = dumps_csp(instance, hidden, COMMENTS), emit_dimacs(graph, COMMENTS)

    def broken():
        raise subprocess.CalledProcessError(1, ["cc"])

    monkeypatch.setattr(_native, "_lib", ...)
    monkeypatch.setattr(_native, "_compile", broken)
    capfd.readouterr()
    assert (dumps_csp(instance, hidden, COMMENTS), emit_dimacs(graph, COMMENTS)) == expected
    assert _native._lib is None
    assert capfd.readouterr() == ("", "")
