"""Memory guards for the text readers and writers at frb scale, and for the
Python start at a huge domain.

numpy reports its array allocations to tracemalloc, so a traced peak covers
the arrays as well as the Python objects.  Each bound sits well above the
measured peak and well below that of the whole-text tokenizer and the
per-edge strings these functions used before.
"""

from __future__ import annotations

import tracemalloc

import pytest

from rbcsp import _native, core
from rbcsp.core import CspInstance, dumps_csp, loads_csp
from rbcsp.misbridge import csp_to_mis, emit_dimacs, parse_dimacs
from rbcsp.modelrb import generate_forced, phase_transition_params
from rbcsp.ulsa import UlsaConfig, run


def traced_peak_mb(fn, *args) -> float:
    """The peak of traced memory while fn(*args) runs, above what was traced
    before; the result is held until the peak is read, so it counts."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
        del result
        return peak / 1e6
    finally:
        if started:
            tracemalloc.stop()


def forced_text(n: int, seed: int) -> str:
    return dumps_csp(*generate_forced(phase_transition_params(n), seed))


@pytest.fixture(scope="module")
def n100():
    instance, hidden = generate_forced(phase_transition_params(100), 1)
    text = dumps_csp(instance, hidden)
    dimacs = emit_dimacs(csp_to_mis(instance))
    return text, dimacs


def test_loads_csp_peak_n40():
    text = forced_text(40, 15)  # 260 KB; the whole-text tokenizer took 4.9 MB
    assert traced_peak_mb(loads_csp, text) <= 1.5


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_loads_csp_peak_n100(n100, end):
    # 3.9 MB; the whole-text tokenizer took 67 MB.  Pieces end at any line
    # break, so a text without '\n' is read in pieces too
    text = n100[0].replace("\n", end)
    assert traced_peak_mb(loads_csp, text) <= 30


def test_parse_dimacs_peak_n100(n100):
    _, dimacs = n100  # 6.6 MB, 573k edges; the line-by-line parser took 108 MB
    assert traced_peak_mb(parse_dimacs, dimacs) <= 50


def test_dumps_csp_peak_n100(n100, monkeypatch):
    # the 3.9 MB text twice: as the compiled writer's buffer, sized a little
    # above the text, and its str, or as the Python writer's block strings
    # and their join: 8.0 and 7.8 MB;
    # the numpy writer's strings per distinct pair took 16.9 MB
    instance, hidden = loads_csp(n100[0])
    assert traced_peak_mb(dumps_csp, instance, hidden) <= 10
    monkeypatch.setattr(_native, "_lib", None)
    assert traced_peak_mb(dumps_csp, instance, hidden) <= 10


def test_emit_dimacs_peak_n100(n100):
    # 13.4 MB with the compiled writer, 19.2 MB with 64k-edge Python
    # slices; a string per edge took 52 MB
    graph = parse_dimacs(n100[1])
    assert traced_peak_mb(emit_dimacs, graph) <= 25


def test_reader_transient_does_not_grow_with_the_text(n100):
    # beyond its results, which concatenation briefly holds twice, the
    # reader takes what one piece needs, for a 260 KB text and a 3.9 MB one
    for text in (forced_text(40, 15), n100[0]):
        results = core._read(text, "f", 4473)
        kept = sum(a.nbytes for a in results) / 1e6
        assert traced_peak_mb(core._read, text, "f", 4473) <= 2 * kept + 1.0


def test_tables_peak_n100(n100):
    # the packed table alone, 0.83 MB for m = 1.3k constraints at d = 40; the
    # uint8 rows and their scatter indices, built beside it before, took 20.6 MB
    if _native.kernel() is None:
        pytest.skip("the compiled kernel could not be built here")
    instance, _ = loads_csp(n100[0])
    assert traced_peak_mb(core._FlatTables, instance) <= 3


def test_tables_peak_d69():
    # n = 200 puts d at 69: rows of two words, 6.5 MB for m = 2.9k constraints;
    # the eager uint8 rows built before at d > 64 took 2m·d² bytes, 28 MB
    if _native.kernel() is None:
        pytest.skip("the compiled kernel could not be built here")
    instance, _ = generate_forced(phase_transition_params(200), 1)
    m, d = instance.num_constraints, instance.d
    assert d == 69
    assert traced_peak_mb(core._FlatTables, instance) <= 2 * m * d * d / 4 / 1e6


def test_python_start_at_a_huge_domain(monkeypatch):
    # a variable with no constraint draws its value directly, as the
    # compiled start does, instead of counting and listing all d ties:
    # 352 MB traced at d = 2^24 before
    monkeypatch.setattr(_native, "_lib", None)
    record = run(CspInstance(3, 1 << 24), UlsaConfig(), 0)
    assert record.assignment == [277287, 13644410, 687421]  # the compiled start's
    assert traced_peak_mb(run, CspInstance(3, 1 << 24), UlsaConfig(), 0) <= 2
