"""Memory guards for the text readers and writers and the MIS conversions
at frb scale, for the Python start and steps, and for the tests' recount.

numpy reports its array allocations to tracemalloc, so a traced peak covers
the arrays as well as the Python objects.  Each bound sits well above the
measured peak and well below that of the whole-text tokenizer and the
per-edge strings these functions used before.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import tracemalloc

import pytest

from rbcsp import _native, cli, core
from rbcsp.core import dumps_csp, loads_csp
from rbcsp.misbridge import csp_to_mis, emit_dimacs, mis_to_csp, parse_dimacs
from rbcsp.modelrb import generate_forced, phase_transition_params
from rbcsp.ulsa import UlsaConfig, run

from conftest import recount_violated


def traced(fn, *args):
    """fn(*args) and the peak of traced memory in MB while it runs, above
    what was traced before; the result is held until the peak is read, so
    it counts."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        if started:
            tracemalloc.stop()


def traced_peak_mb(fn, *args) -> float:
    return traced(fn, *args)[1]


def forced_text(n: int, seed: int) -> str:
    return dumps_csp(*generate_forced(phase_transition_params(n), seed))


@pytest.fixture(scope="module")
def n100():
    instance, hidden = generate_forced(phase_transition_params(100), 1)
    text = dumps_csp(instance, hidden)
    dimacs = emit_dimacs(csp_to_mis(instance))
    return text, dimacs


def test_generate_forced_peak_n100():
    # the compiled sampler writes the instance's arrays in place, 2.07 MB
    # with the hidden values, and peaks at 2.09 MB; the numpy loop's int64
    # (m, q) codes and their int32 copy peaked at 6.19 MB
    if _native.kernel() is None:
        pytest.skip("the compiled kernel could not be built here")
    generate_forced(phase_transition_params(5), 1)  # a first call traced 0.65 MB more, once
    (instance, hidden), peak = traced(generate_forced, phase_transition_params(100), 1)
    arrays = [getattr(instance, name) for name in core._ARRAYS]
    kept = sum(a.nbytes for a in arrays + [hidden.values, hidden.initialized]) / 1e6
    assert peak <= kept + 1.0


def test_constraints_view_peak_n100():
    # 512k disallowed pairs at d = 40 share one tuple per distinct pair: the
    # view peaks at 4.8 MB, all of it held; a tuple per pair took 45 MB
    instance, _ = generate_forced(phase_transition_params(100), 1)
    assert "constraints" not in vars(instance)
    cons, peak = traced(lambda: instance.constraints)
    assert peak <= 8
    pairs = {id(p) for c in cons for p in c.disallowed}
    assert len(pairs) <= min(instance.d ** 2, len(instance.codes))


def test_recount_oracle_caches_no_pair_sets_n100():
    # the tests' independent recount asks each constraint by a binary search
    # of its sorted pairs and holds 0.0003 MB after it; a frozenset cached
    # on every constraint it read held 42 MB, as long as the instance lived
    instance, hidden = generate_forced(phase_transition_params(100), 1)
    cons = instance.constraints
    violated, peak = traced(recount_violated, instance, hidden.values)
    assert violated == set()  # the hidden solution: every constraint is read
    assert peak <= 1
    assert not any("pair_set" in vars(c) for c in cons)


def test_loads_csp_peak_n40():
    text = forced_text(40, 15)  # 260 KB; the whole-text tokenizer took 4.9 MB
    assert traced_peak_mb(loads_csp, text) <= 1.5


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_loads_csp_peak_n100(n100, end):
    # a 3.9 MB text: the one-pass reader's ASCII copy and arrays peak at
    # 6.5 MB; the whole-text tokenizer took 67 MB.  The Python path's pieces
    # end at any line break, so a text without '\n' is read in pieces too
    text = n100[0].replace("\n", end)
    assert traced_peak_mb(loads_csp, text) <= 30


def test_parse_dimacs_peak_n100(n100):
    # 6.6 MB, 573k edges: 11.1 MB with the one-pass reader, the text's
    # ASCII copy and an int32 row per edge (15.7 MB with int64 rows); the
    # line-by-line parser took 108 MB
    _, dimacs = n100
    assert traced_peak_mb(parse_dimacs, dimacs) <= 50


def test_bytes_read_with_no_copy_n100(n100):
    # the files the CLI reads, as bytes: the one-pass readers read them as
    # they are, so the CSP text peaks at 2.6 MB (its arrays, 2.07 MB, kept)
    # and the DIMACS text at 4.6 MB (its int32 rows, all kept); read as a
    # str, the readers' ASCII copy lifts them to 6.5 and 11.1 MB
    if _native.kernel() is None:
        pytest.skip("the compiled kernel could not be built here")
    csp, dimacs = (text.encode() for text in n100)
    assert traced_peak_mb(loads_csp, csp) <= 4
    assert traced_peak_mb(parse_dimacs, dimacs) <= 6


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
def test_a_second_solve_leaves_no_cyclic_garbage(tmp_path, capsys, monkeypatch, compiled):
    # the first call builds the parser every later call parses with; a
    # parser built per call left 287 objects in cycles, the stdlib's
    # indenting JSON encoder its closures, the target check a recursive
    # closure and the readers a ctypes array type per call
    if not compiled:
        monkeypatch.setattr(_native, "_lib", None)
    path = tmp_path / "a.csp"
    path.write_text(forced_text(20, 4))
    argv = ["solve", "--in", str(path), "--seed", "0", "--target", "18",
            "--conflict-cap", "4", "--max-iters", "100000"]
    assert cli.main(argv) == 0
    gc.collect()
    assert cli.main(argv) == 0
    assert gc.collect() == 0
    capsys.readouterr()


def test_a_solve_imports_no_process_pool(tmp_path):
    # a fresh interpreter: process pools are imported only where a batch
    # starts one, so a solve never loads multiprocessing
    path = tmp_path / "a.csp"
    path.write_text(forced_text(20, 4))
    code = ("import sys, rbcsp\n"
            "from rbcsp import cli\n"
            f"code = cli.main(['solve', '--in', {str(path)!r}, '--seed', '0',\n"
            "                 '--max-iters', '100000'])\n"
            "print(code, [m for m in ('multiprocessing', 'concurrent.futures.process')\n"
            "             if m in sys.modules], file=sys.stderr)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.stderr.splitlines()[-1] == "0 []", result.stderr


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


def test_csp_to_mis_peak_n100(n100):
    # 4.7 MB: the compiled build's buffer of a row per clique edge and per
    # code, 590k rows of 8 bytes, trimmed to the 573k edges in place (9.5 MB
    # with int64 rows); the numpy build's sorted int64 key per edge took
    # 30.6 MB
    if _native.kernel() is None:
        pytest.skip("the compiled kernel could not be built here")
    instance, _ = loads_csp(n100[0])
    assert traced_peak_mb(csp_to_mis, instance) <= 15


def test_mis_to_csp_peak_n100(n100):
    # 2.4 MB: a code per edge, 2.3 MB, trimmed in place to the 2.0 MB the
    # instance keeps; copying the kept codes took 4.4 MB, and the numpy
    # recovery's sorted int64 key per cross edge 27.7 MB
    if _native.kernel() is None:
        pytest.skip("the compiled kernel could not be built here")
    graph = parse_dimacs(n100[1])
    assert traced_peak_mb(mis_to_csp, graph, 40) <= 4


def test_reader_transient_does_not_grow_with_the_text(n100, monkeypatch):
    # beyond the arrays it keeps, the Python path takes what one piece
    # needs, for a 260 KB text and a 3.9 MB one: 2.4 MB for the latter,
    # whose instance and solution keep 2.1 MB; the bulk reader took 9.5 MB
    monkeypatch.setattr(_native, "_lib", None)
    for text in (forced_text(40, 15), n100[0]):
        (instance, hidden), peak = traced(loads_csp, text)
        arrays = [getattr(instance, name) for name in core._ARRAYS]
        kept = sum(a.nbytes for a in arrays + [hidden.values, hidden.initialized]) / 1e6
        assert peak <= 2 * kept + 1.0


def test_python_parse_dimacs_peak_n100(n100, monkeypatch):
    # the Python path holds each 'e' line as three int32s (line, u, v), and
    # the graph's int32 rows beside them: 13.4 MB.  Its int64 values and line
    # numbers, sorted out after a bulk read, peaked at 23.15 MB
    monkeypatch.setattr(_native, "_lib", None)
    assert traced_peak_mb(parse_dimacs, n100[1]) <= 15


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


def test_python_run_at_d69_unpacks_only_the_rows_it_gathers(monkeypatch):
    # the Python start and steps unpack the packed rows they gather; the
    # byte view of every row they read before took 2m·d² bytes, 28 MB here
    instance, _ = generate_forced(phase_transition_params(200), 1)
    m, d = instance.num_constraints, instance.d
    instance._tables  # built before the trace: only the run is measured
    monkeypatch.setattr(_native, "_lib", None)
    peak = traced_peak_mb(run, instance, UlsaConfig(max_iterations=2000), 0)
    assert peak <= 2 * m * d * d / 20 / 1e6
