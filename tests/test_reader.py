"""The compiled text reader: the same results as `core._read_piece`, and a
silent fallback to it.

Each check reads a text or a piece twice, once with the compiled reader and
once with `_native._lib` set to None, which makes `_read` take every piece
through the Python reference, a loop over `str.splitlines()`,
`str.split()` and `int()`, and compares the results field by field.
"""

from __future__ import annotations

import random
import subprocess
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbcsp import _native, core
from rbcsp.core import dumps_csp, loads_csp
from rbcsp.misbridge import MAX_VERTICES, csp_to_mis, emit_dimacs, parse_dimacs
from rbcsp.modelrb import generate_forced, phase_transition_params

# every ASCII space and break byte, NUL and DEL
ODD_BYTES = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x00\x7f"
ALPHABET = "fecpk0123456789" + ODD_BYTES
LIMIT = 4473  # loads_csp's bound on 'f' values


@pytest.fixture
def reader():
    lib = _native.kernel()
    if lib is None:
        pytest.skip("the compiled kernel could not be built here")
    return lib.read_piece


def same(fast, slow) -> None:
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        else:
            assert a == b


def python_read(monkeypatch, text: str, tag: str, limit: int):
    with monkeypatch.context() as m:
        m.setattr(_native, "_lib", None)
        return core._read(text, tag, limit)


def plain_values(piece: str, tag: str) -> bool:
    """Whether every value token of the piece's bulk lines of three tokens
    is at most _MAX_DIGITS ASCII digits: the tokens the compiled reader
    reads itself."""
    for line in piece.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[0] == tag:
            if not all(f.isdigit() and len(f) <= core._MAX_DIGITS for f in fields[1:]):
                return False
    return True


def check_piece(reader, piece: str, tag: str, limit: int) -> None:
    # with a block of one line, each line with results is read by a call of
    # its own, resumed after the line before it
    slow = core._read_piece(piece, tag, limit)
    for rows in (1, core._BLOCK_ROWS):
        block = np.empty(3 * rows, dtype=np.int64)
        parts = core._read_ascii(reader, piece, tag, limit, block)
        if parts is None:  # left for int()
            assert not plain_values(piece, tag)
            return
        joined = [np.concatenate(column) for column in zip(*(part[:4] for part in parts))]
        same((*joined, parts[-1][4]), slow)
        if rows == 1:
            assert len(parts) == max(1, len(slow[0]) + len(slow[2]))


PIECES = [
    "",
    "f 1 2",  # no final break
    "f 1 2\r",  # a final '\r'
    "f 1 2\r\nf 3 4\n\r",
    "\n\r\n\r\r\n\n",
    *(f"p 1{c}f 2 3{c}{c}f{c}4{c}5{c}c f 1 2{c}k" for c in ODD_BYTES),
    "f\x001 2\nf 1\x00 2\n\x00 f 1 2\n\x7f\nf 1 2\x7f\n",
    "f 123456789012345678 1\n",  # 18 digits
    "f 1234567890123456789 1\n",  # 19 digits: int()
    "f +5 1\n", "f 1_000 1\n", "f -0 1\n", "f 1 -5\n", "f x 1\n",
    "f 4473 4474\nf 99999 0\nf 007 0004474\n",  # at, above and padded to the limit
    "f 1 2 3\nf 1\nf\nff 1 2\nf1 2 3\nc\nc 1 2\ncc 1 2\n",
    " \t f 1 2 \x1f\x0c",
    "x" * 70_000 + " f 1 2\nf 3 4",  # a line longer than _CHUNK
    # value tokens too long for int64, read by int()
    f"f {'1' * 20} 2\n", f"f 2 {'9' * 25}\n", f"f {'7' * 70_000} 3\n",
    # near misses of the plain line '<tag> <digits> <digits>\n'
    "f 1 2 \n", "f 1 2\t\n", "f  1 2\n", "f 1 2\x0b", "f 1 2\r\n", " f 1 2\n",
    "f 01 0004473\n", "f\t1 2\n",
    "f 3 4\nf 1 2",  # no final break after plain lines
    "e 1 2\ne 30 40\nf 5 6\n",  # read with tag 'f' as well as 'e'
]


@pytest.mark.parametrize("piece", PIECES, ids=[f"piece{i}" for i in range(len(PIECES))])
def test_pieces_read_alike(reader, piece):
    for tag in "fe":
        check_piece(reader, piece, tag, LIMIT)
    check_piece(reader, piece, "e", MAX_VERTICES + 1)


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet=ALPHABET + "+-_x", max_size=200),
       cuts=st.lists(st.integers(0, 200), max_size=6))
def test_random_pieces_read_alike(text, cuts):
    # any slice is a piece here, so a '\r\n' or a token may be split
    # across a piece end
    lib = _native.kernel()
    if lib is None:
        pytest.skip("the compiled kernel could not be built here")
    fn = lib.read_piece
    bounds = sorted({0, len(text), *(min(c, len(text)) for c in cuts)})
    for start, end in zip(bounds, bounds[1:]):
        for limit in (9, LIMIT, MAX_VERTICES + 1):
            check_piece(fn, text[start:end], "f", limit)


TEXTS = [
    "",
    "\r",
    "f 1 2",
    "c\r\np bcsp 2 3 1\r\nk 0 1 1\r\nf 2 1\r",
    "".join(f"f {i} {i * 7}{ODD_BYTES[i % len(ODD_BYTES)]}" for i in range(300)),
    "f 1 2\nf 1_000 3\nf 4 5\n" * 20,  # one piece or many left for int()
    "y" * 100_000 + "\nf 1 2\n",
]


@pytest.mark.parametrize("chunk", [1, 5, 40, core._CHUNK])
@pytest.mark.parametrize("text", TEXTS, ids=[f"text{i}" for i in range(len(TEXTS))])
def test_texts_read_alike(reader, monkeypatch, text, chunk):
    with mock.patch.object(core, "_CHUNK", chunk):
        for tag, limit in (("f", LIMIT), ("e", MAX_VERTICES + 1)):
            same(core._read(text, tag, limit), python_read(monkeypatch, text, tag, limit))


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
@pytest.mark.parametrize("chunk", [1, 5, 40, core._CHUNK])
@pytest.mark.parametrize("text", TEXTS, ids=[f"text{i}" for i in range(len(TEXTS))])
def test_texts_resume_alike(reader, monkeypatch, text, chunk, rows):
    # a block of a few lines fills mid-piece, so the reader resumes after
    # bulk lines, other lines and before a final line with no break
    with mock.patch.object(core, "_CHUNK", chunk), mock.patch.object(core, "_BLOCK_ROWS", rows):
        for tag, limit in (("f", LIMIT), ("e", MAX_VERTICES + 1)):
            same(core._read(text, tag, limit), python_read(monkeypatch, text, tag, limit))


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_frb_texts_resume_alike(reader, monkeypatch, rows):
    instance, hidden = generate_forced(phase_transition_params(40), 2)
    text = dumps_csp(instance, hidden)
    dimacs = emit_dimacs(csp_to_mis(instance))
    with mock.patch.object(core, "_BLOCK_ROWS", rows):
        for body in (text, text.replace("\n", "\r\n"), text.replace("\n", "\x1e")):
            same(core._read(body, "f", LIMIT), python_read(monkeypatch, body, "f", LIMIT))
        same(core._read(dimacs, "e", MAX_VERTICES + 1),
             python_read(monkeypatch, dimacs, "e", MAX_VERTICES + 1))


def test_frb_texts_read_alike(reader, monkeypatch):
    instance, hidden = generate_forced(phase_transition_params(40), 2)
    text = dumps_csp(instance, hidden)
    dimacs = emit_dimacs(csp_to_mis(instance))
    for body in (text, text.replace("\n", "\r\n"), text.replace("\n", "\x1e")):
        same(core._read(body, "f", LIMIT), python_read(monkeypatch, body, "f", LIMIT))
    same(core._read(dimacs, "e", MAX_VERTICES + 1),
         python_read(monkeypatch, dimacs, "e", MAX_VERTICES + 1))


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
def test_long_line_takes_memory_of_its_results(monkeypatch, compiled):
    # a hostile text: one 4 MB line of 2M tokens.  The compiled reader takes
    # the piece's ASCII copy and results sized by its lines; the Python one
    # splits off the first three tokens and leaves the tail in one string
    if compiled and _native.kernel() is None:
        pytest.skip("the compiled kernel could not be built here")
    if not compiled:
        monkeypatch.setattr(_native, "_lib", None)
    text = "f" + " 1" * 2_000_000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        bulk, values, others, spans = core._read(text, "f", LIMIT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bulk.tolist() == [0] and values.tolist() == [[-1, -1]] and len(others) == 0
    assert peak <= 1.5 * len(text)


def test_compile_failure_reads_alike_silently(monkeypatch, capfd):
    instance, hidden = generate_forced(phase_transition_params(20), 3)
    text = dumps_csp(instance, hidden)
    dimacs = emit_dimacs(csp_to_mis(instance)) + "e 1 2\n"  # a duplicate edge warns
    with warnings.catch_warnings(record=True) as fast_warnings:
        warnings.simplefilter("always")
        expected = loads_csp(text), parse_dimacs(dimacs)

    def broken():
        raise subprocess.CalledProcessError(1, ["cc"])

    monkeypatch.setattr(_native, "_lib", ...)
    monkeypatch.setattr(_native, "_compile", broken)
    capfd.readouterr()
    with warnings.catch_warnings(record=True) as slow_warnings:
        warnings.simplefilter("always")
        assert (loads_csp(text), parse_dimacs(dimacs)) == expected
    assert _native._lib is None
    assert capfd.readouterr() == ("", "")
    assert ([str(w.message) for w in slow_warnings]
            == [str(w.message) for w in fast_warnings] != [])


@pytest.mark.parametrize("seed", range(3))
def test_mutated_documents_fail_alike(reader, monkeypatch, seed):
    # a few bytes of a valid document swapped for odd ones: the same
    # instance or the same error, with or without the compiled reader
    r = random.Random(seed)
    text = dumps_csp(*generate_forced(phase_transition_params(12), seed))
    for _ in range(60):
        chars = list(text)
        for _ in range(r.randint(1, 4)):
            chars[r.randrange(len(chars))] = r.choice(ALPHABET + "+-_")
        mutated = "".join(chars)
        outcomes = []
        for lib in (_native.kernel(), None):
            monkeypatch.setattr(_native, "_lib", lib)
            try:
                outcomes.append(loads_csp(mutated))
            except core.CspFormatError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
