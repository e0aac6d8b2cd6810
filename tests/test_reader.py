"""The compiled one-pass readers of `loads_csp` and `parse_dimacs`: the same
instance, graph, errors and warnings as the Python path, which takes every
text they refuse, and refusals only of the kinds they document.

Each check parses a text twice, once with the kernel loaded and once with
`_native._lib` set to None, which sends every text down the Python path
(`core._loads_in_python`, `misbridge._parse_in_python`): one loop over the
lines of `str.splitlines()`, a piece of `_CHUNK` characters at a time, that
checks each line with `str.split()` and `int()` as it reads it and raises
at the first bad one.  It compares the results, or the exception class and
message, and the warnings; `tests/test_outcomes.py` pins both paths'
outcomes on a corpus of damaged documents.  `accepts` states independently
which texts the one-pass readers must accept: the valid texts with no line
break beyond ASCII, whose lines are ASCII but for comment lines, and whose
numbers are plain digits after an optional '+'.
"""

from __future__ import annotations

import random
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbcsp import _native, core, misbridge
from rbcsp.core import CspFormatError, dumps_csp, loads_csp
from rbcsp.misbridge import MAX_VERTICES, DimacsFormatError, csp_to_mis, emit_dimacs, parse_dimacs
from rbcsp.modelrb import generate_forced, phase_transition_params

from conftest import (BYTE_VARIANTS, assignment_of, byte_variant, cpu_flags, random_instance,
                      random_values)

# every ASCII space and break byte, NUL and DEL
ODD_BYTES = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x00\x7f"
ALPHABET = "fecpk0123456789" + ODD_BYTES
# characters beyond ASCII: a letter, a snowman, a space and the line breaks
WIDE = "é☃\xa0\x85\u2028\u2029"
PARSERS = (loads_csp, parse_dimacs)
# a small valid document of each format, and the offsets of its line starts
DOCUMENTS = {
    loads_csp: "c a comment\np bcsp 3 5 2\nk 0 1 2\nf 1 2\nf 3 4\nk 2 1 1\nf 4 0\ns 1 0 2\n",
    parse_dimacs: "c a comment\np edge 6 4\ne 1 2\ne 2 5\ne 3 4\ne 6 1\n",
}


@pytest.fixture
def kernel():
    lib = _native.kernel()
    if lib is None:
        pytest.skip("the compiled kernel could not be built here")
    return lib


def line_starts(text: str) -> list[int]:
    return [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]


def documents(parse, text: str, rows=None):
    """The text alone, and put into the small document of its format at each
    line start, or at the line start numbered `rows`; for graphs, its 'f'
    tags become 'e' tags."""
    if parse is parse_dimacs:
        text = text.replace("f", "e")
    doc = DOCUMENTS[parse]
    starts = line_starts(doc)
    at = starts if rows is None else [starts[min(rows, len(starts) - 1)]]
    return [text] + [doc[:i] + text + doc[i:] for i in at]


def outcome(parse, text: str):
    """What parsing does: ('ok', result) or (exception class, message),
    with the messages of the warnings issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("ok", parse(text))
        except (CspFormatError, DimacsFormatError) as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


def python_outcome(monkeypatch, parse, text: str, chunk: int = core._CHUNK):
    with monkeypatch.context() as m:
        m.setattr(_native, "_lib", None)
        m.setattr(core, "_CHUNK", chunk)
        return outcome(parse, text)


def one_pass(m) -> None:
    """Make the Python path raise: only the one-pass readers may parse."""
    for module, name in ((core, "_loads_in_python"), (misbridge, "_parse_in_python")):
        m.setattr(module, name, mock.Mock(side_effect=AssertionError("the Python path")))


def reader_path() -> str:
    """The path that reads canonical lines here: 'window' reads them 64 bytes
    at a time on a host with AVX-512BW, VBMI and VBMI2 and BMI2 (their
    /proc/cpuinfo names), and 'scalar' one byte at a time elsewhere."""
    return ("window" if {"avx512bw", "avx512vbmi", "avx512_vbmi2", "bmi2"} <= cpu_flags()
            else "scalar")


def took_one_pass(parse, text: str) -> bool:
    return (core._loads_in_one_pass if parse is loads_csp
            else misbridge._parse_in_one_pass)(text) is not None


# a comment line as the one-pass readers see one: 'c' after ASCII spaces,
# then an ASCII space or the line's end
COMMENT = re.compile("[\t\x1f ]*c([\t\x1f ]|$)")
NUMBER = re.compile("[+]?[0-9]{1,18}")


def accepts(text: str, valid: bool) -> bool:
    """Whether the one-pass reader must accept the text, which the Python
    path accepts if `valid`: it holds no line break beyond ASCII and no lone
    surrogate, every line but a comment line is ASCII, and every token but a
    line's first is at most 18 ASCII digits after an optional '+' or the
    header's word."""
    if not valid or any(c in text for c in "\x85\u2028\u2029") or not all(
            c < "\ud800" or c > "\udfff" for c in text):
        return False
    rows = []
    for line in text.splitlines():
        if not COMMENT.match(line):
            if not line.isascii():
                return False
            rows.append(line.split())
    return all(NUMBER.fullmatch(f) for fields in rows if fields
               for f in fields[2 if fields[0] == "p" else 1:])


def check_alike(monkeypatch, parse, text: str, chunk: int = core._CHUNK) -> None:
    """The text parses alike on both paths, and takes the one-pass path
    exactly when `accepts` says it must."""
    fast = outcome(parse, text)
    assert fast == python_outcome(monkeypatch, parse, text, chunk)
    assert took_one_pass(parse, text) == accepts(text, fast[0][0] == "ok")


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
    "f 01 0004\n", "f\t1 2\n",
    "f 3 4\nf 1 2",  # no final break after plain lines
    "k 0 2 1\nf 0 0\ne 1 3\n",  # a block and an edge, read as both formats
    # beyond ASCII: in a comment, as a comment's space, as a field's space
    # or in one, as a break in a comment, and a lone surrogate
    "c made by José ☃\n", "\tc é", "c\xa0é\n", "\xa0c é\n", "f 1 2\xa0\n", "f 1\u30002\n",
    "f 1é 2\n", "f ٣ 2\n", "c é\x85f 1 2\n", "c é\u2028f 1 2\n", "c \u2029\n", "c \ud800\n",
    # repeated edges, and the same pair twice in a block
    "f 1 2\nf 2 1\nf 1 2\n", "f 3 4\r\n\x0bf 1 2\x1ef 3 4\rf 4 3\n",
]


@pytest.mark.parametrize("piece", PIECES, ids=[f"piece{i}" for i in range(len(PIECES))])
def test_pieces_read_alike(kernel, monkeypatch, piece):
    for parse in PARSERS:
        for text in documents(parse, piece):
            check_alike(monkeypatch, parse, text)


def decoded_outcome(parse, raw: bytes):
    """What parsing the text's str does, or the error decoding it raises."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return (UnicodeDecodeError, str(exc)), []
    return outcome(parse, text)


def bytes_outcome(parse, raw: bytes):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("ok", parse(raw))
        except ValueError as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


@pytest.mark.parametrize("piece", PIECES, ids=[f"piece{i}" for i in range(len(PIECES))])
def test_pieces_as_bytes_read_as_their_str(kernel, piece):
    # ASCII bytes go to the one-pass readers as they are, and are refused
    # where their str is; other bytes are decoded first
    for parse in PARSERS:
        for text in documents(parse, piece):
            try:
                raw = text.encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate has no UTF-8
                continue
            assert bytes_outcome(parse, raw) == decoded_outcome(parse, raw)
            if raw.isascii():
                assert took_one_pass(parse, raw) == took_one_pass(parse, text)


@pytest.fixture(scope="module")
def written20():
    instance, hidden = generate_forced(phase_transition_params(20), 1)
    return {loads_csp: (b"f", dumps_csp(instance, hidden).encode()),
            parse_dimacs: (b"e", emit_dimacs(csp_to_mis(instance)).encode())}


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
@pytest.mark.parametrize("name", BYTE_VARIANTS)
def test_byte_variants_read_as_their_str(monkeypatch, written20, name, compiled):
    # the same instance or graph, warnings, or error class and message, from
    # a file's bytes as from its str, on either path
    if compiled and _native.kernel() is None:
        pytest.skip("the compiled kernel could not be built here")
    if not compiled:
        monkeypatch.setattr(_native, "_lib", None)
    for parse, (tag, text) in written20.items():
        raw = byte_variant(text, tag, name)
        assert bytes_outcome(parse, raw) == decoded_outcome(parse, raw)



@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet=ALPHABET + WIDE + "+-_xs", max_size=200),
       cuts=st.lists(st.integers(0, 200), max_size=6))
def test_random_pieces_read_alike(text, cuts):
    # the random text alone, and spliced into each document at places that
    # may split a token or a '\r\n'
    if _native.kernel() is None:
        pytest.skip("the compiled kernel could not be built here")
    with pytest.MonkeyPatch.context() as monkeypatch:
        for parse in PARSERS:
            doc = DOCUMENTS[parse]
            for text_ in [text] + [doc[:c] + text + doc[c:] for c in cuts]:
                check_alike(monkeypatch, parse, text_)


TEXTS = [
    "",
    "\r",
    "f 1 2",
    "c\r\np bcsp 2 3 1\r\nk 0 1 1\r\nf 2 1\r",
    "".join(f"f {i} {i * 7}{ODD_BYTES[i % len(ODD_BYTES)]}" for i in range(300)),
    "f 1 2\nf 1_000 3\nf 4 5\n" * 20,  # many lines left for int()
    "y" * 100_000 + "\nf 1 2\n",
    # lines of 1 to 5 digits a number, ending in no break within the last 64 bytes
    "".join(f"f {i} {i * 7 % 10 ** (i % 5 + 1)}\n" for i in range(40)).rstrip("\n"),
]


@pytest.mark.parametrize("chunk", [1, 5, 40, core._CHUNK])
@pytest.mark.parametrize("text", TEXTS, ids=[f"text{i}" for i in range(len(TEXTS))])
def test_texts_read_alike(kernel, monkeypatch, text, chunk):
    # the Python path reads the text a piece of `chunk` characters at a time
    for parse in PARSERS:
        for doc in documents(parse, text):
            check_alike(monkeypatch, parse, doc, chunk)


# headers at the size caps (check_size, MAX_VERTICES) that take 18 digits or fewer
CAPPED = {
    loads_csp: ["p bcsp 100000 3 9999\n", "p bcsp 2 4472 1\n", "p bcsp 1 4472 26\n"],
    parse_dimacs: [f"p edge {MAX_VERTICES} 999999999999999999\n"],
}


def traced_peak(fn, *args) -> int:
    """The traced peak while fn(*args) runs, an exception included."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                fn(*args)
            except (CspFormatError, DimacsFormatError):
                pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("chunk", [1, 5, 40, core._CHUNK])
@pytest.mark.parametrize("text", TEXTS, ids=[f"text{i}" for i in range(len(TEXTS))])
def test_texts_fit_the_block(kernel, monkeypatch, text, chunk):
    # under a header declaring the most its caps allow, the arrays the
    # one-pass readers fill are sized by the text that follows, as is what
    # the Python path holds: nothing is sized from the header alone
    for parse, headers in CAPPED.items():
        for header in headers:
            doc = header + (text.replace("f", "e") if parse is parse_dimacs else text)
            check_alike(monkeypatch, parse, doc, chunk)
            for lib in (kernel, None):
                with monkeypatch.context() as m:
                    m.setattr(_native, "_lib", lib)
                    assert traced_peak(parse, doc) <= 16 * len(doc) + 200_000


def refused_at(text: str, rows: int) -> str:
    """The text with the first number of its first 'f' or 'e' line at or
    after line `rows`, else of its last one, padded to 19 digits: only
    int() reads it."""
    lines = text.splitlines(True)
    bulk = [i for i, line in enumerate(lines) if line[:2] in ("f ", "e ")]
    i = next((i for i in bulk if i >= rows), bulk[-1])
    fields = lines[i].split(" ")
    fields[1] = fields[1].zfill(19)
    lines[i] = " ".join(fields)
    return "".join(lines)


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
@pytest.mark.parametrize("chunk", [1, 5, 40, core._CHUNK])
@pytest.mark.parametrize("text", TEXTS, ids=[f"text{i}" for i in range(len(TEXTS))])
def test_texts_resume_alike(kernel, monkeypatch, text, chunk, rows):
    # the text put into each document at line `rows`, and that document
    # with a number at or after that line the one-pass readers refuse: the
    # Python path reads it from its start, with the same results
    for parse in PARSERS:
        for doc in documents(parse, text, rows):
            check_alike(monkeypatch, parse, doc, chunk)
        refused = refused_at(DOCUMENTS[parse], rows)
        assert not took_one_pass(parse, refused)
        check_alike(monkeypatch, parse, refused, chunk)
        assert outcome(parse, refused) == outcome(parse, DOCUMENTS[parse])


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_frb_texts_resume_alike(kernel, rows):
    # the n=40 texts with a number at or after line `rows` the one-pass
    # readers refuse: the Python path reads the text again from its start
    instance, hidden = generate_forced(phase_transition_params(40), 2)
    text = dumps_csp(instance, hidden)
    dimacs = emit_dimacs(csp_to_mis(instance))
    for body in (text, text.replace("\n", "\r\n"), text.replace("\n", "\x1e"), dimacs):
        parse = parse_dimacs if body is dimacs else loads_csp
        refused = refused_at(body.replace("\x1e", "\n"), rows).replace(
            "\n", "\x1e" if "\x1e" in body else "\n")
        assert not took_one_pass(parse, refused)
        assert outcome(parse, refused) == outcome(parse, body)


def dense(unit: int, size: int) -> tuple:
    """A valid text of about `size` characters, or more, whose lines are as
    short as their kind allows, so that it fills the arrays sized from it."""
    if unit == 0:  # repeated constraints of one pair each
        m = size // 14 + 1
        return loads_csp, f"p bcsp 2 1 {m}\n" + "k 0 1 1\nf 0 0\n" * m
    if unit == 1:  # one block of single-digit pairs, with no final break
        pairs = [f"f {a} {b}" for a in range(10) for b in range(10)][:size // 6 + 1]
        return loads_csp, f"p bcsp 2 10 1\nk 0 1 {len(pairs)}\n" + "\n".join(pairs)
    if unit == 2:  # the longest 's' line of single digits
        n = min(size // 2 + 1, core.MAX_VARIABLES)
        return loads_csp, f"p bcsp {n} 1 0\ns" + " 0" * n
    # edges in ascending order, the single-digit ones first; '\r\n' breaks in unit 4
    num_vertices = 9
    while num_vertices * (num_vertices - 1) // 2 * 6 < size:
        num_vertices *= 2
    edges = [f"e {u} {v}" for u in range(1, num_vertices + 1)
             for v in range(u + 1, num_vertices + 1)][:size // 6 + 1]
    end = "\r\n" if unit == 4 else "\n"
    return parse_dimacs, f"p edge {num_vertices} {len(edges)}{end}" + end.join(edges)


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 40, core._CHUNK])
@pytest.mark.parametrize("unit", range(5), ids=[f"dense{i}" for i in range(5)])
def test_densest_texts_read_in_c(kernel, monkeypatch, unit, chunk):
    parse, text = dense(unit, 3 * chunk + 10)
    expected = python_outcome(monkeypatch, parse, text, chunk)
    assert expected[0][0] == "ok"
    with monkeypatch.context() as m:
        one_pass(m)
        assert outcome(parse, text) == expected


def test_frb_texts_read_alike(kernel, monkeypatch):
    # the n=40 CSP text at three line ends and its DIMACS text are written
    # and read by the compiled kernel alone, with the Python path's results:
    # the Python reader and writers are made to raise meanwhile
    def compiled_only(m):
        one_pass(m)
        for module, name in ((core, "_blocks"), (misbridge, "_edge_slices")):
            m.setattr(module, name, mock.Mock(side_effect=AssertionError(name)))

    instance, hidden = generate_forced(phase_transition_params(40), 2)
    with monkeypatch.context() as m:
        compiled_only(m)
        text = dumps_csp(instance, hidden)
        dimacs = emit_dimacs(csp_to_mis(instance))
    for body in (text, text.replace("\n", "\r\n"), text.replace("\n", "\x1e"), dimacs):
        parse = parse_dimacs if body is dimacs else loads_csp
        slow = python_outcome(monkeypatch, parse, body)
        with monkeypatch.context() as m:
            compiled_only(m)
            assert outcome(parse, body) == slow


def reformat(r: random.Random, lines: list[str]) -> str:
    """The lines in a layout valid files may have: runs of spaces and tabs,
    indentation, trailing whitespace, leading zeros and '+' signs, comment
    lines, also beyond ASCII, and blank lines anywhere, '\\n' or '\\r\\n'
    line ends, and no final break."""
    out = []
    for line in lines:
        fields = [r.choice(["", "", "+"]) + f.zfill(len(f) + r.choice([0, 0, 1, 3]))
                  if f.isdigit() else f for f in line.split(" ")]
        seps = [r.choice([" ", "\t", "  ", " \t "]) for _ in fields[1:]] + [""]
        out.append(r.choice(["", " ", "\t"]) + "".join(map("".join, zip(fields, seps)))
                   + r.choice(["", " ", "\t "]))
        out += [r.choice(["", "  ", "c", "c a comment", "\tc x y", "c made by José ☃"])
                for _ in range(r.choice([0, 0, 0, 1, 2]))]
    text = "".join(line + r.choice(["\n", "\r\n"]) for line in out)
    return text.rstrip("\r\n") if r.random() < 0.3 else text


def shuffled_blocks(r: random.Random, lines: list[str]) -> list[str]:
    """The lines with each block's 'f' lines in a random order."""
    out, block = [], []
    for line in lines + [""]:
        if line[:1] == "f":
            block.append(line)
            continue
        r.shuffle(block)
        out += block + [line]
        block = []
    return out[:-1]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**30))
def test_formatting_variants_read_alike(seed):
    # generated instances and their graphs in those layouts, with each
    # block's pairs shuffled and the 's' line between blocks, and the edges
    # shuffled, turned, some repeated and more than the header declares: the
    # one-pass readers accept every one, with the Python path's arrays,
    # solution, graph and warnings
    if _native.kernel() is None:
        pytest.skip("the compiled kernel could not be built here")
    r = random.Random(seed)
    instance = random_instance(r, n=r.randint(2, 14), d=r.randint(2, 12), m=r.randint(0, 8),
                               max_pairs=20)
    solution = assignment_of(random_values(r, instance.n, instance.d)) if r.random() < 0.5 else None
    lines = dumps_csp(instance, solution, comments=["made by the test"]).splitlines()
    if solution is not None:
        s_line = lines.pop()
        blocks = [i for i, line in enumerate(lines) if line[0] == "k"]
        lines.insert(r.choice(blocks + [len(lines)]), s_line)
    if r.random() < 0.5:
        lines = shuffled_blocks(r, lines)
    graph = csp_to_mis(instance)
    header, *edges = emit_dimacs(graph).splitlines()
    edges += r.choices(edges, k=r.choice([0, 0, 1, 5]))
    edges = [f"e {v} {u}" if r.random() < 0.5 else f"e {u} {v}"
             for _, u, v in map(str.split, edges)]
    r.shuffle(edges)
    csp, dimacs = reformat(r, lines), reformat(r, [header] + edges)
    with pytest.MonkeyPatch.context() as m:
        one_pass(m)
        fast = outcome(loads_csp, csp), outcome(parse_dimacs, dimacs)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_native, "_lib", None)
        assert fast == (outcome(loads_csp, csp), outcome(parse_dimacs, dimacs))
    assert fast[0] == (("ok", (instance, solution)), [])
    assert np.array_equal(fast[1][0][1].pairs, graph.pairs)


@pytest.mark.parametrize("d", [2, 64, 65, 129])
@pytest.mark.parametrize("n", [12, 40, 100])
def test_written_texts_take_the_one_pass_path(kernel, monkeypatch, n, d):
    # what dumps_csp and emit_dimacs write, comments and a solution included,
    # is read back by the one-pass readers alone
    r = random.Random(n * 1000 + d)
    instance = random_instance(r, n=n, d=d, m=n, max_pairs=40)
    solution = assignment_of(random_values(r, n, d))
    text = dumps_csp(instance, solution, comments=["one\ntwo", "made by José ☃"])
    graph = csp_to_mis(instance)
    dimacs = emit_dimacs(graph, comments=["a graph from Zürich"])
    with monkeypatch.context() as m:
        one_pass(m)
        assert loads_csp(text) == (instance, solution)
        assert loads_csp(dumps_csp(instance)) == (instance, None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parsed = parse_dimacs(dimacs)
        assert parsed.num_vertices == graph.num_vertices
        assert np.array_equal(parsed.pairs, graph.pairs)


def test_one_pass_spaces_and_breaks_are_the_ascii_ones(kernel, monkeypatch):
    # each ASCII byte as a field separator and as a line end: the one-pass
    # reader takes it exactly when str.split() and str.splitlines() do, as
    # the tables of core, checked against them, say
    for c in map(chr, range(128)):
        space = ord(c) in core._SPACES and ord(c) not in core._BREAKS
        for text, ok in ((f"p bcsp 2 2 1\nk 0 1 1\nf{c}1 0\n", space),
                         (f"p bcsp 2 2 1{c}k 0 1 1\nf 1 0\n", ord(c) in core._BREAKS)):
            assert took_one_pass(loads_csp, text) == ok
            check_alike(monkeypatch, loads_csp, text)


HOSTILE = [
    "p bcsp 2 2 1\nk 0 1 1\nf 1234567890123456789 1\n",  # a 19-digit token
    "p bcsp 2 2 1\nk 0 1 1\nf 0000000000000000001 1\n",  # 19 digits, valid
    "p edge 3 1\ne 1 0000000000000000003\n",
    "p bcsp 2 2 1\nk 0 1 1\nf\x00 1 1\n", "p bcsp 2 2 1\nk 0 1 1\nf 1 1\x00\n",
    "p bcsp 2 2 1\nk 0 1 1\nf 1 1\x7f\n", "p edge 3 1\ne 1 2\x7f\n",
    "c \x00\x7f\np bcsp 2 2 1\nk 0 1 1\nf 1 1\n",  # in a comment: valid
    "p bcsp 2 2 1\nk 0 1 1\nf 1", "p bcsp 2 2 1\nk 0 1", "p bcsp 2 2", "p edge 3 1\ne 1",
    "p bcsp 2 2 1\nk 0 1 2\nf 1 1\n",  # cut mid-block
    "p bcsp 2 2 1\nk 0 1 1\nf" + " 1" * 2_000_000,  # a 4 MB line
    "p edge 3 1\ne" + " 1" * 2_000_000,
    "f" + " 1" * 2_000_000,
    # each check of a block, valid but for it: a loop, a repeated pair, an
    # 's' line inside a block, a block left short, a value out of range, and
    # valid blocks, with pairs out of order and in order
    "p bcsp 2 2 1\nk 1 1 1\nf 0 0\n", "p bcsp 2 2 1\nk 0 1 2\nf 1 1\nf 1 1\n",
    "p bcsp 2 2 1\nk 0 1 2\nf 1 1\nf 0 0\n", "p bcsp 2 2 1\nk 0 1 2\nf 0 0\ns 0 0\nf 1 1\n",
    "p bcsp 2 2 2\nk 0 1 2\nf 0 0\nk 1 0 1\nf 0 1\n", "p bcsp 2 2 1\nk 0 1 1\nf 0 2\n",
    "p bcsp 2 2 1\nk 0 1 2\nf 0 0\nf 1 1\ns 0 0\n",
    # repeated edges, more edges than declared, and both cut mid-line
    "p edge 3 1\ne 1 2\ne 2 1\n", "p edge 3 1\ne 1 2\ne 2 3\n", "p edge 3 2\r\ne 1 2\r\ne 2 1\re 1",
    "p edge 3 0\ne 1 2\n\ne +2 01\x1ee 3 1\x0be 1 2",
    # canonical lines beyond a window, valid but for a value of d or a
    # vertex of V + 1 in the last line
    "p bcsp 2 40 1\nk 0 1 20\n" + "".join(f"f {a} {a + 1}\n" for a in range(19)) + "f 19 40\n",
    "p edge 30 20\n" + "".join(f"e {u} {u + 1}\n" for u in range(1, 20)) + "e 20 31\n",
]


@pytest.mark.parametrize("text", HOSTILE, ids=[f"hostile{i}" for i in range(len(HOSTILE))])
def test_hostile_texts_parse_alike(kernel, monkeypatch, text):
    for parse in PARSERS:
        check_alike(monkeypatch, parse, text)


# the compiled readers' window: on a host that has it (`reader_path`), the
# canonical lines '<tag> <1-4 digits> <1-4 digits>\n' at a window's start are
# read 64 bytes at a time, and every other line as elsewhere.  A graph's
# vertices and a CSP's values run to 1200, so that the top value, the top
# vertex and the first beyond both take four digits
TOP = 1200
# lines put at each offset into a window, 't' standing for the format's tag:
# numbers of 1 to 5 digits and leading zeros, the top value or vertex and the
# first beyond it, vertex 0 and u == v, a pair or edge of the lines before
# it again, and near misses of the canonical line
WINDOW_LINES = [
    "t 10 5", "t 10 05", "t 10 0005", "t 10 00005", "t 10 10005", "t 10 12345", "t 1234 5",
    "t 10 {top}", "t 10 {over}", "t 0 5", "t 10 10", "t 0 0", "t 1 2", "t 10 5\r", "t +10 5",
    "t 10\t5", "t 10 5 ", "t  10 5", "t  10", "t 10 ", "t 10", "t 10 5 7", "t10 5", "5t 10 5",
    "t 10 5t", "k 1 2 1", "c a comment", "", "s 0 0 0", "x 10 5",
]


def canonical(parse, size: int) -> str:
    """Lines of `size` bytes in all.  For size 0 or at least 6, canonical
    lines of one-digit pairs, ascending and distinct, the first padded with
    leading zeros; for 1 to 5, a padding comment or a blank line, which a
    window never starts on, so the next line starts a window anyway."""
    if 0 < size < 6:
        return "c" + " " * (size - 2) + "\n" if size > 1 else "\n"
    pairs = ([(a, b) for a in range(10) for b in range(10)] if parse is loads_csp
             else [(u, v) for u in range(1, 10) for v in range(u + 1, 10)])
    lines = [[str(a), str(b)] for a, b in pairs[:size // 6]]
    if lines:
        extra = size % 6
        lines[0] = [lines[0][0].zfill(1 + min(extra, 3)), lines[0][1].zfill(1 + max(extra - 3, 0))]
    return "".join(f"t {a} {b}\n" for a, b in lines)


FILLER = "".join(f"t {11 + j} {j % 9 + 1}\n" for j in range(12))  # 96 bytes, ascending


def window_document(parse, body: str, count=None) -> str:
    """`body` with each 't' tag made the format's: a CSP's first block, of
    `count` pairs, and a second block, or a graph of `count` edges; `count`
    is by default the number of 'f' or 'e' lines."""
    tag = "f" if parse is loads_csp else "e"
    body = re.sub("^([0-9]?)t", rf"\g<1>{tag}", body, flags=re.M)
    body = body.format(top=TOP - (parse is loads_csp), over=TOP + (parse is not loads_csp))
    if count is None:
        count = len(re.findall(f"^{tag} ", body, flags=re.M))
    if parse is loads_csp:
        return f"p bcsp 3 {TOP} 2\nk 0 1 {count}\n{body}k 1 2 1\nf 0 0\n"
    return f"p edge {TOP} {count}\n{body}"


def check_window(monkeypatch, parse, text: str) -> None:
    """check_alike, naming the path that read the canonical lines."""
    try:
        check_alike(monkeypatch, parse, text)
    except AssertionError as exc:
        raise AssertionError(f"on the {reader_path()} path: {exc}") from exc


@pytest.mark.parametrize("line", WINDOW_LINES, ids=[f"line{i}" for i in range(len(WINDOW_LINES))])
def test_window_lines_read_alike_at_every_offset(kernel, monkeypatch, line):
    # the line starts 0 .. 63 bytes into the window that reads the canonical
    # lines before it, and canonical lines follow it past the window's end
    for offset in range(64):
        for parse in PARSERS:
            body = canonical(parse, offset) + line + "\n" + FILLER
            check_window(monkeypatch, parse, window_document(parse, body))


def test_window_bounds_read_alike(kernel, monkeypatch):
    for parse in PARSERS:
        lines = canonical(parse, 6 * 12) + FILLER  # 24 lines, ascending
        for k in range(23):
            # a descent at every line, so within a window and across two
            rows = lines.splitlines(True)
            rows[k:k + 2] = rows[k:k + 2][::-1]
            check_window(monkeypatch, parse, window_document(parse, "".join(rows)))
        for count in range(26):
            # a CSP block whose last pair falls at each line of the windows,
            # and a graph whose declared edges run out at each line, where
            # the first pass of parse_dimacs stops at its cap
            check_window(monkeypatch, parse, window_document(parse, lines, count))
        doc = window_document(parse, lines)
        for cut in range(80):
            # texts that end inside their last 64 bytes, with and without '\n'
            check_window(monkeypatch, parse, doc[:len(doc) - cut])
            check_window(monkeypatch, parse, doc[:len(doc) - cut].rstrip("\n"))
    for count in range(4, 9):
        # d = 2 leaves room for 4 codes, so the pass stops at fcap
        pairs = "".join(f"f {a} {b}\n" for a in range(2) for b in range(2)) * 3
        check_window(monkeypatch, loads_csp, f"p bcsp 3 2 1\nk 0 1 {count}\n{pairs}")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\x0b", "\x1e"])
def test_repeated_edges_read_in_one_pass(kernel, monkeypatch, end):
    # a graph's text with 30 edges repeated, some turned or padded, among
    # comment lines beyond ASCII and blank lines, at each line end: the
    # one-pass reader names every dropped line as the Python path does
    r = random.Random(len(end))
    lines = emit_dimacs(csp_to_mis(generate_forced(phase_transition_params(12), 1)[0])).splitlines()
    for _ in range(30):
        _, u, v = r.choice(lines[1:]).split()
        lines.insert(r.randrange(1, len(lines) + 1),
                     r.choice([f"e {u} {v}", f"e {v} {u}", f"e  +{v}\t0{u} "]))
        if r.random() < 0.3:
            lines.insert(r.randrange(len(lines) + 1), r.choice(["", "c é ☃"]))
    text = end.join(lines)
    # each edge's first line keeps it; the later ones are named in order
    seen, dropped = set(), []
    for lineno, fields in enumerate(map(str.split, text.splitlines()), 1):
        if fields[:1] == ["e"]:
            u, v = int(fields[1]), int(fields[2])
            if (min(u, v), max(u, v)) in seen:
                dropped.append(f"line {lineno}: duplicate edge ({u},{v}) dropped")
            seen.add((min(u, v), max(u, v)))
    slow = python_outcome(monkeypatch, parse_dimacs, text)
    assert slow[0][0] == "ok" and slow[1] == dropped and len(dropped) == 30
    with monkeypatch.context() as m:
        one_pass(m)
        assert outcome(parse_dimacs, text) == slow


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
def test_long_line_takes_memory_of_its_results(monkeypatch, compiled):
    # a hostile text: one 4 MB line of 2M tokens.  The one-pass reader takes
    # the text's ASCII copy and refuses it at its first token; the Python
    # reader splits off the first three tokens and leaves the tail in one
    # string.  Inside a block, the line is one 'f' line with too many fields
    if compiled and _native.kernel() is None:
        pytest.skip("the compiled kernel could not be built here")
    if not compiled:
        monkeypatch.setattr(_native, "_lib", None)
    text = "f" + " 1" * 2_000_000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        with pytest.raises(CspFormatError, match="^line 1: 'f' line before 'p bcsp' header$"):
            loads_csp(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * len(text)
    with pytest.raises(CspFormatError, match="^line 3: expected 'f <value_a> <value_b>', "
                                             "got 'f 1 1 1 1 "):
        loads_csp("p bcsp 2 2 1\nk 0 1 1\n" + text)


@pytest.mark.parametrize("seed", range(3))
def test_mutated_documents_fail_alike(kernel, monkeypatch, seed):
    # a few bytes of a valid document swapped for odd ones: the same
    # instance or graph, or the same error, and the same warnings (a
    # duplicate edge, a count off the header's), with or without the kernel
    r = random.Random(seed)
    instance, hidden = generate_forced(phase_transition_params(12), seed)
    for parse, text in ((loads_csp, dumps_csp(instance, hidden)),
                        (parse_dimacs, emit_dimacs(csp_to_mis(instance)))):
        for _ in range(60):
            chars = list(text)
            for _ in range(r.randint(1, 4)):
                chars[r.randrange(len(chars))] = r.choice(ALPHABET + WIDE + "+-_")
            check_alike(monkeypatch, parse, "".join(chars))
