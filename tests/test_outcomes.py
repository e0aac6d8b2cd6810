"""What `loads_csp` and `parse_dimacs` make of a seeded corpus of damaged
documents, pinned in `tests/data/reader_outcomes.json`: the instance or
graph (as a digest), or the error class and message, and the warnings.

The corpus is a small forced CSP and its DIMACS graph, each with 1 to 4
characters swapped for odd ones, with lines swapped, repeated or dropped,
with each line break of `str.splitlines()` in place of '\\n', and with a
line longer than a piece put in.  Every text is read with the kernel
loaded, where the one-pass readers leave the texts they refuse to the
Python path, and with `_native._lib` set to None, where the Python path
reads them all, at several piece sizes.  The other reader tests compare
the two paths with each other; these compare each with the record, so a
message or warning that changes on both is seen too.

The record states the readers' behaviour.  Write it again only for a change
of behaviour that is meant, by running this file as a script:

    PYTHONPATH=src python tests/test_outcomes.py
"""

from __future__ import annotations

import hashlib
import json
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from rbcsp import _native, core
from rbcsp.core import CspFormatError, dumps_csp, loads_csp
from rbcsp.misbridge import DimacsFormatError, MisGraph, csp_to_mis, emit_dimacs, parse_dimacs
from rbcsp.modelrb import generate_forced, phase_transition_params

from test_reader import ALPHABET, WIDE

RECORD = Path(__file__).resolve().parent / "data" / "reader_outcomes.json"
PARSERS = {"loads_csp": loads_csp, "parse_dimacs": parse_dimacs}
ODD = ALPHABET + WIDE + "+-_"  # as in test_reader's mutated documents
ENDS = ["\r\n", "\r", "\x0b", "\x0c", "\x1e", "\x85", "\u2028", "\u2029"]


def documents() -> dict[str, str]:
    instance, hidden = generate_forced(phase_transition_params(8), 1)
    return {"loads_csp": dumps_csp(instance, hidden, comments=["a forced instance"]),
            "parse_dimacs": emit_dimacs(csp_to_mis(instance), comments=["its graph"])}


def mutated(r: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(r.randint(1, 4)):
        chars[r.randrange(len(chars))] = r.choice(ODD)
    return "".join(chars)


def moved(r: random.Random, text: str) -> str:
    """The text with two lines swapped, a line repeated elsewhere or a
    line dropped."""
    lines = text.splitlines(True)
    i, j = r.randrange(len(lines)), r.randrange(len(lines))
    kind = r.randrange(3)
    if kind == 0:
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 1:
        lines.insert(j, lines[i])
    else:
        del lines[i]
    return "".join(lines)


def corpus(name: str, text: str) -> list[str]:
    r = random.Random(1 if name == "loads_csp" else 2)
    tag = "f" if name == "loads_csp" else "e"
    texts = [text] + [mutated(r, text) for _ in range(300)]
    texts += [moved(r, text) for _ in range(60)]
    for end in ENDS:
        other = text.replace("\n", end)
        texts += [other] + [mutated(r, other) for _ in range(10)]
    long_lines = ["x" * 70_000, "c " + "é" * 40_000, f"{tag} 1 " + "2" * 70_000,
                  tag + " 1" * 40_000, " " * 70_000 + f"{tag} 1 2"]
    for line in long_lines:
        for _ in range(5):
            lines = text.splitlines(True)
            lines.insert(r.randrange(len(lines) + 1), line + "\n")
            texts.append("".join(lines))
    return texts


def short(message: str) -> str:
    """A message as recorded: whole up to 240 characters, else its head,
    length and digest."""
    if len(message) <= 240:
        return message
    digest = hashlib.sha256(message.encode("utf-8")).hexdigest()
    return f"{message[:120]}... ({len(message)} characters, sha256 {digest})"


def digest(result) -> str:
    """The digest of a parse result: a graph's vertex count and rows, or an
    instance's sizes and arrays and its solution's values."""
    if isinstance(result, MisGraph):
        parts = [result.num_vertices, result.block_size, result.pairs]
    else:
        instance, solution = result
        parts = [instance.n, instance.d, *(getattr(instance, k) for k in core._ARRAYS),
                 None if solution is None else solution.values]
    h = hashlib.sha256()
    for part in parts:
        h.update(np.asarray(part, "<i8").tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def outcome(parse, text: str) -> list:
    """[kind, detail, warnings]: 'ok' and the result's digest, or the error
    class and message, and the messages of the warnings issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ["ok", digest(parse(text))]
        except (CspFormatError, DimacsFormatError) as exc:
            result = [type(exc).__name__, short(str(exc))]
    return result + [[short(str(w.message)) for w in caught]]


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def texts():
    return {name: corpus(name, text) for name, text in documents().items()}


@pytest.mark.parametrize("chunk", [1, 5, 40, core._CHUNK])
@pytest.mark.parametrize("path", ["compiled", "python"])
@pytest.mark.parametrize("name", list(PARSERS))
def test_outcomes_are_as_recorded(monkeypatch, recorded, texts, name, path, chunk):
    if path == "compiled" and _native.kernel() is None:
        pytest.skip("the compiled kernel could not be built here")
    if path == "python":
        monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(core, "_CHUNK", chunk)
    want = recorded[name]
    assert len(texts[name]) == len(want)
    wrong = [(i, got, expected) for i, (text, expected) in enumerate(zip(texts[name], want))
             if (got := outcome(PARSERS[name], text)) != expected]
    assert not wrong, f"{len(wrong)} texts differ, the first: {wrong[:3]}"


if __name__ == "__main__":
    RECORD.parent.mkdir(exist_ok=True)
    record = {name: [outcome(PARSERS[name], t) for t in corpus(name, text)]
              for name, text in documents().items()}
    # one outcome a line, so that a changed outcome shows as a changed line
    RECORD.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: [\n" + ",\n".join(map(json.dumps, rows)) + "\n]"
        for name, rows in record.items()) + "\n}\n", encoding="utf-8")
