"""Correctness checks: independent recounts, fingerprints and the pass/fail tally.

The recounts read `Constraint.disallowed` directly and never go through
`SearchState`, `conflict_count` or `subset_conflicts`, so they stay
independent of the code whose output they check.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Optional, Sequence

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def digest(obj) -> str:
    """Short sha256 of a string, or of a JSON-serialisable value."""
    text = obj if isinstance(obj, str) else json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def recount(instance, values: Sequence[int], subset: Optional[Iterable[int]] = None) -> int:
    """Violated constraints under `values`, only those inside `subset` if given."""
    inside = None if subset is None else set(subset)
    total = 0
    for c in instance.constraints:
        if inside is not None and not (c.var_a in inside and c.var_b in inside):
            continue
        if (int(values[c.var_a]), int(values[c.var_b])) in set(c.disallowed):
            total += 1
    return total


def mis_edge_count(instance) -> int:
    """Edges of the independent-set graph: a clique per variable plus the
    distinct cross pairs of all disallowed value pairs."""
    d = instance.d
    cross = set()
    for c in instance.constraints:
        for va, vb in c.disallowed:
            u, w = c.var_a * d + va, c.var_b * d + vb
            cross.add((u, w) if u < w else (w, u))
    return instance.n * d * (d - 1) // 2 + len(cross)


def witness_problems(instance, assignment, subset, size: Optional[int]) -> list[str]:
    """Problems with a success witness: a full solution, or a target subset."""
    if assignment is None or len(assignment) != instance.n:
        return ["success without a full assignment"]
    if size is None:
        bad = recount(instance, assignment)
        return [f"witness has {bad} conflicts by recount"] if bad else []
    if subset is None or len(subset) != size or len(set(subset)) != size:
        return [f"target subset is not {size} distinct variables"]
    bad = recount(instance, assignment, subset)
    return [f"target subset has {bad} conflicts by recount"] if bad else []


def run_fingerprint(iterations: int, counters: Sequence[int], assignment, subset) -> list:
    """[iterations, expansions, worsening, hash of assignment and subset]."""
    return [iterations, counters[1], counters[2], digest([assignment, subset])]


class Tally:
    """Operations attempted and failed; an operation fails on any problem."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")

    def attempt(self, what: str, fn, *args):
        """fn(*args), or None after recording a raised exception as a failure."""
        try:
            return fn(*args)
        except Exception as exc:
            self.record(what, [f"raised {type(exc).__name__}: {exc}"])
            return None


class Golden:
    """Pinned fingerprints of one workload configuration, or none if its seeds
    are not the pinned ones."""

    def __init__(self, workload: str, size: str, gen_seed: int, run_seed: int) -> None:
        entry = json.loads(GOLDEN_PATH.read_text()).get(workload, {}).get(size, {})
        pinned = entry.get("gen_seed") == gen_seed and entry.get("run_seed") == run_seed
        self.entry = entry if pinned else None
        self.seen: dict = {}

    def compare(self, key: str, value) -> list[str]:
        """Record a fingerprint; a problem if it differs from the pinned one or
        from an earlier pass of the same run."""
        value = json.loads(json.dumps(value))
        if key in self.seen and self.seen[key] != value:
            return [f"{key} changed between passes: {self.seen[key]} then {value}"]
        self.seen[key] = value
        if self.entry is None or key not in self.entry:
            return []
        want = self.entry[key]
        return [] if want == value else [f"{key} is {value}, pinned {want}"]
