"""Shared fixtures and independent oracles.

The oracles here recompute everything from first principles (plain loops and
set membership over the constraint list) so they share no code with the
incremental bookkeeping they check.
"""

from __future__ import annotations

import itertools
import platform
import random
from pathlib import Path

import numpy as np
import pytest

from rbcsp import _native
from rbcsp.core import Assignment, Constraint, CspInstance

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    """Show one pass/fail line per acceptance criterion at the end of a run."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


def recount_violated(instance: CspInstance, values) -> set[int]:
    """From-scratch violated-constraint ids; independent of SearchState."""
    out = set()
    for cid, c in enumerate(instance.constraints):
        if (int(values[c.var_a]), int(values[c.var_b])) in c.pair_set:
            out.add(cid)
    return out


def recount_conflicts(instance: CspInstance, values) -> int:
    return len(recount_violated(instance, values))


def brute_delta(instance: CspInstance, values, var: int, value: int) -> int:
    """Recount-after-change minus recount-before."""
    before = recount_conflicts(instance, values)
    trial = list(values)
    trial[var] = value
    return recount_conflicts(instance, trial) - before


def random_instance(
    rng: random.Random,
    n: int,
    d: int,
    m: int,
    max_pairs: int | None = None,
) -> CspInstance:
    """Random instance built with stdlib randomness, bypassing the generator."""
    cap = max_pairs if max_pairs is not None else d * d
    constraints = []
    for _ in range(m):
        a, b = rng.sample(range(n), 2)
        npairs = rng.randint(1, max(1, min(cap, d * d - 1)))
        pairs = rng.sample([(x, y) for x in range(d) for y in range(d)], npairs)
        constraints.append(Constraint(a, b, tuple(pairs)))
    return CspInstance(n, d, tuple(constraints))


def random_values(rng: random.Random, n: int, d: int) -> list[int]:
    return [rng.randrange(d) for _ in range(n)]


def enumerate_satisfiable(instance: CspInstance) -> bool:
    """Exhaustive satisfiability check over all d^n assignments (vectorized)."""
    n, d = instance.n, instance.d
    grids = np.meshgrid(*[np.arange(d)] * n, indexing="ij")
    cols = [g.reshape(-1) for g in grids]
    viol = np.zeros(d**n, dtype=np.int64)
    for c in instance.constraints:
        viol += c.matrix(d)[cols[c.var_a], cols[c.var_b]]
    return bool((viol == 0).any())


def assignment_of(values) -> Assignment:
    return Assignment.from_values(list(values))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def all_subsets(items, size):
    return itertools.combinations(items, size)


def cpu_flags() -> set[str]:
    """The CPU flags the kernel's step loop and readers choose their AVX-512
    paths by: those this host lists in /proc/cpuinfo, and none off x86-64 or
    when the kernel's source has its x86-64 block turned off."""
    x86 = "#if defined(__x86_64__) && defined(__GNUC__)\n"
    if platform.machine() not in ("x86_64", "AMD64") or x86 not in _native._SOURCE.read_text():
        return set()
    try:
        return set(Path("/proc/cpuinfo").read_text().split())
    except OSError:
        pytest.skip("this host does not list its CPU flags in /proc/cpuinfo")
