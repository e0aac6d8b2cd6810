"""Partial-solution extraction: find a small variable set covering all conflicts.

A state with few conflicts meets a target of T variables exactly when some
set of at most n − T variables touches every violated constraint; dropping
that set leaves a conflict-free subset.  The cover search branches on an
uncovered conflict and tries each endpoint, which is exact for the tiny
budgets used here (at most a handful of conflicts, removal budgets of 0-3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import CspInstance, SearchState, _count_violated


def check_conflict_cap(cap: int) -> None:
    if cap < 1:
        raise ValueError(f"conflict cap must be >= 1, got {cap}")


@dataclass(frozen=True)
class TargetSpec:
    """A required subset size plus the conflict cap gating the check.

    The cap is an efficiency heuristic, not a bound: states with more
    conflicts are never examined even if a valid cover exists.
    """

    size: int
    conflict_cap: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"target size must be positive, got {self.size}")
        check_conflict_cap(self.conflict_cap)

    def removal_budget(self, n: int) -> int:
        if self.size > n:
            raise ValueError(f"target size {self.size} exceeds n={n}")
        return n - self.size


def min_conflict_cover(conflicts: Sequence[tuple[int, int]],
                       budget: int) -> Optional[set[int]]:
    """A set of at most `budget` variables touching every conflict, or None.

    `conflicts` lists the endpoint pairs of violated constraints (duplicates
    allowed).  Exact: any cover of size <= budget must contain an endpoint of
    each uncovered conflict, so branching on both endpoints to depth `budget`
    cannot miss one.
    """
    if budget < 0:
        return None
    pairs = list(conflicts)
    chosen: set[int] = set()

    def search() -> Optional[set[int]]:
        for u, v in pairs:
            if u not in chosen and v not in chosen:
                break
        else:
            return set(chosen)
        if len(chosen) == budget:
            return None
        for w in (u, v):
            chosen.add(w)
            found = search()
            chosen.discard(w)
            if found is not None:
                return found
        return None

    return search()


def subset_conflicts(instance: CspInstance, values: Sequence[int],
                     subset: Sequence[int]) -> int:
    """Violated constraints with both endpoints inside `subset`; a recount
    over the instance's pairs, independent of SearchState and its tables."""
    inside = list(subset)
    return _count_violated(instance, values, np.isin(instance.con_a, inside)
                           & np.isin(instance.con_b, inside))


def check_target(state: SearchState, spec: TargetSpec) -> Optional[list[int]]:
    """Sorted list of exactly `spec.size` conflict-free variables, or None.

    Returns None immediately when the current conflict count exceeds the cap,
    and otherwise when no cover within the removal budget exists.  If the
    cover is smaller than the budget, the subset is padded back down to the
    target size by dropping the highest-indexed remaining variables, keeping
    the result deterministic.  The returned subset is verified conflict-free
    by an actual recount before being handed back.
    """
    n = state.instance.n
    budget = spec.removal_budget(n)
    if state.num_conflicts > spec.conflict_cap:
        return None
    ids = state.violated.ids
    pairs = list(zip(state.instance.con_a[ids].tolist(), state.instance.con_b[ids].tolist()))
    cover = min_conflict_cover(pairs, budget)
    if cover is None:
        return None
    keep = [v for v in range(n) if v not in cover]
    keep = keep[:spec.size]
    if subset_conflicts(state.instance, state.x, keep) != 0:
        raise AssertionError("cover left conflicts inside the returned subset")
    return keep
