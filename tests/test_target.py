"""Conflict-cover tests against exhaustive subset oracles."""

from __future__ import annotations

import itertools

import pytest

from rbcsp.core import Constraint, CspInstance, SearchState
from rbcsp.target import TargetSpec, check_target, min_conflict_cover, subset_conflicts

from conftest import assignment_of, random_instance, random_values


def brute_force_cover_exists(conflicts, budget) -> bool:
    """Try every variable subset of size <= budget; independent oracle."""
    variables = sorted({v for pair in conflicts for v in pair})
    for k in range(budget + 1):
        for subset in itertools.combinations(variables, k):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in conflicts):
                return True
    return not conflicts


def is_cover(conflicts, cover) -> bool:
    return all(u in cover or v in cover for u, v in conflicts)


class TestMinConflictCover:
    def test_zero_conflicts_empty_cover(self):
        assert min_conflict_cover([], 0) == set()
        assert min_conflict_cover([], 3) == set()

    def test_single_edge(self):
        cover = min_conflict_cover([(1, 2)], 1)
        assert cover in ({1}, {2})

    def test_star_needs_only_center(self):
        cover = min_conflict_cover([(0, 1), (0, 2), (0, 3)], 1)
        assert cover == {0}

    def test_triangle_needs_two(self):
        triangle = [(0, 1), (1, 2), (0, 2)]
        assert min_conflict_cover(triangle, 1) is None
        cover = min_conflict_cover(triangle, 2)
        assert cover is not None and len(cover) <= 2 and is_cover(triangle, cover)

    def test_zero_budget_with_conflicts(self):
        assert min_conflict_cover([(0, 1)], 0) is None

    def test_duplicate_conflicts_fine(self):
        cover = min_conflict_cover([(0, 1), (0, 1), (0, 1)], 1)
        assert cover in ({0}, {1})

    def test_agrees_with_exhaustive_oracle(self, rng):
        for _ in range(300):
            n_edges = rng.randint(0, 8)
            conflicts = [
                tuple(rng.sample(range(10), 2)) for _ in range(n_edges)
            ]
            for budget in range(4):
                cover = min_conflict_cover(conflicts, budget)
                exists = brute_force_cover_exists(conflicts, budget)
                assert (cover is not None) == exists
                if cover is not None:
                    assert len(cover) <= budget
                    assert is_cover(conflicts, cover)


def low_conflict_state(rng, n, d, m, cap):
    """Random states filtered down to at most `cap` conflicts."""
    while True:
        inst = random_instance(rng, n=n, d=d, m=m, max_pairs=3)
        state = SearchState(inst, assignment_of(random_values(rng, n, d)))
        if state.num_conflicts <= cap:
            return inst, state


class TestCheckTarget:
    def test_zero_conflicts_full_target(self):
        inst = CspInstance(5, 2, (Constraint(0, 1, ((0, 0),)),))
        state = SearchState(inst, assignment_of([0, 1, 0, 0, 0]))
        assert state.num_conflicts == 0
        spec = TargetSpec(size=5, conflict_cap=1)
        assert check_target(state, spec) == [0, 1, 2, 3, 4]

    def test_conflicts_sharing_one_variable(self):
        # five conflicts all incident to variable 3; dropping it clears them
        constraints = tuple(
            Constraint(3, other, ((0, 0),)) for other in (0, 1, 2, 4, 5)
        )
        inst = CspInstance(6, 2, constraints)
        state = SearchState(inst, assignment_of([0] * 6))
        assert state.num_conflicts == 5
        spec = TargetSpec(size=5, conflict_cap=5)
        assert check_target(state, spec) == [0, 1, 2, 4, 5]

    def test_cap_is_openly_lossy(self):
        # a valid single-variable cover exists, but the cap hides the state
        constraints = tuple(
            Constraint(3, other, ((0, 0),)) for other in (0, 1, 2, 4, 5)
        )
        inst = CspInstance(6, 2, constraints)
        state = SearchState(inst, assignment_of([0] * 6))
        spec = TargetSpec(size=5, conflict_cap=4)
        assert check_target(state, spec) is None

    def test_padding_drops_highest_indexed(self):
        # zero conflicts but target smaller than n: padding must be
        # deterministic, keeping the lowest-indexed variables
        inst = CspInstance(6, 2, (Constraint(0, 1, ((1, 1),)),))
        state = SearchState(inst, assignment_of([0] * 6))
        spec = TargetSpec(size=4, conflict_cap=2)
        assert check_target(state, spec) == [0, 1, 2, 3]

    def test_subset_exactly_target_sized_and_sound(self, rng):
        for trial in range(50):
            inst, state = low_conflict_state(rng, n=9, d=3, m=10, cap=6)
            size = rng.randint(6, 9)
            spec = TargetSpec(size=size, conflict_cap=6)
            subset = check_target(state, spec)
            if subset is not None:
                assert len(subset) == size
                assert subset == sorted(set(subset))
                assert subset_conflicts(inst, state.x, subset) == 0

    def test_presence_agrees_with_subset_oracle(self, rng):
        # completeness within the cap: brute force over removal sets
        agree_found = agree_absent = 0
        for _ in range(150):
            inst, state = low_conflict_state(rng, n=10, d=3, m=12, cap=8)
            budget = rng.randint(0, 3)
            spec = TargetSpec(size=10 - budget, conflict_cap=8)
            pairs = [
                (inst.constraints[cid].var_a, inst.constraints[cid].var_b)
                for cid in state.violated_ids()
            ]
            expected = brute_force_cover_exists(pairs, budget)
            got = check_target(state, spec)
            assert (got is not None) == expected
            if expected:
                agree_found += 1
            else:
                agree_absent += 1
        assert agree_found > 0 and agree_absent > 0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            TargetSpec(size=0, conflict_cap=3)
        with pytest.raises(ValueError):
            TargetSpec(size=5, conflict_cap=0)
        inst = CspInstance(3, 2, (Constraint(0, 1, ((0, 0),)),))
        state = SearchState(inst, assignment_of([0, 0, 0]))
        with pytest.raises(ValueError):
            check_target(state, TargetSpec(size=4, conflict_cap=3))


class TestSubsetConflicts:
    def test_matches_pair_set_oracle(self, rng):
        for _ in range(30):
            n, d = rng.randint(2, 7), rng.randint(2, 4)
            inst = random_instance(rng, n=n, d=d, m=rng.randint(0, 3 * n))
            values = random_values(rng, n, d)
            subset = rng.sample(range(n), rng.randint(0, n))
            expected = sum(
                1 for c in inst.constraints
                if c.var_a in subset and c.var_b in subset
                and (values[c.var_a], values[c.var_b]) in c.pair_set)
            assert subset_conflicts(inst, values, subset) == expected

    def test_values_outside_the_domain_are_never_disallowed(self):
        # (0, 2) would share the code 0·2 + 2 with the disallowed pair (1, 0)
        inst = CspInstance(2, 2, (Constraint(0, 1, ((1, 0),)),))
        assert subset_conflicts(inst, [0, 2], [0, 1]) == 0
        assert subset_conflicts(inst, [1, 0], [0, 1, -1, 7]) == 1
