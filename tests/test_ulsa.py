"""Solver tests: initialization, step semantics, run outcomes, determinism."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from scipy import stats as scipy_stats

from rbcsp import ulsa
from rbcsp.core import Constraint, CspInstance, SearchState, conflict_count
from rbcsp.modelrb import ModelRbParams, generate_forced, phase_transition_params
from rbcsp.target import TargetSpec, subset_conflicts
from rbcsp.ulsa import (
    StepStats,
    UlsaConfig,
    can_change_without_increase,
    init_state,
    run,
    step,
)

from conftest import assignment_of, random_instance, random_values, recount_violated


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


class TestInitState:
    def test_unconstrained_instance_zero_conflicts(self):
        inst = CspInstance(4, 3, ())
        state = init_state(inst, rng_for(0))
        assert state.num_conflicts == 0
        assert state.n_iter == 0 and state.t.tolist() == [0, 0, 0, 0]

    def test_unconstrained_values_uniform(self):
        # single free variable: initialization tie-breaks uniformly over d=4
        inst = CspInstance(1, 4, ())
        freq = Counter(int(init_state(inst, rng_for(s)).x[0]) for s in range(400))
        result = scipy_stats.chisquare([freq.get(v, 0) for v in range(4)])
        assert result.pvalue > 0.001

    def test_second_variable_avoids_the_conflict(self):
        # whichever variable initializes second never completes the (0,0) pair
        inst = CspInstance(2, 2, (Constraint(0, 1, ((0, 0),)),))
        for seed in range(200):
            assert init_state(inst, rng_for(seed)).num_conflicts == 0

    def test_violated_matches_recount(self, rng):
        for trial in range(10):
            n, d = rng.randint(2, 10), rng.randint(2, 4)
            inst = random_instance(rng, n=n, d=d, m=rng.randint(1, 4 * n))
            state = init_state(inst, rng_for(trial))
            assert state.violated.as_set() == recount_violated(inst, state.x)


class TestCanChangeWithoutIncrease:
    def test_isolated_variable_true(self):
        inst = CspInstance(3, 2, (Constraint(1, 2, ((0, 0),)),))
        state = SearchState(inst, assignment_of([0, 0, 1]))
        assert can_change_without_increase(state, 0)

    def test_single_worsening_alternative_false(self):
        # alternative value 1 of var 0 creates the (1, 0) conflict
        inst = CspInstance(2, 2, (Constraint(0, 1, ((1, 0),)),))
        state = SearchState(inst, assignment_of([0, 0]))
        assert not can_change_without_increase(state, 0)

    def test_agrees_with_evaluate_all_values(self, rng):
        for _ in range(20):
            n, d = rng.randint(2, 8), rng.randint(2, 4)
            inst = random_instance(rng, n=n, d=d, m=rng.randint(1, 3 * n))
            state = SearchState(inst, assignment_of(random_values(rng, n, d)))
            for var in range(n):
                deltas = state.evaluate_all_values(var)
                expected = any(
                    deltas[u] <= 0 for u in range(d) if u != int(state.x[var])
                )
                assert can_change_without_increase(state, var) == expected


class TestStep:
    def test_requires_a_conflict(self):
        inst = CspInstance(2, 2, ())
        state = SearchState(inst, assignment_of([0, 0]))
        with pytest.raises(ValueError):
            step(state, rng_for(0))

    def test_improving_move_stays_single_endpoint(self):
        # the only conflict has a free fix: S={i}, delta <= 0, no expansion
        inst = CspInstance(2, 2, (Constraint(0, 1, ((0, 0),)),))
        for seed in range(30):
            state = SearchState(inst, assignment_of([0, 0]))
            stats = StepStats()
            step(state, rng_for(seed), stats)
            assert state.num_conflicts == 0
            assert stats.expansions == 0 and stats.worsening == 0

    def expansion_instance(self):
        # var 0's only alternative worsens: fixing c0 via value 1 trips two
        # other constraints; endpoint 1 can fix c0 for free
        return CspInstance(3, 2, (
            Constraint(0, 1, ((0, 0),)),
            Constraint(0, 1, ((1, 0),)),
            Constraint(0, 2, ((1, 0),)),
        ))

    def test_neighborhood_expansion_fires(self):
        inst = self.expansion_instance()
        state = SearchState(inst, assignment_of([0, 0, 0]))
        assert state.violated.as_set() == {0}
        # make endpoint 0 the older one; endpoint 1 not the most recent change
        state.t[:] = [0, 1, 0]
        state.n_iter = 5
        stats = StepStats()
        step(state, rng_for(0), stats)
        assert stats.expansions == 1
        # the expanded candidate (var 1 -> 1) is the unique minimizer
        assert int(state.x[1]) == 1 and state.num_conflicts == 0
        assert stats.worsening == 0

    def test_most_recent_endpoint_blocks_expansion(self):
        # same instance, but t[j] == n_iter forces S={i} and a worsening move
        inst = self.expansion_instance()
        state = SearchState(inst, assignment_of([0, 0, 0]))
        state.t[:] = [0, 5, 0]
        state.n_iter = 5
        stats = StepStats()
        step(state, rng_for(0), stats)
        assert stats.expansions == 0 and stats.worsening == 1
        assert int(state.x[0]) == 1 and state.num_conflicts == 2

    def test_chosen_conflict_is_violated(self, rng):
        # every step keeps the violated index equal to a recount
        inst = random_instance(rng, n=8, d=3, m=16)
        state = init_state(inst, rng_for(3))
        gen = rng_for(4)
        for _ in range(300):
            if state.num_conflicts == 0:
                break
            step(state, gen)
            assert state.violated.as_set() == recount_violated(inst, state.x)

    def test_change_always_differs(self, rng):
        inst = random_instance(rng, n=6, d=3, m=12)
        state = init_state(inst, rng_for(9))
        gen = rng_for(10)
        for _ in range(200):
            if state.num_conflicts == 0:
                break
            before = state.values_tuple()
            step(state, gen)
            after = state.values_tuple()
            diffs = [v for v in range(6) if before[v] != after[v]]
            assert len(diffs) == 1
            assert state.t[diffs[0]] == state.n_iter

    def test_unique_latest_timestamp_after_steps(self, rng):
        inst = random_instance(rng, n=7, d=3, m=14)
        state = init_state(inst, rng_for(5))
        gen = rng_for(6)
        for _ in range(100):
            if state.num_conflicts == 0:
                break
            step(state, gen)
            latest = [v for v in range(7) if state.t[v] == state.n_iter]
            assert len(latest) == 1


class TestRun:
    def test_unconstrained_solves_in_zero_iterations(self):
        inst = CspInstance(5, 3, ())
        rec = run(inst, UlsaConfig(), seed=1)
        assert rec.success and rec.iterations == 0 and rec.best_conflicts == 0

    def test_forced_toy_instance_solved_and_verified(self):
        params = ModelRbParams.from_counts(6, 4, 8, 4)
        inst, hidden = generate_forced(params, seed=2)
        rec = run(inst, UlsaConfig(max_iterations=100_000), seed=3)
        assert rec.success
        assert conflict_count(inst, assignment_of(rec.assignment)) == 0

    def test_deterministic_trajectory(self):
        params = phase_transition_params(15)
        inst, _ = generate_forced(params, seed=0)
        cfg = UlsaConfig(max_iterations=50_000)
        a = run(inst, cfg, seed=77)
        b = run(inst, cfg, seed=77)
        assert a.iterations == b.iterations
        assert a.assignment == b.assignment
        assert (a.stats.expansions, a.stats.worsening) == (
            b.stats.expansions, b.stats.worsening)
        c = run(inst, cfg, seed=78)
        assert (a.iterations, a.assignment) != (c.iterations, c.assignment)

    def test_manual_step_loop_replicates_run(self):
        # run() buffers its uniforms; the sequence must match plain
        # rng.random() draws, so a hand-rolled loop reproduces the trajectory
        params = phase_transition_params(12)
        inst, _ = generate_forced(params, seed=3)
        rec = run(inst, UlsaConfig(max_iterations=20_000), seed=42)
        assert rec.success
        gen = rng_for(42)
        state = init_state(inst, gen)
        iters = 0
        while state.num_conflicts and iters < 20_000:
            step(state, gen)
            iters += 1
        assert iters == rec.iterations
        assert [int(v) for v in state.x] == rec.assignment

    def test_budget_exhaustion_is_not_an_error(self):
        params = phase_transition_params(20)
        inst, _ = generate_forced(params, seed=1)
        rec = run(inst, UlsaConfig(max_iterations=10), seed=5)
        assert not rec.success and rec.iterations == 10
        assert rec.assignment is None and rec.best_conflicts > 0

    def test_stats_match_iteration_count(self):
        params = phase_transition_params(15)
        inst, _ = generate_forced(params, seed=4)
        rec = run(inst, UlsaConfig(max_iterations=20_000), seed=6)
        assert rec.stats.iterations == rec.iterations
        assert rec.stats.expansions <= rec.iterations
        assert rec.stats.worsening <= rec.iterations

    def test_restarts_reset_clock_and_still_solve(self):
        params = phase_transition_params(15)
        inst, _ = generate_forced(params, seed=9)
        cfg = UlsaConfig(max_iterations=200_000, restart_interval=500)
        rec = run(inst, cfg, seed=10)
        assert rec.success
        assert rec.restarts >= 0
        assert conflict_count(inst, assignment_of(rec.assignment)) == 0

    def test_restart_interval_validated(self):
        with pytest.raises(ValueError):
            UlsaConfig(restart_interval=0)

    def test_degenerate_domain_rejected(self):
        inst = CspInstance(2, 1, (Constraint(0, 1, ((0, 0),)),))
        with pytest.raises(ValueError, match="domain size 1"):
            run(inst, UlsaConfig(max_iterations=10), seed=0)
        state = SearchState(inst, assignment_of([0, 0]))
        with pytest.raises(ValueError, match="domain size 1"):
            step(state, rng_for(0))
        # constraint-free d=1 instances are trivially solved
        free = CspInstance(3, 1, ())
        assert run(free, UlsaConfig(), seed=0).success

    def test_target_run_returns_verified_subset(self):
        params = phase_transition_params(15)
        inst, _ = generate_forced(params, seed=12)
        cfg = UlsaConfig(
            max_iterations=200_000,
            target=TargetSpec(size=14, conflict_cap=4),
        )
        rec = run(inst, cfg, seed=13)
        assert rec.success and rec.subset is not None
        assert len(rec.subset) == 14 and rec.subset == sorted(rec.subset)
        assert subset_conflicts(inst, rec.assignment, rec.subset) == 0

    def test_target_size_validated_against_instance(self):
        inst = CspInstance(4, 2, (Constraint(0, 1, ((0, 0),)),))
        cfg = UlsaConfig(target=TargetSpec(size=9, conflict_cap=3))
        with pytest.raises(ValueError):
            run(inst, cfg, seed=0)

    @pytest.mark.parametrize("targeted", [False, True])
    def test_witness_with_conflicts_fails_the_recount(self, monkeypatch, targeted):
        # a false success at the start, which has conflicts: a state that
        # reports none, or a target check that returns every variable
        inst = generate_forced(phase_transition_params(20), seed=4)[0]
        assert init_state(inst, rng_for(0)).num_conflicts > 0
        target = None
        if targeted:
            target = TargetSpec(size=inst.n, conflict_cap=inst.num_constraints)
            monkeypatch.setattr(ulsa, "check_target", lambda state, spec: list(range(spec.size)))
        else:
            monkeypatch.setattr(SearchState, "num_conflicts", property(lambda state: 0))
        with pytest.raises(AssertionError, match="independent recount"):
            run(inst, UlsaConfig(target=target), seed=0)

    def test_track_best_snapshots_lowest_state(self):
        params = phase_transition_params(15)
        inst, _ = generate_forced(params, seed=14)
        rec = run(inst, UlsaConfig(max_iterations=300), seed=15, track_best=True)
        assert rec.best_assignment is not None
        values = rec.best_assignment
        assert len(recount_violated(inst, values)) == rec.best_conflicts
        assert sorted(rec.best_violated) == sorted(recount_violated(inst, values))
