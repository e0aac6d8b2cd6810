"""Generator tests: derived counts, determinism, distribution, forcing, and
the compiled sampler against the numpy loop."""

from __future__ import annotations

import hashlib
import math
from collections import Counter

import pytest
from scipy import stats

from rbcsp import _native
from rbcsp.core import conflict_count, dumps_csp
from rbcsp.modelrb import (
    PHASE_R,
    ModelRbParams,
    generate,
    generate_forced,
    phase_transition_params,
)

from conftest import enumerate_satisfiable


class TestParams:
    def test_phase_domain_sizes_match_benchmark_names(self):
        # frbX-Y names: X variables, domain size Y
        for n, d in [(30, 15), (40, 19), (45, 21), (50, 23), (53, 24),
                     (56, 25), (59, 26), (100, 40)]:
            assert phase_transition_params(n).d == d

    def test_phase_density_constant(self):
        # 0.8 / (ln 4 - ln 3), evaluated independently
        expected = 0.8 / math.log(4 / 3)
        assert abs(PHASE_R - expected) < 1e-12
        assert abs(PHASE_R - 2.780848) < 1e-6

    def test_derived_counts_n40(self):
        params = phase_transition_params(40)
        assert params.m_constraints == round(PHASE_R * 40 * math.log(40)) == 410
        assert params.forbidden_per_constraint == round(0.25 * 19 * 19) == 90

    def test_derived_counts_n100(self):
        params = phase_transition_params(100)
        assert params.d == 40
        assert params.m_constraints == 1281
        assert params.forbidden_per_constraint == 400

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            phase_transition_params(1)
        with pytest.raises(ValueError):
            ModelRbParams(n=10, p=0.0)
        with pytest.raises(ValueError):
            ModelRbParams(n=10, p=1.0)
        with pytest.raises(ValueError):
            ModelRbParams(n=10, r=-1.0)
        with pytest.raises(ValueError):
            ModelRbParams(n=10, alpha=0.01)  # d would be 1

    def test_from_counts_round_trips(self):
        params = ModelRbParams.from_counts(10, 3, 25, 2)
        assert params.n == 10
        assert (params.d, params.m_constraints, params.forbidden_per_constraint) == (
            3, 25, 2)

    def test_from_counts_rejects_impossible(self):
        with pytest.raises(ValueError):
            ModelRbParams.from_counts(10, 3, 25, 9)  # p == 1


class TestGenerate:
    def test_counts_forced_by_definition(self):
        params = phase_transition_params(10)
        inst = generate(params, seed=42)
        assert inst.n == 10 and inst.d == params.d
        assert inst.num_constraints == params.m_constraints
        for c in inst.constraints:
            assert len(c.disallowed) == params.forbidden_per_constraint
            assert len(set(c.disallowed)) == len(c.disallowed)
            assert c.var_a < c.var_b

    def test_deterministic_per_seed(self):
        params = phase_transition_params(12)
        assert generate(params, seed=7) == generate(params, seed=7)
        assert generate(params, seed=7) != generate(params, seed=8)

    def test_variable_pairs_uniform_chi_square(self):
        # 10^4 constraints at n=10: 45 unordered pairs
        params = ModelRbParams.from_counts(10, 3, 10_000, 2)
        inst = generate(params, seed=123)
        freq = Counter((c.var_a, c.var_b) for c in inst.constraints)
        assert set(freq) <= {(a, b) for a in range(10) for b in range(a + 1, 10)}
        observed = [freq.get((a, b), 0) for a in range(10) for b in range(a + 1, 10)]
        result = stats.chisquare(observed)
        assert result.pvalue > 0.001


class TestGenerateForced:
    def test_hidden_solution_is_conflict_free(self):
        params = phase_transition_params(15)
        for seed in range(5):
            inst, hidden = generate_forced(params, seed=seed)
            assert conflict_count(inst, hidden) == 0

    def test_structure_identical_to_unforced(self):
        params = phase_transition_params(12)
        forced, _ = generate_forced(params, seed=3)
        plain = generate(params, seed=3)
        assert forced.num_constraints == plain.num_constraints
        for c in forced.constraints:
            assert len(c.disallowed) == params.forbidden_per_constraint

    def test_small_instances_satisfiable_by_enumeration(self):
        # n=6 at alpha giving d=4, modest density
        params = ModelRbParams.from_counts(6, 4, 8, 4)
        for seed in range(10):
            inst, hidden = generate_forced(params, seed=seed)
            assert conflict_count(inst, hidden) == 0
            assert enumerate_satisfiable(inst)

    def test_deterministic_per_seed(self):
        params = phase_transition_params(12)
        inst_a, hid_a = generate_forced(params, seed=11)
        inst_b, hid_b = generate_forced(params, seed=11)
        assert inst_a == inst_b and hid_a.as_list() == hid_b.as_list()


# phase-transition sizes from n = 2, where `integers(n - 1)` holds one value
# and draws nothing, to n = 183 (d = 65); then d = 2 (d² = 4, a power of
# two), q = d² − 1, where nearly every forced disallowed set is redrawn, d²
# just above a power of two (9, 529 and 1089), the masks' edge, and many
# constraints on few variables.  The shuffle draws one mask level at a time
# and swaps only at positions i >= q, so the last rows hold d² an exact
# power of two (64, 256 and 1024), whose first mask is d² − 1, q at a power
# of two and one either side of it, where the swaps stop at a level's edge,
# and q > d²/2, where they stop within the top level
SAMPLER_GRID = [phase_transition_params(n) for n in (2, 3, 5, 12, 40, 100, 183)] + [
    ModelRbParams.from_counts(6, 2, 12, 3),
    ModelRbParams.from_counts(12, 5, 40, 24),
    ModelRbParams.from_counts(10, 3, 30, 8),
    ModelRbParams.from_counts(9, 23, 30, 132),
    ModelRbParams.from_counts(9, 33, 20, 272),
    ModelRbParams.from_counts(10, 3, 10_000, 2),
    ModelRbParams.from_counts(10, 8, 30, 1),
    ModelRbParams.from_counts(10, 8, 30, 16),
    ModelRbParams.from_counts(10, 8, 30, 40),
    ModelRbParams.from_counts(12, 16, 30, 63),
    ModelRbParams.from_counts(12, 16, 30, 64),
    ModelRbParams.from_counts(12, 16, 30, 65),
    ModelRbParams.from_counts(12, 16, 30, 200),
    ModelRbParams.from_counts(9, 32, 20, 511),
    ModelRbParams.from_counts(9, 32, 20, 512),
    ModelRbParams.from_counts(9, 32, 20, 513),
    ModelRbParams.from_counts(9, 32, 20, 1000),
]


def sampled(params, seed, forced):
    """The instance and the hidden values, as a list, of one sample."""
    if forced:
        instance, hidden = generate_forced(params, seed)
        return instance, hidden.as_list()
    return generate(params, seed), None


class TestCompiledSampler:
    """`rb_sample` re-states numpy's `integers` and `permutation` on the
    generator's bit stream; the numpy loop is the reference."""

    @pytest.mark.parametrize(
        "params", SAMPLER_GRID,
        ids=lambda p: f"n{p.n}-d{p.d}-m{p.m_constraints}-q{p.forbidden_per_constraint}")
    def test_same_instances_as_the_numpy_loop(self, params, monkeypatch):
        if _native.kernel() is None:
            pytest.skip("the compiled kernel could not be built here")
        for seed in range(10):
            for forced in (False, True):
                instance, hidden = sampled(params, seed, forced)
                with monkeypatch.context() as patch:
                    patch.setattr(_native, "_lib", None)
                    reference, reference_hidden = sampled(params, seed, forced)
                # n, d and the four arrays; the texts written from them are
                # pinned below
                assert instance == reference, (seed, forced)
                assert hidden == reference_hidden, (seed, forced)

    @pytest.mark.parametrize("n, seed, forced, digest", [
        (40, 15, True, "dcf778ae872237e89a0a3e81a0158baec881b68e678bd6021ad45f5eb6363767"),
        (100, 1, True, "a152c27d221b25bba49acc954b5d0225f5e568dd837f67489a4cc83c87501471"),
        (100, 1, False, "78f5577c5926a466f34f9b95b1f497ea24f73246c16c3c959e89f9a31948d8c5"),
        (183, 1, True, "2d2080c083cee6b004599efb223052d3010473238f6cc8b389c01ffe8afe69f3"),
    ])
    def test_pinned_instance_texts(self, n, seed, forced, digest):
        # the texts `dumps_csp` writes, with the hidden values' `s` line when
        # forced; pinned from the numpy loop under numpy 2.4
        params = phase_transition_params(n)
        if forced:
            text = dumps_csp(*generate_forced(params, seed))
        else:
            text = dumps_csp(generate(params, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
