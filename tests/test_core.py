"""Core instance/state tests: exact conflict accounting against dumb oracles."""

from __future__ import annotations

import hashlib
import pickle
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbcsp import UlsaConfig, TargetSpec, core, csp_to_mis, run
from rbcsp.core import (
    _BREAKS,
    _SPACES,
    Assignment,
    Constraint,
    CspFormatError,
    CspInstance,
    SearchState,
    ViolatedIndex,
    check_size,
    conflict_count,
    dumps_csp,
    loads_csp,
)
from rbcsp.modelrb import ModelRbParams, generate_forced, phase_transition_params

from conftest import (
    assignment_of,
    brute_delta,
    random_instance,
    random_values,
    recount_conflicts,
    recount_violated,
)


def small_pair_instance() -> CspInstance:
    return CspInstance(2, 2, (Constraint(0, 1, ((0, 0),)),))


class TestConstraint:
    def test_rejects_equal_endpoints(self):
        with pytest.raises(ValueError):
            Constraint(1, 1, ((0, 0),))

    def test_rejects_empty_and_duplicate_pairs(self):
        with pytest.raises(ValueError):
            Constraint(0, 1, ())
        with pytest.raises(ValueError):
            Constraint(0, 1, ((0, 0), (0, 0)))

    def test_pairs_normalized_sorted(self):
        c = Constraint(0, 1, ((1, 1), (0, 0)))
        assert c.disallowed == ((0, 0), (1, 1))
        assert c.violates(1, 1) and not c.violates(0, 1)

    def test_violates_matches_pair_set(self, rng):
        for c in random_instance(rng, n=5, d=4, m=10).constraints:
            assert [c.violates(a, b) for a in range(4) for b in range(4)] == [
                (a, b) in c.pair_set for a in range(4) for b in range(4)]

    def test_matrix_matches_pairs(self):
        c = Constraint(0, 1, ((0, 2), (1, 1)))
        m = c.matrix(3)
        assert m[0, 2] == 1 and m[1, 1] == 1 and m.sum() == 2


class TestInstanceValidation:
    def test_variable_out_of_range(self):
        with pytest.raises(ValueError):
            CspInstance(2, 2, (Constraint(0, 2, ((0, 0),)),))

    def test_value_out_of_range(self):
        with pytest.raises(ValueError):
            CspInstance(2, 2, (Constraint(0, 1, ((0, 2),)),))

    def test_duplicate_constraints_allowed(self):
        c = Constraint(0, 1, ((0, 0),))
        inst = CspInstance(2, 2, (c, c))
        assert inst.num_constraints == 2


class TestConflictCount:
    def test_zero_constraints(self):
        inst = CspInstance(3, 4, ())
        assert conflict_count(inst, assignment_of([0, 1, 2])) == 0

    def test_single_constraint(self):
        inst = small_pair_instance()
        assert conflict_count(inst, assignment_of([0, 0])) == 1
        assert conflict_count(inst, assignment_of([0, 1])) == 0

    def test_value_out_of_domain_rejected(self):
        inst = small_pair_instance()
        with pytest.raises(ValueError):
            conflict_count(inst, assignment_of([0, 5]))

    def test_uninitialized_endpoints_never_conflict(self):
        inst = small_pair_instance()
        partial = Assignment.empty(2)
        assert conflict_count(inst, partial) == 0
        partial.set(0, 0)
        assert conflict_count(inst, partial) == 0
        partial.set(1, 0)
        assert conflict_count(inst, partial) == 1

    def test_matches_recount_oracle(self, rng):
        inst = random_instance(rng, n=6, d=3, m=10)
        for _ in range(50):
            values = random_values(rng, 6, 3)
            assert conflict_count(inst, assignment_of(values)) == recount_conflicts(
                inst, values
            )

    def test_invariant_under_reordering(self, rng):
        inst = random_instance(rng, n=8, d=3, m=12)
        shuffled = list(inst.constraints)
        rng.shuffle(shuffled)
        other = CspInstance(inst.n, inst.d, tuple(shuffled))
        for _ in range(20):
            values = random_values(rng, 8, 3)
            a = conflict_count(inst, assignment_of(values))
            b = conflict_count(other, assignment_of(values))
            assert a == b

    def test_duplicate_constraint_counts_twice(self, rng):
        c = Constraint(0, 1, ((0, 0), (1, 1)))
        once = CspInstance(2, 2, (c,))
        twice = CspInstance(2, 2, (c, c))
        for values in ([0, 0], [1, 1], [0, 1]):
            assert conflict_count(twice, assignment_of(values)) == 2 * conflict_count(
                once, assignment_of(values)
            )


class TestDeltaConflicts:
    def test_noop_delta_is_zero(self):
        state = SearchState(small_pair_instance(), assignment_of([0, 0]))
        assert state.delta_conflicts(0, 0) == 0

    def test_removing_only_conflict(self):
        state = SearchState(small_pair_instance(), assignment_of([0, 0]))
        assert state.delta_conflicts(0, 1) == -1

    def test_matches_recount_oracle(self, rng):
        inst = random_instance(rng, n=7, d=4, m=14)
        values = random_values(rng, 7, 4)
        state = SearchState(inst, assignment_of(values))
        for var in range(7):
            for value in range(4):
                assert state.delta_conflicts(var, value) == brute_delta(
                    inst, values, var, value
                )

    def test_range_checks(self):
        state = SearchState(small_pair_instance(), assignment_of([0, 0]))
        with pytest.raises(ValueError):
            state.delta_conflicts(0, 9)
        with pytest.raises(ValueError):
            state.delta_conflicts(5, 0)


class TestEvaluateAllValues:
    def test_isolated_variable_all_zero(self):
        inst = CspInstance(3, 4, (Constraint(1, 2, ((0, 0),)),))
        state = SearchState(inst, assignment_of([0, 0, 1]))
        assert state.evaluate_all_values(0).tolist() == [0, 0, 0, 0]

    def test_current_value_entry_is_zero(self, rng):
        inst = random_instance(rng, n=5, d=3, m=8)
        values = random_values(rng, 5, 3)
        state = SearchState(inst, assignment_of(values))
        for var in range(5):
            assert state.evaluate_all_values(var)[values[var]] == 0

    def test_elementwise_matches_delta_conflicts(self, rng):
        # against the recount oracle: delta_conflicts itself reads this vector
        for _ in range(10):
            n, d = rng.randint(2, 8), rng.randint(2, 4)
            inst = random_instance(rng, n=n, d=d, m=rng.randint(0, 3 * n))
            values = random_values(rng, n, d)
            state = SearchState(inst, assignment_of(values))
            for var in range(n):
                deltas = state.evaluate_all_values(var)
                for value in range(d):
                    assert deltas[value] == brute_delta(inst, values, var, value)


class TestApplyChange:
    def test_same_value_rejected(self):
        state = SearchState(small_pair_instance(), assignment_of([0, 0]))
        with pytest.raises(ValueError):
            state.apply_change(0, 0)

    def test_timestamps(self, rng):
        inst = random_instance(rng, n=5, d=3, m=6)
        state = SearchState(inst, assignment_of(random_values(rng, 5, 3)))
        before = list(state.t)
        state.apply_change(2, (state.x[2] + 1) % 3)
        assert state.n_iter == 1 and state.t[2] == 1
        assert [state.t[v] for v in (0, 1, 3, 4)] == [before[v] for v in (0, 1, 3, 4)]
        state.apply_change(4, (state.x[4] + 1) % 3)
        assert state.n_iter == 2 and state.t[4] == 2 and state.t[2] == 1

    def test_inverse_restores_violated_set(self, rng):
        inst = random_instance(rng, n=6, d=3, m=10)
        values = random_values(rng, 6, 3)
        state = SearchState(inst, assignment_of(values))
        snapshot = state.violated.as_set()
        old = int(state.x[3])
        state.apply_change(3, (old + 1) % 3)
        state.apply_change(3, old)
        assert state.violated.as_set() == snapshot

    def test_incremental_equals_recount_over_random_walk(self, rng):
        for _ in range(5):
            n, d = rng.randint(2, 10), rng.randint(2, 4)
            inst = random_instance(rng, n=n, d=d, m=rng.randint(0, 4 * n))
            state = SearchState(inst, assignment_of(random_values(rng, n, d)))
            assert state.violated.as_set() == recount_violated(inst, state.x)
            for _ in range(200):
                var = rng.randrange(n)
                value = (int(state.x[var]) + rng.randint(1, d - 1)) % d
                state.apply_change(var, value)
                assert state.violated.as_set() == recount_violated(inst, state.x)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_incremental_equivalence_property(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        r = random.Random(seed)
        n, d = r.randint(2, 8), r.randint(2, 4)
        inst = random_instance(r, n=n, d=d, m=r.randint(1, 3 * n))
        state = SearchState(inst, assignment_of(random_values(r, n, d)))
        steps = data.draw(st.integers(1, 60))
        for _ in range(steps):
            var = r.randrange(n)
            value = (int(state.x[var]) + r.randint(1, d - 1)) % d
            state.apply_change(var, value)
        assert state.violated.as_set() == recount_violated(inst, state.x)
        assert state.num_conflicts == recount_conflicts(inst, state.x)


class TestSearchStateConstruction:
    def test_requires_complete_assignment(self):
        partial = Assignment.empty(2)
        partial.set(0, 0)
        with pytest.raises(ValueError):
            SearchState(small_pair_instance(), partial)

    def test_initial_violated_matches_recount(self, rng):
        inst = random_instance(rng, n=9, d=3, m=15)
        values = random_values(rng, 9, 3)
        state = SearchState(inst, assignment_of(values))
        assert state.violated.as_set() == recount_violated(inst, values)


class TestViolatedIndex:
    def test_add_discard_membership(self):
        idx = ViolatedIndex(5)
        idx.add(3)
        idx.add(1)
        idx.add(3)  # no-op
        assert len(idx) == 2 and 3 in idx and 1 in idx and 0 not in idx
        idx.discard(3)
        assert len(idx) == 1 and 3 not in idx
        idx.discard(3)  # no-op
        assert idx.as_set() == {1}

    def test_pick_is_uniform_over_members(self):
        idx = ViolatedIndex(10)
        for cid in (2, 5, 7):
            idx.add(cid)
        picks = {idx.pick(u) for u in (0.0, 0.34, 0.67, 0.999)}
        assert picks == {2, 5, 7}


class TestNativeFormat:
    def test_round_trip(self, rng):
        inst = random_instance(rng, n=6, d=4, m=9)
        text = dumps_csp(inst, comments=["sample"])
        parsed, solution = loads_csp(text)
        assert parsed == inst and solution is None

    def test_round_trip_with_solution(self, rng):
        inst = random_instance(rng, n=5, d=3, m=4)
        sol = assignment_of(random_values(rng, 5, 3))
        parsed, parsed_sol = loads_csp(dumps_csp(inst, solution=sol))
        assert parsed == inst
        assert parsed_sol is not None and parsed_sol.as_list() == sol.as_list()

    def test_dumps_bytes_pinned(self):
        # the exact text of a forced instance with comments and a solution
        inst, sol = generate_forced(ModelRbParams(n=20), 1)
        text = dumps_csp(inst, sol, comments=["forced n=20 seed 1", "second"])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "4610c7b8de8ab20c4edc227673650123ed993fcbc2256340d4d5581428156989")

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "c hello\n\np bcsp 2 2 1\nc mid\nk 0 1 1\nf 0 0\nc end\n"
        )
        inst, _ = loads_csp(text)
        assert inst == small_pair_instance()

    @pytest.mark.parametrize(
        "text",
        [
            "k 0 1 1\nf 0 0\n",             # missing header
            "p bcsp 2 2\n",                  # short header
            "p qcsp 2 2 1\nk 0 1 1\nf 0 0\n",  # wrong format tag
            "p bcsp 2 2 1\nk 0 1 2\nf 0 0\n",  # missing f line
            "p bcsp 2 2 2\nk 0 1 1\nf 0 0\n",  # fewer constraints than declared
            "p bcsp 2 2 1\nk 0 1 1\nf 0 9\n",  # value out of range
            "p bcsp 2 2 1\nk 0 2 1\nf 0 0\n",  # variable out of range
            "p bcsp 2 2 1\nk 0 1 2\nf 0 0\nf 0 0\n",  # duplicate pair
            "p bcsp 2 2 1\nf 0 0\n",         # f outside block
            "p bcsp 2 2 1\nk 0 1 1\nf 0 0\ns 0\n",  # short s line
            "p bcsp 2 2 1\nk 0 1 1\nf 0 0\nz 1\n",  # unknown tag
            "p bcsp 2 2 1\nk 0 1 2\nf 0 0\ns 0 0\nf 1 1\n",  # s line splits a block
            "p bcsp 2 50000 1\nk 0 1 1\nf 0 0\n",  # 5 GB of tables
            "p bcsp 1000000000 2 0\n",      # 10⁹ variables
        ],
    )
    def test_malformed_inputs_rejected(self, text):
        with pytest.raises(CspFormatError):
            loads_csp(text)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(-2, 300_000) | st.integers(0, 10**30),
        d=st.integers(-2, 40_000) | st.integers(0, 10**12),
        m=st.integers(-2, 10**7) | st.integers(0, 10**30),
    )
    def test_header_refused_as_too_large_exactly_when_check_size_refuses(self, n, d, m):
        try:
            check_size(n, d, m)
            refused = False
        except ValueError:
            refused = True
        try:
            loads_csp(f"p bcsp {n} {d} {m}\n")
            message = ""
        except CspFormatError as exc:
            message = str(exc)
        assert ("too large" in message) == refused

    def test_error_messages_carry_line_numbers(self):
        with pytest.raises(CspFormatError, match="line 2"):
            loads_csp("p bcsp 2 2 1\nk 0 1\n")

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="pbcskft se0123456789-\n", max_size=200))
    def test_fuzzed_input_never_raises_unexpected(self, text):
        # malformed input must surface as CspFormatError, nothing else
        try:
            loads_csp(text)
        except CspFormatError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_corrupted_valid_documents_never_raise_unexpected(self, data):
        r = random.Random(data.draw(st.integers(0, 2**30)))
        inst = random_instance(r, n=r.randint(2, 5), d=r.randint(2, 3),
                               m=r.randint(1, 6))
        chars = list(dumps_csp(inst))
        for _ in range(data.draw(st.integers(1, 5))):
            idx = r.randrange(len(chars))
            roll = r.random()
            if roll < 0.4:
                chars[idx] = r.choice("0123456789 \npkfsc-")
            elif roll < 0.7:
                chars[idx] = ""
            else:
                chars[idx] = chars[idx] + r.choice("0123456789")
        try:
            loads_csp("".join(chars))
        except CspFormatError:
            pass


class TestPickling:
    def test_instance_pickles_without_tables(self, rng):
        import pickle

        inst = random_instance(rng, n=4, d=3, m=5)
        SearchState(inst, assignment_of(random_values(rng, 4, 3)))  # builds tables
        clone = pickle.loads(pickle.dumps(inst))
        assert clone == inst
        state = SearchState(clone, assignment_of([0, 0, 0, 0]))
        assert state.violated.as_set() == recount_violated(clone, [0, 0, 0, 0])


class TestArrayInstance:
    def test_arrays_hold_the_constraints(self):
        inst = CspInstance(3, 2, (Constraint(2, 0, ((1, 1), (0, 1))),
                                  Constraint(0, 1, ((1, 0),))))
        assert inst.con_a.tolist() == [2, 0] and inst.con_b.tolist() == [0, 1]
        assert inst.pair_start.tolist() == [0, 2, 3]
        assert inst.codes.tolist() == [1, 3, 2]  # a·d + b, ascending per constraint
        assert not inst.codes.flags.writeable

    def test_lazy_view_equals_the_given_constraints(self, rng):
        inst = random_instance(rng, n=6, d=4, m=12)
        rebuilt = CspInstance._from_arrays(inst.n, inst.d, inst.con_a, inst.con_b,
                                           inst.pair_start, inst.codes)
        assert "constraints" not in vars(rebuilt)
        assert rebuilt == inst and hash(rebuilt) == hash(inst)
        assert rebuilt.constraints == inst.constraints

    def test_immutable(self):
        inst = small_pair_instance()
        with pytest.raises(AttributeError):
            inst.n = 3

    def test_pickle_holds_arrays_only(self, rng):
        inst = random_instance(rng, n=5, d=3, m=8)
        assert inst.constraints  # built, and still not pickled
        blob = pickle.dumps(inst)
        assert b"Constraint" not in blob
        clone = pickle.loads(blob)
        assert clone == inst and "constraints" not in vars(clone)
        assert not clone.codes.flags.writeable

    def test_pipeline_never_builds_constraint_objects(self):
        # the path of `rbcsp solve` and `convert` reads the arrays only
        params = phase_transition_params(30)
        inst, hidden = generate_forced(params, 1)
        text = dumps_csp(inst, hidden)
        parsed, solution = loads_csp(text)
        rec = run(parsed, UlsaConfig(max_iterations=3_000_000,
                                     target=TargetSpec(size=28, conflict_cap=8)), 0)
        assert rec.success and len(rec.subset) == 28
        assert dumps_csp(parsed, solution) == text
        assert csp_to_mis(parsed) == csp_to_mis(inst)
        assert parsed == inst and solution == hidden
        assert "constraints" not in vars(parsed) and "constraints" not in vars(inst)
        blob = pickle.dumps(parsed)
        assert b"Constraint" not in blob and pickle.loads(blob) == parsed


class TestBulkParse:
    def test_whitespace_tables_match_str_methods(self):
        spaces = [c for c in range(sys.maxunicode + 1) if chr(c).isspace()]
        breaks = [c for c in range(sys.maxunicode + 1)
                  if len(f"a{chr(c)}b".splitlines()) == 2]
        assert sorted(_SPACES) == spaces and sorted(_BREAKS) == breaks

    @pytest.mark.filterwarnings("error::DeprecationWarning")
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_layout_mutations_parse_to_the_same_instance(self, data):
        # line ends, field separators, indentation, blank and comment lines
        # anywhere: none of it changes what a document means
        r = random.Random(data.draw(st.integers(0, 2**30)))
        inst = random_instance(r, n=r.randint(2, 14), d=r.randint(2, 12), m=r.randint(0, 8),
                               max_pairs=20)  # two-digit values and variables too
        sol = assignment_of(random_values(r, inst.n, inst.d)) if r.random() < 0.5 else None
        canonical = dumps_csp(inst, sol, comments=["made by the test"])
        out = []
        for line in canonical.splitlines():
            sep = r.choice([" ", "\t", "  ", " \t", "\u3000", "\xa0"])
            pad = [r.choice(["", " ", "\t", "\x1f"]) for _ in range(2)]
            out.append(pad[0] + sep.join(line.split(" ")) + pad[1])
            for _ in range(r.choice([0, 0, 1, 2])):
                out.append(r.choice(["", "   ", "c inside", "c", "\tc x y z"]))
        ends = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1e", "\u2028"]
        text = "".join(line + r.choice(ends) for line in out)
        # a small chunk puts many chunk ends into the text
        with mock.patch.object(core, "_CHUNK", r.choice([1, 5, 40, core._CHUNK])):
            parsed, parsed_sol = loads_csp(text)
        assert parsed == inst
        assert parsed_sol == sol

    @pytest.mark.filterwarnings("error::DeprecationWarning")
    @pytest.mark.parametrize("kind, message", [
        ("word", "non-integer field"),
        ("sign", "outside domain"),
        ("two", "expected 'f <value_a> <value_b>'"),
        ("four", "expected 'f <value_a> <value_b>'"),
        ("outside", "outside a constraint block"),
        ("range", "outside domain"),
        ("repeat", "repeats in its constraint"),
    ])
    @settings(max_examples=15, deadline=None)
    @given(where=st.floats(0.2, 0.8))
    def test_buried_bad_f_line_reported_at_its_line(self, kind, message, where):
        inst, sol = generate_forced(phase_transition_params(40), 3)
        lines = dumps_csp(inst, sol).splitlines()
        f_at = [i for i, line in enumerate(lines) if line.startswith("f ")]
        # an 'f' line with an earlier 'f' line of its own block
        at = next(i for i in f_at[int(where * len(f_at)):] if lines[i - 1][0] == "f")
        if kind == "outside":
            at = next(i for i in f_at[int(where * len(f_at)):] if lines[i + 1][0] == "k") + 1
            lines.insert(at, "f 0 0")
        else:
            lines[at] = {"word": "f 1 x", "sign": "f -1 2", "two": "f 3",
                         "four": "f 1 2 3", "range": f"f 0 {inst.d}",
                         "repeat": lines[at - 1]}[kind]
        with pytest.raises(CspFormatError, match=rf"^line {at + 1}: .*{message}"):
            loads_csp("\n".join(lines) + "\n")

    @pytest.mark.parametrize("text, lineno, message", [
        # an 'f' line out of place wins over its own malformed fields
        ("p bcsp 2 2 1\nk 0 1 1\nf 0 0\nf 0\n", 4, "outside a constraint block"),
        # a bad value before a short block is reported first
        ("p bcsp 2 2 1\nk 0 1 2\nf 0 x\nk 0 1 1\nf 0 0\n", 3, "non-integer"),
        ("p bcsp 2 2 1\nk 0 1 2\nf 0 0\nk 0 1 1\nf 0 0\n", 4, "expected 2 'f' lines"),
        ("f 0 0\np bcsp 2 2 1\n", 1, "before 'p bcsp' header"),
        ("p bcsp 2 2 1\r\n\r\nk 0 1 1\r\nf 0 0\r\ns 0 5\r\n", 5, "'s' value outside"),
        ("p bcsp 2 2 1\x0bk 0 1 1\x0cf 0 0\rf 1 1\n", 4, "outside a constraint block"),
    ])
    def test_first_bad_line_wins(self, text, lineno, message):
        with pytest.raises(CspFormatError, match=rf"^line {lineno}: .*{message}"):
            loads_csp(text)

    @pytest.mark.filterwarnings("error::DeprecationWarning")
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="pbcskf 0123-\n\r\t\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000\u0663_+",
                   max_size=120))
    def test_fuzzed_unicode_layout_never_raises_unexpected(self, text):
        try:
            loads_csp(text)
        except CspFormatError:
            pass

    @pytest.mark.parametrize("text", [
        "p bcsp -1 99999999999999999999 0\nk 0 1 1\nf 0 0\n",
        "p bcsp 0 2 0\n",
        "p bcsp 2 2 1\nk 0 99999999999999999999 1\nf 0 0\n",
        "p bcsp 2 2 1\nk 0 1 99999999999999999999\nf 0 0\n",
        "p bcsp 2 2 1\nk 0 1 1\nf 0 99999999999999999999999\n",
        "p bcsp 2 2 1\nk 1 1 1\nf 0 0\n",
    ])
    def test_out_of_range_numbers_refused(self, text):
        with pytest.raises(CspFormatError):
            loads_csp(text)

    def test_int_syntax_as_python_reads_it(self):
        inst, _ = loads_csp("p bcsp 2 12 1\nk 0 1 2\nf +1 1_1\nf \u0663 007\n")
        assert inst.constraints[0].disallowed == ((1, 11), (3, 7))
