"""CSP <-> independent-set graph bridge and DIMACS I/O tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbcsp.core import Constraint, CspInstance, SearchState
from rbcsp.misbridge import (
    DimacsFormatError,
    MisGraph,
    MisStructureError,
    _lines,
    csp_to_mis,
    emit_dimacs,
    mis_to_csp,
    parse_dimacs,
)
from rbcsp.target import TargetSpec, check_target

from conftest import assignment_of, random_instance, random_values


def dedup_union(instance: CspInstance) -> set[tuple[int, int, int, int]]:
    """Union of disallowed pairs keyed by unordered variable pair; oracle for
    the cross-edge count."""
    union = set()
    for c in instance.constraints:
        a, b = c.var_a, c.var_b
        for va, vb in c.disallowed:
            if a < b:
                union.add((a, b, va, vb))
            else:
                union.add((b, a, vb, va))
    return union


class TestCspToMis:
    def test_single_block_is_a_clique(self):
        inst = CspInstance(1, 3, ())
        graph = csp_to_mis(inst)
        assert graph.num_vertices == 3
        assert graph.edges == frozenset({(0, 1), (0, 2), (1, 2)})
        assert graph.block_size == 3

    def test_smallest_cross_case(self):
        inst = CspInstance(2, 2, (Constraint(0, 1, ((0, 0),)),))
        graph = csp_to_mis(inst)
        # vertex layout: (0,0)->0 (0,1)->1 (1,0)->2 (1,1)->3
        assert graph.num_vertices == 4
        assert graph.edges == frozenset({(0, 1), (2, 3), (0, 2)})

    def test_edge_count_formula(self, rng):
        for _ in range(20):
            n, d = rng.randint(1, 6), rng.randint(2, 4)
            m = rng.randint(0, 3 * n) if n > 1 else 0
            inst = random_instance(rng, n=max(n, 2), d=d, m=m)
            graph = csp_to_mis(inst)
            nn = inst.n
            expected = nn * d * (d - 1) // 2 + len(dedup_union(inst))
            assert graph.num_edges == expected

    def test_duplicate_constraints_collapse(self):
        c = Constraint(0, 1, ((0, 0),))
        once = csp_to_mis(CspInstance(2, 2, (c,)))
        twice = csp_to_mis(CspInstance(2, 2, (c, c)))
        assert once.edges == twice.edges


class TestMisToCsp:
    def test_round_trip_duplicate_free(self, rng):
        for _ in range(20):
            n, d = rng.randint(2, 5), rng.randint(2, 4)
            inst = random_instance(rng, n=n, d=d, m=rng.randint(0, 2 * n))
            if len({(min(c.var_a, c.var_b), max(c.var_a, c.var_b))
                    for c in inst.constraints}) != inst.num_constraints:
                continue  # keep only duplicate-free draws
            recovered = mis_to_csp(csp_to_mis(inst), d)
            assert recovered.n == inst.n and recovered.d == inst.d
            normalized = {
                (min(c.var_a, c.var_b), max(c.var_a, c.var_b)):
                frozenset(c.disallowed if c.var_a < c.var_b
                          else tuple((vb, va) for va, vb in c.disallowed))
                for c in inst.constraints
            }
            got = {
                (c.var_a, c.var_b): frozenset(c.disallowed)
                for c in recovered.constraints
            }
            assert got == normalized

    def test_single_block_no_constraints(self):
        graph = csp_to_mis(CspInstance(1, 3, ()))
        recovered = mis_to_csp(graph, 3)
        assert recovered.n == 1 and recovered.num_constraints == 0

    def test_missing_clique_edge_is_structure_error(self):
        # blocks of 2 need edge (0,1); only give a cross edge
        graph = MisGraph(4, frozenset({(0, 2), (1, 3), (2, 3)}))
        with pytest.raises(MisStructureError, match="block 0"):
            mis_to_csp(graph, 2)

    def test_later_block_missing_clique_edge_reported(self):
        # block 0 is complete, block 1 lacks (2,3); enough edges in total
        graph = MisGraph(4, frozenset({(0, 1), (0, 2), (1, 3)}))
        with pytest.raises(MisStructureError,
                           match=r"block 1 \(vertices 2\.\.3\) is not a clique: 0 of 1"):
            mis_to_csp(graph, 2)

    def test_too_few_edges_for_cliques(self):
        graph = MisGraph(6, frozenset({(0, 1), (1, 2), (3, 4)}))
        with pytest.raises(MisStructureError, match="clique"):
            mis_to_csp(graph, 3)

    @pytest.mark.parametrize("d", [1, 2])
    def test_oversized_graph_refused_before_allocating(self, d):
        with pytest.raises(ValueError, match="too large"):
            mis_to_csp(MisGraph(10**10, frozenset()), d)

    def test_bad_block_size(self):
        graph = MisGraph(4, frozenset({(0, 1)}))
        with pytest.raises(MisStructureError):
            mis_to_csp(graph, 3)

    def test_conflicts_equal_internal_edges(self, rng):
        # deduplicated conflict count == edges inside the selected vertices
        for _ in range(30):
            n, d = rng.randint(2, 5), rng.randint(2, 4)
            inst = random_instance(rng, n=n, d=d, m=rng.randint(1, 3 * n))
            graph = csp_to_mis(inst)
            dedup = mis_to_csp(graph, d)
            values = random_values(rng, n, d)
            chosen = {v * d + values[v] for v in range(n)}
            internal = sum(
                1 for u, w in graph.edges if u in chosen and w in chosen
            )
            state = SearchState(dedup, assignment_of(values))
            assert state.num_conflicts == internal

    def test_partial_solution_maps_to_independent_set(self, rng):
        # a conflict-free subset of size T picks T pairwise-nonadjacent vertices
        found = 0
        for trial in range(40):
            n, d = 8, 3
            inst = random_instance(rng, n=n, d=d, m=10, max_pairs=3)
            graph = csp_to_mis(inst)
            dedup = mis_to_csp(graph, d)
            state = SearchState(dedup, assignment_of(random_values(rng, n, d)))
            if state.num_conflicts > 6:
                continue
            subset = check_target(state, TargetSpec(size=n - 2, conflict_cap=6))
            if subset is None:
                continue
            found += 1
            chosen = {v * d + int(state.x[v]) for v in subset}
            assert len(chosen) == n - 2
            for u, w in graph.edges:
                assert not (u in chosen and w in chosen)
        assert found > 5


class TestDimacs:
    def test_round_trip(self):
        graph = MisGraph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
        parsed = parse_dimacs(emit_dimacs(graph))
        assert parsed.num_vertices == 3 and parsed.edges == graph.edges

    def test_emit_is_sorted_and_one_indexed(self):
        graph = MisGraph(3, frozenset({(1, 2), (0, 2)}))
        text = emit_dimacs(graph)
        assert text.splitlines() == ["p edge 3 2", "e 1 3", "e 2 3"]

    def test_comments_ignored(self):
        parsed = parse_dimacs("c hi\np edge 2 1\nc mid\ne 1 2\n")
        assert parsed.edges == frozenset({(0, 1)})

    def test_self_loop_rejected(self):
        with pytest.raises(DimacsFormatError, match="self-loop"):
            parse_dimacs("p edge 3 1\ne 1 1\n")

    def test_duplicate_edge_warns_and_dedups(self):
        with pytest.warns(UserWarning) as caught:
            parsed = parse_dimacs("p edge 2 2\ne 1 2\ne 2 1\n")
        assert parsed.edges == frozenset({(0, 1)})
        messages = [str(w.message) for w in caught]
        assert any("duplicate edge" in m for m in messages)
        assert any("declares 2 edges" in m for m in messages)  # count off after dedup

    def test_count_mismatch_warns(self):
        with pytest.warns(UserWarning, match="declares"):
            parse_dimacs("p edge 2 5\ne 1 2\n")

    @pytest.mark.parametrize(
        "text",
        [
            "e 1 2\n",                  # missing header
            "p edge 2\n",               # short header
            "p graph 2 1\ne 1 2\n",     # wrong tag
            "p edge 2 1\ne 0 1\n",      # 0-indexed vertex
            "p edge 2 1\ne 1 3\n",      # out of range
            "p edge 2 1\nq 1 2\n",      # unknown tag
            "p edge 2 1\np edge 2 1\n",  # duplicate header
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(DimacsFormatError):
            parse_dimacs(text)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet="ab \n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029",
                        max_size=60),
           chunk=st.integers(0, 8))
    def test_lines_split_like_splitlines(self, text, chunk):
        assert list(_lines(text, chunk)) == text.splitlines()

    def test_line_numbers_follow_splitlines(self):
        # \x0b, \x0c and a lone \r end lines; \r\n ends one
        with pytest.raises(DimacsFormatError, match="line 5: self-loop"):
            parse_dimacs("p edge 3 2\x0be 1 2\x0c\re 1 3\r\ne 2 2\n")

    def test_graph_from_plain_set_with_reversed_pairs(self):
        graph = MisGraph(3, {(1, 0), (2, 1), (0, 2), (0, 1)})
        assert graph == MisGraph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
        assert isinstance(graph.edges, frozenset)
        assert graph.sorted_edges() == [(0, 1), (0, 2), (1, 2)]

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            MisGraph(2, frozenset({(0, 0)}))
        with pytest.raises(ValueError):
            MisGraph(2, frozenset({(0, 5)}))
        with pytest.raises(ValueError):
            MisGraph(5, frozenset(), block_size=2)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="pedg ce0123456789-\n", max_size=200))
    def test_fuzzed_input_never_raises_unexpected(self, text):
        # malformed input must surface as DimacsFormatError, nothing else
        import warnings as _warnings

        try:
            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore")
                parse_dimacs(text)
        except DimacsFormatError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_corrupted_valid_documents_never_raise_unexpected(self, data):
        import random as _random
        import warnings as _warnings

        r = _random.Random(data.draw(st.integers(0, 2**30)))
        inst = random_instance(r, n=r.randint(2, 4), d=2, m=r.randint(1, 4))
        chars = list(emit_dimacs(csp_to_mis(inst)))
        for _ in range(data.draw(st.integers(1, 5))):
            idx = r.randrange(len(chars))
            roll = r.random()
            if roll < 0.4:
                chars[idx] = r.choice("0123456789 \npec-")
            elif roll < 0.7:
                chars[idx] = ""
            else:
                chars[idx] = chars[idx] + r.choice("0123456789")
        try:
            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore")
                parse_dimacs("".join(chars))
        except DimacsFormatError:
            pass
