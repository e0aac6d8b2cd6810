"""CSP <-> independent-set graph bridge and DIMACS I/O tests."""

from __future__ import annotations

import collections.abc
import hashlib
import pickle
import random
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbcsp import core, misbridge
from rbcsp.core import Constraint, CspInstance, SearchState, _line, dumps_csp, loads_csp
from rbcsp.misbridge import (
    MAX_VERTICES,
    DimacsFormatError,
    EdgeView,
    MisGraph,
    MisStructureError,
    csp_to_mis,
    emit_dimacs,
    mis_to_csp,
    parse_dimacs,
)
from rbcsp.modelrb import generate_forced, phase_transition_params
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

    def test_graph_equals_edge_by_edge_construction(self, rng):
        # duplicate constraints, some reversed, over a few variable pairs
        for _ in range(20):
            n, d = rng.randint(2, 6), rng.randint(1, 5)
            base = random_instance(rng, n=n, d=d, m=rng.randint(0, 6)).constraints
            cons = list(base)
            for c in base:
                if rng.random() < 0.5:
                    cons.append(c)
                if rng.random() < 0.5:
                    cons.append(Constraint(c.var_b, c.var_a,
                                           tuple((vb, va) for va, vb in c.disallowed)))
            rng.shuffle(cons)
            inst = CspInstance(n, d, cons)
            edges = {(v * d + a, v * d + b) for v in range(n)
                     for a in range(d) for b in range(a + 1, d)}
            for c in cons:
                for va, vb in c.disallowed:
                    u, w = c.var_a * d + va, c.var_b * d + vb
                    edges.add((min(u, w), max(u, w)))
            graph = csp_to_mis(inst)
            assert graph.sorted_edges() == sorted(edges)
            assert graph.num_vertices == n * d and graph.block_size == d

    def test_oversized_instance_refused_before_building_edges(self):
        # 2 variables of 4000 values: 16M clique edges, above MAX_CLIQUE_EDGES
        with pytest.raises(ValueError, match="too large"):
            csp_to_mis(CspInstance(2, 4000, ()))


class TestCanonical:
    def test_ascending_rows_come_back_unchanged(self):
        pairs = np.array([[0, 1], [0, 5], [1, 2], [1, 3], [4, 9]], dtype=np.int64)
        rows, repeats = misbridge._canonical(pairs.copy())
        assert np.array_equal(rows, pairs) and repeats.tolist() == []
        for few in (pairs[:0], pairs[:1]):
            rows, repeats = misbridge._canonical(few.copy())
            assert np.array_equal(rows, few) and repeats.tolist() == []

    @pytest.mark.parametrize("seed", range(5))
    def test_unsorted_rows_keep_their_first_copies(self, seed):
        # the rows once shuffled with repeats, and sorted but with adjacent
        # repeats: the distinct rows ascending, and the positions of every
        # later copy of a row
        r = random.Random(seed)
        distinct = sorted({tuple(sorted(r.sample(range(30), 2))) for _ in range(60)})
        rows = distinct + r.choices(distinct, k=25)
        r.shuffle(rows)
        for case in (rows, sorted(rows)):
            seen, later = set(), []
            for i, row in enumerate(case):
                if row in seen:
                    later.append(i)
                seen.add(row)
            got, repeats = misbridge._canonical(np.array(case, dtype=np.int64))
            assert [tuple(row) for row in got.tolist()] == distinct
            assert repeats.tolist() == later


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
        # _line reads the text again a piece of _CHUNK characters at a time
        lines = text.splitlines()
        with mock.patch.object(core, "_CHUNK", chunk):
            assert [_line(text, i) for i in range(len(lines))] == lines

    def test_line_numbers_follow_splitlines(self):
        # \x0b, \x0c and a lone \r end lines; \r\n ends one
        with pytest.raises(DimacsFormatError, match="line 5: self-loop"):
            parse_dimacs("p edge 3 2\x0be 1 2\x0c\re 1 3\r\ne 2 2\n")

    def test_graph_from_plain_set_with_reversed_pairs(self):
        graph = MisGraph(3, {(1, 0), (2, 1), (0, 2), (0, 1)})
        assert graph == MisGraph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
        assert isinstance(graph.edges, collections.abc.Set)
        assert frozenset(graph.edges) == {(0, 1), (1, 2), (0, 2)}
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


# Outcomes pinned from the line-by-line parser that the bulk parser replaced:
# the message of a refused text, or the edges and the warnings, in order, of
# an accepted one.  Whether duplicate warnings precede an error is not pinned.
PINNED_OUTCOMES = [
    ("p edge 3 1\ne 0 1\nq\n", "line 2: vertex in (0,1) outside 1..3"),
    ("p edge 3 2\ne 9 1\np edge 3 1\n", "line 2: vertex in (9,1) outside 1..3"),
    ("e 1 2\np edge 2 1\n", "line 1: 'e' line before 'p edge' header"),
    ("p edge 3 1\ne 1 2\np edge 3 1\n", "line 3: duplicate header"),
    ("p edge 3 1\ne 1 -2\n", "line 2: vertex in (1,-2) outside 1..3"),
    ("p edge 3 1\ne 1 x\n", "line 2: non-integer field in 'e 1 x'"),
    ("p edge 3 1\ne 1 2 3\n", "line 2: expected 'e <u> <v>', got 'e 1 2 3'"),
    ("p edge 3 1\ne 1 99999999999999999999999999\n",
     "line 2: vertex in (1,99999999999999999999999999) outside 1..3"),
    ("p edge 3 1\ne 1 \u0663\n", ([(0, 2)], [])),  # an Arabic-Indic digit 3
    ("c only\n", "missing 'p edge' header"),
    ("", "missing 'p edge' header"),
    ("p edge 3 3\ne 1 2\ne 2 1\ne 1 2\ne 2 3\n",
     ([(0, 1), (1, 2)], ["line 3: duplicate edge (2,1) dropped",
                         "line 4: duplicate edge (1,2) dropped",
                         "header declares 3 edges, found 2"])),
    ("p edge 3 1\ne 2 2\n", "line 2: self-loop on vertex 2"),
    ("p edge 3 1\ne\n", "line 2: expected 'e <u> <v>', got 'e'"),
    ("p edge 3 1\ne 1\n", "line 2: expected 'e <u> <v>', got 'e 1'"),
    ("p edge 3 1\ne 1 2\ne 2 1\ne 3 3\n", "line 4: self-loop on vertex 3"),
    ("p edge 3 1\ne 1 2\ne 2 1\nx\n", "line 4: unknown line tag 'x'"),
    ("p edge 3 1\nee 1 2\n", "line 2: unknown line tag 'ee'"),
    ("p edge 3 x\n", "line 1: non-integer header field in 'p edge 3 x'"),
    ("p edge -1 0\n", "line 1: negative count in header"),
    ("p edge 3\n", "line 1: expected 'p edge <V> <E>', got 'p edge 3'"),
    ("p edge 3 1\ne +1 2\n", ([(0, 1)], [])),
    ("p edge 3 1\ne 1_1 2\n", "line 2: vertex in (11,2) outside 1..3"),
    ("p edge 3 1\ne 4 1\ne 1 x\n", "line 2: vertex in (4,1) outside 1..3"),
    ("p edge 3 1\ne 1 x\ne 4 1\n", "line 2: non-integer field in 'e 1 x'"),
    ("p edge 3 0\n", ([], [])),
    ("p edge 0 0\ne 1 1\n", "line 2: vertex in (1,1) outside 1..0"),
    ("p edge 3 1\nc\ne 2 3\r\n", ([(1, 2)], [])),
    ("p edge 3 2\ne 1 2\ne 1 2\ne 0 2\n", "line 4: vertex in (0,2) outside 1..3"),
]


class TestBulkDimacs:
    @pytest.mark.parametrize("text, outcome", PINNED_OUTCOMES)
    def test_outcomes_pinned(self, text, outcome):
        if isinstance(outcome, str):
            with pytest.raises(DimacsFormatError) as info:
                parse_dimacs(text)
            assert str(info.value) == outcome
            return
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            graph = parse_dimacs(text)
        edges, messages = outcome
        assert graph.num_vertices == 3 and graph.sorted_edges() == edges
        assert [str(w.message) for w in caught] == messages

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_layout_mutations_parse_to_the_same_graph(self, data):
        # line ends, separators, padding, comment lines between 'e' lines and
        # 'e v u' for 'e u v': none of it changes what a document means
        r = random.Random(data.draw(st.integers(0, 2**30)))
        graph = csp_to_mis(generate_forced(phase_transition_params(10), r.randrange(8))[0])
        canonical = emit_dimacs(graph, comments=["made by the test"])
        out = []
        for line in canonical.splitlines():
            fields = line.split(" ")
            if fields[0] == "e" and r.random() < 0.3:
                fields[1:] = fields[:0:-1]
            sep = r.choice([" ", "\t", "  ", " \t"])
            pad = [r.choice(["", " ", "\t"]) for _ in range(2)]
            out.append(pad[0] + sep.join(fields) + pad[1])
            for _ in range(r.choice([0, 0, 0, 1, 2])):
                out.append(r.choice(["c between", "c", "\tc x y", ""]))
        text = "".join(line + r.choice(["\n", "\r\n", "\r", "\x0b", "\x0c"])
                       for line in out)
        # a small chunk puts many piece ends into the text
        with warnings.catch_warnings(), \
                mock.patch.object(core, "_CHUNK", r.choice([1, 5, 40, core._CHUNK])):
            warnings.simplefilter("error")  # no duplicate, no count mismatch
            parsed = parse_dimacs(text)
        assert parsed == parse_dimacs(canonical) == MisGraph(graph.num_vertices, graph.edges)

    def test_comment_lines_split_and_round_trip(self):
        graph = MisGraph(3, {(0, 1), (1, 2)})
        text = emit_dimacs(graph, comments=["a\nb\rc", "d"])
        assert text.splitlines() == ["c a", "c b", "c c", "c d", "p edge 3 2", "e 1 2", "e 2 3"]
        assert parse_dimacs(text) == graph

    def test_header_beyond_int64_vertices_refused(self):
        with pytest.raises(DimacsFormatError, match=r"^line 2: graph too large"):
            parse_dimacs(f"c\np edge {MAX_VERTICES + 1} 0\n")
        text = f"p edge {MAX_VERTICES} 1\ne 1 {MAX_VERTICES}\n"
        graph = parse_dimacs(text)
        assert graph.sorted_edges() == [(0, MAX_VERTICES - 1)]
        assert emit_dimacs(graph) == text  # names only the vertices that have edges


class TestArrayGraph:
    def test_edges_is_a_read_only_set_view(self):
        graph = MisGraph(5, [(1, 0), (3, 2), (0, 4), (0, 1)])
        edges = graph.edges
        assert isinstance(edges, collections.abc.Set)
        assert not isinstance(edges, collections.abc.MutableSet)
        assert list(edges) == [(0, 1), (0, 4), (2, 3)] and len(edges) == 3
        assert graph.pairs.tolist() == [[0, 1], [0, 4], [2, 3]]
        assert edges == {(0, 1), (2, 3), (0, 4)} == edges
        assert edges == MisGraph(5, edges).edges and edges != MisGraph(5, [(0, 1)]).edges
        for result in (edges & {(0, 1)}, edges | {(1, 2)}, edges - {(0, 1)},
                       edges ^ {(0, 1)}):
            assert type(result) is frozenset
        assert edges - {(0, 1)} == {(0, 4), (2, 3)}
        with pytest.raises(ValueError):
            graph.pairs[0, 0] = 2
        with pytest.raises(AttributeError):
            graph.num_vertices = 6

    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(
        lambda p: p[0] != p[1]), max_size=30))
    def test_membership_matches_a_set(self, pairs):
        graph = MisGraph(8, pairs)
        oracle = {(min(p), max(p)) for p in pairs}
        assert graph.sorted_edges() == sorted(oracle)
        for u in range(-1, 9):
            for v in range(-1, 9):
                assert ((u, v) in graph.edges) == ((u, v) in oracle)
        assert "ab" not in graph.edges and 3 not in graph.edges
        assert (0, 10**30) not in graph.edges and (0.5, 1) not in graph.edges

    def test_emit_bytes_pinned(self):
        inst, _ = generate_forced(phase_transition_params(20), 1)
        text = emit_dimacs(csp_to_mis(inst), comments=["x"])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "90f3a2aa7874f0fb3e6b51c094ac5516c7f5a334d5fa28aad9bd62b6f2f69372")

    def test_emit_slices_join_to_one_text(self):
        # frb scale writes several slices; a slice of 7 edges puts many
        # slice ends into a small graph
        graph = csp_to_mis(generate_forced(phase_transition_params(10), 1)[0])
        with mock.patch.object(misbridge, "_EMIT_SLICE", 7):
            sliced = emit_dimacs(graph, comments=["x"])
        assert sliced == emit_dimacs(graph, comments=["x"])
        assert sliced.splitlines()[2:] == [f"e {u + 1} {v + 1}" for u, v in graph.pairs.tolist()]

    def test_pipeline_never_builds_edge_tuples(self):
        # the path of `convert` and `recover` reads the arrays only
        inst, hidden = generate_forced(phase_transition_params(20), 1)

        def refuse(*args):
            raise AssertionError("edge tuples built")

        with mock.patch.object(EdgeView, "__iter__", refuse), \
                mock.patch.object(MisGraph, "sorted_edges", refuse):
            parsed, _ = loads_csp(dumps_csp(inst, hidden))
            graph = csp_to_mis(parsed)
            reparsed = parse_dimacs(emit_dimacs(graph))
            recovered = mis_to_csp(reparsed, inst.d)
            assert reparsed.edges == graph.edges and csp_to_mis(recovered) == graph

    def test_pickle_holds_the_array_only(self):
        graph = csp_to_mis(generate_forced(phase_transition_params(20), 1)[0])
        blob = pickle.dumps(graph)
        clone = pickle.loads(blob)
        assert clone == graph and hash(clone) == hash(graph)
        assert clone.edges == graph.edges and not clone.pairs.flags.writeable
        # the array's bytes and a few fields; a tuple per edge adds >= 5 bytes each
        assert graph.pairs.nbytes < len(blob) < graph.pairs.nbytes + 500
