"""Combinatorial graph builders, audits, and counting checks."""

import itertools
import random

import pytest

from flipforge import flips, graphs, triangulation
from flipforge import phi as phi_module
from flipforge.graphs import (
    UnionFind,
    build_cayley_graph,
    build_flip_graph,
    build_signed_state_graph,
    catalan,
    compositions,
    diagram_audit,
    fiber_report,
    homogeneous_product_audit,
    signed_reachability_check,
    size_limit,
    switched_audit,
    switched_graph,
    words_of_evaluation,
)
from flipforge.phi import triangulation_from_permutation as phi
from flipforge.signing import SignedState
from flipforge.triangulation import all_triangulations, canonical_key, chord_code
from flipforge.words import block_coloring

from reference import (
    DictUnionFind,
    adjacency,
    catalan_by_recurrence,
    commuting_diagram_check,
    edge_count,
    faces_by_ears,
    fibers_by_phi,
    flip_row,
    graph_components,
    homogeneous_components,
    is_connected,
    phi_morphism_check,
    reachability_by_states,
    reading_closure_check,
    signed_moves,
    signed_states,
    simple_triangulations,
)
from refdata import CATALAN

# each suite's audit on a flip table of its own, as (n, seed) -> report
SUITE_AUDITS = {
    "ref1": lambda n, seed: signed_reachability_check(n, flips.flip_table(n)),
    "fibers": lambda n, seed: fiber_report(n),
    "homogeneous": lambda n, seed: homogeneous_product_audit(n, flips.flip_table(n), seed),
    "switched": lambda n, seed: switched_audit(n, flips.flip_table(n)),
    "diagram": lambda n, seed: diagram_audit(n, flips.flip_table(n)),
}


class TestCatalan:
    def test_values(self):
        assert [catalan(n) for n in range(10)] == list(CATALAN)

    def test_two_routes_agree(self):
        for n in range(13):
            assert catalan(n) == catalan_by_recurrence(n)


class TestFlipGraph:
    def test_square(self):
        g = build_flip_graph(2)
        assert len(g["vertices"]) == 2
        assert edge_count(g) == 1

    def test_pentagon_cycle(self):
        g = build_flip_graph(3)
        assert len(g["vertices"]) == 5
        assert edge_count(g) == 5
        assert all(len(ws) == 2 for ws in adjacency(g).values())
        assert is_connected(g)

    def test_hexagon_cubic(self):
        g = build_flip_graph(4)
        assert len(g["vertices"]) == 14
        assert all(len(ws) == 3 for ws in adjacency(g).values())

    def test_sizes_and_connectivity(self):
        for n in range(1, 9):
            g = build_flip_graph(n)
            assert len(g["vertices"]) == CATALAN[n]
            assert is_connected(g)
            if n >= 2:
                assert edge_count(g) == (n - 1) * CATALAN[n] // 2


class TestCayleyGraph:
    def test_s3(self):
        g = build_cayley_graph(3)
        assert len(g["vertices"]) == 6
        assert edge_count(g) == 6

    def test_degree_is_n_minus_one(self):
        for n in range(2, 6):
            g = build_cayley_graph(n)
            assert all(len(ws) == n - 1 for ws in adjacency(g).values())
            assert is_connected(g)


class TestSignedStateGraph:
    def test_counts(self):
        for n in range(1, 5):
            g = build_signed_state_graph(n)
            assert len(g["vertices"]) == CATALAN[n] * 2**n
        assert len(signed_states(3)) == 40

    def test_frozen_n3(self):
        g = build_signed_state_graph(3)
        assert len(g["vertices"]) == 40
        assert edge_count(g) == 20


class TestMorphism:
    def test_s2(self):
        rep = phi_morphism_check(2)
        assert rep["violations"] == []
        assert rep["edges"] == 1

    def test_frozen_n4(self):
        rep = phi_morphism_check(4)
        assert rep["violations"] == []
        assert rep["edges"] == 36
        assert rep["contracted"] == 10
        assert rep["flipped"] == 26
        assert rep["onto"]
        assert rep["distinct_images"] == 14

    def test_no_violations_up_to_n6(self):
        for n in range(1, 7):
            rep = phi_morphism_check(n)
            assert rep["violations"] == []
            assert rep["onto"]
            assert rep["contracted"] + rep["flipped"] == rep["edges"]


class TestFibers:
    def test_catalan_partition(self):
        for n in range(1, 7):
            rep = fiber_report(n)
            assert rep["count_matches"]
            assert rep["images"] == CATALAN[n]
            assert rep["class_mismatches"] == []
            assert rep["last_letter_constant"]

    def test_groups_equal_the_phi_fibers(self):
        for n in range(8):
            groups = graphs._image_groups(n)
            fibers = fibers_by_phi(n)
            assert {frozenset(g) for g in groups} == {frozenset(f) for f in fibers.values()}
            assert len(groups) == len(fibers) == CATALAN[n]
            # in the order phi first reaches each image, each group increasing
            assert [g[0] for g in groups] == [min(f) for f in fibers.values()]
            assert all(g == sorted(g) for g in groups)

    def test_group_keys_are_chord_codes(self):
        for n in range(7):
            groups = {}
            graphs._group_by_image([], list(range(-1, n + 1)), list(range(1, n + 3)), 0, n, groups)
            assert len(groups) == CATALAN[n]
            for key, words in groups.items():
                assert all(chord_code(phi(w)) == key for w in words)

    def test_maps_and_walks_each_fiber_once(self, monkeypatch):
        mapped, walked = [], []
        real_phi, real_class = graphs.triangulation_from_permutation, graphs.sylvester_class

        def counting_phi(sigma):
            mapped.append(sigma)
            return real_phi(sigma)

        def counting_class(w):
            walked.append(w)
            return real_class(w)

        monkeypatch.setattr(graphs, "triangulation_from_permutation", counting_phi)
        monkeypatch.setattr(graphs, "sylvester_class", counting_class)
        assert fiber_report(7)["pass"]
        assert len(mapped) == len(walked) == CATALAN[7] == 429
        assert mapped == [min(f) for f in fibers_by_phi(7).values()]

    def test_fails_when_the_classes_are_wrong(self, monkeypatch):
        monkeypatch.setattr(graphs, "sylvester_class", lambda w: frozenset({w}))
        rep = fiber_report(4)
        assert rep["class_mismatches"] != []
        assert not rep["pass"]

    def test_fails_when_two_groups_share_an_image(self, monkeypatch):
        monkeypatch.setattr(graphs, "triangulation_from_permutation", lambda sigma: phi((1, 2, 3)))
        rep = fiber_report(3)
        assert rep["images"] == 1 and len(rep["class_mismatches"]) == CATALAN[3] - 1
        assert not rep["pass"]

    def test_unknown_suite_is_refused_with_the_suite_names(self):
        with pytest.raises(ValueError) as info:
            graphs.run_battery(("nope",), 3)
        assert str(info.value) == "unknown suite 'nope'; expected one of ref1, fibers, homogeneous, switched, diagram"

    def test_every_suite_passes_at_n0(self):
        for audit in SUITE_AUDITS.values():
            rep = audit(0, 0)
            assert rep["n"] == 0 and rep["pass"]
        assert fiber_report(0)["last_letter_constant"]


class TestHomogeneous:
    def test_constant_coloring_reaches_everything(self):
        for n in range(1, 6):
            t = next(iter(all_triangulations(n)))
            rep = homogeneous_components(t, (1,) * n)
            assert rep["component_sizes"] == [n]
            assert rep["reachable"] == CATALAN[n]
            assert rep["matches_product"]

    def test_distinct_colors_reach_nothing(self):
        for t in all_triangulations(4):
            rep = homogeneous_components(t, (1, 2, 3, 4))
            assert rep["component_sizes"] == [1, 1, 1, 1]
            assert rep["reachable"] == 1

    def test_two_three_split_reaches_ten(self):
        witness = None
        for t in all_triangulations(5):
            rep = homogeneous_components(t, (1, 1, 2, 2, 2))
            if sorted(rep["component_sizes"]) == [2, 3]:
                witness = rep
                break
        assert witness is not None
        assert witness["expected_product"] == catalan(2) * catalan(3) == 10
        assert witness["reachable"] == 10
        assert witness["matches_product"]

    def test_product_law_everywhere_small(self):
        for n in range(1, 5):
            for t in all_triangulations(n):
                for eps in itertools.product(range(1, n + 1), repeat=n):
                    assert homogeneous_components(t, eps)["matches_product"]

    def test_start_row_is_built_once(self, monkeypatch):
        calls = count_rows(monkeypatch)
        t = next(iter(all_triangulations(7)))
        rep = homogeneous_components(t, (1, 2, 3, 4, 5, 6, 7))
        assert rep["reachable"] == 1
        assert calls == [t]  # one row: the union-find and the orbit walk share it

    def test_audit_flips_each_shape_once_per_call(self, monkeypatch):
        calls = count_rows(monkeypatch)
        counts = []
        for _ in range(2):  # a cache that outlived one call would make the second call cheaper
            calls.clear()
            assert homogeneous_product_audit(7, flips.flip_table(7))["pass"]
            counts.append(len(calls))
        assert counts[0] == counts[1] <= CATALAN[7]

    def test_seeded_audit_is_deterministic(self):
        a = homogeneous_product_audit(5, flips.flip_table(5), seed=3)
        b = homogeneous_product_audit(5, flips.flip_table(5), seed=3)
        assert a == b
        assert a["pass"]
        assert a["failures"] == []

    def test_fails_when_the_product_law_is_off_by_one(self, monkeypatch):
        monkeypatch.setattr(graphs, "catalan", lambda n: catalan(n) + 1)
        rep = homogeneous_product_audit(5, flips.flip_table(5), seed=3)
        assert not rep["pass"]
        assert len(rep["failures"]) == graphs.HOMOGENEOUS_SAMPLES == 50
        keys = {canonical_key(t) for t in all_triangulations(5)}
        for failure in rep["failures"]:
            assert failure["key"] in keys
            assert len(failure["eps"]) == 5
            assert sum(failure["component_sizes"]) == 5
            assert failure["reachable"] != failure["expected_product"]


class TestSwitched:
    def test_distinct_colors_reduce_to_flip_graph(self):
        for n in range(1, 6):
            g, rep = switched_graph(n, (1,) * n)
            f = build_flip_graph(n)
            assert rep["connected"] or n == 1
            assert len(g["vertices"]) == len(f["vertices"])
            assert edge_count(g) == edge_count(f)

    def test_constant_coloring_is_a_single_vertex(self):
        for n in range(1, 7):
            g, rep = switched_graph(n, (n,))
            assert len(g["vertices"]) == 1
            assert edge_count(g) == 0
            assert rep["connected"]

    def test_frozen_two_two(self):
        g, rep = switched_graph(4, (2, 2))
        assert len(g["vertices"]) == 3
        assert edge_count(g) == 2
        assert rep["connected"]

    def test_connected_for_every_composition_up_to_n6(self):
        for n in range(1, 7):
            for mu in compositions(n, n):
                g, rep = switched_graph(n, mu)
                assert rep["connected"], (n, mu)
                # the report counts shape indices; the keyed graph is a second route
                assert rep["vertices"] == len(g["vertices"])
                assert rep["edges"] == edge_count(g)
                assert rep["connected"] == is_connected(g)

    def test_audits_pass(self):
        for n in range(1, 6):
            assert switched_audit(n, flips.flip_table(n))["pass"]

    def test_no_flip_leaves_simplicity(self):
        # the filter of non-simple results never fires for n <= 7, yet flips are examined
        for n in range(1, 8):
            graphs_n = switched_audit(n, flips.flip_table(n))["graphs"]
            assert len(graphs_n) == sum(1 for _ in compositions(n, graphs.MAX_PARTS))
            assert [g["filtered_nonsimple"] for g in graphs_n] == [0] * len(graphs_n)
            assert n < 2 or any(g["edges"] for g in graphs_n)

    def test_vertices_are_exactly_the_simple_triangulations(self):
        for n in range(1, 6):
            for mu in compositions(n, 3):
                g, _ = switched_graph(n, mu)
                expected = {canonical_key(t) for t in simple_triangulations(n, mu)}
                assert set(g["vertices"]) == expected

    def test_audit_builds_rows_only_for_simple_shapes(self, monkeypatch):
        calls = count_rows(monkeypatch)
        assert switched_audit(7, flips.flip_table(7))["pass"]
        simple = {t for mu in compositions(7, graphs.MAX_PARTS) for t in simple_triangulations(7, mu)}
        assert len(calls) == len(set(calls)) == 127  # of 429 shapes, each row once
        assert set(calls) == simple

    def test_audit_makes_no_canonical_keys(self, monkeypatch):
        calls = []
        real = graphs.canonical_key

        def counting(t):
            calls.append(t)
            return real(t)

        # patched on graphs only: the sort inside flip_table reads the flips module's name
        monkeypatch.setattr(graphs, "canonical_key", counting)
        assert switched_audit(7, flips.flip_table(7))["pass"]
        assert calls == []


class TestReachability:
    def test_zero_missing_pairs_up_to_n7(self):
        components = []
        for n in range(1, 8):
            rep = signed_reachability_check(n, flips.flip_table(n))
            assert rep["pass"], rep
            assert rep["missing_pairs"] == []
            assert rep["audit_violations"] == []
            assert rep["states"] == CATALAN[n] * 2**n
            components.append(rep["components"])
        assert components == [2, 6, 20, 68, 224, 726, 2328]

    def test_n8_counts(self):
        rep = signed_reachability_check(8, flips.flip_table(8))
        assert rep["states"] == CATALAN[8] * 2**8 == 366080
        assert rep["components"] == 7440
        assert rep["pass"]

    def test_each_shape_is_flipped_once_per_call(self, monkeypatch):
        calls = count_rows(monkeypatch)
        # twice: a cache that outlives one call would make the second call cheaper
        for _ in range(2):
            calls.clear()
            assert signed_reachability_check(5, flips.flip_table(5))["pass"]
            assert len(calls) == CATALAN[5]  # one row per shape, not one per signing


def count_rows(monkeypatch) -> list:
    """Record the shape of every flips._quads call, one per row built, for
    the rest of the test."""
    calls = []
    real_quads = flips._quads

    def counting_quads(t):
        calls.append(t)
        return real_quads(t)

    monkeypatch.setattr(flips, "_quads", counting_quads)
    return calls


class TestFlipTable:
    def test_states_decode_in_signed_states_order(self):
        for n in range(6):
            table = flips.flip_table(n)
            decoded = [SignedState(t, flips.mask_signs(s, n)) for t in table.shapes for s in range(1 << n)]
            assert decoded == signed_states(n)

    def test_integer_moves_are_the_signed_moves(self):
        for n in range(6):
            table = flips.flip_table(n)
            index = {t: i for i, t in enumerate(table.shapes)}
            assert table.index == {chord_code(t): i for i, t in enumerate(table.shapes)}
            assert [canonical_key(t) for t in table.shapes] == sorted(map(canonical_key, table.shapes))
            bits = {flips.mask_signs(s, n): s for s in range(1 << n)}
            for i, t in enumerate(table.shapes):
                row = flip_row(t)
                for s in range(1 << n):
                    moves = [(j, s ^ m) for j, m, _, _, _ in table.row(i) if s & m in (0, m)]
                    signed = list(signed_moves(row, flips.mask_signs(s, n)))
                    # integer moves decoded, and signed moves encoded, in diagonal order
                    assert [(table.shapes[j], flips.mask_signs(s2, n)) for j, s2 in moves] == \
                        [(t2, signs2) for _, t2, signs2 in signed]
                    assert moves == [(index[t2], bits[signs2]) for _, t2, signs2 in signed]

    def test_rows_carry_the_face_labels(self):
        for n in range(1, 9):
            table = flips.flip_table(n)
            rows = [table.row(i) for i in range(CATALAN[n])]
            assert len(table.shapes) == len(rows) == CATALAN[n]  # every row read, no shape added
            for t, row in zip(table.shapes, rows):
                assert [(d, table.shapes[j], b, c) for j, _, b, c, d in row] == flip_row(t)
                assert all(m == 1 << (n - b) | 1 << (n - c) for _, m, b, c, _ in row)

    def test_lazy_table_walks_every_shape(self, monkeypatch):
        # rows numbered by chord code against the oracle's flip_row, which
        # flips each diagonal by itself
        built = []
        real = flips._flipped
        monkeypatch.setattr(flips, "_flipped", lambda t, quad: built.append(t) or real(t, quad))
        start = phi((3, 5, 1, 7, 2, 6, 4))
        table = flips.ShapeTable([start])
        i = 0
        while i < len(table.shapes):
            table.row(i)
            i += 1
        # _flipped decodes each shape once, from the first row that meets its code
        assert len(built) == len(table.shapes) - 1 == CATALAN[7] - 1
        for t, row in zip(table.shapes, map(table.row, range(CATALAN[7]))):
            assert [(d, table.shapes[j], b, c) for j, _, b, c, d in row] == flip_row(t)
            assert all(m == 1 << (7 - b) | 1 << (7 - c) for _, m, b, c, _ in row)
        assert set(table.shapes) == set(all_triangulations(7))
        assert table.index == {chord_code(t): i for i, t in enumerate(table.shapes)}

    def test_flip_row_reads_the_face_ends_once(self, monkeypatch):
        calls = []
        real_face_ends = triangulation.face_ends

        def counting_face_ends(t):
            calls.append(t)
            return real_face_ends(t)

        # a row reads the face ends through face_tree
        monkeypatch.setattr(triangulation, "face_ends", counting_face_ends)
        table = flips.flip_table(6)
        assert calls == []  # rows are built when read
        for i in range(CATALAN[6]):
            table.row(i)
            table.row(i)
        assert calls == table.shapes  # one per row, in row order
        assert len(calls) == CATALAN[6] == 132
        assert not hasattr(triangulation, "edge_adjacency")  # no vertex adjacency to build

    def test_up_masks_are_the_faces_that_point_up(self):
        for n in range(9):
            table = flips.flip_table(n)
            for i, t in enumerate(table.shapes):
                # face y points up when it lies on the edge {y-1, y}; faces found by clipping ears
                ups = sum(1 << f.y for f in faces_by_ears(t) if f.y >= 2 and f.x == f.y - 1)
                assert table.up(i) == triangulation.up_mask(t) == ups

    def test_reports_match_the_state_route(self):
        for n in range(6):
            rep = signed_reachability_check(n, flips.flip_table(n))
            assert (rep["missing_pairs"], rep["audit_violations"]) == \
                reachability_by_states(flips.flip_table(n), n)

    @pytest.mark.parametrize("corrupt", ["drop_faces_1_2", "one_bit_masks"])
    def test_failure_text_and_order_match_the_state_route(self, corrupt):
        n = 4
        broken = flips.flip_table(n)
        for i in range(CATALAN[n]):  # a row is built once, so editing it in place corrupts the table
            row = broken.row(i)
            if corrupt == "drop_faces_1_2":  # no flip across faces 1 and 2, in either direction
                row[:] = [e for e in row if e[2:4] != (1, 2)]
            else:  # flips across faces 2 and 3 negate face 2 alone, in either direction
                row[:] = [(j, 1 << (n - b) if (b, c) == (2, 3) else m, b, c, d) for j, m, b, c, d in row]
        rep = signed_reachability_check(n, broken)
        missing, violations = reachability_by_states(broken, n)
        assert rep["missing_pairs"] == missing
        assert rep["audit_violations"] == violations
        assert missing if corrupt == "drop_faces_1_2" else violations
        assert not rep["pass"]


class TestDiagram:
    def test_bbcbca_square(self):
        rep = commuting_diagram_check(6, (1, 3, 2))
        assert rep["square_failures"] == []
        assert rep["edge_failures"] == []
        assert rep["std_injective"]
        assert rep["image_is_all_simple"]

    def test_unit_blocks_degenerate(self):
        rep = commuting_diagram_check(4, (1, 1, 1, 1))
        assert rep["square_failures"] == []
        assert rep["image_size"] == CATALAN[4]

    def test_all_words_n5_two_colors(self):
        assert diagram_audit(5, flips.flip_table(5))["pass"]

    def test_audit_small(self):
        for n in range(1, 5):
            assert diagram_audit(n, flips.flip_table(n))["pass"]

    @pytest.mark.parametrize("fault", ["shape", "colors"])
    def test_square_fails_under_a_wrong_image(self, monkeypatch, fault):
        real = graphs.colored_triangulation_from_word

        def wrong(w):
            t, colors = real(w)
            if fault == "shape":  # the image of the reversed standardization
                return phi(graphs.standardize(w)[::-1]), colors
            return t, colors[::-1]

        monkeypatch.setattr(graphs, "colored_triangulation_from_word", wrong)
        rep = graphs.diagram_report(flips.flip_table(4), (2, 2))
        assert len(rep["square_failures"]) == rep["words"] == 6
        assert not diagram_audit(4, flips.flip_table(4))["pass"]

    def test_edge_check_needs_the_move_at_its_own_position(self, monkeypatch):
        # reversed standardizations are one move apart at n - 2 - i, not at i
        real = graphs.standardize
        monkeypatch.setattr(graphs, "standardize", lambda w: real(w)[::-1])
        rep = graphs.diagram_report(flips.flip_table(4), (2, 2))
        moved = [(w, i) for w in words_of_evaluation((2, 2)) for i in range(3) if w[i] != w[i + 1]]
        assert len(rep["edge_failures"]) == sum(i != 1 for _, i in moved) > 0
        assert rep["std_injective"]

    def test_maps_each_word_once(self, monkeypatch):
        calls = []
        real = phi_module.triangulation_from_permutation

        def counting(sigma):
            calls.append(sigma)
            return real(sigma)

        # phi is reached through colored_triangulation_from_word or directly
        monkeypatch.setattr(phi_module, "triangulation_from_permutation", counting)
        monkeypatch.setattr(graphs, "triangulation_from_permutation", counting)
        assert diagram_audit(5, flips.flip_table(5))["pass"]
        words = [w for mu in compositions(5, 3) for w in words_of_evaluation(mu)]
        assert sorted(calls) == sorted(graphs.standardize(w) for w in words)

    def test_shapes_are_enumerated_once_per_call(self, monkeypatch):
        calls = []
        real = graphs.flip_table

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(graphs, "flip_table", counting)
        # twice: a cache that outlives one call would make the second call cheaper
        for _ in range(2):
            calls.clear()
            assert diagram_audit(5, graphs.flip_table(5))["pass"]
            assert calls == [5]  # the caller's one enumeration serves all 11 mus

    def test_each_word_is_standardized_once(self, monkeypatch):
        calls = []
        real = graphs.standardize

        def counting(w):
            calls.append(w)
            return real(w)

        monkeypatch.setattr(graphs, "standardize", counting)
        assert diagram_audit(5, flips.flip_table(5))["pass"]
        words = [w for mu in compositions(5, 3) for w in words_of_evaluation(mu)]
        assert sorted(calls) == sorted(words)


class TestBattery:
    def test_unknown_suite_is_refused_before_any_table(self, monkeypatch):
        built = []
        monkeypatch.setattr(graphs, "flip_table", built.append)
        with pytest.raises(ValueError, match="unknown suite 'nope'; expected one of ref1, fibers"):
            graphs.run_battery(("ref1", "nope"), 3)
        assert built == []

    def test_reports_equal_the_per_suite_reports(self):
        n, seed = 6, 12345
        battery = graphs.run_battery(graphs.SUITES, n, seed)
        assert [report for report, _ in battery] == \
            [{**SUITE_AUDITS[s](k, seed), "suite": s} for s in graphs.SUITES for k in range(1, n + 1)]
        assert all(seconds >= 0 for _, seconds in battery)

    def test_simple_sets_are_the_is_simple_shapes(self):
        for n in range(1, 8):
            table = flips.flip_table(n)
            for mu in compositions(n, graphs.MAX_PARTS):
                eps = block_coloring(mu)
                simple = [i for i, t in enumerate(table.shapes) if triangulation.is_simple(t, eps)]
                assert table.simple(eps) == simple
                assert table.simple(eps[::-1]) == (simple if len(mu) == 1 else [])
                assert list(graphs._switched_graph(table, mu)[0]) == simple
                rep = graphs.diagram_report(table, mu)
                assert rep["simple_count"] == len(simple) and rep["image_is_all_simple"]


class TestReadingClosure:
    def test_clean_up_to_n5(self):
        for n in range(1, 6):
            rep = reading_closure_check(n)
            assert rep["failures"] == []
            assert rep["triangulations"] == CATALAN[n]


class TestCompositions:
    def test_n4_up_to_three_parts(self):
        got = set(compositions(4, 3))
        assert got == {
            (4,),
            (1, 3),
            (3, 1),
            (2, 2),
            (1, 1, 2),
            (1, 2, 1),
            (2, 1, 1),
        }

    def test_counts(self):
        for n in range(1, 8):
            assert len(list(compositions(n, n))) == 2 ** (n - 1)

    def test_yielded_in_increasing_order(self):
        # the switched and diagram audits list their reports in this order
        for n in range(9):
            for k in range(9):
                assert list(compositions(n, k)) == sorted(compositions(n, k))

    def test_words_of_evaluation(self):
        ws = list(words_of_evaluation((2, 1)))
        assert ws == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
        assert len(list(words_of_evaluation((1, 3, 2)))) == 60
        for mu in ((1, 3, 2), (2, 2), (3,), (1, 1, 1, 1), (0, 2), (2, 0, 1), (0, 0), ()):
            assert list(words_of_evaluation(mu)) == sorted(set(itertools.permutations(block_coloring(mu))))


class TestCaps:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("FLIPFORGE_MAX_N", "3")
        assert size_limit() == 3
        with pytest.raises(ValueError, match="cap"):
            build_flip_graph(4)
        monkeypatch.delenv("FLIPFORGE_MAX_N")
        assert build_flip_graph(4) is not None

    def test_env_cap_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("FLIPFORGE_MAX_N", "abc")
        with pytest.raises(ValueError) as info:
            size_limit()
        assert str(info.value) == "FLIPFORGE_MAX_N must be an integer, got 'abc'"

    def test_env_override_raises_the_cap(self, monkeypatch):
        monkeypatch.setenv("FLIPFORGE_MAX_N", "9")
        assert len(build_flip_graph(9)["vertices"]) == CATALAN[9]


class TestUnionFind:
    def test_roots_are_least_elements(self):
        uf = UnionFind(10)
        for a, b in [(7, 3), (9, 8), (3, 9), (5, 6), (6, 1), (4, 4)]:
            uf.union(a, b)
        assert all(p <= x for x, p in enumerate(uf.parent))  # every pointer points down
        roots = uf.roots()
        assert roots == [0, 1, 2, 3, 4, 1, 1, 3, 3, 3]

    def test_roots_agree_with_the_partition(self):
        uf = UnionFind(10)
        for x in range(9, 0, -1):
            uf.union(x, x - 1)
            assert all(p <= y for y, p in enumerate(uf.parent))
        assert uf.roots() == [0] * 10

    def test_partition_matches_the_reference(self):
        rng = random.Random(11)
        for size in (1, 2, 5, 30, 200):
            for _ in range(20):
                edges = [(rng.randrange(size), rng.randrange(size)) for _ in range(rng.randrange(2 * size))]
                uf, ref = UnionFind(size), DictUnionFind(range(size))
                for a, b in edges:
                    uf.union(a, b)
                    ref.union(a, b)
                    assert all(p <= x for x, p in enumerate(uf.parent))
                roots = uf.roots()
                groups = {}
                for x, root in enumerate(roots):
                    groups.setdefault(root, []).append(x)
                assert all(root == min(members) for root, members in groups.items())
                assert sorted(groups.values()) == sorted(ref.groups().values())


class TestGraphSerialization:
    def test_components_of_disconnected_graph(self):
        g = {"kind": "toy", "vertices": ["a", "b", "c"], "edges": [["a", "b"]]}
        comps = graph_components(g)
        assert sorted(map(len, comps.values())) == [1, 2]
        assert not is_connected(g)
