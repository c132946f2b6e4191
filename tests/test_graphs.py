"""Combinatorial graph builders, audits, and counting checks."""

import itertools

import pytest

from flipforge import flips
from flipforge.graphs import (
    CombGraph,
    UnionFind,
    build_cayley_graph,
    build_flip_graph,
    build_signed_state_graph,
    catalan,
    catalan_by_recurrence,
    commuting_diagram_check,
    compositions,
    diagram_audit,
    fiber_report,
    graph_components,
    homogeneous_components,
    homogeneous_product_audit,
    is_connected,
    phi_morphism_check,
    reading_closure_check,
    signed_reachability_check,
    signed_states,
    simple_triangulations,
    size_limit,
    switched_audit,
    switched_graph,
    words_of_evaluation,
)
from flipforge.phi import triangulation_from_permutation as phi
from flipforge.triangulation import all_triangulations, canonical_key

from refdata import CATALAN


class TestCatalan:
    def test_values(self):
        assert [catalan(n) for n in range(10)] == list(CATALAN)

    def test_two_routes_agree(self):
        for n in range(13):
            assert catalan(n) == catalan_by_recurrence(n)


class TestFlipGraph:
    def test_square(self):
        g = build_flip_graph(2)
        assert len(g.vertices) == 2
        assert g.edge_count() == 1

    def test_pentagon_cycle(self):
        g = build_flip_graph(3)
        assert len(g.vertices) == 5
        assert g.edge_count() == 5
        assert all(len(g.adjacency[v]) == 2 for v in g.vertices)
        assert is_connected(g)

    def test_hexagon_cubic(self):
        g = build_flip_graph(4)
        assert len(g.vertices) == 14
        assert all(len(g.adjacency[v]) == 3 for v in g.vertices)

    def test_sizes_and_connectivity(self):
        for n in range(1, 9):
            g = build_flip_graph(n)
            assert len(g.vertices) == CATALAN[n]
            assert is_connected(g)
            if n >= 2:
                assert g.edge_count() == (n - 1) * CATALAN[n] // 2


class TestCayleyGraph:
    def test_s3(self):
        g = build_cayley_graph(3)
        assert len(g.vertices) == 6
        assert g.edge_count() == 6

    def test_degree_is_n_minus_one(self):
        for n in range(2, 6):
            g = build_cayley_graph(n)
            assert all(len(g.adjacency[v]) == n - 1 for v in g.vertices)
            assert is_connected(g)


class TestSignedStateGraph:
    def test_counts(self):
        for n in range(1, 5):
            g = build_signed_state_graph(n)
            assert len(g.vertices) == CATALAN[n] * 2**n
        assert len(signed_states(3)) == 40

    def test_frozen_n3(self):
        g = build_signed_state_graph(3)
        assert len(g.vertices) == 40
        assert g.edge_count() == 20


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

    def test_seeded_audit_is_deterministic(self):
        a = homogeneous_product_audit(5, samples=20, seed=3)
        b = homogeneous_product_audit(5, samples=20, seed=3)
        assert a == b
        assert a["pass"]
        assert a["failures"] == []


class TestSwitched:
    def test_distinct_colors_reduce_to_flip_graph(self):
        for n in range(1, 6):
            g, rep = switched_graph(n, (1,) * n)
            f = build_flip_graph(n)
            assert rep["connected"] or n == 1
            assert len(g.vertices) == len(f.vertices)
            assert g.edge_count() == f.edge_count()

    def test_constant_coloring_is_a_single_vertex(self):
        for n in range(1, 7):
            g, rep = switched_graph(n, (n,))
            assert len(g.vertices) == 1
            assert g.edge_count() == 0
            assert rep["connected"]

    def test_frozen_two_two(self):
        g, rep = switched_graph(4, (2, 2))
        assert len(g.vertices) == 3
        assert g.edge_count() == 2
        assert rep["connected"]

    def test_connected_for_every_composition_up_to_n6(self):
        for n in range(1, 7):
            for mu in compositions(n, n):
                _, rep = switched_graph(n, mu)
                assert rep["connected"], (n, mu)

    def test_audits_pass(self):
        for n in range(1, 6):
            assert switched_audit(n, max_parts=3)["pass"]

    def test_vertices_are_exactly_the_simple_triangulations(self):
        for n in range(1, 6):
            for mu in compositions(n, 3):
                g, _ = switched_graph(n, mu)
                expected = {canonical_key(t) for t in simple_triangulations(n, mu)}
                assert set(g.vertices) == expected


class TestReachability:
    def test_zero_missing_pairs_up_to_n7(self):
        for n in range(1, 8):
            rep = signed_reachability_check(n)
            assert rep["pass"], rep
            assert rep["missing_pairs"] == []
            assert rep["audit_violations"] == []
            assert rep["states"] == CATALAN[n] * 2**n

    def test_each_shape_is_flipped_once_per_call(self, monkeypatch):
        calls = []
        real_flip = flips.flip

        def counting_flip(t, d):
            calls.append(d)
            return real_flip(t, d)

        monkeypatch.setattr(flips, "flip", counting_flip)
        # twice: a cache that outlives one call would make the second call cheaper
        for _ in range(2):
            calls.clear()
            assert signed_reachability_check(5)["pass"]
            assert len(calls) == CATALAN[5] * 4  # one row per shape, not one per signing


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
        assert diagram_audit(5, max_parts=2)["pass"]

    def test_audit_small(self):
        for n in range(1, 5):
            assert diagram_audit(n, max_parts=3)["pass"]


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

    def test_words_of_evaluation(self):
        ws = list(words_of_evaluation((2, 1)))
        assert set(ws) == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}
        assert len(list(words_of_evaluation((1, 3, 2)))) == 60


class TestCaps:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("FLIPFORGE_MAX_N", "3")
        assert size_limit() == 3
        with pytest.raises(ValueError, match="cap"):
            build_flip_graph(4)
        monkeypatch.delenv("FLIPFORGE_MAX_N")
        assert build_flip_graph(4) is not None

    def test_explicit_max_n_wins(self):
        assert build_flip_graph(9, max_n=9).vertices


class TestUnionFind:
    def test_groups(self):
        uf = UnionFind("abcde")
        uf.union("a", "b")
        uf.union("d", "e")
        groups = uf.groups()
        assert sorted(map(sorted, groups.values())) == [["a", "b"], ["c"], ["d", "e"]]

    def test_find_path_compression(self):
        uf = UnionFind(range(10))
        for x in range(9):
            uf.union(x, x + 1)
        assert len({uf.find(x) for x in range(10)}) == 1


class TestGraphSerialization:
    def test_components_of_disconnected_graph(self):
        g = CombGraph(
            kind="toy",
            vertices=("a", "b", "c"),
            adjacency={"a": {"b"}, "b": {"a"}, "c": set()},
        )
        comps = graph_components(g)
        assert sorted(map(len, comps.values())) == [1, 2]
        assert not is_connected(g)
