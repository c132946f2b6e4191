"""Combinatorial graph builders, audits, and counting checks."""

import itertools
import random
import sys
import tracemalloc

import pytest

from flipforge import flips, graphs, triangulation
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
)
from flipforge.phi import triangulation_from_permutation as phi
from flipforge.signing import SignedState
from flipforge.triangulation import Triangulation, all_triangulations, canonical_key, chord_code
from flipforge.words import block_coloring, exchange_witness, standardize

from reference import (
    DictUnionFind,
    adjacency,
    catalan_by_recurrence,
    commuting_diagram_check,
    edge_count,
    faces_by_ears,
    fibers_by_phi,
    flip_row,
    from_chord_code,
    graph_components,
    homogeneous_components,
    is_connected,
    is_simple,
    phi_morphism_check,
    reachability_by_states,
    reading_closure_check,
    signed_moves,
    signed_states,
    simple_triangulations,
    sylvester_class_by_neighbors,
    words_of_evaluation,
)
from refdata import CATALAN

# each suite's audit on a flip table of its own, as (n, seed) -> report
SUITE_AUDITS = {
    "ref1": lambda n, seed: signed_reachability_check(n, graphs.flip_table(n)),
    "fibers": lambda n, seed: fiber_report(n),
    "homogeneous": lambda n, seed: homogeneous_product_audit(n, graphs.flip_table(n), seed),
    "switched": lambda n, seed: switched_audit(n, graphs.flip_table(n)),
    "diagram": lambda n, seed: diagram_audit(n, graphs.flip_table(n)),
}


def lehmer(p):
    """The Lehmer code of p: digit k counts the later letters smaller than p[k]."""
    return tuple(sum(y < x for y in p[k + 1:]) for k, x in enumerate(p))


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

    def test_lehmer_rule_is_the_exchange_rule(self):
        moves = 0
        for n in range(8):
            for p in itertools.permutations(range(1, n + 1)):
                code = lehmer(p)
                for i in range(n - 1):
                    if p[i] > p[i + 1]:
                        continue
                    allowed = exchange_witness(p, i) is not None
                    assert allowed == (code[i] < code[i + 1])
                    if allowed:
                        moves += 1
                        swapped = p[:i] + (p[i + 1], p[i]) + p[i + 2:]
                        assert lehmer(swapped) == code[:i] + (code[i + 1] + 1, code[i]) + code[i + 2:]
        assert moves == 7945

    def test_sylvester_numbers_are_the_classes(self):
        for n in range(8):
            perms = list(itertools.permutations(range(1, n + 1)))
            numbers, count = graphs._sylvester_numbers(n)
            assert count == len(set(numbers)) == CATALAN[n]
            classes = [[] for _ in range(count)]
            for p, c in zip(perms, numbers):
                classes[c].append(p)
            # numbered in order of least rank, each class a whole sylvester class
            assert [perms.index(c[0]) for c in classes] == sorted(perms.index(c[0]) for c in classes)
            assert all(set(c) == sylvester_class_by_neighbors(c[0]) for c in classes)

    def test_groups_equal_the_phi_fibers(self):
        for n in range(8):
            perms = list(itertools.permutations(range(1, n + 1)))
            numbers, lasts, least = graphs._image_numbers(n)
            fibers = list(fibers_by_phi(n).values())  # in order of first appearance, so of least permutation
            groups = [set() for _ in least]
            for p, f in zip(perms, numbers):
                groups[f].add(p)
            assert groups == fibers and len(groups) == CATALAN[n]
            assert list(least.values()) == [min(f) for f in fibers]
            assert n == 0 or lasts == [p[-1] for p in perms]

    def test_group_keys_are_chord_codes(self):
        for n in range(7):
            perms = itertools.permutations(range(1, n + 1))
            numbers, _, least = graphs._image_numbers(n)
            keys = list(least)
            assert len(keys) == CATALAN[n]
            assert all(chord_code(phi(p)) == keys[f] for p, f in zip(perms, numbers))

    def test_numbers_are_the_unit_block_walk_of_the_diagram(self):
        # with mu = (1,)*n every rank is its own color, so both leaves read one walk
        for n in range(8):
            walked = graphs._std_words((1,) * n)
            number = {}
            for _, _, code in walked:
                number.setdefault(code, len(number))
            least = {}
            for _, sw, code in walked:
                least.setdefault(code, sw)
            numbers, lasts, least_by_walk = graphs._image_numbers(n)
            assert numbers == [number[code] for _, _, code in walked]
            assert least_by_walk == least and list(least_by_walk) == list(number)
            assert all(w == sw for w, sw, _ in walked)
            assert n == 0 or lasts == [sw[-1] for _, sw, _ in walked]

    def test_maps_each_fiber_once(self, monkeypatch):
        mapped = []
        real_phi = graphs.triangulation_from_permutation

        def counting_phi(sigma):
            mapped.append(sigma)
            return real_phi(sigma)

        monkeypatch.setattr(graphs, "triangulation_from_permutation", counting_phi)
        assert fiber_report(7)["pass"]
        assert len(mapped) == CATALAN[7] == 429
        assert mapped == [min(f) for f in fibers_by_phi(7).values()]

    def test_fails_when_the_classes_are_wrong(self, monkeypatch):
        monkeypatch.setattr(graphs, "_sylvester_numbers", lambda n: (list(range(24)), 24))  # all singletons
        rep = fiber_report(4)
        # each fiber with more than one member is split; a one-member fiber is still one class
        assert rep["class_mismatches"] == [canonical_key(t) for t, f in fibers_by_phi(4).items() if len(f) > 1]
        assert rep["count_matches"] and not rep["pass"]

    def test_a_merge_names_both_fibers(self, monkeypatch):
        numbers, count = graphs._sylvester_numbers(4)
        merged = [2 if c == 5 else c for c in numbers]
        monkeypatch.setattr(graphs, "_sylvester_numbers", lambda n: (merged, count - 1))
        rep = fiber_report(4)
        keys = [canonical_key(t) for t in fibers_by_phi(4)]
        assert rep["class_mismatches"] == [keys[2], keys[5]]
        assert not rep["pass"]

    def test_a_split_names_its_fiber_alone(self, monkeypatch):
        numbers, count = graphs._sylvester_numbers(4)
        split = numbers[:]
        split[max(r for r, c in enumerate(numbers) if c == 3)] = count  # the class's greatest rank leaves it
        assert split.count(3) > 0
        monkeypatch.setattr(graphs, "_sylvester_numbers", lambda n: (split, count + 1))
        rep = fiber_report(4)
        assert rep["class_mismatches"] == [canonical_key(list(fibers_by_phi(4))[3])]
        assert not rep["pass"]

    def test_fails_when_a_fiber_has_two_last_letters(self, monkeypatch):
        real = graphs._image_numbers

        def wrong_last(n):
            numbers, lasts, least = real(n)
            r = next(r for r, f in enumerate(numbers) if numbers.count(f) > 1)  # in a fiber with two members
            lasts[r] = lasts[r] % n + 1
            return numbers, lasts, least

        monkeypatch.setattr(graphs, "_image_numbers", wrong_last)
        rep = fiber_report(4)
        assert rep["class_mismatches"] == [] and rep["count_matches"]
        assert not rep["last_letter_constant"] and not rep["pass"]

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
            assert homogeneous_product_audit(7, graphs.flip_table(7))["pass"]
            counts.append(len(calls))
        assert counts[0] == counts[1] <= CATALAN[7]

    def test_seeded_audit_is_deterministic(self):
        a = homogeneous_product_audit(5, graphs.flip_table(5), seed=3)
        b = homogeneous_product_audit(5, graphs.flip_table(5), seed=3)
        assert a == b
        assert a["pass"]
        assert a["failures"] == []

    def test_fails_when_the_product_law_is_off_by_one(self, monkeypatch):
        monkeypatch.setattr(graphs, "catalan", lambda n: catalan(n) + 1)
        rep = homogeneous_product_audit(5, graphs.flip_table(5), seed=3)
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
            assert switched_audit(n, graphs.flip_table(n))["pass"]

    def test_no_flip_leaves_simplicity(self):
        # the filter of non-simple results never fires for n <= 7, yet flips are examined
        for n in range(1, 8):
            graphs_n = switched_audit(n, graphs.flip_table(n))["graphs"]
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
        assert switched_audit(7, graphs.flip_table(7))["pass"]
        simple = {t for mu in compositions(7, graphs.MAX_PARTS) for t in simple_triangulations(7, mu)}
        assert len(calls) == len(set(calls)) == 127  # of 429 shapes, each row once
        assert set(calls) == simple

    def test_audit_makes_no_canonical_keys(self, monkeypatch):
        calls = []
        real = graphs.canonical_key

        def counting(t):
            calls.append(t)
            return real(t)

        table = graphs.flip_table(7)  # built before the patch: its sort reads graphs.canonical_key
        monkeypatch.setattr(graphs, "canonical_key", counting)
        assert switched_audit(7, table)["pass"]
        assert calls == []


class TestReachability:
    def test_zero_missing_pairs_up_to_n7(self):
        components = []
        for n in range(1, 8):
            rep = signed_reachability_check(n, graphs.flip_table(n))
            assert rep["pass"], rep
            assert rep["missing_pairs"] == []
            assert rep["audit_violations"] == []
            assert rep["states"] == CATALAN[n] * 2**n
            components.append(rep["components"])
        assert components == [2, 6, 20, 68, 224, 726, 2328]

    def test_n8_counts(self):
        rep = signed_reachability_check(8, graphs.flip_table(8))
        assert rep["states"] == CATALAN[8] * 2**8 == 366080
        assert rep["components"] == 7440
        assert rep["pass"]

    def test_each_shape_is_flipped_once_per_call(self, monkeypatch):
        calls = count_rows(monkeypatch)
        # twice: a cache that outlives one call would make the second call cheaper
        for _ in range(2):
            calls.clear()
            assert signed_reachability_check(5, graphs.flip_table(5))["pass"]
            assert len(calls) == CATALAN[5]  # one row per shape, not one per signing


def count_rows(monkeypatch) -> list:
    """Record the shape of every ``ShapeTable._build_row`` call, one per row
    built, for the rest of the test, decoded from the chord code the row reads."""
    calls = []
    real_build = flips.ShapeTable._build_row

    def counting_build(table, i):
        calls.append(from_chord_code(table.n, table.codes[i]))
        return real_build(table, i)

    monkeypatch.setattr(flips.ShapeTable, "_build_row", counting_build)
    return calls


class TestFlipTable:
    def test_states_decode_in_signed_states_order(self):
        for n in range(6):
            table = graphs.flip_table(n)
            decoded = [SignedState(table.shape(i), flips.mask_signs(s, n)) for i in range(len(table.codes))
                       for s in range(1 << n)]
            assert decoded == signed_states(n)

    def test_integer_moves_are_the_signed_moves(self):
        for n in range(6):
            table = graphs.flip_table(n)
            shapes = list(map(table.shape, range(len(table.codes))))
            index = {t: i for i, t in enumerate(shapes)}
            assert table.index == {chord_code(t): i for i, t in enumerate(shapes)}
            assert [canonical_key(t) for t in shapes] == sorted(map(canonical_key, shapes))
            bits = {flips.mask_signs(s, n): s for s in range(1 << n)}
            for i, t in enumerate(shapes):
                row = flip_row(t)
                for s in range(1 << n):
                    moves = [(j, s ^ m) for j, m, _, _, _ in table.row(i) if s & m in (0, m)]
                    signed = list(signed_moves(row, flips.mask_signs(s, n)))
                    # integer moves decoded, and signed moves encoded, in diagonal order
                    assert [(table.shape(j), flips.mask_signs(s2, n)) for j, s2 in moves] == \
                        [(t2, signs2) for _, t2, signs2 in signed]
                    assert moves == [(index[t2], bits[signs2]) for _, t2, signs2 in signed]

    def test_rows_carry_the_face_labels(self):
        for n in range(1, 9):
            table = graphs.flip_table(n)
            rows = [table.row(i) for i in range(CATALAN[n])]
            assert len(table.codes) == len(rows) == CATALAN[n]  # every row read, no shape added
            for t, row in zip(map(table.shape, range(CATALAN[n])), rows):
                assert [(d, table.shape(j), b, c) for j, _, b, c, d in row] == flip_row(t)
                assert all(m == 1 << (n - b) | 1 << (n - c) for _, m, b, c, _ in row)

    def test_lazy_table_walks_every_shape(self, monkeypatch):
        # rows numbered by chord code against the oracle's flip_row, which
        # flips each diagonal by itself
        built = []
        monkeypatch.setattr(flips, "Triangulation", lambda n, diagonals: built.append(diagonals)
                            or Triangulation(n, diagonals))
        start = phi((3, 5, 1, 7, 2, 6, 4))
        table = flips.ShapeTable([start])
        i = 0
        while i < len(table.codes):
            table.row(i)
            i += 1
        # the walk numbers each code once, from the first row that meets it,
        # and builds no shape until one is read; the start shape is kept as given
        assert built == [] and len(table.codes) - 1 == CATALAN[7] - 1
        shapes = list(map(table.shape, range(CATALAN[7])))
        assert len(built) == CATALAN[7] - 1
        for t, row in zip(shapes, map(table.row, range(CATALAN[7]))):
            assert [(d, shapes[j], b, c) for j, _, b, c, d in row] == flip_row(t)
            assert all(m == 1 << (7 - b) | 1 << (7 - c) for _, m, b, c, _ in row)
        assert set(shapes) == set(all_triangulations(7))
        assert table.index == {chord_code(t): i for i, t in enumerate(shapes)}
        assert table.codes == list(map(chord_code, shapes))

    def test_flip_row_reads_the_face_ends_once(self, monkeypatch):
        calls = []
        real_face_ends = triangulation.face_ends

        def counting_face_ends(n, diagonals):
            calls.append(Triangulation(n, tuple(diagonals)))
            return real_face_ends(n, diagonals)

        # a row reads the face ends through the triangulation module
        monkeypatch.setattr(triangulation, "face_ends", counting_face_ends)
        table = graphs.flip_table(6)
        assert calls == []  # rows are built when read
        for i in range(CATALAN[6]):
            table.row(i)
            table.row(i)
        assert calls == list(map(table.shape, range(CATALAN[6])))  # one per row, in row order
        assert len(calls) == CATALAN[6] == 132
        assert not hasattr(triangulation, "edge_adjacency")  # no vertex adjacency to build

    def test_up_masks_are_the_faces_that_point_up(self):
        for n in range(9):
            table = graphs.flip_table(n)
            for t in map(table.shape, range(len(table.codes))):
                # face y points up when it lies on the edge {y-1, y}; faces found by clipping ears
                ups = sum(1 << f.y for f in faces_by_ears(t) if f.y >= 2 and f.x == f.y - 1)
                assert triangulation.up_mask(n, t.diagonals) == ups

    def test_reports_match_the_state_route(self):
        for n in range(6):
            rep = signed_reachability_check(n, graphs.flip_table(n))
            assert (rep["missing_pairs"], rep["audit_violations"]) == \
                reachability_by_states(graphs.flip_table(n), n)

    @pytest.mark.parametrize("corrupt, n", [
        pytest.param(corrupt, n, id=corrupt if n == 4 else f"{corrupt}-n{n}")
        for n in (4, 5) for corrupt in ("drop_faces_1_2", "one_bit_masks")
    ])
    def test_failure_text_and_order_match_the_state_route(self, corrupt, n):
        broken = graphs.flip_table(n)
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

    def test_reachability_at_n7_peaks_below_3_mib(self):
        table = graphs.flip_table(7)
        for i in range(CATALAN[7]):
            table.row(i)  # built first, so the peak counts only what the check itself holds
        tracemalloc.start()
        try:
            rep = signed_reachability_check(7, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep["pass"] and rep["states"] == CATALAN[7] << 7
        # about 2.1 MiB; keeping a set of roots per shape until the end would double it
        assert peak < 3 << 20


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
        assert diagram_audit(5, graphs.flip_table(5))["pass"]

    def test_audit_small(self):
        for n in range(1, 5):
            assert diagram_audit(n, graphs.flip_table(n))["pass"]

    def test_walk_is_each_word_standardized_and_mapped(self):
        # every mu the audits read to n = 7, a few 4-part ones, and empty parts
        mus = [mu for n in range(1, 8) for mu in compositions(n, 3)]
        mus += [(1, 1, 1, 1), (2, 1, 2, 1), (1, 3, 1, 2), (2, 2, 2, 2), (), (0, 2), (2, 0, 1)]
        for mu in mus:
            assert graphs._std_words(mu) == [(w, standardize(w), chord_code(phi(standardize(w))))
                                             for w in words_of_evaluation(mu)]

    @pytest.mark.parametrize("fault", ["shape", "colors"])
    def test_square_fails_under_a_wrong_image(self, monkeypatch, fault):
        real = graphs._std_words

        def wrong(mu):
            if fault == "shape":  # the image of the reversed standardization
                return [(w, sw, chord_code(phi(sw[::-1]))) for w, sw, _ in real(mu)]
            # each letter swaps its color for the mirror one, so it no longer colors its face
            return [(tuple(len(mu) + 1 - c for c in w), sw, code) for w, sw, code in real(mu)]

        monkeypatch.setattr(graphs, "_std_words", wrong)
        rep = graphs.diagram_report(graphs.flip_table(4), (2, 2))
        assert len(rep["square_failures"]) == rep["words"] == 6
        assert not diagram_audit(4, graphs.flip_table(4))["pass"]

    def test_an_image_outside_the_table_is_a_square_failure(self, monkeypatch):
        real = graphs._std_words
        monkeypatch.setattr(graphs, "_std_words", lambda mu: [(w, sw, -1) for w, sw, _ in real(mu)])
        rep = graphs.diagram_report(graphs.flip_table(4), (2, 2))
        assert rep["square_failures"] == [f"{w}: its image is not a triangulation of size 4"
                                          for w in words_of_evaluation((2, 2))]
        assert rep["image_size"] == 0 and not rep["image_is_all_simple"]
        assert not diagram_audit(4, graphs.flip_table(4))["pass"]

    def test_edge_check_needs_the_move_at_its_own_position(self, monkeypatch):
        # reversed standardizations are one move apart at n - 2 - i, not at i;
        # each move is checked once, from the word with the ascent at i
        real = graphs._std_words
        monkeypatch.setattr(graphs, "_std_words", lambda mu: [(w, sw[::-1], code) for w, sw, code in real(mu)])
        rep = graphs.diagram_report(graphs.flip_table(4), (2, 2))
        moved = [(w, i) for w in words_of_evaluation((2, 2)) for i in range(3) if w[i] < w[i + 1]]
        assert len(rep["edge_failures"]) == sum(i != 1 for _, i in moved) > 0
        assert rep["std_injective"]

    def test_each_move_is_checked_once_from_its_ascent(self, monkeypatch):
        # (2, 2, 1, 1) has one move, to (2, 1, 2, 1), whose ascent at 1 holds it;
        # (4, 3, 1, 2) standardizes no word of (2, 2), so std stays injective
        real = graphs._std_words
        monkeypatch.setattr(graphs, "_std_words", lambda mu: [
            (w, (4, 3, 1, 2) if w == (2, 2, 1, 1) else sw, code) for w, sw, code in real(mu)])
        rep = graphs.diagram_report(graphs.flip_table(4), (2, 2))
        assert rep["edge_failures"] == ["(2, 1, 2, 1)~(2, 2, 1, 1): standardizations are not one move apart"]
        assert rep["std_injective"]

    def test_maps_each_word_once(self, monkeypatch):
        mus, calls = [], []
        real = graphs._std_words

        def counting(mu):
            walked = real(mu)
            mus.append(mu)
            calls.extend(sw for _, sw, _ in walked)
            return walked

        monkeypatch.setattr(graphs, "_std_words", counting)
        assert diagram_audit(5, graphs.flip_table(5))["pass"]
        words = [w for mu in compositions(5, 3) for w in words_of_evaluation(mu)]
        assert mus == list(compositions(5, 3))  # one walk per mu maps all its words
        assert sorted(calls) == sorted(standardize(w) for w in words)

    def test_builds_no_triangulation_past_the_table(self):
        # matched by code object, so a construction anywhere is seen
        table = graphs.flip_table(6)
        calls = []
        init = triangulation.Triangulation.__init__.__code__

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is init:
                calls.append(frame.f_locals["diagonals"])

        sys.setprofile(profile)
        try:
            rep = diagram_audit(6, table)
        finally:
            sys.setprofile(None)
        assert rep["pass"]
        assert calls == []
        sys.setprofile(profile)  # and the hook does see a construction
        try:
            phi((2, 1))
        finally:
            sys.setprofile(None)
        assert calls == [((1, 3),)]

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
        real = graphs._std_words

        def counting(mu):
            walked = real(mu)
            calls.extend(w for w, _, _ in walked)
            return walked

        monkeypatch.setattr(graphs, "_std_words", counting)
        # and by the walk alone: matched by code object, so a call anywhere is seen
        called = []
        code = standardize.__code__

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                called.append(frame.f_locals["w"])

        sys.setprofile(profile)
        try:
            assert diagram_audit(5, graphs.flip_table(5))["pass"]
        finally:
            sys.setprofile(None)
        words = [w for mu in compositions(5, 3) for w in words_of_evaluation(mu)]
        assert sorted(calls) == sorted(words)
        assert called == []
        sys.setprofile(profile)  # and the hook does see a call
        try:
            standardize((2, 1))
        finally:
            sys.setprofile(None)
        assert called == [(2, 1)]


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
            table = graphs.flip_table(n)
            for mu in compositions(n, graphs.MAX_PARTS):
                eps = block_coloring(mu)
                simple = [i for i in range(len(table.codes)) if is_simple(table.shape(i), eps)]
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
    def test_flip_table_refuses_before_enumerating(self, monkeypatch):
        monkeypatch.delenv("FLIPFORGE_MAX_N", raising=False)
        calls = []
        monkeypatch.setattr(graphs, "all_triangulations", lambda n: calls.append(n) or [])
        for n, message in ((size_limit() + 1, "FLIPFORGE_MAX_N"), (-1, "nonnegative")):
            with pytest.raises(ValueError, match=message):
                graphs.flip_table(n)
        assert calls == []
        # the stub is the one read
        assert graphs.flip_table(size_limit()).codes == [] and calls == [size_limit()]

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
    def test_numbers_are_ordered_by_least_member(self):
        uf = UnionFind(10)
        # offsets 3 and -1: links 7-5, 9-7, 6-1, 3-2 and 4-4
        uf.union(3, -1, [(4, 6), (6, 8), (3, 2), (0, 3), (1, 5)])
        uf.union(0, 0, iter([]))  # any iterable of pairs, an empty one links nothing
        assert all(p <= x for x, p in enumerate(uf.parent))  # every pointer points down
        numbers, k = uf.components()
        # sets {0}, {1, 6}, {2, 3}, {4}, {5, 7, 9}, {8}: 4, 5, 7, 8 and 9 are
        # numbered below their sets' least members 4, 5 and 8
        assert (numbers, k) == ([0, 1, 2, 2, 3, 4, 1, 4, 5, 4], 6)

    def test_a_chain_is_one_component(self):
        uf = UnionFind(10)
        for x in range(9, 0, -1):
            uf.union(x, 0, [(0, x - 1)])
            assert all(p <= y for y, p in enumerate(uf.parent))
        assert uf.components() == ([0] * 10, 1)

    def test_partition_matches_the_reference(self):
        rng = random.Random(11)
        for size in (1, 2, 5, 30, 200):
            for _ in range(20):
                edges = [(rng.randrange(size), rng.randrange(size)) for _ in range(rng.randrange(2 * size))]
                ref = DictUnionFind(range(size))
                for a, b in edges:
                    ref.union(a, b)
                one_by_one, one_batch, generator = UnionFind(size), UnionFind(size), UnionFind(size)
                for a, b in edges:
                    one_by_one.union(a, b, [(0, 0)])
                    assert all(p <= x for x, p in enumerate(one_by_one.parent))
                a, b = rng.randrange(-size, size + 1), rng.randrange(-size, size + 1)
                one_batch.union(a, b, [(x - a, y - b) for x, y in edges])
                one_batch.union(a, b, [])  # an empty batch links nothing
                generator.union(-1, 1, ((x + 1, y - 1) for x, y in edges))
                for uf in (one_by_one, one_batch, generator):
                    assert all(p <= x for x, p in enumerate(uf.parent))
                    numbers, k = uf.components()
                    assert len(numbers) == size
                    assert list(dict.fromkeys(numbers)) == list(range(k))  # 0..K-1 by least member
                    groups = {}
                    for x, c in enumerate(numbers):
                        groups.setdefault(c, []).append(x)
                    assert sorted(groups.values()) == sorted(ref.groups().values())


class TestGraphSerialization:
    def test_components_of_disconnected_graph(self):
        g = {"kind": "toy", "vertices": ["a", "b", "c"], "edges": [["a", "b"]]}
        comps = graph_components(g)
        assert sorted(map(len, comps.values())) == [1, 2]
        assert not is_connected(g)
