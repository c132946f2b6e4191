"""Polygon triangulations: validity, faces, ears, simplicity, keys."""

import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from flipforge import triangulation
from flipforge.flips import ShapeTable
from flipforge.phi import colored_triangulation_from_word, triangulation_from_permutation
from flipforge.triangulation import (
    Face,
    Triangulation,
    all_triangulations,
    canonical_key,
    chord_code,
    face_ends,
    face_tree,
    faces,
    validate,
)

from reference import (
    boundary_edges,
    crossing,
    ears,
    edge_adjacency,
    faces_by_ears,
    from_chord_code,
    is_simple,
    third_vertex,
    triangulation_from_key,
    validate_by_crossings,
)
from refdata import CATALAN, PHI_235461


def tri(n, *diags):
    return Triangulation(n, tuple(diags))


def simple(t, eps):
    """Whether the library's one simplicity test passes t colored by eps."""
    return ShapeTable([t]).simple(eps) == [0]


class TestConstruction:
    def test_diagonals_are_normalized_and_sorted(self):
        assert Triangulation(3, ((3, 1), (0, 3))).diagonals == ((0, 3), (1, 3))

    @pytest.mark.parametrize("bad", [(0, 2, 3), (2,), ()])
    def test_diagonal_without_two_ends_raises(self, bad):
        with pytest.raises(ValueError):
            Triangulation(3, (bad, (0, 3)))


class TestCrossing:
    def test_examples(self):
        assert crossing((0, 2), (1, 3))
        assert not crossing((0, 2), (0, 3))
        assert not crossing((0, 2), (2, 4))

    @given(st.lists(st.integers(0, 12), min_size=4, max_size=4, unique=True))
    def test_symmetric(self, vs):
        d1, d2 = (vs[0], vs[1]), (vs[2], vs[3])
        d1, d2 = tuple(sorted(d1)), tuple(sorted(d2))
        assert crossing(d1, d2) == crossing(d2, d1)


class TestValidate:
    def test_square_single_diagonal_ok(self):
        assert validate(tri(2, (0, 2))) == []
        assert not validate(tri(2, (0, 2)))

    def test_overfull_square_rejected(self):
        problems = validate(tri(2, (0, 2), (1, 3)))
        assert problems  # wrong count and crossing

    def test_pentagon_example_ok(self):
        assert validate(tri(3, (1, 3), (0, 3))) == []

    def test_bad_inputs(self):
        assert validate(tri(2, (0, 5)))  # out of range
        assert validate(tri(2, (0, 1)))  # boundary edge is not a diagonal
        assert validate(tri(3, (0, 2), (2, 0)))  # duplicate after normalization
        assert validate(tri(3, (0, 2)))  # too few

    def test_diagonals_normalized_sorted(self):
        t = tri(3, (3, 0), (3, 1))
        assert t.diagonals == ((0, 3), (1, 3))

    @staticmethod
    def assert_as_oracle(t):
        # same verdict and first problem, except where the oracle names a
        # duplicate or a crossing first: then the count, or else the face-bases
        # test, refuses instead
        new, old = validate(t), validate_by_crossings(t)
        if old and old[0].startswith(("duplicate", "diagonals")):
            counts = [p for p in old if p.startswith("expected")]
            assert new == counts if counts else new and new[0].startswith("face bases"), (t, new, old)
        else:
            assert new[:1] == old[:1], (t, new, old)
        return new

    def test_every_multiset_of_chords_as_the_oracle(self):
        count = 0
        for n in range(7):
            chords = [(i, j) for i in range(n + 2) for j in range(i + 1, n + 2)]
            for diagonals in itertools.combinations_with_replacement(chords, max(n - 1, 0)):
                self.assert_as_oracle(Triangulation(n, diagonals))
                count += 1
        assert count == 212_745

    def test_seeded_lists_as_the_oracle(self):
        rng = random.Random(15)
        verdicts = set()
        for _ in range(20_000):
            n = rng.randint(-1, 10)
            if rng.random() < 0.5 and n > 1:  # one diagonal of a shape replaced
                diagonals = list(triangulation_from_permutation(rng.sample(range(1, n + 1), n)).diagonals)
                diagonals[rng.randrange(n - 1)] = tuple(sorted(rng.sample(range(n + 2), 2)))
            else:
                k = max(n - 1, 0) + rng.choice((-1, 0, 0, 1))
                diagonals = [tuple(sorted(rng.sample(range(-1, n + 4), 2))) for _ in range(max(k, 0))]
            problems = self.assert_as_oracle(Triangulation(n, tuple(diagonals)))
            verdicts.add(problems[0].split()[0] if problems else "valid")
        assert verdicts == {"n", "diagonal", "expected", "face", "valid"}

    def test_large_fan_and_oversized_count(self):
        fan = Triangulation(8000, tuple((0, k) for k in range(2, 8001)))
        start = time.perf_counter()
        assert validate(fan) == []
        assert validate(Triangulation(30_000_000, ())) == ["expected 29999999 diagonals for n=30000000, got 0"]
        assert time.perf_counter() - start < 1

    def test_face_bases_are_checked(self, monkeypatch):
        # ends read as if the diagonal (0, 3) were missing: the roof edge lies over no face
        real = triangulation.face_ends
        monkeypatch.setattr(triangulation, "face_ends",
                            lambda n, diagonals: real(n, diagonals[1:]))
        problems = validate(tri(3, (1, 3), (0, 3)))
        assert problems == ["face bases [(0, 3), (1, 3), (1, 4)] are not the diagonals "
                            "and the roof edge, each once"]


class TestEars:
    def test_examples(self):
        assert ears(tri(2, (0, 2))) == {1, 3}
        assert ears(tri(3, (1, 3), (0, 3))) == {2, 4}
        assert ears(tri(1)) == {0, 1, 2}

    def test_at_least_two_never_adjacent(self):
        for n in range(2, 7):
            for t in all_triangulations(n):
                e = ears(t)
                assert len(e) >= 2
                assert all(0 <= v <= n + 1 for v in e)
                for v in e:
                    assert (v + 1) % (n + 2) not in e


class TestFaces:
    def test_examples(self):
        assert faces(tri(1)) == [Face(0, 1, 2)]
        assert faces(tri(1))[0].label == 1
        assert set(faces(tri(2, (0, 2)))) == {Face(0, 1, 2), Face(0, 2, 3)}
        assert {f.label for f in faces(tri(3, (1, 3), (0, 3)))} == {1, 2, 3}

    def test_label_bijection_and_degree_law(self):
        for n in range(1, 7):
            for t in all_triangulations(n):
                fs = faces(t)
                assert len(fs) == n
                assert sorted(f.label for f in fs) == list(range(1, n + 1))
                assert len(t.diagonals) == n - 1
                # a vertex of degree d belongs to exactly d - 1 faces
                adj = edge_adjacency(t)
                for v in range(n + 2):
                    deg = len(adj[v])
                    assert sum(v in f for f in fs) == deg - 1

    def test_face_ends_are_the_extreme_neighbours(self):
        for n in range(9):
            for t in all_triangulations(n):
                adj = edge_adjacency(t)
                assert face_ends(n, t.diagonals) == ([min(adj[v]) for v in range(n + 2)],
                                        [max(adj[v]) for v in range(n + 2)])

    def test_matches_ear_clipping(self):
        for n in range(9):
            for t in all_triangulations(n):
                assert faces(t) == faces_by_ears(t)

    def test_face_tree_subtrees(self):
        # face y's subtree holds the hi[y] - lo[y] - 1 faces strictly between
        # lo[y] and hi[y], and the root, below the roof edge, holds all n
        for n in range(8):
            for t in all_triangulations(n):
                lo, hi, _ = face_tree(n, t.diagonals)
                below = {(lo[y], hi[y]): y for y in range(1, n + 1)}  # each face by its base
                assert sorted(below) == sorted(t.diagonals + ((0, n + 1),)) if n else not below
                for y in range(1, n + 1):
                    stack, subtree = [y], []
                    while stack:
                        x = stack.pop()
                        subtree.append(x)
                        stack += [below[s] for s in ((lo[x], x), (x, hi[x])) if s in below]
                    assert sorted(subtree) == list(range(lo[y] + 1, hi[y]))
                if n:
                    assert (lo[below[0, n + 1]], hi[below[0, n + 1]]) == (0, n + 1)

    def test_up_is_the_parent(self):
        # up[y] is the face with y below one of its sides; only the root has none
        for n in range(9):
            for t in all_triangulations(n):
                lo, hi, up = face_tree(n, t.diagonals)
                below = {(lo[y], hi[y]): y for y in range(1, n + 1)}
                parent = {below[s]: y for y in range(1, n + 1) for s in ((lo[y], y), (y, hi[y])) if s in below}
                assert up == [0] + [parent.get(y, 0) for y in range(1, n + 1)]
                assert up.count(0) == 2 if n else up == [0]

    def test_faces_are_genuine_triangles(self):
        for t in all_triangulations(5):
            edges = boundary_edges(5) | set(t.diagonals)
            for x, y, z in faces(t):
                assert x < y < z
                for e in ((x, y), (y, z), (x, z)):
                    assert e in edges


class TestThirdVertex:
    def test_examples(self):
        assert third_vertex(tri(2, (0, 2)), 1) == 0
        assert third_vertex(tri(2, (1, 3)), 1) == 3

    def test_order_signal_on_reading_image(self):
        # 3 precedes 4 in 235461, so the face on edge {3,4} points down
        t = triangulation_from_permutation((2, 3, 5, 4, 6, 1))
        assert third_vertex(t, 3) < 3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            third_vertex(tri(2, (0, 2)), 0)
        with pytest.raises(ValueError):
            third_vertex(tri(2, (0, 2)), 2)

    def test_matches_the_adjacency_route(self):
        # the one vertex joined to both ends of the edge, on every edge n <= 8
        for n in range(2, 9):
            for t in all_triangulations(n):
                adj = edge_adjacency(t)
                for i in range(1, n):
                    assert {third_vertex(t, i)} == adj[i] & adj[i + 1]

    def test_edge_without_a_unique_face(self):
        t = tri(3, (0, 2))  # one chord short: the edge {2, 3} bounds no face
        with pytest.raises(ValueError, match="unique face"):
            third_vertex(t, 2)
        # the simplicity test, like faces, requires a valid triangulation, which this is not
        assert validate(t) == ["expected 2 diagonals for n=3, got 1"]


class TestEnumeration:
    def test_counts_match_catalan(self):
        for n in range(0, 9):
            ts = list(all_triangulations(n))
            assert len(ts) == CATALAN[n]
            keys = {canonical_key(t) for t in ts}
            assert len(keys) == CATALAN[n]
            assert not any(validate(t) for t in ts)

    def test_hexagon_has_14_distinct_keys(self):
        assert len({canonical_key(t) for t in all_triangulations(4)}) == 14


class TestSimple:
    def test_image_of_colored_reading_is_simple(self):
        t, eps = colored_triangulation_from_word((2, 2, 3, 2, 3, 1))
        assert simple(t, eps)

    def test_equal_color_diagonal_rejected(self):
        t = tri(3, (1, 3), (0, 3))
        assert not simple(t, (1, 2, 1))

    def test_distinct_increasing_colors_always_simple(self):
        for t in all_triangulations(4):
            assert simple(t, (1, 2, 3, 4))

    def test_decreasing_colors_rejected(self):
        t = tri(2, (0, 2))
        assert not simple(t, (2, 1))

    def test_builds_no_adjacency(self):
        # the face ends alone decide; the vertex adjacency is a test oracle
        assert not hasattr(triangulation, "edge_adjacency")

    def test_agrees_with_literal_three_rules(self):
        # the definition, rule by rule on faces found by clipping ears, against
        # the mask rule of ShapeTable.simple: every weakly increasing coloring
        # for n <= 7, every coloring by 1..3 for n <= 5
        checks = 0
        for n in range(1, 8):
            colorings = [tuple(itertools.accumulate(steps, initial=1))
                         for steps in itertools.product((0, 1), repeat=n - 1)]
            if n <= 5:
                colorings += itertools.product((1, 2, 3), repeat=n)
            shapes = list(all_triangulations(n))
            table = ShapeTable(shapes)
            for eps in colorings:
                assert table.simple(eps) == [i for i, t in enumerate(shapes) if is_simple(t, eps)]
                checks += len(shapes)
        assert checks == 32_489 + sum(CATALAN[n] * 3 ** n for n in range(1, 6))


class TestKeys:
    def test_example(self):
        assert canonical_key(tri(2, (0, 2))) == "2:0-2"

    def test_round_trip_all_small(self):
        for n in range(0, 7):
            for t in all_triangulations(n):
                assert triangulation_from_key(canonical_key(t)) == t

    def test_equal_objects_equal_keys(self):
        assert canonical_key(tri(3, (3, 1), (0, 3))) == canonical_key(tri(3, (0, 3), (1, 3)))

    def test_chord_code_example(self):
        # bit i*(n+2)+j per diagonal (i, j): (0, 2) is bit 2 and (1, 3) bit 8
        assert chord_code(tri(2, (0, 2))) == 1 << 2
        assert chord_code(tri(3, (3, 1), (0, 3))) == 1 << 3 | 1 << 8
        assert from_chord_code(3, 1 << 3 | 1 << 8).diagonals == ((0, 3), (1, 3))
        assert chord_code(tri(0)) == 0 and from_chord_code(0, 0) == tri(0)

    def test_chord_code_round_trip(self):
        # the decoder is a test oracle: the library builds each shape by a flip
        assert not hasattr(triangulation, "from_chord_code")
        for n in range(0, 9):
            codes = set()
            for t in all_triangulations(n):
                code = chord_code(t)
                assert from_chord_code(n, code) == t
                codes.add(code)
            assert len(codes) == CATALAN[n]
        rng = random.Random(80)
        for w in (list(range(1, 81)), list(range(80, 0, -1)), rng.sample(range(1, 81), 80)):
            t = triangulation_from_permutation(tuple(w))
            code = chord_code(t)
            assert code.bit_length() > 64  # past a machine word
            assert from_chord_code(80, code) == t

    @given(st.integers(0, 6), st.randoms())
    def test_key_is_injective_on_samples(self, n, rng):
        ts = list(all_triangulations(n))
        a, b = rng.choice(ts), rng.choice(ts)
        assert (canonical_key(a) == canonical_key(b)) == (a == b)
