"""The shape map, readings, canonical readings, colored variant, insertion."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from flipforge.phi import (
    canonical_reading,
    colored_triangulation_from_word,
    insertion_trace,
    reading_count,
    readings,
    triangulation_from_permutation as phi,
)
from flipforge.triangulation import (
    Triangulation,
    all_triangulations,
    canonical_key,
    chord_code,
    faces,
)
from flipforge.words import standardize, sylvester_class
from flipforge.graphs import catalan

from reference import (
    canonical_reading_by_ears,
    colored_image_code,
    colored_readings,
    is_simple,
    readings_by_ears,
    third_vertex,
)
from refdata import (
    CLASS_BBCBCA,
    PHI_213,
    PHI_235461,
    PHI_324156,
    PHI_453126,
    READINGS_235461,
)

BBCBCA = (2, 2, 3, 2, 3, 1)


def perms(n):
    return itertools.permutations(range(1, n + 1))


class TestPhi:
    def test_two_letter_cases(self):
        assert set(phi((1, 2)).diagonals) == {(0, 2)}
        assert set(phi((2, 1)).diagonals) == {(1, 3)}

    def test_hand_built_213(self):
        assert set(phi((2, 1, 3)).diagonals) == PHI_213

    def test_frozen_images(self):
        assert set(phi((2, 3, 5, 4, 6, 1)).diagonals) == PHI_235461
        assert set(phi((3, 2, 4, 1, 5, 6)).diagonals) == PHI_324156
        assert set(phi((4, 5, 3, 1, 2, 6)).diagonals) == PHI_453126

    def test_constant_on_the_frozen_class(self):
        t = phi((2, 3, 5, 4, 6, 1))
        assert phi((2, 5, 3, 4, 6, 1)) == t
        assert phi((5, 2, 3, 4, 6, 1)) == t

    def test_surjective_up_to_n7(self):
        for n in range(1, 8):
            image = {canonical_key(phi(sigma)) for sigma in perms(n)}
            assert image == {canonical_key(t) for t in all_triangulations(n)}

    def test_fiber_count_is_catalan(self):
        for n in range(1, 7):
            image = {canonical_key(phi(sigma)) for sigma in perms(n)}
            assert len(image) == catalan(n)

    def test_order_law_and_run_law(self):
        # value i precedes i+1 iff the face on edge {i, i+1} points down;
        # along a maximal increasing run the face apexes weakly decrease
        for n in range(2, 8):
            for sigma in perms(n):
                t = phi(sigma)
                pos = {v: i for i, v in enumerate(sigma)}
                precedes = [pos[i] < pos[i + 1] for i in range(1, n)]
                thirds = [third_vertex(t, i) for i in range(1, n)]
                for i in range(1, n):
                    assert precedes[i - 1] == (thirds[i - 1] < i)
                i = 1
                while i < n:
                    j = i
                    while j < n and precedes[j - 1]:
                        j += 1
                    if j > i:  # run x_i .. x_j
                        run = [thirds[k - 1] for k in range(i, j)]
                        assert run == sorted(run, reverse=True)
                        assert run[0] < i  # t_i < x_i
                    i = j + 1

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            phi((1, 1, 2))


class TestReadings:
    def test_frozen_set(self):
        assert readings(phi((2, 3, 5, 4, 6, 1))) == READINGS_235461

    def test_singletons(self):
        assert readings(Triangulation(1, ())) == {(1,)}
        for n in range(1, 7):
            ident = tuple(range(1, n + 1))
            assert readings(phi(ident)) == {ident}

    def test_equals_ear_cutting(self):
        for n in range(8):
            for t in all_triangulations(n):
                assert readings(t) == readings_by_ears(t)

    def test_long_shape_has_one_reading(self):
        # the face tree of the identity is a path 2000 faces deep
        ident = tuple(range(1, 2001))
        assert readings(phi(ident)) == {ident}

    def test_equals_sylvester_class_everywhere(self):
        for n in range(1, 6):
            for t in all_triangulations(n):
                rs = readings(t)
                assert rs  # never empty
                member = next(iter(rs))
                assert rs == sylvester_class(member)
                assert all(phi(w) == t for w in rs)

    def test_hook_length_formula(self):
        # face (x, y, z) spans the z - x - 1 letters of a subtree, whose root y
        # is read after all of them: a shape has n! / prod(z - x - 1) readings
        for n in range(8):
            sizes = []
            for t in all_triangulations(n):
                hooks = math.prod(z - x - 1 for x, _, z in faces(t))
                assert math.factorial(n) % hooks == 0
                sizes.append(len(readings(t)))
                assert sizes[-1] == math.factorial(n) // hooks == reading_count(t)
            assert sum(sizes) == math.factorial(n)


class TestCanonicalReading:
    def test_examples(self):
        assert canonical_reading(phi((2, 3, 5, 4, 6, 1))) == (5, 2, 3, 4, 6, 1)
        assert canonical_reading(Triangulation(2, ((0, 2),))) == (1, 2)
        assert canonical_reading(Triangulation(1, ())) == (1,)

    def test_equals_ear_cutting(self):
        for n in range(9):
            for t in all_triangulations(n):
                assert canonical_reading(t) == canonical_reading_by_ears(t)

    def test_is_lexicographic_maximum(self):
        for n in range(1, 7):
            for t in all_triangulations(n):
                assert canonical_reading(t) == max(readings(t))


class TestColoredTriangulation:
    def test_frozen_image(self):
        t, eps = colored_triangulation_from_word(BBCBCA)
        assert set(t.diagonals) == PHI_235461
        assert eps == (1, 2, 2, 2, 3, 3)
        assert is_simple(t, eps)

    def test_class_members_share_the_image(self):
        images = {colored_triangulation_from_word(w) for w in CLASS_BBCBCA}
        assert len(images) == 1

    def test_constant_word_gives_simple_fan(self):
        t, eps = colored_triangulation_from_word((1, 1, 1))
        assert t == phi((1, 2, 3))
        assert eps == (1, 1, 1)
        assert is_simple(t, eps)

    def test_image_is_always_simple(self):
        for n in range(1, 6):
            for w in itertools.product((1, 2, 3), repeat=n):
                t, eps = colored_triangulation_from_word(w)
                assert is_simple(t, eps)
                assert t == phi(standardize(w))
                assert eps == tuple(sorted(w))


class TestColoredImageCode:
    def test_code_is_the_chord_code_of_phi_on_every_permutation_to_n7(self):
        for n in range(8):
            for sigma in itertools.permutations(range(1, n + 1)):
                assert colored_image_code(sigma, sigma) == (chord_code(phi(sigma)), tuple(range(1, n + 1)))

    def test_pair_is_the_colored_image_as_a_code(self):
        for n in range(1, 6):
            for w in itertools.product((1, 2, 3), repeat=n):
                t, eps = colored_triangulation_from_word(w)
                assert colored_image_code(w, standardize(w)) == (chord_code(t), eps)


class TestColoredReadings:
    def test_frozen_class(self):
        t, eps = colored_triangulation_from_word(BBCBCA)
        assert colored_readings(t, eps) == CLASS_BBCBCA
        assert colored_readings(t, eps) == sylvester_class(BBCBCA)

    def test_distinct_colors_reduce_to_plain_readings(self):
        for t in all_triangulations(4):
            assert colored_readings(t, (1, 2, 3, 4)) == readings(t)

    def test_rejects_non_simple(self):
        t = Triangulation(3, ((1, 3), (0, 3)))
        with pytest.raises(ValueError):
            colored_readings(t, (1, 2, 1))


class TestInsertion:
    def test_base_case(self):
        t, eps = insertion_trace((7,))[1]
        assert t == Triangulation(1, ())
        assert eps == (7,)

    def test_trace_of_bbcbca(self):
        trace = insertion_trace(BBCBCA)
        assert len(trace) == 7
        assert trace[0] == (Triangulation(0, ()), ())
        diag_steps = [set(t.diagonals) for t, _ in trace[1:]]
        assert diag_steps == [
            set(),
            {(1, 3)},
            {(1, 3), (1, 4)},
            {(1, 4), (1, 5), (2, 4)},
            {(1, 3), (1, 5), (1, 6), (3, 5)},
            PHI_235461,
        ]
        assert trace[-1] == colored_triangulation_from_word(BBCBCA)

    def test_fold_matches_phi_exhaustively(self):
        for n in range(1, 6):
            for w in itertools.product((1, 2, 3), repeat=n):
                assert insertion_trace(w)[-1] == colored_triangulation_from_word(w)

    def test_every_state_is_the_image_of_its_suffix(self):
        # the fold checks no state: state k is the image of the last k letters
        for n in range(1, 7):
            for w in itertools.product((1, 2, 3), repeat=n):
                trace = insertion_trace(w)
                assert trace == [colored_triangulation_from_word(w[n - k:]) for k in range(n + 1)]

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=7).map(tuple))
    def test_fold_matches_phi_random(self, w):
        assert insertion_trace(w)[-1] == colored_triangulation_from_word(w)
