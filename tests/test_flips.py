"""Flips: plain, signed, homogeneous, switched, and diagonal signings."""

import itertools

import pytest

from flipforge import flips
from flipforge.flips import (
    DiagonalSigning,
    flip,
    flip_between,
    flip_quad,
    flip_readings,
    homogeneous_neighbors,
    signed_flip,
    signed_flip_diagonal,
    switched_neighbors,
)
from flipforge.phi import (
    colored_triangulation_from_word,
    readings,
    triangulation_from_permutation as phi,
)
from flipforge.triangulation import (
    Triangulation,
    all_triangulations,
    faces,
    is_simple,
)
from flipforge.words import abs_word, block_coloring, sylvester_class
from flipforge.graphs import compositions, words_of_evaluation

from reference import (
    diagonal_signing_from_faces,
    face_signs_from_diagonals,
    flip_characterization,
    flip_readings_by_ears,
    flip_row,
    quad_by_adjacency,
    readings_exchange_oracle,
    signed_moves,
)
from refdata import CHAIN, CHAIN_FLIP_LABELS, CHAIN_KINDS, EPS_START


def tri(n, *diags):
    return Triangulation(n, tuple(diags))


def all_states(n, p):
    """Every simple colored triangulation with colors bounded by p."""
    for t in all_triangulations(n):
        for eps in itertools.product(range(1, p + 1), repeat=n):
            if is_simple(t, eps):
                yield t, eps


class TestFlip:
    def test_square(self):
        t2, quad = flip(tri(2, (0, 2)), (0, 2))
        assert t2 == tri(2, (1, 3))
        assert (quad.a, quad.b, quad.c, quad.d) == (0, 1, 2, 3)
        assert quad.old == (0, 2) and quad.new == (1, 3)

    def test_involution_everywhere(self):
        for n in range(2, 7):
            for t in all_triangulations(n):
                for d in t.diagonals:
                    t2, quad = flip(t, d)
                    assert t2 != t
                    back, quad2 = flip(t2, quad.new)
                    assert back == t
                    assert quad2.new == d

    def test_rows_match_the_adjacency_quads(self):
        for n in range(9):
            for t in all_triangulations(n):
                expected = []
                for d in t.diagonals:
                    quad = quad_by_adjacency(t, d)
                    assert flip_quad(t, d) == quad
                    t2 = Triangulation(n, tuple(e for e in t.diagonals if e != d) + (quad.new,))
                    expected.append((d, t2, quad.b, quad.c))
                table = flips.ShapeTable([t])
                assert [(d, table.shapes[j], b, c) for j, _, b, c, d in table.row(0)] == expected
                assert flip_row(t) == expected

    def test_quad_labels_are_the_middle_pair(self):
        t = phi((1, 2, 3))
        quad = flip_quad(t, (0, 3))
        assert (quad.a, quad.b, quad.c, quad.d) == (0, 2, 3, 4)
        assert quad.labels == (2, 3)
        assert set(quad.sides()) == {(0, 2), (2, 3), (3, 4), (0, 4)}

    def test_label_multiset_preserved_incidence_local(self):
        for n in range(2, 6):
            for t in all_triangulations(n):
                before = {f.label: f for f in faces(t)}
                for d in t.diagonals:
                    t2, quad = flip(t, d)
                    after = {f.label: f for f in faces(t2)}
                    assert set(before) == set(after) == set(range(1, n + 1))
                    changed = {lab for lab in before if before[lab] != after[lab]}
                    assert changed == set(quad.labels)

    def test_flip_requires_a_diagonal(self):
        with pytest.raises(ValueError):
            flip(tri(2, (0, 2)), (1, 3))


class TestFlipCharacterization:
    def test_identical_pair(self):
        t = tri(2, (0, 2))
        assert flip_characterization(t, t) is None

    def test_square_pair(self):
        w1, w2 = flip_characterization(tri(2, (0, 2)), tri(2, (1, 3)))
        assert (w1, w2) == ((1, 2), (2, 1))

    def test_equals_ear_cutting(self):
        for n in range(8):
            for t in all_triangulations(n):
                for d in t.diagonals:
                    t2, quad = flip(t, d)
                    assert flip_readings(t, quad, t2) == flip_readings_by_ears(t, quad)

    def test_refuses_letters_not_read_after_the_inside(self):
        # a quadrilateral 0 < 1 < 3 < 4 on (0, 3): face 1 is ready at once, but
        # face 3 waits for face 2, the one face inside
        t = tri(3, (0, 2), (0, 3))
        t2, quad = flip(t, (0, 3))
        quad = quad._replace(b=1)
        with pytest.raises(AssertionError):
            flip_readings(t, quad, t2)
        with pytest.raises(AssertionError):
            flip_readings_by_ears(t, quad)

    def test_exhaustive_audit(self):
        for n in range(2, 6):
            ts = list(all_triangulations(n))
            for t1, t2 in itertools.combinations(ts, 2):
                witness = flip_characterization(t1, t2)
                diff = set(t1.diagonals) ^ set(t2.diagonals)
                if len(diff) != 2:
                    assert witness is None
                    continue
                d_old = next(d for d in diff if d in t1.diagonals)
                quad = flip_quad(t1, d_old)
                if flip(t1, d_old)[0] != t2:
                    assert witness is None
                    continue
                w1, w2 = witness
                assert w1 in readings(t1) and w2 in readings(t2)
                k = next(i for i in range(n) if w1[i] != w2[i])
                x, z = sorted((w1[k], w1[k + 1]))
                assert (w2[k], w2[k + 1]) == (w1[k + 1], w1[k])
                assert w1[k + 2 :] == w2[k + 2 :] and w1[:k] == w2[:k]
                assert {x, z} == set(quad.labels)
                assert not any(x <= y < z for y in w1[k + 2 :])


class TestFlipBetween:
    def test_returns_the_quad_of_a_flip(self):
        for n in range(2, 6):
            for t in all_triangulations(n):
                for d in t.diagonals:
                    t2, quad = flip(t, d)
                    assert flip_between(t, t2) == quad

    def test_none_when_not_one_flip_apart(self):
        t = tri(3, (0, 2), (0, 3))
        assert flip_between(t, t) is None
        two_apart = flip(flip(t, (0, 2))[0], (0, 3))[0]
        assert len(set(t.diagonals) - set(two_apart.diagonals)) == 2
        assert flip_between(t, two_apart) is None
        assert flip_between(tri(2, (0, 2)), t) is None


class TestSignedFlip:
    def test_square_both_positive(self):
        assert signed_flip(tri(2, (0, 2)), (1, 1), (0, 2)) == (tri(2, (1, 3)), (-1, -1))

    def test_mixed_signs_refused(self):
        assert signed_flip(tri(2, (0, 2)), (1, -1), (0, 2)) is None

    def test_exactly_two_sign_changes_at_the_quad(self):
        for n in range(2, 6):
            for t in all_triangulations(n):
                for signs in itertools.product((1, -1), repeat=n):
                    for d in t.diagonals:
                        labels = set(flip_quad(t, d).labels)
                        result = signed_flip(t, signs, d)
                        same = len({signs[i - 1] for i in labels}) == 1
                        assert (result is not None) == same
                        if result is None:
                            continue
                        t2, signs2 = result
                        assert t2 == flip(t, d)[0]
                        changed = {
                            i + 1 for i in range(n) if signs[i] != signs2[i]
                        }
                        assert changed == labels

    def test_chain_replay_at_the_triangulation_level(self):
        # walk the signed word chain; each exchanged-pair step is a signed
        # flip whose quad labels match the recorded sequence
        signs = list(EPS_START)
        t = phi(abs_word(CHAIN[0]))
        flips_seen = []
        for w1, w2, kind in zip(CHAIN, CHAIN[1:], CHAIN_KINDS):
            t_next = phi(abs_word(w2))
            if kind == "K1":
                assert t_next == t
                continue
            diff = set(t.diagonals) ^ set(t_next.diagonals)
            d_old = next(d for d in diff if d in t.diagonals)
            result = signed_flip(t, tuple(signs), d_old)
            assert result is not None
            t2, new_signs = result
            assert t2 == t_next
            flips_seen.append(frozenset(flip_quad(t, d_old).labels))
            signs = list(new_signs)
            t = t_next
        assert tuple(flips_seen) == CHAIN_FLIP_LABELS
        # the final signs equal the letter signs of the last chain word
        by_value = sorted((abs(a), 1 if a > 0 else -1) for a in CHAIN[-1])
        assert tuple(s for _, s in by_value) == tuple(signs)


class TestHomogeneous:
    def test_constant_coloring_gives_all_flips(self):
        for t in all_triangulations(4):
            nbrs = homogeneous_neighbors(t, (1, 1, 1, 1))
            assert len(nbrs) == len(t.diagonals)
            assert all(eps == (1, 1, 1, 1) for _, eps in nbrs)

    def test_distinct_colors_give_none(self):
        for t in all_triangulations(4):
            assert homogeneous_neighbors(t, (1, 2, 3, 4)) == []

    def test_count_equals_monochrome_quad_flips(self):
        for n in range(2, 6):
            for t, eps in all_states(n, 3):
                expected = sum(
                    1
                    for d in t.diagonals
                    if len({eps[i - 1] for i in flip_quad(t, d).labels}) == 1
                )
                assert len(homogeneous_neighbors(t, eps)) == expected

    def test_colors_never_change(self):
        for t, eps in all_states(4, 2):
            for t2, eps2 in homogeneous_neighbors(t, eps):
                assert eps2 == eps
                assert t2 != t


class TestSwitched:
    def test_distinct_colors_give_all_flips_and_stay_simple(self):
        for n in range(2, 6):
            eps = tuple(range(1, n + 1))
            for t in all_triangulations(n):
                nbrs = switched_neighbors(t, eps)
                assert len(nbrs) == n - 1
                assert all(is_simple(t2, e2) for t2, e2 in nbrs)

    def test_constant_coloring_gives_none(self):
        for t in all_triangulations(4):
            if is_simple(t, (1, 1, 1, 1)):
                assert switched_neighbors(t, (1, 1, 1, 1)) == []

    def test_count_equals_bichrome_flips_that_stay_simple(self):
        for t, eps in all_states(4, 3):
            nbrs = switched_neighbors(t, eps)
            assert all(is_simple(t2, e2) for t2, e2 in nbrs)
            expected = sum(
                1
                for d in t.diagonals
                if len({eps[i - 1] for i in flip_quad(t, d).labels}) == 2
                and is_simple(flip(t, d)[0], eps)
            )
            assert len(nbrs) == expected

    def test_requires_simple_input(self):
        with pytest.raises(ValueError):
            switched_neighbors(tri(2, (0, 2)), (2, 1))

    def test_agrees_with_reading_exchange_oracle(self):
        # switched adjacency matches the two-readings characterization
        for n in range(2, 5):
            for mu in compositions(n, 3):
                states = {
                    colored_triangulation_from_word(w)
                    for w in words_of_evaluation(mu)
                }
                for (t1, e1) in states:
                    nbrs = {t2 for t2, _ in switched_neighbors(t1, e1)}
                    for (t2, e2) in states:
                        if t1 == t2 or e1 != e2:
                            continue
                        assert (t2 in nbrs) == readings_exchange_oracle(t1, t2, e1)


class TestNeighboursAgainstTheOracle:
    """The helpers read ShapeTable.row; the oracle flips one public diagonal
    at a time.  Both list results in diagonal order."""

    def test_object_rows_left_the_library(self):
        assert not hasattr(flips, "flip_row")
        assert not hasattr(flips, "signed_moves")

    def test_signed_flip_under_every_signing(self):
        for n in range(7):
            for t in all_triangulations(n):
                row = flip_row(t)
                for signs in itertools.product((-1, 1), repeat=n):
                    got = [(d, signed_flip(t, signs, d)) for d in t.diagonals]
                    want = {d: (t2, signs2) for d, t2, signs2 in signed_moves(row, signs)}
                    assert got == [(d, want.get(d)) for d in t.diagonals]

    def test_homogeneous_and_switched_under_every_block_coloring(self):
        switched_seen = 0
        for n in range(7):
            colorings = [block_coloring(mu) for mu in compositions(n, 3)]
            for t in all_triangulations(n):
                row = flip_row(t)
                for eps in colorings:
                    assert homogeneous_neighbors(t, eps) == \
                        [(t2, eps) for _, t2, b, c in row if eps[b - 1] == eps[c - 1]]
                    if not is_simple(t, eps):
                        continue
                    want = [(t2, eps) for _, t2, b, c in row
                            if eps[b - 1] != eps[c - 1] and is_simple(t2, eps)]
                    assert switched_neighbors(t, eps) == want
                    switched_seen += len(want)
        assert switched_seen > 0


class TestDiagonalSigning:
    def test_all_positive_faces(self):
        for t in all_triangulations(4):
            ds = diagonal_signing_from_faces(t, (1, 1, 1, 1))
            assert ds.base == t
            assert set(ds.signs) == set(t.diagonals)
            assert set(ds.signs.values()) <= {1}

    def test_global_inversion_invariance(self):
        for t, eps in [(t, s) for t in all_triangulations(4) for s in itertools.product((1, -1), repeat=4)]:
            flipped = tuple(-s for s in eps)
            assert diagonal_signing_from_faces(t, eps).signs == diagonal_signing_from_faces(t, flipped).signs

    def test_fan_example(self):
        t = phi((1, 2, 3))
        ds = diagonal_signing_from_faces(t, (1, -1, 1))
        assert ds.signs == {(0, 2): -1, (0, 3): -1}

    def test_face_reconstruction_refuses_a_partial_signing(self):
        ds = diagonal_signing_from_faces(tri(3, (0, 2), (0, 3)), (1, 1, -1))
        del ds.signs[(0, 3)]
        with pytest.raises(ValueError):
            face_signs_from_diagonals(ds, 1)

    def test_face_reconstruction_round_trip(self):
        for n in range(1, 6):
            for t in all_triangulations(n):
                for fs in itertools.product((1, -1), repeat=n):
                    ds = diagonal_signing_from_faces(t, fs)
                    assert face_signs_from_diagonals(ds, fs[0]) == fs

    def test_conversions_read_the_face_tree_and_flip_nothing(self, monkeypatch):
        calls = []
        real = flips._flipped
        monkeypatch.setattr(flips, "_flipped", lambda t, quad: calls.append(quad) or real(t, quad))
        for n in range(1, 7):
            for t in all_triangulations(n):
                fs = tuple(1 if k % 3 else -1 for k in range(1, n + 1))
                ds = diagonal_signing_from_faces(t, fs)
                # the two faces on each side of a diagonal, found by the flip row
                assert ds.signs == {d: fs[b - 1] * fs[c - 1] for d, _, b, c in flip_row(t)}
                calls.clear()
                assert face_signs_from_diagonals(diagonal_signing_from_faces(t, fs), fs[0]) == fs
                assert calls == []
        assert face_signs_from_diagonals(diagonal_signing_from_faces(tri(0), ()), 1) == ()

    @pytest.mark.parametrize("diagonals, problem", [
        (((0, 2), (1, 3)), "face bases"),
        (((0, 2), (0, 2)), "face bases"),
        (((0, 2),), "expected 2 diagonals for n=3, got 1"),
    ], ids=["crossing", "duplicate", "too-few"])
    def test_conversions_refuse_a_base_that_is_no_triangulation(self, diagonals, problem):
        t = tri(3, *diagonals)
        with pytest.raises(ValueError, match=problem):
            face_signs_from_diagonals(DiagonalSigning(t, {d: 1 for d in diagonals}), 1)
        with pytest.raises(ValueError, match=problem):
            diagonal_signing_from_faces(t, (1, 1, 1))


class TestSignedFlipOnDiagonals:
    def test_negative_diagonal_refused(self):
        t = tri(2, (0, 2))
        ds = diagonal_signing_from_faces(t, (1, -1))
        assert ds.signs[(0, 2)] == -1
        assert signed_flip_diagonal(ds, (0, 2)) is None

    def test_square_positive(self):
        t = tri(2, (0, 2))
        ds = diagonal_signing_from_faces(t, (1, 1))
        out = signed_flip_diagonal(ds, (0, 2))
        assert out is not None
        assert out.base == tri(2, (1, 3))
        assert out.signs == {(1, 3): 1}

    def test_missing_diagonal_is_an_error(self):
        t = tri(2, (0, 2))
        ds = diagonal_signing_from_faces(t, (1, 1))
        with pytest.raises(ValueError):
            signed_flip_diagonal(ds, (1, 3))

    def test_commutes_with_face_level_flip(self):
        # diagonal-level flip of the induced signing equals the signing
        # induced by the face-level flip, on every legal move
        for n in range(2, 6):
            for t in all_triangulations(n):
                for fs in itertools.product((1, -1), repeat=n):
                    ds = diagonal_signing_from_faces(t, fs)
                    for d in t.diagonals:
                        face_level = signed_flip(t, fs, d)
                        if face_level is None:
                            continue
                        t2, fs2 = face_level
                        via_faces = diagonal_signing_from_faces(t2, fs2)
                        via_diagonals = signed_flip_diagonal(ds, d)
                        if via_diagonals is None:
                            # legal at face level but the diagonal carries -
                            assert ds.signs[d] == -1
                            continue
                        assert via_diagonals.base == t2
                        assert via_diagonals.signs == via_faces.signs

    def test_partial_signing_flips_unsigned_as_positive_and_refuses_negative(self):
        t = tri(4, (0, 2), (0, 3), (0, 4))
        quad = flip_quad(t, (0, 3))
        assert set(quad.sides()) & set(t.diagonals) == {(0, 2), (0, 4)}
        out = signed_flip_diagonal(DiagonalSigning(t, {(0, 2): 1}), (0, 3))
        assert out.base == flip(t, (0, 3))[0]
        # the signed side is negated, the unsigned side stays unsigned
        assert out.signs == {(0, 2): -1, quad.new: 1}
        signed = signed_flip_diagonal(DiagonalSigning(t, {(0, 2): 1, (0, 3): 1}), (0, 3))
        assert signed == out
        assert signed_flip_diagonal(DiagonalSigning(t, {(0, 3): -1}), (0, 3)) is None
