"""Glued sphere triangulations, modular face signings, and 4-colorings."""

import itertools

import pytest

from flipforge.heawood import (
    SphereTriangulation,
    color_graph,
    four_color,
    heawood_check,
    mirror_sphere,
    sphere_edges,
    verify_coloring,
)
from flipforge.jsonio import sphere_from_dict
from flipforge.signing import SignedState
from flipforge.triangulation import Triangulation, all_triangulations, faces

from reference import sigma_closure, signed_flip
from refdata import EPS_END, EPS_START, PHI_324156, PHI_453126

T_324156 = Triangulation(6, tuple(PHI_324156))
T_453126 = Triangulation(6, tuple(PHI_453126))


def chain_sphere():
    return SphereTriangulation(T_453126, T_324156, (EPS_END, tuple(-s for s in EPS_START)))


def all_sphere_signings(n):
    for values in itertools.product((1, -1), repeat=2 * n):
        yield values[:n], values[n:]


def sphere_faces(s):
    return faces(s.north) + faces(s.south)


class TestGlue:
    def test_small_counts(self):
        s = SphereTriangulation(Triangulation(1, ()), Triangulation(1, ()))
        assert s.n == 1
        assert len(sphere_faces(s)) == 2
        assert len({v for e in sphere_edges(s) for v in e}) == 3

    def test_octagon_pair_is_twelve_faces_on_eight_vertices(self):
        s = SphereTriangulation(T_324156, T_453126)
        assert len(sphere_faces(s)) == 12
        assert len({v for e in sphere_edges(s) for v in e}) == 8

    def test_mirror_faces_share_vertices(self):
        t = Triangulation(3, ((1, 3), (0, 3)))
        s = mirror_sphere(t, (1, -1, 1))
        assert faces(s.north) == faces(s.south) == faces(t)
        assert s.signs == ((1, -1, 1), (-1, 1, -1))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cannot glue n=2 and n=3"):
            SphereTriangulation(Triangulation(2, ((0, 2),)), Triangulation(3, ((1, 3), (0, 3))))

    def test_invalid_hemisphere_rejected(self):
        # a hemisphere is checked where it is read, the north one first
        good, bad = [[0, 2]], [[0, 2], [1, 3]]
        for north, south, hemi in ((bad, good, "north"), (good, bad, "south"), (bad, bad, "north")):
            with pytest.raises(ValueError, match=f"^{hemi} is not a triangulation: expected 1 diagonals"):
                sphere_from_dict({"n": 2, "north": north, "south": south})

    @pytest.mark.parametrize("signs", [((1,), (1, 1)), ((1, 1), (1, 1, 1)), ((), ())])
    def test_sign_tuple_of_the_wrong_length_rejected(self, signs):
        t = Triangulation(2, ((0, 2),))
        with pytest.raises(ValueError, match="one face sign per label"):
            SphereTriangulation(t, t, signs)


class TestHeawoodCheck:
    def test_requires_signs(self):
        s = SphereTriangulation(T_324156, T_453126)
        with pytest.raises(ValueError):
            heawood_check(s)

    def test_chain_sphere_passes(self):
        assert heawood_check(chain_sphere()) == []

    def test_mirror_signing_always_passes(self):
        for n in range(1, 7):
            for t in all_triangulations(n):
                for eps in itertools.product((1, -1), repeat=n):
                    assert heawood_check(mirror_sphere(t, eps)) == []

    def test_all_positive_needs_divisible_face_counts(self):
        # with every face +, a vertex sums to its incident-face count
        t = Triangulation(2, ((0, 2),))
        s = SphereTriangulation(t, t, ((1, 1), (1, 1)))
        bad = heawood_check(s)
        assert bad  # the square corners touch 4 or 2 faces, never 0 mod 3
        for v in range(4):
            incident = sum(v in f for f in sphere_faces(s))
            assert (v in bad) == (incident % 3 != 0)

    def test_violations_are_sorted_vertices(self):
        bad = heawood_check(SphereTriangulation(T_324156, T_453126, ((1,) * 6, (1,) * 6)))
        assert bad == sorted(bad)


class TestHeawoodPreservation:
    def test_north_signed_flips_preserve_heawood_exhaustively(self):
        # every Heawood signing of every small sphere, every legal move
        for n in range(1, 5):
            for north in all_triangulations(n):
                for south in all_triangulations(n):
                    for eps, south_signs in all_sphere_signings(n):
                        if heawood_check(SphereTriangulation(north, south, (eps, south_signs))):
                            continue
                        for d in north.diagonals:
                            moved = signed_flip(north, eps, d)
                            if moved is None:
                                continue
                            north2, eps2 = moved
                            assert heawood_check(SphereTriangulation(north2, south, (eps2, south_signs))) == []

    def test_preserved_along_whole_closures(self):
        # mirror spheres stay Heawood under every signed-flip orbit
        for n in range(1, 5):
            for t in all_triangulations(n):
                for eps in itertools.product((1, -1), repeat=n):
                    south_signs = tuple(-s for s in eps)
                    for state in sigma_closure(SignedState(t, eps)):
                        sphere = SphereTriangulation(state.tri, t, (state.signs, south_signs))
                        assert heawood_check(sphere) == []


class TestFourColor:
    def test_triangle_sphere_uses_three_distinct_colors(self):
        s = SphereTriangulation(Triangulation(1, ()), Triangulation(1, ()))
        coloring = four_color(s)
        assert coloring is not None
        assert len(set(coloring.values())) == 3
        assert verify_coloring(s, coloring)

    def test_chain_sphere(self):
        s = chain_sphere()
        coloring = four_color(s)
        assert coloring is not None
        assert verify_coloring(s, coloring)
        assert set(coloring) == set(range(8))
        assert set(coloring.values()) <= {0, 1, 2, 3}

    def test_every_small_sphere_is_colorable(self):
        for n in range(1, 6):
            ts = list(all_triangulations(n))
            for north in ts:
                for south in ts:
                    s = SphereTriangulation(north, south)
                    coloring = four_color(s)
                    assert coloring is not None
                    assert verify_coloring(s, coloring)

    def test_heawood_exists_iff_colorable_small(self):
        # both always hold at this scale; assert co-occurrence and
        # non-vacuity of the signing search
        for n in range(1, 4):
            for north in all_triangulations(n):
                for south in all_triangulations(n):
                    s = SphereTriangulation(north, south)
                    outcomes = [
                        not heawood_check(SphereTriangulation(north, south, signs))
                        for signs in all_sphere_signings(n)
                    ]
                    assert any(outcomes)
                    assert four_color(s) is not None
                    if n >= 2:
                        assert not all(outcomes)


class TestVerifyColoring:
    def test_constant_coloring_rejected(self):
        s = SphereTriangulation(Triangulation(2, ((0, 2),)), Triangulation(2, ((0, 2),)))
        coloring = {v: 0 for v in range(4)}
        assert not verify_coloring(s, coloring)

    def test_mutated_coloring_reports_the_edge(self):
        s = chain_sphere()
        coloring = four_color(s)
        neighbor = next(v for v in range(1, 8) if (0, v) in sphere_edges(s))
        coloring[neighbor] = coloring[0]
        assert not verify_coloring(s, coloring)

    def test_incomplete_coloring_rejected(self):
        s = chain_sphere()
        coloring = four_color(s)
        del coloring[3]
        assert not verify_coloring(s, coloring)


class TestColorGraph:
    def test_odd_cycle_needs_three(self):
        edges = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
        coloring = color_graph(range(5), edges)
        assert coloring is not None
        assert all(coloring[a] != coloring[b] for a, b in edges)
        assert len(set(coloring.values())) == 3

    def test_complete_four_exactly_fits(self):
        edges = {(i, j) for i in range(4) for j in range(i + 1, 4)}
        coloring = color_graph(range(4), edges)
        assert coloring is not None
        assert len(set(coloring.values())) == 4
        assert color_graph(range(5), {(i, j) for i in range(5) for j in range(i + 1, 5)}) is None
