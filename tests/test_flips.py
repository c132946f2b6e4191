"""Flips: plain, signed, homogeneous, switched, and diagonal signings."""

import argparse
import gc
import itertools
import json
import random
import sys

import pytest

from flipforge import cli, flips, graphs, jsonio, signing, triangulation
from flipforge.flips import flip_between, flip_signs
from flipforge.heawood import SphereTriangulation
from flipforge.phi import (
    colored_triangulation_from_word,
    readings,
    triangulation_from_permutation as phi,
)
from flipforge.triangulation import (
    Triangulation,
    all_triangulations,
    faces,
)
from flipforge.signing import DiagonalSigning, flip_readings
from flipforge.words import abs_word, block_coloring, sylvester_class
from flipforge.graphs import compositions, flip_table

from reference import (
    diagonal_signing_from_faces,
    face_signs_from_diagonals,
    flip,
    flip_characterization,
    flip_quad,
    flip_readings_by_ears,
    flip_row,
    homogeneous_neighbors,
    is_simple,
    quad_by_adjacency,
    readings_exchange_oracle,
    signed_flip,
    signed_moves,
    signed_flip_diagonal,
    switched_neighbors,
    words_of_evaluation,
)
from refdata import CHAIN, CHAIN_FLIP_LABELS, CHAIN_KINDS, EPS_START


def tri(n, *diags):
    return Triangulation(n, tuple(diags))


def neighbors_command(tmp_path, mode, t, colors=None, signs=None):
    """``flipforge neighbors --mode mode`` on one state, read back as
    (shape, signs) pairs in signed mode and (shape, colors) pairs otherwise."""
    state = tmp_path / "state.json"
    state.write_text(json.dumps(jsonio.triangulation_to_dict(t, colors=colors, signs=signs)))
    code, report = cli.cmd_neighbors(argparse.Namespace(file=str(state), mode=mode))
    assert (code, report["mode"], report["count"]) == (0, mode, len(report["neighbors"]))
    return [(t2, signs2 if mode == "signed" else colors2)
            for t2, colors2, signs2 in map(jsonio.triangulation_from_dict, report["neighbors"])]


def command_error(capsys, tmp_path, state, *argv):
    """The one ``error:`` line a refused command writes, after checking it
    exits 1 and writes nothing else."""
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(state))
    code = cli.main([argv[0], str(state_file), *argv[1:]])
    out, err = capsys.readouterr()
    assert (code, out, len(err.splitlines())) == (1, "", 1)
    return err


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
        assert flip_between(tri(2, (0, 2)), t2) == quad

    def test_involution_everywhere(self):
        for n in range(2, 7):
            for t in all_triangulations(n):
                for d in t.diagonals:
                    t2, quad = flip(t, d)
                    assert t2 != t
                    back, quad2 = flip(t2, quad.new)
                    assert back == t
                    assert quad2.new == d
                    assert flip_between(t2, t) == quad2 == quad._replace(old=quad.new, new=d)

    def test_rows_match_the_adjacency_quads(self):
        for n in range(9):
            for t in all_triangulations(n):
                expected = []
                for d in t.diagonals:
                    quad = quad_by_adjacency(t, d)
                    t2 = Triangulation(n, tuple(e for e in t.diagonals if e != d) + (quad.new,))
                    assert flip_between(t, t2) == quad
                    expected.append((d, t2, quad.b, quad.c))
                table = flips.ShapeTable([t])
                assert [(d, table.shape(j), b, c) for j, _, b, c, d in table.row(0)] == expected
                assert flip_row(t) == expected

    def test_rows_match_the_reference_rows_past_n8(self):
        # seeded shapes at n = 9..16, where a chord bit's stride n + 2 passes 10;
        # one table reads up to a dozen rows, each after the rows before it rewrote
        # the face-below list, and a one-row table decodes its shape's bits only
        rng = random.Random(37)
        for n in range(9, 17):
            start = phi(tuple(rng.sample(range(1, n + 1), n)))
            table = flips.ShapeTable([start])
            shared: dict = {}
            for i in [0] + rng.sample(range(1, n - 1), 11 if n > 12 else n - 2):
                t, row = table.shape(i), table.row(i)
                assert [(d, table.shape(j), b, c) for j, _, b, c, d in row] == flip_row(t)
                assert [m for _, m, *_ in row] == [1 << (n - b) | 1 << (n - c) for _, _, b, c, _ in row]
                assert all(shared.setdefault(d, d) is d for *_, d in row)  # one tuple per chord bit
            for _ in range(4):
                t = phi(tuple(rng.sample(range(1, n + 1), n)))
                one = flips.ShapeTable([t])
                row = one.row(0)
                # its diagonals and its n face bases, not a slot per chord bit
                assert (len(one._chords), len(one._below)) == (n - 1, n)
                assert [(d, one.shape(j), b, c) for j, _, b, c, d in row] == flip_row(t)

    def test_rows_build_no_flip_quad(self):
        # matched by code object, so a construction anywhere is seen; a row
        # numbers each result by its chord code and builds neither a
        # FlipQuad nor a Triangulation, even for a code the table lacks
        built = []
        watched = {flips.FlipQuad.__new__.__code__, Triangulation.__post_init__.__code__}

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                built.append(frame.f_code.co_name)

        table = flip_table(7)
        sys.setprofile(profile)
        try:
            for i in range(len(table.codes)):
                table.row(i)
        finally:
            sys.setprofile(None)
        assert built == [] and len(table.codes) == 429  # every flip result is a shape of the table
        t = phi((3, 5, 1, 7, 2, 6, 4))
        table = flips.ShapeTable([t])
        sys.setprofile(profile)
        try:
            row = table.row(0)
        finally:
            sys.setprofile(None)
        # each result is new to a fresh table, numbered in diagonal order
        assert built == []
        assert len(row) == len(table.codes) - 1 == 7 - 1
        quads = [quad_by_adjacency(t, d) for d in t.diagonals]
        assert [(j, b, c, d) for j, _, b, c, d in row] == \
            [(k, q.b, q.c, q.old) for k, q in enumerate(quads, 1)]
        assert [flip_between(t, table.shape(j)) for j, *_ in row] == quads

    def test_quad_labels_are_the_middle_pair(self):
        t = phi((1, 2, 3))
        table = flips.ShapeTable([t])
        j, _, b, c, _ = next(entry for entry in table.row(0) if entry[4] == (0, 3))
        quad = flip_between(t, table.shape(j))
        assert (quad.a, quad.b, quad.c, quad.d) == (0, 2, 3, 4)
        assert (b, c) == (quad.b, quad.c) == (2, 3)
        assert set(quad.sides()) == {(0, 2), (2, 3), (3, 4), (0, 4)}

    def test_label_multiset_preserved_incidence_local(self):
        for n in range(2, 6):
            for t in all_triangulations(n):
                before = {f.label: f for f in faces(t)}
                table = flips.ShapeTable([t])
                for j, _, b, c, _ in table.row(0):
                    after = {f.label: f for f in faces(table.shape(j))}
                    assert set(before) == set(after) == set(range(1, n + 1))
                    changed = {lab for lab in before if before[lab] != after[lab]}
                    assert changed == {b, c}

    def test_flip_requires_a_diagonal(self, capsys, tmp_path):
        err = command_error(capsys, tmp_path, {"n": 2, "diagonals": [[0, 2]]}, "flip", "--d", "1,3")
        assert err == "error: (1, 3) is not a diagonal of ((0, 2),)\n"


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
                    _, quad = flip(t, d)
                    assert flip_readings(t, quad) == flip_readings_by_ears(t, quad)

    def test_refuses_letters_not_read_after_the_inside(self):
        # a quadrilateral 0 < 1 < 3 < 4 on (0, 3): face 1 is ready at once, but
        # face 3 waits for face 2, the one face inside
        t = tri(3, (0, 2), (0, 3))
        _, quad = flip(t, (0, 3))
        quad = quad._replace(b=1)
        with pytest.raises(AssertionError):
            flip_readings(t, quad)
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
                assert {x, z} == {quad.b, quad.c}
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
        assert flip_between(t, tri(2, (0, 2))) is None

    @pytest.mark.parametrize("old, new", [
        ((0, 4), (1, 3)),  # nested
        ((0, 3), (3, 5)),  # sharing an end
        ((0, 2), (3, 5)),  # disjoint
    ])
    def test_none_for_a_swap_that_does_not_cross(self, old, new):
        # only a non-triangulation makes one such swap; the sets alone refuse it
        t = tri(4, (0, 2), (0, 3), (0, 4))
        t2 = Triangulation(4, tuple(e for e in t.diagonals if e != old) + (new,))
        assert flip_between(t, t2) is None
        assert flip_between(t2, t) is None

    def test_reads_no_face(self, monkeypatch):
        # sign_path_diagonals takes each quad from flip_between, which reads
        # the two diagonal sets alone: no face tree and no flip row
        def refuse(*args):
            raise AssertionError("a face was read")

        rng = random.Random(34)
        walks = []
        for n in range(2, 9):
            path = [phi(tuple(rng.sample(range(1, n + 1), n)))]
            for _ in range(10):
                path.append(flip(path[-1], rng.choice(path[-1].diagonals))[0])
            walks.append(path)
        for module, name in ((flips.ShapeTable, "_build_row"), (triangulation, "face_tree"),
                             (triangulation, "face_ends")):
            monkeypatch.setattr(module, name, refuse)
        outcomes = {signing.sign_path_diagonals(path).signable for path in walks}
        assert outcomes == {True, False}


class TestSignedFlip:
    def test_square_both_positive(self):
        assert signed_flip(tri(2, (0, 2)), (1, 1), (0, 2)) == (tri(2, (1, 3)), (-1, -1))
        assert flip_signs((1, 1), 1, 2) == (-1, -1)

    def test_mixed_signs_refused(self):
        assert signed_flip(tri(2, (0, 2)), (1, -1), (0, 2)) is None
        assert flip_signs((1, -1), 1, 2) is None

    def test_exactly_two_sign_changes_at_the_quad(self):
        # the kernel's signed flip, a row entry and flip_signs, against the
        # object route's result shape
        for n in range(2, 6):
            for t in all_triangulations(n):
                table = flips.ShapeTable([t])
                for signs in itertools.product((1, -1), repeat=n):
                    for j, _, b, c, d in table.row(0):
                        signs2 = flip_signs(signs, b, c)
                        assert (signs2 is not None) == (signs[b - 1] == signs[c - 1])
                        if signs2 is None:
                            continue
                        assert table.shape(j) == flip(t, d)[0]
                        changed = {
                            i + 1 for i in range(n) if signs[i] != signs2[i]
                        }
                        assert changed == {b, c}

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
            quad = flip_quad(t, d_old)
            flips_seen.append(frozenset((quad.b, quad.c)))
            signs = list(new_signs)
            t = t_next
        assert tuple(flips_seen) == CHAIN_FLIP_LABELS
        # the final signs equal the letter signs of the last chain word
        by_value = sorted((abs(a), 1 if a > 0 else -1) for a in CHAIN[-1])
        assert tuple(s for _, s in by_value) == tuple(signs)


class TestHomogeneous:
    # flipforge neighbors --mode homogeneous, against the oracle's quads
    def test_constant_coloring_gives_all_flips(self, tmp_path):
        for t in all_triangulations(4):
            nbrs = neighbors_command(tmp_path, "homogeneous", t, colors=(1, 1, 1, 1))
            assert len(nbrs) == len(t.diagonals)
            assert all(eps == (1, 1, 1, 1) for _, eps in nbrs)

    def test_distinct_colors_give_none(self, tmp_path):
        for t in all_triangulations(4):
            assert neighbors_command(tmp_path, "homogeneous", t, colors=(1, 2, 3, 4)) == []

    def test_count_equals_monochrome_quad_flips(self, tmp_path):
        for n in range(2, 6):
            for t, eps in all_states(n, 3):
                expected = sum(
                    1
                    for d in t.diagonals
                    if eps[flip_quad(t, d).b - 1] == eps[flip_quad(t, d).c - 1]
                )
                assert len(neighbors_command(tmp_path, "homogeneous", t, colors=eps)) == expected

    def test_colors_never_change(self, tmp_path):
        for t, eps in all_states(4, 2):
            for t2, eps2 in neighbors_command(tmp_path, "homogeneous", t, colors=eps):
                assert eps2 == eps
                assert t2 != t


class TestSwitched:
    # flipforge neighbors --mode switched, against the oracle's quads and the
    # two-readings characterization
    def test_distinct_colors_give_all_flips_and_stay_simple(self, tmp_path):
        for n in range(2, 6):
            eps = tuple(range(1, n + 1))
            for t in all_triangulations(n):
                nbrs = neighbors_command(tmp_path, "switched", t, colors=eps)
                assert len(nbrs) == n - 1
                assert all(is_simple(t2, e2) for t2, e2 in nbrs)

    def test_constant_coloring_gives_none(self, tmp_path):
        for t in all_triangulations(4):
            if is_simple(t, (1, 1, 1, 1)):
                assert neighbors_command(tmp_path, "switched", t, colors=(1, 1, 1, 1)) == []

    def test_count_equals_bichrome_flips_that_stay_simple(self, tmp_path):
        for t, eps in all_states(4, 3):
            nbrs = neighbors_command(tmp_path, "switched", t, colors=eps)
            assert all(is_simple(t2, e2) for t2, e2 in nbrs)
            expected = sum(
                1
                for d in t.diagonals
                if eps[flip_quad(t, d).b - 1] != eps[flip_quad(t, d).c - 1]
                and is_simple(flip(t, d)[0], eps)
            )
            assert len(nbrs) == expected

    def test_requires_simple_input(self, capsys, tmp_path):
        assert not is_simple(tri(2, (0, 2)), (2, 1))
        err = command_error(capsys, tmp_path, {"n": 2, "diagonals": [[0, 2]], "colors": [2, 1]},
                            "neighbors", "--mode", "switched")
        assert err == "error: switched flips are only defined between simple colored triangulations\n"

    def test_agrees_with_reading_exchange_oracle(self, tmp_path):
        # switched adjacency matches the two-readings characterization
        for n in range(2, 5):
            for mu in compositions(n, 3):
                states = {
                    colored_triangulation_from_word(w)
                    for w in words_of_evaluation(mu)
                }
                for (t1, e1) in states:
                    nbrs = {t2 for t2, _ in neighbors_command(tmp_path, "switched", t1, colors=e1)}
                    for (t2, e2) in states:
                        if t1 == t2 or e1 != e2:
                            continue
                        assert (t2 in nbrs) == readings_exchange_oracle(t1, t2, e1)


class TestNoCyclicGarbage:
    """A shape table holds ints, lists, dicts and the shapes it was given, so
    refcounting frees it when its call returns; a reference cycle would keep
    every table of a run alive until a collection."""

    def test_search_commands_and_battery_leave_no_cycle(self, capsys, tmp_path, monkeypatch):
        t, colors = colored_triangulation_from_word((1, 2, 4, 1, 4, 3, 3, 4, 2, 4))
        state = tmp_path / "state.json"
        state.write_text(json.dumps(jsonio.triangulation_to_dict(t, colors=colors)))
        sphere = tmp_path / "sphere.json"
        south = phi((5, 3, 8, 1, 2, 10, 4, 9, 6, 7))
        sphere.write_text(json.dumps(jsonio.sphere_to_dict(SphereTriangulation(t, south))))
        # argparse's parser is a web of cycles (each action points back at its
        # container), built afresh by every main: build it before the count
        parser = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        runs = {
            "search": lambda: signing.signable_path_search(phi((3, 2, 4, 1, 5, 6)), phi((4, 5, 3, 1, 2, 6))),
            "flip": lambda: cli.main(["flip", str(state), "--d", "4,6"]),
            "neighbors": lambda: cli.main(["neighbors", str(state), "--mode", "switched"]),
            "battery": lambda: graphs.run_battery(graphs.SUITES, 5),
            "four-color": lambda: cli.main(["four-color", str(sphere)]),
        }
        left = {}
        gc.collect()
        gc.disable()
        try:
            for name, run in runs.items():
                gc.collect()
                assert run() not in (None, 1)  # a path, exit 0, or the battery's reports
                left[name] = gc.collect()
        finally:
            gc.enable()
        assert left == dict.fromkeys(runs, 0)
        assert '"count":6' in capsys.readouterr().out  # the switched command did its work


class TestNeighboursAgainstTheOracle:
    """``flipforge neighbors`` answers every mode from one ShapeTable row;
    the oracle flips one diagonal at a time by vertex adjacency.  Both list
    results in diagonal order."""

    def test_object_rows_left_the_library(self):
        for name in ("flip_row", "signed_moves", "flip", "flip_quad", "signed_flip",
                     "homogeneous_neighbors", "switched_neighbors"):
            assert not hasattr(flips, name), name
        assert not hasattr(flips.FlipQuad, "labels")

    def test_signed_flip_under_every_signing(self, tmp_path):
        for n in range(7):
            for t in all_triangulations(n):
                row = flip_row(t)
                for signs in itertools.product((-1, 1), repeat=n):
                    want = [(t2, signs2) for _, t2, signs2 in signed_moves(row, signs)]
                    assert neighbors_command(tmp_path, "signed", t, signs=signs) == want

    def test_homogeneous_and_switched_under_every_block_coloring(self, tmp_path):
        switched_seen = 0
        for n in range(7):
            colorings = [block_coloring(mu) for mu in compositions(n, 3)]
            for t in all_triangulations(n):
                for eps in colorings:
                    assert neighbors_command(tmp_path, "homogeneous", t, colors=eps) == \
                        homogeneous_neighbors(t, eps)
                    if not is_simple(t, eps):
                        continue
                    got = neighbors_command(tmp_path, "switched", t, colors=eps)
                    assert got == switched_neighbors(t, eps)
                    switched_seen += len(got)
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
        # neither the row builder nor the shape accessor is called
        calls = []
        real_build, real_shape = flips.ShapeTable._build_row, flips.ShapeTable.shape
        monkeypatch.setattr(flips.ShapeTable, "_build_row",
                            lambda table, i: calls.append(i) or real_build(table, i))
        monkeypatch.setattr(flips.ShapeTable, "shape",
                            lambda table, j: calls.append(j) or real_shape(table, j))
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
