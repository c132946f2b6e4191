"""Signed-state closures, word certificates, and path signability."""

import ast
import itertools
import random
import sys
import time
from pathlib import Path

import pytest

from flipforge import flips, words
from flipforge.flips import flip
from flipforge.phi import readings, triangulation_from_permutation as phi
from flipforge.signing import (
    Certificate,
    SignedPath,
    SignedState,
    StateCapExceeded,
    _class_bridge,
    classify_step,
    emit_word_certificate,
    sign_letters,
    sign_path_diagonals,
    signable_path_search,
    validate_certificate,
)
from flipforge.triangulation import Triangulation, all_triangulations
from flipforge.words import abs_word

from reference import (
    class_bridge_by_search,
    depths_below_end,
    face_sign_walk,
    flip_row,
    path_signable_by_faces,
    path_states,
    sign_path_diagonals_by_tracking,
    sigma_closure,
    signable_path_by_states,
    sign_permutation_path,
    signed_moves,
    states_below_end,
)
from refdata import (
    CHAIN,
    CHAIN_KINDS,
    EPS_END,
    EPS_START,
    PHI_324156,
    PHI_453126,
    UNSIGNABLE_PATH_N3,
)


def tri(n, *diags):
    return Triangulation(n, tuple(diags))


def seeded_pairs(rng, count):
    """Two different shapes of random permutations, alternately of size 6 and 7."""
    pairs = []
    while len(pairs) < count:
        n = 7 if len(pairs) % 2 else 6
        t1, t2 = (phi(tuple(rng.sample(range(1, n + 1), n))) for _ in range(2))
        if t1 != t2:
            pairs.append((t1, t2))
    return pairs


def search_outcome(t1, t2, cap):
    try:
        return signable_path_search(t1, t2, max_states=cap)
    except StateCapExceeded as exc:
        return str(exc)


def count_calls(monkeypatch, module, name):
    """Patch module.name to record each call's arguments in the returned list."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


WORKED_PAIR = Triangulation(6, tuple(PHI_324156)), Triangulation(6, tuple(PHI_453126))
CAP_PAIRS = seeded_pairs(random.Random(61), 6) + [WORKED_PAIR]


def random_loop_free_path(n, length, rng):
    """A random walk in the flip graph that never revisits a triangulation."""
    ts = sorted(all_triangulations(n), key=lambda t: t.diagonals)
    path = [rng.choice(ts)]
    seen = {path[0]}
    while len(path) <= length:
        moves = [flip(path[-1], d)[0] for d in path[-1].diagonals]
        moves = [t for t in moves if t not in seen]
        if not moves:
            break
        nxt = rng.choice(sorted(moves, key=lambda t: t.diagonals))
        path.append(nxt)
        seen.add(nxt)
    return path


def random_signed_walk(n, flips, rng):
    """A signed path of the given number of signed flips from a random signed shape."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    start = SignedState(phi(tuple(perm)), tuple(rng.choice((-1, 1)) for _ in range(n)))
    tri_, signs = start
    ds = []
    for _ in range(flips):
        d, tri_, signs = rng.choice(list(signed_moves(flip_row(tri_), signs)))
        ds.append(d)
    return SignedPath(start, SignedState(tri_, signs), tuple(ds))


class TestSigmaClosure:
    def test_single_triangle(self):
        start = SignedState(tri(1), (1,))
        assert sigma_closure(start) == {start}

    def test_square_two_states(self):
        start = SignedState(tri(2, (0, 2)), (1, 1))
        closure = sigma_closure(start)
        assert closure == {
            SignedState(tri(2, (0, 2)), (1, 1)),
            SignedState(tri(2, (1, 3)), (-1, -1)),
        }

    def test_no_triangulation_carries_two_signings(self):
        for n in range(1, 5):
            for t in all_triangulations(n):
                for signs in itertools.product((1, -1), repeat=n):
                    closure = sigma_closure(SignedState(t, signs))
                    by_tri = {}
                    for state in closure:
                        assert by_tri.setdefault(state.tri, state.signs) == state.signs

    def test_state_cap(self):
        start = SignedState(tri(2, (0, 2)), (1, 1))
        with pytest.raises(StateCapExceeded):
            sigma_closure(start, max_states=1)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_is_refused(self, cap):
        start = SignedState(tri(1), (1,))
        with pytest.raises(ValueError, match="at least 1"):
            sigma_closure(start, max_states=cap)


class TestClassifyStep:
    def test_first_chain_step_is_k2(self):
        assert classify_step(CHAIN[0], CHAIN[1]) == "K2"

    def test_sylvester_step_is_k1(self):
        assert classify_step((-3, 2, 5, 4, -1, 6), (-3, 5, 2, 4, -1, 6)) == "K1"
        assert classify_step((2, 5, -4, 1), (5, 2, -4, 1)) == "K1"

    def test_self_step_is_nothing(self):
        assert classify_step(CHAIN[0], CHAIN[0]) is None

    @pytest.mark.parametrize("w1, w2", [((1, 1, 2), (1, 2, 1)), ((0, 1, 2), (1, 0, 2)),
                                        ((1, 2, 3), (2, -2, 3))],
                             ids=["repeated", "zero", "repeated-absolute-value"])
    def test_word_with_a_repeated_or_zero_letter_is_nothing(self, w1, w2):
        assert classify_step(w1, w2) is None

    def test_k2_with_opposite_signs_is_rejected(self):
        # exchanging letters of opposite sign is not an authorized move
        assert classify_step((1, -5, 2), (5, -1, 2)) is None

    def test_k2_with_intermediate_value_later_is_rejected(self):
        # 3 lies strictly between 2 and 4, so (2 4 ... 3) cannot K2-swap
        assert classify_step((2, 4, 3, 1), (-4, -2, 3, 1)) is None

    def test_whole_chain_classifies_as_frozen_kinds(self):
        assert tuple(classify_step(w1, w2) for w1, w2 in zip(CHAIN, CHAIN[1:])) == CHAIN_KINDS


class TestValidateCertificate:
    def test_frozen_chain_is_valid(self):
        cert = Certificate(chain=CHAIN, kinds=CHAIN_KINDS)
        report = validate_certificate(cert)
        assert report.ok
        assert report.first_bad_step is None
        assert report.endpoints == (abs_word(CHAIN[0]), abs_word(CHAIN[-1]))

    def test_empty_chain_is_refused_at_step_0(self):
        report = validate_certificate(Certificate([], []))
        assert (report.ok, report.first_bad_step, report.reason) == (False, 0, "empty chain")

    def test_kinds_that_do_not_match_the_chain_are_refused(self):
        report = validate_certificate(Certificate([(1, 2), (2, 1)], []))
        assert (report.ok, report.first_bad_step) == (False, 0)
        assert report.reason == "2 words need 1 kinds, got 0"

    def test_singleton_chain(self):
        cert = Certificate(chain=(CHAIN[0],), kinds=())
        assert validate_certificate(cert).ok

    def test_wrong_kind_label_is_rejected(self):
        kinds = ("K1",) + CHAIN_KINDS[1:]
        report = validate_certificate(Certificate(chain=CHAIN, kinds=kinds))
        assert not report.ok
        assert report.first_bad_step == 0

    def test_malformed_entry_is_rejected(self):
        chain = CHAIN[:4] + ((9, 9, 9, 9, 9, 9),) + CHAIN[5:]
        report = validate_certificate(Certificate(chain=chain, kinds=CHAIN_KINDS))
        assert not report.ok
        assert report.first_bad_step == 4
        assert "entry" in report.reason

    def test_tampered_word_breaks_the_step(self):
        # a legal signed word that is not one authorized move away
        chain = CHAIN[:4] + ((6, 5, -4, -2, -1, 3),) + CHAIN[5:]
        report = validate_certificate(Certificate(chain=chain, kinds=CHAIN_KINDS))
        assert not report.ok
        assert report.first_bad_step == 3

    def test_opposite_sign_exchange_is_rejected(self):
        chain = ((1, -5, 2), (5, -1, 2))
        report = validate_certificate(Certificate(chain=chain, kinds=("K2",)))
        assert not report.ok
        assert report.first_bad_step == 0
        assert report.reason

    def test_words_of_different_lengths_are_refused(self):
        report = validate_certificate(Certificate(chain=((1, 2), (2, 1, 3)), kinds=("K1",)))
        assert not report.ok
        assert report.first_bad_step == 0
        assert report.reason


class TestSignablePathSearch:
    def test_equal_endpoints(self):
        t = tri(2, (0, 2))
        path = signable_path_search(t, t)
        assert path is not None
        assert path.flips == ()
        assert path.start.tri == path.end.tri == t
        assert path.start.signs == path.end.signs

    def test_square_pair(self):
        path = signable_path_search(tri(2, (0, 2)), tri(2, (1, 3)))
        assert path is not None
        assert len(path.flips) == 1
        assert path.end.signs == tuple(-s for s in path.start.signs)

    def test_octagon_pair_is_six_flips(self):
        path = signable_path_search(
            Triangulation(6, tuple(PHI_324156)), Triangulation(6, tuple(PHI_453126))
        )
        assert path is not None
        assert len(path.flips) == 6
        states = path_states(path)
        assert states[0] == path.start and states[-1] == path.end
        assert len(states) == 7

    def test_cap_refuses_before_seeding(self):
        # The 2^20 signings of the start shape alone exceed the cap.
        start, end = phi(tuple(range(1, 21))), phi(tuple(range(20, 0, -1)))
        t0 = time.monotonic()
        with pytest.raises(StateCapExceeded, match="search exceeds 1000 states"):
            signable_path_search(start, end, max_states=1000)
        assert time.monotonic() - t0 < 2.0

    def test_equal_endpoints_answer_all_minus_under_any_cap(self):
        t = phi(tuple(range(1, 21)))
        path = signable_path_search(t, t, max_states=1000)
        assert path.flips == ()
        assert path.start == path.end == SignedState(t, (-1,) * 20)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_is_refused(self, cap):
        t = tri(2, (0, 2))
        with pytest.raises(ValueError, match="at least 1"):
            signable_path_search(t, t, max_states=cap)

    def test_every_pair_reachable_small(self):
        for n in range(1, 5):
            ts = list(all_triangulations(n))
            for t1, t2 in itertools.combinations(ts, 2):
                assert signable_path_search(t1, t2) is not None

    def test_equals_the_state_route_on_every_pair_to_n5(self):
        pairs = 0
        for n in range(1, 6):
            ts = list(all_triangulations(n))
            for t1, t2 in itertools.product(ts, repeat=2):
                assert signable_path_search(t1, t2) == signable_path_by_states(t1, t2)
                pairs += 1
        assert pairs == 1990

    def test_equals_the_state_route_on_seeded_pairs(self):
        rng = random.Random(9)
        for k in range(40):
            n = 7 if k % 4 == 0 else 6
            t1, t2 = (phi(tuple(rng.sample(range(1, n + 1), n))) for _ in range(2))
            assert signable_path_search(t1, t2) == signable_path_by_states(t1, t2)

    def test_cap_matches_the_state_route(self):
        t1, t2 = phi((1, 2, 3, 4)), phi((4, 3, 2, 1))
        below, path = states_below_end(t1, t2), signable_path_by_states(t1, t2)
        # every cap to two past the states at distance < d, of the 14 * 16 states of n=4
        for cap in range(1, below + 3):
            expected = path if cap >= below else f"search exceeds {cap} states"
            assert search_outcome(t1, t2, cap) == expected, cap
        assert below > 16 and len(path.flips) > 1

    @pytest.mark.parametrize("k", range(len(CAP_PAIRS)))
    def test_cap_matches_the_state_route_near_the_success_cap(self, k):
        t1, t2 = CAP_PAIRS[k]
        below, path = states_below_end(t1, t2), signable_path_by_states(t1, t2)
        for cap in range(max(1, below - 300), below + 3):
            expected = path if cap >= below else f"search exceeds {cap} states"
            assert search_outcome(t1, t2, cap) == expected, cap

    @pytest.mark.parametrize("k", range(len(CAP_PAIRS)))
    def test_cap_bounds_the_rows_built(self, k, monkeypatch):
        t1, t2 = CAP_PAIRS[k]
        depth = depths_below_end(t1, t2)
        rows = count_calls(monkeypatch, flips, "_quads")  # one call per row built
        path = signable_path_search(t1, t2, max_states=len(depth))
        built = len(rows)  # before path_states(path), whose flips call _quads too
        d = len(path.flips)
        assert d - 1 == max(depth.values())
        # the rows that expand layers 0..d-2, the end shape's own row, and the
        # penultimate shape's row for its last diagonal; none for the last layer
        expected = {state.tri for state, t in depth.items() if t <= d - 2}
        expected |= {t2, path_states(path)[-2].tri}
        assert built == len(expected)

    def test_default_cap_returns_paths_to_n8(self):
        for t1, t2 in seeded_pairs(random.Random(62), 4) + [(phi((2, 7, 1, 8, 4, 6, 3, 5)),
                                                              phi((8, 1, 6, 3, 5, 2, 7, 4)))]:
            assert signable_path_search(t1, t2) is not None

    def test_capped_n11_pair_returns_its_path(self):
        # two rng.sample permutations from random.Random(1): the states at distance
        # < 9 fit the default cap, but not with those of the last layer that a
        # search over single states meets before the end state
        start = phi((3, 10, 2, 5, 1, 4, 6, 8, 11, 9, 7))
        end = phi((2, 8, 1, 7, 4, 5, 9, 10, 11, 6, 3))
        t0 = time.monotonic()
        path = signable_path_search(start, end)
        assert time.monotonic() - t0 < 2.0
        assert len(path.flips) == 9
        assert list(path.steps())[-1][2] == path.end and path.end.tri == end
        assert validate_certificate(emit_word_certificate(path)).ok

    def test_worked_pair_builds_fewer_rows_and_shapes(self, monkeypatch):
        rows = count_calls(monkeypatch, flips, "_quads")  # one call per row built
        shapes = count_calls(monkeypatch, flips, "_flipped")  # one call per shape added
        path = signable_path_search(Triangulation(6, tuple(PHI_324156)), Triangulation(6, tuple(PHI_453126)))
        assert len(path.flips) == 6
        # a FIFO search over single states built 87 rows and 114 shapes here
        assert (len(rows), len(shapes)) == (78, 106)

    def test_no_row_outlives_one_call(self, monkeypatch):
        calls = []
        real_quads = flips._quads

        def counting_quads(t):  # one call per row built
            calls.append(t)
            return real_quads(t)

        monkeypatch.setattr(flips, "_quads", counting_quads)
        start, end = Triangulation(6, tuple(PHI_324156)), Triangulation(6, tuple(PHI_453126))
        counts = []
        for _ in range(2):  # a cache that outlived one call would make the second call cheaper
            calls.clear()
            assert len(signable_path_search(start, end).flips) == 6
            assert len(set(calls)) == len(calls)  # at most one row per shape
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


class TestEmitWordCertificate:
    def test_square_certificate(self):
        path = signable_path_search(tri(2, (0, 2)), tri(2, (1, 3)))
        cert = emit_word_certificate(path)
        report = validate_certificate(cert)
        assert report.ok
        assert abs_word(cert.chain[0]) in readings(tri(2, (0, 2)))
        assert abs_word(cert.chain[-1]) in readings(tri(2, (1, 3)))

    def test_zero_flip_path_is_one_word(self):
        # 1243 and 1423 are two readings of one shape
        t = phi((1, 2, 4, 3))
        assert phi((1, 4, 2, 3)) == t
        path = signable_path_search(t, phi((1, 4, 2, 3)))
        assert path.flips == ()
        cert = emit_word_certificate(path)
        assert len(cert.chain) == 1 and cert.kinds == []
        report = validate_certificate(cert)
        assert report.ok
        assert report.endpoints[0] == report.endpoints[1]
        assert report.endpoints[0] in readings(t)
        assert tuple(1 if a > 0 else -1 for a in sorted(cert.chain[0], key=abs)) == path.start.signs

    def test_replay_refuses_a_refused_flip_and_a_missed_end(self):
        path = signable_path_search(tri(2, (0, 2)), tri(2, (1, 3)))
        (a, b), end = path.start.signs, path.end
        refused = SignedPath(SignedState(path.start.tri, (a, -b)), end, path.flips)
        missed = SignedPath(path.start, SignedState(end.tri, (a, b)), path.flips)  # the flip negates both
        unmoved = SignedPath(path.start, end, ())
        for bad, text in ((refused, r"recorded flip \(0, 2\) is refused at step 0"),
                          (missed, "does not reach its end state"),
                          (unmoved, "does not reach its end state")):
            for replay in (path_states, emit_word_certificate):
                with pytest.raises(ValueError, match=text):
                    replay(bad)

    def test_octagon_certificate_matches_chain_endpoints(self):
        t1 = Triangulation(6, tuple(PHI_324156))
        t2 = Triangulation(6, tuple(PHI_453126))
        cert = emit_word_certificate(signable_path_search(t1, t2))
        report = validate_certificate(cert)
        assert report.ok
        assert report.endpoints[0] in readings(t1)
        assert report.endpoints[1] in readings(t2)

    def test_certificates_for_all_square_and_pentagon_pairs(self):
        for n in (2, 3, 4):
            ts = list(all_triangulations(n))
            for t1, t2 in itertools.combinations(ts, 2):
                path = signable_path_search(t1, t2)
                cert = emit_word_certificate(path)
                report = validate_certificate(cert)
                assert report.ok
                assert report.endpoints[0] in readings(t1)
                assert report.endpoints[1] in readings(t2)

    def test_bridge_equals_the_search_on_every_class_pair_to_n6(self):
        pairs = 0
        for n in range(1, 7):
            for t in all_triangulations(n):
                members = sorted(readings(t))
                for w_from, w_to in itertools.product(members, repeat=2):
                    assert _class_bridge(w_from, w_to) == class_bridge_by_search(w_from, w_to)
                    pairs += 1
        assert pairs == 7375

    def test_bridge_refuses_words_of_two_classes(self):
        with pytest.raises(ValueError, match="not in the class"):
            _class_bridge((1, 2, 3), (3, 2, 1))

    def test_emission_searches_no_class(self):
        # matched by code object, so a call under any imported name is seen
        calls = []
        neighbors = words.sylvester_neighbors.__code__

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is neighbors:
                calls.append(frame.f_locals["w"])

        path = signable_path_search(phi((2, 6, 1, 4, 7, 5, 3)), phi((1, 3, 2, 5, 6, 4, 7)))
        sys.setprofile(profile)
        try:
            cert = emit_word_certificate(path)
        finally:
            sys.setprofile(None)
        assert cert.kinds.count("K1") > 0 and validate_certificate(cert).ok
        assert calls == []

    def test_emission_flips_each_step_once(self):
        # matched by code object, so a call under any imported name is seen
        calls = []
        flip_code = flips.flip.__code__

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is flip_code:
                calls.append(frame.f_locals["d"])

        path = signable_path_search(phi((2, 6, 1, 4, 7, 5, 3)), phi((1, 3, 2, 5, 6, 4, 7)))
        sys.setprofile(profile)
        try:
            cert = emit_word_certificate(path)
        finally:
            sys.setprofile(None)
        assert validate_certificate(cert).ok
        assert len(path.flips) == 7
        assert calls == list(path.flips)

    def test_emission_builds_each_flipped_shape_once(self, monkeypatch):
        # the flip readings take the flipped shape from the path's replay
        t1, t2 = Triangulation(6, tuple(PHI_324156)), Triangulation(6, tuple(PHI_453126))
        path = signable_path_search(t1, t2)
        calls = []
        real = flips._flipped
        monkeypatch.setattr(flips, "_flipped", lambda t, quad: calls.append(quad.old) or real(t, quad))
        assert validate_certificate(emit_word_certificate(path)).ok
        assert len(path.flips) == 6
        assert calls == list(path.flips)

    def test_certificate_of_a_long_walk_at_n30(self):
        path = random_signed_walk(30, 20, random.Random(30))
        cert = emit_word_certificate(path)
        report = validate_certificate(cert)
        assert report.ok
        assert cert.kinds.count("K2") == 20
        assert phi(report.endpoints[0]) == path.start.tri
        assert phi(report.endpoints[1]) == path.end.tri
        assert cert.chain[0] == sign_letters(report.endpoints[0], path.start.signs)
        assert cert.chain[-1] == sign_letters(report.endpoints[1], path.end.signs)


class TestSignPermutationPath:
    def test_known_path_signs_like_the_frozen_chain(self):
        perms = []
        for w in CHAIN:
            sigma = abs_word(w)
            if not perms or perms[-1] != sigma:
                perms.append(sigma)
        cert, failed = sign_permutation_path(perms, EPS_START)
        assert failed is None
        assert cert is not None
        assert validate_certificate(cert).ok
        assert cert.chain[0] == CHAIN[0]
        assert abs_word(cert.chain[-1]) == abs_word(CHAIN[-1])

    def test_reports_failure_step_on_unsignable_walk(self):
        # force an immediate opposite-sign exchange: 1 2 with signs +,-
        perms = [(1, 2), (2, 1)]
        cert, failed = sign_permutation_path(perms, (1, -1))
        assert cert is None
        assert failed == 0

    def test_sign_letters(self):
        assert sign_letters((3, 2, 4, 1, 5, 6), EPS_START) == CHAIN[0]
        assert sign_letters((4, 5, 3, 1, 2, 6), EPS_END) == CHAIN[-1]


class TestSignPathDiagonals:
    def test_length_one_is_trivially_signable(self):
        for t in all_triangulations(3):
            out = sign_path_diagonals([t])
            assert out.signable
            assert len(out.signings) == 1
            assert out.signings[0].base == t
            assert set(out.signings[0].signs) == set(t.diagonals)

    def test_matches_the_tracking_reference_on_every_short_walk(self):
        # every flip walk with n <= 4 and at most 4 steps, backtracking included
        def walks(path, steps):
            yield path
            if steps:
                for _, t2, _, _ in flip_row(path[-1]):
                    yield from walks(path + [t2], steps - 1)

        count = unsignable = 0
        for n in range(5):
            for t in all_triangulations(n):
                for path in walks([t], 4):
                    got = sign_path_diagonals(path)
                    assert got == sign_path_diagonals_by_tracking(path)
                    count += 1
                    unsignable += not got.signable
        assert (count, unsignable) == (1861, 448)

    def test_reference_imports_no_private_library_name(self):
        tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
        private = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("flipforge")
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert private == []

    def test_known_unsignable_path(self):
        path = [Triangulation(3, ds) for ds in UNSIGNABLE_PATH_N3]
        out = sign_path_diagonals(path)
        assert not out.signable
        assert out.failed_step == 2
        assert not path_signable_by_faces(path)

    def test_distinct_participants_implies_signable(self):
        # if no diagonal takes part in two different flips the forward
        # tracking can never be refused
        rng = random.Random(7)
        found = 0
        for n in (3, 4, 5):
            for _ in range(40):
                path = random_loop_free_path(n, rng.randint(1, 4), rng)
                if len(path) < 2:
                    continue
                participants = []
                for t1, t2 in zip(path, path[1:]):
                    diff = set(t1.diagonals) ^ set(t2.diagonals)
                    participants.extend(diff)
                if len(participants) != len(set(participants)):
                    continue
                found += 1
                assert sign_path_diagonals(path).signable
        assert found > 20

    def test_signings_replay_coherently(self):
        path = [tri(4, (0, 2), (0, 3), (0, 4))]
        path.append(flip(path[-1], (0, 3))[0])
        path.append(flip(path[-1], (0, 4))[0])
        out = sign_path_diagonals(path)
        assert out.signable
        for t, signing in zip(path, out.signings):
            assert signing.base == t
            assert set(signing.signs) == set(t.diagonals)
            assert set(signing.signs.values()) <= {1, -1}

    def test_agrees_with_face_simulation_on_random_paths(self):
        rng = random.Random(0)
        agreements = 0
        for n in (3, 4, 5):
            for _ in range(60):
                path = random_loop_free_path(n, rng.randint(1, 5), rng)
                if len(path) < 2:
                    continue
                by_diagonals = sign_path_diagonals(path).signable
                by_faces = path_signable_by_faces(path)
                assert by_diagonals == by_faces
                agreements += 1
                if by_diagonals:
                    # third leg: an explicit word certificate exists
                    walk = next(
                        w
                        for eps0 in itertools.product((1, -1), repeat=n)
                        if (w := face_sign_walk(path, eps0)) is not None
                    )
                    cert = emit_word_certificate(
                        SignedPath(
                            start=SignedState(path[0], walk[0]),
                            end=SignedState(path[-1], walk[-1]),
                            flips=tuple(
                                next(
                                    d
                                    for d in t1.diagonals
                                    if d not in t2.diagonals
                                )
                                for t1, t2 in zip(path, path[1:])
                            ),
                        )
                    )
                    assert validate_certificate(cert).ok
        assert agreements > 60

    def test_suffix_closure_of_signability(self):
        rng = random.Random(3)
        checked = 0
        for _ in range(80):
            path = random_loop_free_path(4, rng.randint(2, 5), rng)
            if len(path) < 3 or not sign_path_diagonals(path).signable:
                continue
            for p in range(len(path)):
                for q in range(p + 2, len(path) + 1):
                    assert sign_path_diagonals(path[p:q]).signable
                    checked += 1
        assert checked > 30

    def test_loop_free_sufficiency(self):
        # wherever some signable path exists, a loop-free one exists too
        for n in (2, 3):
            ts = list(all_triangulations(n))
            for t1, t2 in itertools.combinations(ts, 2):
                if signable_path_search(t1, t2) is None:
                    continue
                witness = None
                for length in range(1, len(ts)):
                    for mid in itertools.permutations([t for t in ts if t not in (t1, t2)], length - 1):
                        candidate = [t1, *mid, t2]
                        legal = all(
                            len(set(a.diagonals) ^ set(b.diagonals)) == 2
                            for a, b in zip(candidate, candidate[1:])
                        )
                        if legal and sign_path_diagonals(candidate).signable:
                            witness = candidate
                            break
                    if witness:
                        break
                assert witness is not None
