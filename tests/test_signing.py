"""Signed-state closures, word certificates, and path signability."""

import ast
import itertools
import random
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from flipforge import flips, signing, words
from flipforge.flips import flip_between
from flipforge.phi import readings, triangulation_from_permutation as phi
from flipforge.signing import (
    Certificate,
    DiagonalSigning,
    SignedPath,
    SignedState,
    StateCapExceeded,
    _class_bridge,
    emit_word_certificate,
    sign_letters,
    sign_path_diagonals,
    signable_path_search,
    validate_certificate,
)
from flipforge.triangulation import Triangulation, all_triangulations
from flipforge.words import abs_word, is_signed_word

from reference import (
    class_bridge_by_search,
    classify_step,
    depths_below_end,
    face_sign_walk,
    flip,
    flip_row,
    path_signable_by_faces,
    sign_path_diagonals_by_tracking,
    sigma_closure,
    signable_path_by_states,
    sign_permutation_path,
    signed_flip,
    signed_flip_diagonal,
    signed_moves,
    states_below_end,
    states_on_shortest_paths,
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
    states = [SignedState(phi(tuple(perm)), tuple(rng.choice((-1, 1)) for _ in range(n)))]
    for _ in range(flips):
        tri_, signs = states[-1]
        _, tri_, signs = rng.choice(list(signed_moves(flip_row(tri_), signs)))
        states.append(SignedState(tri_, signs))
    return SignedPath(states)


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

    def test_checks_each_word_once(self, monkeypatch):
        checks = count_calls(monkeypatch, signing, "is_signed_word")
        worked = emit_word_certificate(signable_path_search(*WORKED_PAIR))
        for cert in (Certificate(CHAIN, CHAIN_KINDS), Certificate((CHAIN[0],), ()), worked):
            checks.clear()
            assert validate_certificate(cert).ok
            assert len(checks) == len(cert.chain) and [w for (w,) in checks] == list(cert.chain)

    def test_tampered_chains_are_refused_as_by_checking_every_step(self):
        # the first bad step and reason that checking both words of every step
        # by classify_step would give, on each one-letter tampering of the chain
        def by_steps(chain, kinds):
            bad = next((i for i, w in enumerate(chain) if not is_signed_word(w)), None)
            if bad is not None:
                return bad, f"entry {bad} is not a signed word: {chain[bad]}"
            for i, (w1, w2, kind) in enumerate(zip(chain, chain[1:], kinds)):
                got = classify_step(w1, w2)
                if got != kind:
                    return i, (f"step {i} is neither a K1 nor a K2 move" if got is None
                               else f"step {i} classifies as {got}, recorded {kind}")
            return None, None

        refused = 0
        for p, word in enumerate(CHAIN):
            for k, letter in enumerate(word):
                for new in (-letter, 0, word[k - 1], letter + 10):
                    chain = CHAIN[:p] + (word[:k] + (new,) + word[k + 1:],) + CHAIN[p + 1:]
                    report = validate_certificate(Certificate(chain, CHAIN_KINDS))
                    assert (report.first_bad_step, report.reason) == by_steps(chain, CHAIN_KINDS)
                    refused += not report.ok
        assert refused == 4 * sum(map(len, CHAIN))

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
        assert len(path) == 7 and path[0] == path.start and path[-1] == path.end
        # each state is the oracle's signed flip of the one before
        for before, quad, after in path.steps():
            assert signed_flip(*before, quad.old) == after
        assert path.flips == tuple(quad.old for _, quad, _ in path.steps())

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
        cap = len(depth)
        rows = count_calls(monkeypatch, flips.ShapeTable, "_build_row")  # one call per row built
        path = signable_path_search(t1, t2, max_states=cap)
        built = len(rows)
        d = len(path.flips)
        assert d - 1 == max(depth.values())
        # a lookahead at layer t runs iff the states to distance t, plus n - 1
        # for each state of layer t, fit the cap; the one at layer d - 2 meets
        # the end, so layer d - 2 expands only when its lookahead is refused
        sizes = Counter(depth.values())
        bounds = [sum(sizes[u] for u in range(t + 1)) + (t1.n - 1) * sizes[t] for t in range(d - 1)]
        expanded = d - 2 if bounds and bounds[-1] <= cap else d - 1
        # the rows that expand those layers, the end shape's own row, the rows
        # of its neighbours when any lookahead ran, and the rows of the shapes
        # on a shortest path, which the backward pass and the forward walk read
        expected = {state.tri for state, t in depth.items() if t < expanded}
        expected |= {t2} | {state.tri for state in states_on_shortest_paths(t1, t2)}
        if any(b <= cap for b in bounds):
            expected |= {t for _, t, _, _ in flip_row(t2)}
        assert built == len(expected)

    def test_a_skipped_layer_builds_rows_only_on_shortest_paths(self, monkeypatch):
        # under the default cap the last frontier is met at the end shape's
        # neighbours, so of the shapes first reached at distance d - 2 just
        # those with a signing on a shortest path, and the end shape's
        # neighbours that each lookahead reads, build a row
        rows = count_calls(monkeypatch, flips.ShapeTable, "_build_row")  # (table, shape) per row built
        skipped = 0
        for t1, t2 in seeded_pairs(random.Random(41), 10):
            rows.clear()
            path = signable_path_search(t1, t2)
            assert path == signable_path_by_states(t1, t2)
            built = {table.shape(i) for table, i in rows}
            d = len(path.flips)
            first: dict = {}
            for state, t in depths_below_end(t1, t2).items():
                first[state.tri] = min(first.get(state.tri, t), t)
            last = {t for t, depth in first.items() if depth == d - 2}
            allowed = {state.tri for state in states_on_shortest_paths(t1, t2)}
            allowed |= {t for _, t, _, _ in flip_row(t2)}
            assert built & last == allowed & last
            skipped += len(last - built)
        # the search over every layer built a row for each of them
        assert skipped > 100

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
        rows = count_calls(monkeypatch, flips.ShapeTable, "_build_row")  # one call per row built
        tables = []
        monkeypatch.setattr(signing, "ShapeTable",
                            lambda shapes: tables.append(flips.ShapeTable(shapes)) or tables[-1])
        path = signable_path_search(Triangulation(6, tuple(PHI_324156)), Triangulation(6, tuple(PHI_453126)))
        assert len(path.flips) == 6
        (table,) = tables
        # a FIFO search over single states built 87 rows and 114 shapes here,
        # and one that expanded layer d - 2 built 78 and 106; past the two
        # given shapes, each code numbered is a shape added
        assert (len(rows), len(table.codes) - 2) == (56, 92)

    def test_search_builds_a_triangulation_only_for_the_inner_shapes(self):
        # matched by code object, so a construction anywhere is seen; the start
        # and end shapes are the ones given, and a shape the table numbered
        # becomes a triangulation only as a state of the returned path
        built = []
        post_init = Triangulation.__post_init__.__code__

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is post_init:
                built.append(frame.f_locals["self"].diagonals)

        for t1, t2 in seeded_pairs(random.Random(36), 6) + [WORKED_PAIR]:
            built.clear()
            sys.setprofile(profile)
            try:
                path = signable_path_search(t1, t2)
            finally:
                sys.setprofile(None)
            assert path.start.tri is t1 and path.end.tri is t2
            inner = [state.tri.diagonals for state in path[1:-1] if state.tri not in (t1, t2)]
            assert built == inner and len(inner) >= len(path.flips) - 1 > 0

    def test_no_row_outlives_one_call(self, monkeypatch):
        calls = []
        real_build = flips.ShapeTable._build_row

        def counting_build(table, i):  # one call per row built
            calls.append(table.codes[i])
            return real_build(table, i)

        monkeypatch.setattr(flips.ShapeTable, "_build_row", counting_build)
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
        # a path holds the states its search walked, and the emission does not
        # check them: a flip its signs refuse, or an end state the flip does
        # not give, emits a chain the certificate check rejects at that step
        path = signable_path_search(tri(2, (0, 2)), tri(2, (1, 3)))
        (a, b), end = path.start.signs, path.end
        refused = SignedPath([SignedState(path.start.tri, (a, -b)), end])
        missed = SignedPath([path.start, SignedState(end.tri, (a, b))])  # the flip negates both
        assert validate_certificate(emit_word_certificate(path)).ok
        for bad in (refused, missed):
            assert bad.flips == path.flips
            report = validate_certificate(emit_word_certificate(bad))
            assert (report.ok, report.first_bad_step) == (False, 0)
            assert report.reason == "step 0 is neither a K1 nor a K2 move"

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
        closure = words.sylvester_class.__code__

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is closure:
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
        # each step's quadrilateral is read once, off the step's two shapes;
        # matched by code object, so a call under any imported name is seen
        calls = []
        watched = {flips.flip_between.__code__: "flip_between",
                   flips.ShapeTable._build_row.__code__: "_build_row",
                   flips.ShapeTable.shape.__code__: "shape"}

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                name = watched[frame.f_code]
                calls.append((name, frame.f_locals["t1"], frame.f_locals["t2"])
                             if name == "flip_between" else (name,))

        path = signable_path_search(phi((2, 6, 1, 4, 7, 5, 3)), phi((1, 3, 2, 5, 6, 4, 7)))
        sys.setprofile(profile)
        try:
            cert = emit_word_certificate(path)
        finally:
            sys.setprofile(None)
        assert validate_certificate(cert).ok
        assert len(path) == 8
        assert calls == [("flip_between", s1.tri, s2.tri) for s1, s2 in zip(path, path[1:])]

    def test_emission_builds_each_flipped_shape_once(self, monkeypatch):
        # the search built each shape of the path once; the flip readings take
        # the shape before each flip, with its quadrilateral, from the path and
        # build none
        path = signable_path_search(*WORKED_PAIR)
        built = [count_calls(monkeypatch, flips.ShapeTable, "shape"),
                 count_calls(monkeypatch, flips.ShapeTable, "_build_row")]
        read = count_calls(monkeypatch, signing, "flip_readings")
        assert validate_certificate(emit_word_certificate(path)).ok
        assert len(path.flips) == 6
        assert built == [[], []]
        assert read == [(s1.tri, quad) for s1, quad, _ in path.steps()]
        assert all(t is s1.tri for (t, _), s1 in zip(read, path))

    def test_emission_reads_each_flip_once(self, monkeypatch):
        # one least reading per flip: the flipped word exchanges its pair
        path = signable_path_search(*WORKED_PAIR)
        read = count_calls(monkeypatch, signing, "least_reading")
        cert = emit_word_certificate(path)
        assert validate_certificate(cert).ok
        assert [t for t, _ in read] == [s.tri for s in path[:-1]]
        assert len(read) == cert.kinds.count("K2") == 6

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

    def test_matches_the_tracking_reference_on_long_random_walks(self):
        # seeded walks of up to 14 flips at n = 5..9, backtracking included
        rng = random.Random(30)
        signable = unsignable = 0
        for n in range(5, 10):
            for _ in range(120):
                path = [phi(tuple(rng.sample(range(1, n + 1), n)))]
                for _ in range(rng.randint(1, 14)):
                    path.append(flip(path[-1], rng.choice(path[-1].diagonals))[0])
                got = sign_path_diagonals(path)
                assert got == sign_path_diagonals_by_tracking(path)
                signable += got.signable
                unsignable += not got.signable
        assert signable > 100 and unsignable > 100

    @staticmethod
    def seeded_walks():
        # 60 seeded 12-flip walks at n = 7, signable and unsignable both
        rng = random.Random(31)
        walks = []
        for _ in range(60):
            path = [phi(tuple(rng.sample(range(1, 8), 7)))]
            for _ in range(12):
                path.append(flip(path[-1], rng.choice(path[-1].diagonals))[0])
            walks.append(path)
        return walks

    def test_replays_each_step_once(self, monkeypatch):
        # one signing per step replayed, each the oracle's signed flip of the
        # one before it, up to the step the oracle refuses
        walks = self.seeded_walks()
        made = count_calls(monkeypatch, signing, "DiagonalSigning")
        runs = []
        for path in walks:
            made.clear()
            runs.append((path, sign_path_diagonals(path), [DiagonalSigning(*args) for args in made]))
        monkeypatch.undo()
        outcomes = set()
        for path, out, signings in runs:
            quads = [flip_between(t1, t2) for t1, t2 in zip(path, path[1:])]
            for ds, quad, ds2 in zip(signings, quads, signings[1:]):
                assert signed_flip_diagonal(ds, quad.old) == ds2
            if out.signable:
                assert out.signings == signings and len(signings) == len(path)
            else:
                assert len(signings) == out.failed_step + 1
                assert signed_flip_diagonal(signings[-1], quads[out.failed_step].old) is None
            outcomes.add(out.signable)
        assert outcomes == {True, False}

    def test_flips_each_step_once(self, monkeypatch):
        # each step's flip is read off the path once, as the quadrilateral
        # between its two shapes; the replay performs no flip and builds no shape
        walks = self.seeded_walks()
        between = count_calls(monkeypatch, signing, "flip_between")
        flipped = [count_calls(monkeypatch, flips.ShapeTable, "shape"),
                   count_calls(monkeypatch, flips.ShapeTable, "_build_row")]
        outcomes = set()
        for path in walks:
            between.clear()
            out = sign_path_diagonals(path)
            assert between == list(zip(path, path[1:]))
            outcomes.add(out.signable)
        assert flipped == [[], []]
        assert outcomes == {True, False}

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
                    signed = SignedPath(map(SignedState, path, walk))
                    cert = emit_word_certificate(signed)
                    assert validate_certificate(cert).ok
                    assert signed.flips == tuple(
                        next(d for d in t1.diagonals if d not in t2.diagonals)
                        for t1, t2 in zip(path, path[1:])
                    )
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
