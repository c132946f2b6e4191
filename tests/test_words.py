"""Words, standardization, sylvester rewriting, signed letters, parsing."""

import itertools
import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from flipforge.graphs import compositions
from flipforge.words import (
    ClosureCapExceeded,
    abs_word,
    block_coloring,
    destandardize,
    exchange_witness,
    format_word,
    parse_word,
    standardize,
    sylvester_class,
)

from reference import (
    bar,
    delta_profile,
    evaluation,
    exchange_witness_by_scan,
    format_signed_word,
    parse_signed_word,
    sylvester_adjacent,
    sylvester_class_by_neighbors,
    sylvester_neighbors,
    words_of_evaluation,
)
from refdata import CHAIN, CLASS_BBCBCA, READINGS_235461

BBCBCA = (2, 2, 3, 2, 3, 1)


def perms(n):
    return itertools.permutations(range(1, n + 1))


permutations_st = st.integers(1, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)
words_st = st.lists(st.integers(1, 4), min_size=1, max_size=8).map(tuple)


class TestStandardize:
    def test_frozen_pair(self):
        assert standardize(parse_word("bacbbacd")) == parse_word("31645278")
        assert standardize(BBCBCA) == (2, 3, 5, 4, 6, 1)

    @given(permutations_st)
    def test_identity_on_permutations(self, sigma):
        assert standardize(tuple(sigma)) == tuple(sigma)

    @given(words_st)
    def test_output_is_permutation_preserving_comparisons(self, w):
        sigma = standardize(w)
        assert sorted(sigma) == list(range(1, len(w) + 1))
        for i, j in itertools.combinations(range(len(w)), 2):
            if w[i] < w[j]:
                assert sigma[i] < sigma[j]
            elif w[i] > w[j]:
                assert sigma[i] > sigma[j]
            else:  # ties broken left to right
                assert sigma[i] < sigma[j]


def words_up_to(n):
    """Every word of every evaluation with total at most n."""
    return [w for k in range(n + 1) for mu in compositions(k, k) for w in words_of_evaluation(mu)]


def standardize_by_position_sort(w):
    order = sorted(range(len(w)), key=lambda i: (w[i], i))
    return tuple(order.index(i) + 1 for i in range(len(w)))


class TestExchangeRule:
    def test_witness_equals_the_scan_on_every_word(self):
        for w in words_up_to(7):
            for i in range(len(w) - 1):
                assert exchange_witness(w, i) == exchange_witness_by_scan(w, i)

    @given(st.lists(st.integers(2**64 - 3, 2**64 + 3) | st.integers(1, 2**70), min_size=2, max_size=9).map(tuple))
    def test_rules_on_big_letters(self, w):
        for i in range(len(w) - 1):
            assert exchange_witness(w, i) == exchange_witness_by_scan(w, i)
        assert standardize(w) == standardize_by_position_sort(w)

    def test_standardize_equals_the_letter_then_position_sort(self):
        for w in words_up_to(7):
            assert standardize(w) == standardize_by_position_sort(w)


class TestDestandardize:
    def test_frozen_example(self):
        sigma = parse_word("31672485")
        assert destandardize(sigma, (2, 3, 2, 1)) == parse_word("baccabdb")

    def test_unit_blocks_give_back_sigma(self):
        sigma = (3, 1, 2)
        assert destandardize(sigma, (1, 1, 1)) == sigma

    def test_round_trip_all_s5(self):
        for mu in compositions(5, 5):
            kept = 0
            for sigma in perms(5):
                try:
                    w = destandardize(sigma, mu)
                except ValueError as exc:
                    assert re.search(r"\(block \d+ of mu=", str(exc))
                    continue
                kept += 1
                assert evaluation(w) == mu
                assert standardize(w) == sigma
            # one permutation kept per word of evaluation mu
            assert kept == math.factorial(5) // math.prod(map(math.factorial, mu))

    def test_inverts_standardize_over_the_words_of_mu(self):
        # a refused permutation names its first block whose values are out of order
        for n in range(7):
            for mu in compositions(n, n):
                inverse = {standardize(w): w for w in words_of_evaluation(mu)}
                starts = list(itertools.accumulate(mu, initial=1))
                for sigma in perms(n):
                    if sigma in inverse:
                        assert destandardize(sigma, mu) == inverse[sigma]
                        continue
                    k = next(k for k, (lo, hi) in enumerate(zip(starts, starts[1:]), start=1)
                             if [v for v in sigma if lo <= v < hi] != list(range(lo, hi)))
                    with pytest.raises(ValueError, match=re.escape(f"(block {k} of mu={mu})")):
                        destandardize(sigma, mu)

    def test_rejects_block_violation(self):
        # values 1,2 appear as 2..1: the first block decreases
        with pytest.raises(ValueError, match="block 1"):
            destandardize((2, 1, 3), (2, 1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            destandardize((1, 2), (1, 2, 1))

    def test_negative_part_refused(self):
        # the parts sum to the length, but a negative part is no block
        with pytest.raises(ValueError, match=re.escape("mu (3, -1)")):
            destandardize((1, 2), (3, -1))
        with pytest.raises(ValueError, match=re.escape("mu (-1, 0, 3)")):
            destandardize((2, 1), (-1, 0, 3))
        # a zero part is an empty block: its color is skipped
        assert destandardize((1, 2), (0, 2, 0)) == (2, 2)
        assert destandardize((2, 1), (1, 0, 1)) == (3, 1)


class TestBlockMembership:
    def test_frozen_member(self):
        sigma = parse_word("31645278")
        assert standardize(destandardize(sigma, (2, 3, 2, 1))) == sigma

    def test_first_bad_block_reported(self):
        # one-based number of the offending block
        with pytest.raises(ValueError, match=re.escape("(block 1 of mu=(2, 1))")):
            destandardize((2, 1, 3), (2, 1))
        with pytest.raises(ValueError, match=re.escape("(block 2 of mu=(1, 2))")):
            destandardize((1, 3, 2), (1, 2))

    @given(permutations_st)
    def test_unit_blocks_always_ok(self, sigma):
        assert destandardize(tuple(sigma), (1,) * len(sigma)) == tuple(sigma)


class TestDeltaProfile:
    def test_identity_single_run(self):
        assert delta_profile((1, 2, 3, 4)).lengths == (4,)

    def test_reverse_all_singletons(self):
        assert delta_profile((4, 3, 2, 1)).lengths == (1, 1, 1, 1)

    def test_mixed(self):
        prof = delta_profile(parse_word("31645278"))
        assert prof.lengths == (2, 3, 3)
        assert prof.segments == ((1, 2), (3, 4, 5), (6, 7, 8))

    @given(permutations_st)
    def test_segments_are_maximal_value_runs(self, sigma):
        # segments partition 1..n into consecutive value intervals whose
        # members occur left to right; maximality fails across a boundary
        sigma = tuple(sigma)
        pos = {v: i for i, v in enumerate(sigma)}
        prof = delta_profile(sigma)
        flat = tuple(v for seg in prof.segments for v in seg)
        assert flat == tuple(range(1, len(sigma) + 1))
        for seg in prof.segments:
            assert [pos[v] for v in seg] == sorted(pos[v] for v in seg)
        for left, right in zip(prof.segments, prof.segments[1:]):
            assert pos[right[0]] < pos[left[-1]]


class TestEvaluation:
    def test_examples(self):
        assert evaluation(BBCBCA) == (1, 3, 2)
        assert block_coloring((1, 3, 2)) == (1, 2, 2, 2, 3, 3)

    @given(words_st)
    def test_counts(self, w):
        mu = evaluation(w)
        assert sum(mu) == len(w)
        assert len(mu) == max(w)


class TestSylvesterAdjacency:
    def test_witness_3_5(self):
        wit = sylvester_adjacent((2, 3, 5, 4, 6, 1), (2, 5, 3, 4, 6, 1))
        assert wit is not None
        assert (wit.x, wit.z, wit.y) == (3, 5, 4)

    def test_witness_2_5(self):
        wit = sylvester_adjacent((2, 5, 3, 4, 6, 1), (5, 2, 3, 4, 6, 1))
        assert wit is not None
        assert (wit.x, wit.z) == (2, 5)
        assert wit.y in (3, 4)

    def test_self_is_not_adjacent(self):
        assert sylvester_adjacent(BBCBCA, BBCBCA) is None

    def test_requires_mediator_after_the_pair(self):
        # 1 3 2: exchanging 1,3 needs a later y with 1 <= y < 3; y=2 works
        assert sylvester_adjacent((1, 3, 2), (3, 1, 2)) is not None
        # 1 2 3 has no exchangeable prefix pair with a later mediator
        assert sylvester_adjacent((1, 2, 3), (2, 1, 3)) is None

    @given(words_st)
    def test_symmetric(self, w):
        for v in sylvester_neighbors(w):
            assert sylvester_adjacent(w, v) is not None
            assert sylvester_adjacent(v, w) is not None


class TestSylvesterClass:
    def test_frozen_classes(self):
        assert sylvester_class((2, 3, 5, 4, 6, 1)) == READINGS_235461
        assert sylvester_class(BBCBCA) == CLASS_BBCBCA

    def test_identity_is_a_singleton(self):
        for n in range(1, 7):
            ident = tuple(range(1, n + 1))
            assert sylvester_class(ident) == {ident}

    def test_cap_enforced(self):
        with pytest.raises(ClosureCapExceeded):
            sylvester_class(BBCBCA, cap=1)

    def test_cap_refuses_exactly_the_classes_larger_than_it(self):
        words = [BBCBCA, (2, 4, 5, 9, 7, 8, 6, 1, 3)] + [s for s in perms(5) if s[0] == 3]
        for w in words:
            size = len(sylvester_class_by_neighbors(w))
            assert len(sylvester_class(w, cap=size)) == size
            if size > 1:
                with pytest.raises(ClosureCapExceeded, match=f"class of {re.escape(str(w))} exceeds cap {size - 1}$"):
                    sylvester_class(w, cap=size - 1)

    def test_equals_the_neighbor_closure_on_every_permutation_to_n7(self):
        for n in range(8):
            oracle = {}  # each class once, from its first permutation, then read by every member
            for sigma in perms(n):
                if sigma not in oracle:
                    cls = sylvester_class_by_neighbors(sigma)
                    oracle.update(dict.fromkeys(cls, cls))
                assert sylvester_class(sigma) == oracle[sigma]
            assert len(oracle) == math.factorial(n)

    def test_equals_the_neighbor_closure_on_seeded_words(self):
        rng = random.Random(29)
        for k in range(300):
            # repeated letters; every third word on letters far apart, which only their order relates
            alphabet = (1, 7, 10**9) if k % 3 == 0 else range(1, rng.randint(1, 5) + 1)
            w = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 9)))
            assert sylvester_class(w) == sylvester_class_by_neighbors(w)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_is_refused(self, cap):
        with pytest.raises(ValueError, match="at least 1"):
            sylvester_class((1, 2, 3), cap=cap)

    def test_last_letter_constant(self):
        for n in range(1, 6):
            for sigma in perms(n):
                cls = sylvester_class(sigma)
                assert len({w[-1] for w in cls}) == 1

    def test_classes_partition_s_n_into_catalan_many(self):
        from flipforge.graphs import catalan

        for n in range(1, 7):
            seen = {}
            for sigma in perms(n):
                if sigma in seen:
                    continue
                cls = sylvester_class(sigma)
                for w in cls:
                    assert w not in seen
                    seen[w] = cls
            ids = {id(c) for c in seen.values()}
            assert len(ids) == catalan(n)
            assert len(seen) == sum(len(c) for c in {id(c): c for c in seen.values()}.values())


class TestStandardizationCompatibility:
    def test_equivalence_matches_standardized_equivalence(self):
        # same-evaluation words are equivalent iff their standardizations are
        for n in range(1, 7):
            for mu in compositions(n, 3):
                ws = list(words_of_evaluation(mu))
                cls = {w: sylvester_class(w) for w in ws}
                std_cls = {w: sylvester_class(standardize(w)) for w in ws}
                for w1 in ws:
                    for w2 in ws:
                        assert (w2 in cls[w1]) == (standardize(w2) in std_cls[w1])

    def test_destandardize_is_a_class_bijection(self):
        for w in (BBCBCA, (1, 1, 2), (2, 1, 2, 1)):
            mu = evaluation(w)
            sigma_class = sylvester_class(standardize(w))
            assert all(standardize(destandardize(s, mu)) == s for s in sigma_class)
            image = {destandardize(s, mu) for s in sigma_class}
            assert image == sylvester_class(w)
            assert len(image) == len(sigma_class)


class TestSignedLetters:
    def test_bar(self):
        assert bar(-3) == 3
        assert bar(3) == -3

    @given(st.integers(1, 26), st.booleans())
    def test_bar_involution(self, v, neg):
        letter = -v if neg else v
        assert bar(bar(letter)) == letter

    def test_abs_word_on_chain_endpoints(self):
        assert abs_word(CHAIN[0]) == (3, 2, 4, 1, 5, 6)
        assert abs_word(CHAIN[-1]) == (4, 5, 3, 1, 2, 6)


class TestParsing:
    def test_three_input_styles(self):
        assert parse_word("235461") == (2, 3, 5, 4, 6, 1)
        assert parse_word("bbcbca") == BBCBCA
        assert parse_word("10,2,3") == (10, 2, 3)

    def test_rejects_garbage(self):
        for bad in ("", "0", "102", "1234567890XYZ", "a,b", "-1,2"):
            with pytest.raises(ValueError):
                parse_word(bad)

    def test_format_echoes_style(self):
        assert format_word((2, 3, 5), "235461") == "235"
        assert format_word((2, 3, 5), "bbc") == "bce"
        assert format_word((2, 3, 15), "1,1") == "2,3,15"

    def test_signed_round_trip(self):
        text = "-3,2,-4,1,5,6"
        assert parse_signed_word(text) == CHAIN[0]
        assert format_signed_word(CHAIN[0]) == text

    @given(words_st)
    def test_round_trip_all_styles(self, w):
        assert parse_word(format_word(w, "1,1")) == w
        if max(w) <= 9:
            assert parse_word(format_word(w, "11")) == w
        if max(w) <= 26:
            assert parse_word(format_word(w, "a")) == w
