"""Graded words: representation, enumeration, and closed-form counts,
cross-checked against an independent brute-force oracle."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedwords import (
    DimensionMismatchError,
    GradedAlphabet,
    PreconditionError,
    Word,
    WordClassSpec,
    count_prefix_class,
    count_words,
    dot,
    enumerate_words,
    multinomial,
)

from conftest import brute_force_class, small_grid


# ---------------------------------------------------------------------------
# alphabet and word basics
# ---------------------------------------------------------------------------


def test_letter_weights_and_names():
    a = GradedAlphabet(z=(2, 0))
    assert a.m == 2
    assert a.letter_weights() == (1, 3, 1)
    assert a.letter_name(0) == "a"
    assert a.letter_name(1) == "b1"
    assert GradedAlphabet(z=(4,)).letter_name(1) == "b"


@pytest.mark.parametrize("code", [-1, 3, 7, True, 1.0])
def test_letter_codes_outside_the_alphabet_are_refused(code):
    a = GradedAlphabet(z=(1, 2))
    with pytest.raises(PreconditionError, match="letter code"):
        a.letter_weight(code)
    with pytest.raises(PreconditionError, match="letter code"):
        a.letter_name(code)


def test_equal_alphabets_hash_equal():
    a, b = GradedAlphabet(z=(1, 2)), GradedAlphabet(z=(1, 2))
    assert a == b and hash(a) == hash(b)
    assert len({Word(a, (0, 1)), Word(b, (0, 1))}) == 1
    assert GradedAlphabet(z=(2, 1)) != a


def test_negative_grading_rejected():
    with pytest.raises(PreconditionError):
        GradedAlphabet(z=(1, -1))


def test_parse_and_str_round_trip():
    a2 = GradedAlphabet(z=(1, 2))
    w = a2.parse_word("a b2 a b1")
    assert w.letters == (0, 2, 0, 1)
    assert str(w) == "a b2 a b1"
    a1 = GradedAlphabet(z=(3,))
    assert str(a1.parse_word("b a b")) == "b a b"
    assert a1.parse_word("b1 a").letters == (1, 0)  # numbered form accepted too
    assert a1.parse_word("").letters == ()


def test_parse_rejects_bad_tokens():
    a = GradedAlphabet(z=(1,))
    with pytest.raises(PreconditionError):
        a.parse_word("a c")
    with pytest.raises(PreconditionError):
        a.parse_word("b2")  # out of range for m = 1
    with pytest.raises(PreconditionError):
        GradedAlphabet(z=(1, 1)).parse_word("b")  # bare b is ambiguous for m >= 2


def test_word_weight_counts_reverse_prefixes():
    a = GradedAlphabet(z=(1, 2))
    w = a.parse_word("b2 a b1 a")
    assert w.weight == 3 + 1 + 2 + 1 == 7
    assert w.counts == (1, 1)
    assert str(w.reversed()) == "a b1 a b2"
    assert w.prefix_weight_list() == (3, 4, 6, 7)
    assert w.has_prefix_of_weight(0)  # the empty prefix
    assert w.has_prefix_of_weight(4)
    assert not w.has_prefix_of_weight(5)


def test_prefix_weights_strictly_increasing():
    a = GradedAlphabet(z=(0, 2))
    for seq in itertools.product(range(3), repeat=5):
        w = Word(a, seq)
        pw = w.prefix_weight_list()
        assert len(pw) == len(w)
        assert all(s < t for s, t in zip(pw, pw[1:]))


def test_word_letter_code_out_of_range():
    with pytest.raises(PreconditionError):
        Word(GradedAlphabet(z=(1,)), (0, 2))


# ---------------------------------------------------------------------------
# enumeration vs the brute-force oracle
# ---------------------------------------------------------------------------


def test_enumeration_matches_oracle():
    for z in small_grid(max_m=2, z_values=(0, 1, 2)):
        alphabet = GradedAlphabet(z=z)
        for p in range(8):
            for k in itertools.product(range(3), repeat=len(z)):
                expected = brute_force_class(z, p, k)
                got = [
                    w.letters
                    for w in enumerate_words(WordClassSpec(p=p, k=k), alphabet)
                ]
                assert got == expected, (z, p, k)


def test_enumeration_with_prefix_restriction_matches_oracle():
    # m up to 3, zero grading entries, r past p, and k past the feasible
    # counts (p - k.z - |k| < 0)
    for z, max_p in [((1,), 9), ((2,), 9), ((0,), 8), ((1, 2), 9), ((0, 2), 8), ((1, 0, 2), 7)]:
        alphabet = GradedAlphabet(z=z)
        for p in range(max_p):
            for k in itertools.product(range(3), repeat=len(z)):
                for r in range(p + 3):
                    expected = brute_force_class(z, p, k, r=r)
                    got = [
                        w.letters
                        for w in enumerate_words(WordClassSpec(p=p, k=k, r=r), alphabet)
                    ]
                    assert got == expected, (z, p, k, r)
                    if r == 0:  # the empty prefix selects the whole class
                        assert got == brute_force_class(z, p, k)


def test_long_words_enumerate_without_recursion():
    # one call frame per letter used to pass the interpreter's recursion limit
    alphabet = GradedAlphabet(z=(1,))
    seqs = [
        w.letters for w in enumerate_words(WordClassSpec(p=1201, k=(1,), r=1100), alphabet)
    ]
    assert len(seqs) == count_prefix_class(1100, 101, (1,), alphabet) == 1199
    assert seqs == sorted(seqs)
    assert (0,) * 1099 + (1,) + (0,) * 100 not in seqs  # its prefix weights skip 1100


def test_enumerated_words_lie_in_their_class():
    alphabet = GradedAlphabet(z=(1, 2))
    k = (1, 1)
    for w in enumerate_words(WordClassSpec(p=7, k=k), alphabet):
        assert w == Word(alphabet, w.letters)  # as the checked constructor builds it
        assert w.weight == 7
        assert w.counts == k
        assert len(w) == 7 - dot(k, alphabet.z)


def test_enumeration_is_lexicographic_and_duplicate_free():
    alphabet = GradedAlphabet(z=(0, 1))
    seqs = [w.letters for w in enumerate_words(WordClassSpec(p=6, k=(2, 1)), alphabet)]
    assert seqs == sorted(seqs)
    assert len(seqs) == len(set(seqs))


def test_infeasible_class_yields_empty_stream_and_zero_count():
    alphabet = GradedAlphabet(z=(2, 3))
    spec = WordClassSpec(p=4, k=(1, 1))  # 4 - 5 < 0
    assert list(enumerate_words(spec, alphabet)) == []
    assert count_words(4, (1, 1), alphabet) == 0
    # the unguarded multinomial would give C(-1, (1,1)) = 2 here
    assert multinomial(4 - dot((1, 1), (2, 3)), (1, 1)) == 2
    assert count_words(-1, (0,), GradedAlphabet(z=(1,))) == 0
    assert count_words(3, (-1,), GradedAlphabet(z=(1,))) == 0


def test_count_words_matches_enumeration_exhaustively():
    for z in small_grid(max_m=2, z_values=(0, 1, 3)):
        alphabet = GradedAlphabet(z=z)
        for p in range(9):
            for k in itertools.product(range(3), repeat=len(z)):
                formula = count_words(p, k, alphabet)
                listed = sum(1 for _ in enumerate_words(WordClassSpec(p=p, k=k), alphabet))
                assert formula == listed, (z, p, k)
                assert formula.denominator == 1


def test_count_words_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        count_words(3, (1, 1), GradedAlphabet(z=(1,)))


# ---------------------------------------------------------------------------
# prefix classes
# ---------------------------------------------------------------------------


def test_count_prefix_class_small_values():
    a = GradedAlphabet(z=(1,))
    # total weight 4, one b: words a a b / a b a / b a a; a weight-2 prefix
    # exists for "a a b" and "b a a" but not "a b a" (weights 1, 3, 4)
    expected = sum(
        1 for w in enumerate_words(WordClassSpec(p=4, k=(1,)), a)
        if w.has_prefix_of_weight(2)
    )
    assert count_prefix_class(2, 2, (1,), a) == expected == 2


def test_count_prefix_class_requires_p_and_q_at_least_nz():
    a = GradedAlphabet(z=(2,))
    with pytest.raises(PreconditionError):
        count_prefix_class(1, 5, (1,), a)
    with pytest.raises(PreconditionError):
        count_prefix_class(5, 1, (1,), a)
    assert count_prefix_class(2, 2, (1,), a) >= 0


def test_count_prefix_class_empty_prefix_convention():
    # p = 0 is allowed when n.z = 0: every word has the empty prefix
    a = GradedAlphabet(z=(0,))
    total = count_words(3, (1,), a)
    assert count_prefix_class(0, 3, (1,), a) == total == 3
    assert count_prefix_class(0, 0, (0,), GradedAlphabet(z=(1,))) == 1


@given(
    z=st.lists(st.integers(0, 2), min_size=1, max_size=2).map(tuple),
    n=st.lists(st.integers(0, 2), min_size=1, max_size=2).map(tuple),
    p=st.integers(0, 7),
    q=st.integers(0, 7),
)
@settings(max_examples=60, deadline=None)
def test_count_prefix_class_matches_filtered_enumeration(z, n, p, q):
    if len(z) != len(n):
        n = n[: len(z)] + (0,) * (len(z) - len(n))
    alphabet = GradedAlphabet(z=z)
    nz = dot(n, z)
    if p < nz or q < nz:
        with pytest.raises(PreconditionError):
            count_prefix_class(p, q, n, alphabet)
        return
    formula = count_prefix_class(p, q, n, alphabet)
    listed = sum(
        1
        for w in enumerate_words(WordClassSpec(p=p + q, k=n), alphabet)
        if w.has_prefix_of_weight(p)
    )
    assert formula == listed


def test_counts_are_exact_fractions_with_unit_denominator():
    a = GradedAlphabet(z=(1, 2))
    c = count_prefix_class(5, 5, (1, 1), a)
    assert isinstance(c, Fraction) and c.denominator == 1
