"""Graded words: representation, enumeration, and closed-form counts,
cross-checked against an independent brute-force oracle."""

from __future__ import annotations

import collections
import functools
import itertools
import time
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
from gradedwords import words

from conftest import (
    brute_force_class, brute_force_sequences, count_fills, prefix_weights, small_grid,
)


# ---------------------------------------------------------------------------
# alphabet and word basics
# ---------------------------------------------------------------------------


def test_letter_weights_and_names():
    a = GradedAlphabet(z=(2, 0))
    assert a.m == 2
    assert a.weights == (1, 3, 1)
    assert a.letter_name(0) == "a"
    assert a.letter_name(1) == "b1"
    assert GradedAlphabet(z=(4,)).letter_name(1) == "b"


@pytest.mark.parametrize("code", [-1, 3, 7, True, 1.0])
def test_letter_codes_outside_the_alphabet_are_refused(code):
    a = GradedAlphabet(z=(1, 2))
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


def test_word_weight_counts_prefixes():
    a = GradedAlphabet(z=(1, 2))
    w = a.parse_word("b2 a b1 a")
    assert w.weight == 3 + 1 + 2 + 1 == 7
    assert w.counts == (1, 1)
    assert prefix_weights(w) == (3, 4, 6, 7)
    assert w.prefix_cut(0) == 0  # the empty prefix
    assert w.prefix_cut(4) == 2
    assert w.prefix_cut(5) is None


def test_prefix_weights_strictly_increasing():
    a = GradedAlphabet(z=(0, 2))
    for seq in itertools.product(range(3), repeat=5):
        w = Word(a, seq)
        pw = prefix_weights(w)
        assert len(pw) == len(w)
        assert all(s < t for s, t in zip(pw, pw[1:]))


def test_word_letter_code_out_of_range():
    with pytest.raises(PreconditionError):
        Word(GradedAlphabet(z=(1,)), (0, 2))


@pytest.mark.parametrize("z", [(0.5,), (1, 2.0), (True,), (1, -1), 3, None])
def test_alphabet_refuses_a_grading_of_other_than_naturals(z):
    with pytest.raises(PreconditionError, match="z"):
        GradedAlphabet(z=z)


def test_alphabet_from_a_list_is_hashable_and_equals_the_tuple_form():
    a = GradedAlphabet(z=[1, 2])
    assert a.z == (1, 2) and a == GradedAlphabet(z=(1, 2))
    assert hash(a) == hash(GradedAlphabet(z=(1, 2)))


@pytest.mark.parametrize("letters", [(True, 0), (0, False), (0.0, 1), (1, 1.0)])
def test_word_refuses_letters_that_are_not_ints(letters):
    with pytest.raises(PreconditionError, match="letter codes"):
        Word(GradedAlphabet(z=(1,)), letters)


def test_word_from_a_list_is_hashable_and_equals_the_tuple_form():
    w = Word(GradedAlphabet(z=(1,)), [0, 1])
    assert w.letters == (0, 1) and w == Word(GradedAlphabet(z=(1,)), (0, 1))
    assert hash(w) == hash(Word(GradedAlphabet(z=(1,)), (0, 1)))


@pytest.mark.parametrize("p, k, r", [
    (3.0, (1,), None), (True, (1,), None), (3, (1.0,), None), (3, (True,), None),
    (3, (1,), 1.5), (3, (1,), True), (Fraction(3), (1,), None),
])
def test_class_spec_refuses_non_int_weights_counts_and_prefixes(p, k, r):
    with pytest.raises(PreconditionError, match="int"):
        WordClassSpec(p, k, r)


def test_negative_weights_and_prefixes_give_empty_classes():
    alphabet = GradedAlphabet(z=(1,))
    assert WordClassSpec(3, [1]).k == (1,)
    assert list(enumerate_words(WordClassSpec(-1, (0,)), alphabet)) == []
    assert list(enumerate_words(WordClassSpec(3, (1,), -1), alphabet)) == []
    assert len(list(enumerate_words(WordClassSpec(3, (1,), 0), alphabet))) == 2


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


@pytest.mark.parametrize("shared", [False, True], ids=["own-tables", "shared-tables"])
def test_class_size_is_the_enumeration_count_and_the_closed_form(shared, monkeypatch):
    # _class_size sums table lengths and builds no word: it must agree with
    # the words it stands for, and with count_words or the split sum, both
    # when each class lists its own tables (the memo emptied before it, so
    # a table is listed again) and when it meets tables that earlier classes
    # listed (none is listed twice)
    words._table.cap.empty()
    fills = count_fills(monkeypatch, words._table)
    for z in small_grid():
        alphabet = GradedAlphabet(z=z)
        for p in range(8):
            for k in itertools.product(range(3), repeat=len(z)):
                for r in [None, *range(-1, p + 2)]:
                    if not shared:
                        words._table.cap.empty()
                    size = words._class_size(alphabet, p, k, r)
                    assert size == len(_flattened(words._class_blocks(alphabet, p, k, r))), (z, p, k, r)
                    if r is None or r == 0:
                        assert size == count_words(p, k, alphabet), (z, p, k, r)
                    elif r > 0:
                        assert size == words._split_count(z, r, p - r, k), (z, p, k, r)
                    else:
                        assert size == 0, (z, p, k, r)
    assert fills and (len(set(fills)) < len(fills)) != shared


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
        if w.prefix_cut(2) is not None
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
        if w.prefix_cut(p) is not None
    )
    assert formula == listed


@pytest.mark.parametrize("z", [(0,), (2,), (0, 1), (1, 2), (1, 0, 2)])
def test_split_count_matches_brute_force(z):
    # any p, q and n: negative weights, counts past the feasible ones and
    # (as an enumeration's prefix weight r past the class weight) q < 0
    lw = GradedAlphabet(z=z).weights
    for total in range(-3, 10):
        # the words of weight total, tallied by letter counts and prefix weight
        tally = collections.Counter(
            (tuple(map(seq.count, range(1, len(z) + 1))), weight)
            for seq in brute_force_sequences(z, total)
            for weight in {0, *itertools.accumulate(map(lw.__getitem__, seq))}
        )
        for n in itertools.product(range(-1, 3), repeat=len(z)):
            for p in range(-2, 7):
                assert words._split_count(z, p, total - p, n) == tally[n, p], (n, p, total)


def test_counts_are_ints():
    a = GradedAlphabet(z=(1, 2))
    assert type(count_prefix_class(5, 5, (1, 1), a)) is int
    assert type(count_words(9, (2, 2), a)) is int
    assert type(count_words(2, (2, 2), a)) is int  # an infeasible class


# ---------------------------------------------------------------------------
# block enumeration
# ---------------------------------------------------------------------------

# (z, p, k): each class has more words than the default table cap, so the
# head search places letters past the weight-r prefix before it takes a table
_LARGE_CLASSES = [
    ((1,), 13, (3,)),
    ((0,), 10, (4,)),
    ((2,), 16, (3,)),
    ((1, 2), 12, (2, 1)),
    ((0, 1), 9, (2, 2)),
    ((1, 0, 2), 10, (1, 1, 1)),
    ((0, 0, 0), 7, (1, 2, 1)),
]


def _flattened(blocks):
    return [head + t for _, head, table in blocks for t in table]


_oracle = functools.cache(brute_force_class)


@pytest.mark.parametrize("cap", [1, 5, words._TABLE_CAP])
@pytest.mark.parametrize("z, p, k", _LARGE_CLASSES)
def test_blocks_flatten_to_algorithm_l_and_the_oracle(monkeypatch, cap, z, p, k):
    alphabet = GradedAlphabet(z=z)
    assert count_words(p, k, alphabet) > words._TABLE_CAP
    monkeypatch.setattr(words, "_TABLE_CAP", cap)
    counts = [p - dot(k, z) - sum(k), *k]
    whole = _flattened(words._class_blocks(alphabet, p, k))
    assert whole == list(words._arrangements(counts)) == _oracle(z, p, k)
    for r in range(p + 2):
        blocks = list(words._class_blocks(alphabet, p, k, r))
        assert _flattened(blocks) == _oracle(z, p, k, r), r
        assert all(len(table) <= cap for _, _, table in blocks)
    blocks = list(words._class_blocks(alphabet, p, k))
    assert len(blocks) > 1 and any(head for _, head, _ in blocks)


@pytest.mark.parametrize("cap", [1, 5, words._TABLE_CAP])
@pytest.mark.parametrize("z, p, k", _LARGE_CLASSES)
def test_each_block_cuts_at_its_weight_r_prefix(monkeypatch, cap, z, p, k):
    monkeypatch.setattr(words, "_TABLE_CAP", cap)
    alphabet = GradedAlphabet(z=z)
    lw = alphabet.weights
    for r in [None, *range(p + 1)]:
        for cut, head, table in words._class_blocks(alphabet, p, k, r):
            assert cut <= len(head)
            for t in table:
                assert words._cut(lw, head + t, r or 0) == (cut, r or 0)


def _cut_oracle(lw, letters, target):
    prefixes = [0, *itertools.accumulate(map(lw.__getitem__, letters))]
    for length, weight in enumerate(prefixes):
        if weight >= target:
            return length, weight
    return len(letters), prefixes[-1]


@pytest.mark.parametrize("z", [(0,), (1,), (3,), (0, 0), (0, 2), (1, 2), (1, 0, 2), (0, 0, 1)])
def test_cut_is_the_first_prefix_at_or_past_the_target(z):
    lw = GradedAlphabet(z=z).weights
    for weight in range(8):
        for letters in brute_force_sequences(z, weight):
            for target in range(-1, weight + 2):
                assert words._cut(lw, letters, target) == _cut_oracle(lw, letters, target)


def test_blocks_of_the_1200_letter_class_equal_the_plain_stream():
    alphabet, lw = GradedAlphabet(z=(1,)), (1, 2)
    whole = list(words._arrangements([1199, 1]))
    blocks = list(words._class_blocks(alphabet, 1201, (1,)))
    assert _flattened(blocks) == whole
    assert len(blocks) > 1 and all(len(table) <= words._TABLE_CAP for _, _, table in blocks)
    prefixed = [w for w in whole if 1100 in itertools.accumulate(map(lw.__getitem__, w))]
    blocks = list(words._class_blocks(alphabet, 1201, (1,), 1100))
    assert _flattened(blocks) == prefixed
    assert all(sum(map(lw.__getitem__, head[:cut])) == 1100 for cut, head, _ in blocks)


def test_a_forced_run_below_the_cut_is_placed_in_one_step():
    # below weight r, letters left with one arrangement are a run of one
    # letter, placed whole: each head of the r = 1100 class ends in such a
    # run of a, so its 1199 words cost less than Algorithm L's stream of the
    # whole class's 1200 words (about a fifth of it), where a run placed one
    # letter at a time costs about four times the stream; the memo is
    # emptied before each timed listing
    alphabet = GradedAlphabet(z=(1,))

    def best_of_three(run):
        times = []
        for _ in range(3):
            words._table.cap.empty()
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        return min(times)

    placed = best_of_three(lambda: words._class_size(alphabet, 1201, (1,), 1100))
    assert placed < best_of_three(lambda: collections.deque(words._arrangements([1199, 1]), 0))


@pytest.mark.parametrize(
    "z, max_p", [((0,), 10), ((1,), 12), ((2,), 12), ((0, 1), 8), ((1, 2), 10), ((1, 1, 2), 7)]
)
def test_blocks_and_cuts_of_every_prefix_class_match_the_oracle(z, max_p):
    alphabet = GradedAlphabet(z=z)
    lw = alphabet.weights
    for p in range(max_p + 1):
        for k in itertools.product(range(3), repeat=len(z)):
            for r in range(p + 1):
                blocks = list(words._class_blocks(alphabet, p, k, r))
                assert _flattened(blocks) == brute_force_class(z, p, k, r), (p, k, r)
                for cut, head, _ in blocks:
                    assert cut <= len(head), (p, k, r)
                    assert sum(map(lw.__getitem__, head[:cut])) == r, (p, k, r)


def test_tables_are_shared_between_classes():
    # the weight-3 and weight-4 prefix classes of a shift leave some equal
    # letters over, and so do two alphabets with one m at equal letter
    # counts: the process's memo serves each the same table, nothing passed
    alphabet = GradedAlphabet(z=(1,))
    source = list(words._class_blocks(alphabet, 16, (4,), 3))
    target = list(words._class_blocks(alphabet, 16, (4,), 4))
    assert {id(table) for _, _, table in source} & {id(table) for _, _, table in target}
    assert _flattened(target) == brute_force_class((1,), 16, (4,), r=4)
    assert words._class_size(alphabet, 16, (4,), 4) == len(_flattened(target))
    whole = list(words._class_blocks(alphabet, 16, (4,)))
    other = list(words._class_blocks(GradedAlphabet(z=(2,)), 20, (4,)))
    assert [(head, id(table)) for _, head, table in whole] == [
        (head, id(table)) for _, head, table in other
    ]
    assert all(type(table) is tuple for _, _, table in whole)


def test_the_memo_is_bounded_and_counts_past_its_bound(monkeypatch):
    # over z = (0, 0) a class of 2 to _TABLE_CAP words is one table at the
    # empty head, and 460 such tables exist: more than the memo keeps, and
    # the counts hold while it drops them, on a second pass too
    alphabet = GradedAlphabet(z=(0, 0))
    classes = [
        (p, (k1, k2))
        for p in range(words._TABLE_CAP + 1)
        for k1 in range(p + 1)
        for k2 in range(p - k1 + 1)
        if 2 <= multinomial(p, (k1, k2)) <= words._TABLE_CAP
    ]
    assert len(classes) == 460
    words._table.cap.empty()
    fills = count_fills(monkeypatch, words._table)
    for _ in range(2):
        for p, k in classes:
            assert words._class_size(alphabet, p, k) == count_words(p, k, alphabet), (p, k)
            assert len(words._table) == words._table.cap.kept <= words._TABLES_KEPT
    # the miss that finds the memo full empties it: the first pass keeps its
    # last 204 tables, and the second, emptying at its 53rd and 309th table,
    # misses all 460 again and keeps its last 152
    assert words._table.cap.most == words._TABLES_KEPT == 256
    assert len(fills) == 920 and len(words._table) == 152


def test_the_memo_keeps_only_tables_of_two_or_more_tails(monkeypatch):
    # a run of one letter is its block's only tail, built in place: every
    # head of class(4001, (1,)) but one, a^3936, ends in b and leaves a run
    # of a, and a^3936 leaves the table of counts (63, 1), listed before
    alphabet = GradedAlphabet(z=(1,))
    words._table.cap.empty()
    fills = count_fills(monkeypatch, words._table)
    assert words._class_size(alphabet, 65, (1,)) == 64
    assert words._class_size(alphabet, 4001, (1,)) == 4000
    assert fills == [(63, 1)] and list(words._table) == [(63, 1)]
    # any listing: the memo sees 2 to _TABLE_CAP tails, each of at most
    # _TABLE_CAP letters, since L letters of two kinds have L arrangements
    words._table.cap.empty()
    listed = []
    fill = words._table.fill
    monkeypatch.setattr(words._table, "fill", lambda counts: listed.append(fill(counts)) or listed[-1])
    for z, p, k in [*_LARGE_CLASSES, ((1,), 1201, (1,))]:
        for r in [None, *range(min(p, 40) + 1), 1100]:
            words._class_size(GradedAlphabet(z=z), p, k, r)
    assert listed and all(
        2 <= len(table) <= words._TABLE_CAP and len(table[0]) <= words._TABLE_CAP
        for table in listed
    )


def test_a_planted_table_replaces_the_one_listed_before(plant_arrangements):
    alphabet = GradedAlphabet(z=(1,))
    assert words._class_size(alphabet, 5, (1,)) == 4  # one table, of counts (3, 1)
    real = words._arrangements  # a plant without the first arrangement: sorted, but wrong
    plant_arrangements(lambda counts: itertools.islice(real(counts), 1, None))
    assert words._class_size(alphabet, 5, (1,)) == 3


def test_a_planted_table_does_not_reach_the_next_test():
    # runs after the test above, whose plant listed a table one entry short
    assert words._class_size(GradedAlphabet(z=(1,)), 5, (1,)) == 4
    assert words._table[3, 1] == ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))
