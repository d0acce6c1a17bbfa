"""The weight-shift bijection and the overshoot (Raney) factorization."""

from __future__ import annotations

import ast
import collections
import inspect
import itertools
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradedwords import (
    GradedAlphabet,
    LemmaViolationError,
    Overshoot,
    PrefixCase,
    PreconditionError,
    Word,
    WordClassSpec,
    count_prefix_class,
    count_words,
    dot,
    enumerate_words,
    find_balanced_pair,
    find_equal_prefixes,
    raney_factorize,
    raney_unfactorize,
    shift_by,
    shift_down,
    verify_raney_decomposition,
    verify_shift_bijection,
)
from gradedwords import bijections, main, words
from gradedwords.bijections import _balanced_cut, _raney_join, _swap_balanced
from gradedwords.cli import EXIT_COUNTEREXAMPLE

A1 = GradedAlphabet(z=(1,))
A2 = GradedAlphabet(z=(1, 2))


def _class(alphabet, p, k, r=None):
    return list(enumerate_words(WordClassSpec(p=p, k=k, r=r), alphabet))


# ---------------------------------------------------------------------------
# equal-weight prefixes (the existence lemma)
# ---------------------------------------------------------------------------


def test_find_equal_prefixes_examples():
    x, y = find_equal_prefixes(A1.parse_word("a a"), A1.parse_word("b a"), (1,))
    assert (str(x), str(y)) == ("a a", "b")  # common prefix weight 2
    x, y = find_equal_prefixes(A1.parse_word("a"), A1.parse_word("a"), (0,))
    assert (str(x), str(y)) == ("a", "a")
    # two b's in u.v: bound is n.z + 1 = 3, met with weight-3 words
    x, y = find_equal_prefixes(A1.parse_word("b a"), A1.parse_word("a b"), (2,))
    assert (str(x), str(y)) == ("b a", "a b")  # only common weight is 3


def test_find_equal_prefixes_preconditions():
    with pytest.raises(PreconditionError):
        find_equal_prefixes(A1.parse_word("a"), A1.parse_word("b a"), (1,))  # ||u|| < 2
    with pytest.raises(PreconditionError):
        find_equal_prefixes(A1.parse_word("a b"), A1.parse_word("a a"), (2,))  # wrong n


def test_find_equal_prefixes_exhaustive_small():
    # wherever the weight bound holds, a minimal equal-weight prefix pair
    # exists and matches a brute-force intersection of prefix weights
    for z in [(1,), (2,), (1, 2)]:
        alphabet = GradedAlphabet(z=z)
        for total_u in range(1, 6):
            for ku in itertools.product(range(2), repeat=len(z)):
                for total_v in range(1, 6):
                    for kv in itertools.product(range(2), repeat=len(z)):
                        n = tuple(a + b for a, b in zip(ku, kv))
                        bound = dot(n, z) + 1
                        if total_u < bound or total_v < bound:
                            continue
                        for u in _class(alphabet, total_u, ku):
                            for v in _class(alphabet, total_v, kv):
                                x, y = find_equal_prefixes(u, v, n)
                                assert x.weight == y.weight > 0
                                common = set(u.prefix_weight_list()) & set(
                                    v.prefix_weight_list()
                                )
                                assert x.weight == min(common)


# ---------------------------------------------------------------------------
# balanced pairs
# ---------------------------------------------------------------------------


def test_find_balanced_pair_examples():
    bp = find_balanced_pair(A1.parse_word("a"), A1.parse_word("b"))
    assert (str(bp.x), str(bp.y)) == ("a", "b")
    bp = find_balanced_pair(A1.parse_word("a a"), A1.parse_word("a b"))
    assert (str(bp.x), str(bp.y)) == ("", "a")
    bp = find_balanced_pair(A1.parse_word("b"), A1.parse_word("b a"))
    assert (str(bp.x), str(bp.y)) == ("b", "b a")


def test_balanced_pair_cut_bookkeeping():
    u, v = A1.parse_word("a b"), A1.parse_word("b a")
    bp = find_balanced_pair(u, v)
    assert u.suffix(len(u) - bp.u_cut) == bp.x
    assert v.prefix(bp.v_cut) == bp.y
    assert bp.x.weight + 1 == bp.y.weight
    assert len(bp.y) >= 1


def test_balanced_pair_minimality_oracle():
    # the returned t = ||x|| must be the smallest t >= 0 that is a suffix
    # weight of u (or 0) with t + 1 a prefix weight of v
    for z in [(1,), (3,), (1, 2)]:
        alphabet = GradedAlphabet(z=z)
        for wu in range(2, 6):
            for wv in range(2, 6):
                for ku in itertools.product(range(2), repeat=len(z)):
                    for kv in itertools.product(range(2), repeat=len(z)):
                        n = tuple(a + b for a, b in zip(ku, kv))
                        nz = dot(n, z)
                        if wu < nz or wv < nz + 1:
                            continue
                        for u in _class(alphabet, wu, ku):
                            suffix_weights = {0} | {
                                u.weight - c for c in u.prefix_weight_list()[:-1]
                            } | {u.weight}
                            for v in _class(alphabet, wv, kv):
                                bp = find_balanced_pair(u, v)
                                prefix_weights_v = set(v.prefix_weight_list())
                                candidates = [
                                    t
                                    for t in sorted(suffix_weights)
                                    if t + 1 in prefix_weights_v
                                ]
                                assert candidates, "lemma guarantees existence"
                                assert bp.x.weight == candidates[0]


# ---------------------------------------------------------------------------
# the weight shift
# ---------------------------------------------------------------------------


def test_shift_up_examples():
    assert str(shift_by(A1.parse_word("a b"), 1, 1)) == "b a"
    assert str(shift_by(A1.parse_word("a a b"), 2, 1)) == "a b a"


def test_shift_on_all_a_words_is_identity():
    for length in range(1, 6):
        w = Word(A1, (0,) * length)
        for p in range(length):
            assert shift_by(w, p, 1) == w


def test_shift_preconditions():
    w = A1.parse_word("a b")  # weight 3, n = (1), n.z = 1
    with pytest.raises(PreconditionError):
        shift_by(w, 0, 1)  # p < n.z
    with pytest.raises(PreconditionError):
        shift_by(w, 2, 1)  # q = 3 - 2 - 1 = 0 < 1
    with pytest.raises(PreconditionError):
        shift_by(A1.parse_word("b a"), 1, 1)  # no weight-1 prefix
    with pytest.raises(PreconditionError):
        shift_by(A1.parse_word("a a b"), 1, 0)  # r < 1
    with pytest.raises(PreconditionError):
        shift_by(A1.parse_word("a a b"), 1, 3)  # q = 2 < r


def test_shift_round_trip_exhaustive():
    for z in [(0,), (1,), (2,), (0, 2), (1, 2), (2, 1)]:
        alphabet = GradedAlphabet(z=z)
        for n in itertools.product(range(3), repeat=len(z)):
            nz = dot(n, z)
            for total in range(2 * nz + 1, 2 * nz + 6):
                for p in range(nz, total - nz):
                    q = total - nz - p
                    if q < 1:
                        continue
                    images = set()
                    for w in _class(alphabet, total, n, r=p):
                        image = shift_by(w, p, 1)
                        assert image.weight == w.weight
                        assert image.counts == w.counts
                        assert image.prefix_cut(p + 1) is not None
                        assert shift_down(image, p) == w
                        images.add(image)
                    assert images == set(_class(alphabet, total, n, r=p + 1))


def test_shift_kernel_returns_the_image_cut_exhaustive():
    # the swap at the weight-p cut reports the image's weight-(p+1) cut, and
    # the mirrored swap at the weight-(p+1) cut reports the weight-p cut
    for z in [(0,), (1,), (3,), (0, 2), (1, 2), (1, 0, 1)]:
        alphabet = GradedAlphabet(z=z)
        lw = alphabet.weights
        for n in itertools.product(range(3), repeat=len(z)):
            nz = dot(n, z)
            for total in range(2 * nz + 1, 2 * nz + 6):
                for p in range(nz, total - nz):
                    for w in _class(alphabet, total, n, r=p):
                        image, cut = _swap_balanced(lw, w.letters, w.prefix_cut(p))
                        assert cut == Word(alphabet, image).prefix_cut(p + 1)
                        back, back_cut = _swap_balanced(lw, image, cut, -1)
                        assert back == w.letters
                        assert back_cut == w.prefix_cut(p)


def test_shift_kernel_without_a_balanced_pair_is_a_lemma_violation():
    lw = (1, 3)  # z = (2): b weighs 3
    cases = [
        ((1,), 0, 1),  # u empty, v = b skips weight 1
        ((1, 1), 1, 1),  # suffix weights 0, 3 of u vs prefix weight 3 of v
        ((0, 0), 2, 1),  # v empty
        ((1,), 1, -1),  # mirrored search, u = b skips weight 1
        ((0, 0), 0, -1),  # mirrored search, u empty
    ]
    for letters, cut, excess in cases:
        with pytest.raises(LemmaViolationError):
            _swap_balanced(lw, letters, cut, excess)
    # off the preconditions the merge either finds a pair or reports the
    # violation; it never runs off either end of the word
    for letters in itertools.product(range(2), repeat=5):
        for cut in range(6):
            for excess in (1, -1):
                try:
                    _swap_balanced(lw, letters, cut, excess)
                except LemmaViolationError:
                    pass


def _plain_swap(lw, letters, cut, excess):
    i, j = _balanced_cut(lw, letters, cut, excess)
    return letters[:i] + letters[cut:j][::-1] + letters[i:cut][::-1] + letters[j:], i + j - cut


def test_shift_kernel_matches_the_plain_formula_exhaustive():
    # the unmoved-image shortcut returns what the formula builds, on every
    # word of small classes, at every cut (and one past either end) and in
    # both directions, and raises where the formula raises
    for z in [(0,), (1,), (3,), (0, 2), (1, 2)]:
        alphabet = GradedAlphabet(z=z)
        lw = alphabet.weights
        for n in itertools.product(range(3), repeat=len(z)):
            nz = dot(n, z)
            for total in range(nz, nz + 6):
                for w in _class(alphabet, total, n):
                    for cut in range(-1, len(w) + 2):
                        for excess in (1, -1):
                            try:
                                expected = _plain_swap(lw, w.letters, cut, excess)
                            except (LemmaViolationError, IndexError) as exc:
                                with pytest.raises(type(exc)):
                                    _swap_balanced(lw, w.letters, cut, excess)
                            else:
                                assert _swap_balanced(lw, w.letters, cut, excess) == expected


def _wrong_cut(lw, letters, cut, excess=1):
    image, image_cut = _swap_balanced(lw, letters, cut, excess)
    return image, image_cut + 1 if excess == 1 else image_cut


def _collapsing():
    first = []

    def collapsed(lw, letters, cut, excess=1):
        result = _swap_balanced(lw, letters, cut, excess)
        if excess == 1:
            first.append(result)
            return first[0]
        return result

    return collapsed


def _unmoved(lw, letters, cut, excess=1):
    # every word its own image, the cut moved by one: round trips hold
    return letters, cut + excess


def _relabelled(lw, letters, cut, excess=1):
    # the true image with its last letter (past every cut of the class
    # below) relabelled, and undone on the way back: round trips hold
    if excess == 1:
        image, image_cut = _swap_balanced(lw, letters, cut, excess)
        return image[:-1] + ((image[-1] + 1) % len(lw),), image_cut
    return _swap_balanced(lw, letters[:-1] + ((letters[-1] - 1) % len(lw),), cut, excess)


@pytest.mark.parametrize("kernel, reason", [
    pytest.param(lambda: _wrong_cut, "image escapes the target class", id="wrong-cut"),
    pytest.param(_collapsing, "inverse does not round-trip", id="collapsing"),
    pytest.param(lambda: _unmoved, "image escapes the target class", id="unmoved"),
    pytest.param(lambda: _relabelled, "image escapes the target class", id="relabelled"),
])
def test_a_faulty_shift_kernel_is_a_counterexample(monkeypatch, capsys, kernel, reason):
    # the source cuts come from the enumeration blocks, the image cuts from
    # the kernel: a kernel at fault must still fail the class, not pass it.
    # _unmoved is caught only by the check on an image that is its word,
    # _relabelled only by the letter counts of a moved image
    monkeypatch.setattr(bijections, "_swap_balanced", kernel())
    report = verify_shift_bijection(2, 2, (2,), A1)
    assert report.verdict == "fail" and report.counterexample["reason"] == reason
    monkeypatch.setattr(bijections, "_swap_balanced", kernel())
    code = main(["bijection", "shift", "--z", "1", "--p", "2", "--q", "2", "--n", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_COUNTEREXAMPLE and out["counterexample"]["reason"] == reason


def test_a_target_class_of_another_size_is_a_counterexample(monkeypatch):
    # injective onto a subset of the target is not a bijection: the count
    # comparison is the part of the certificate that rules it out
    counted = bijections._class_size
    monkeypatch.setattr(bijections, "_class_size", lambda *args: counted(*args) + 1)
    report = verify_shift_bijection(2, 2, (2,), A1)
    assert report.verdict == "fail"
    assert report.counterexample == {
        "reason": "class sizes differ", "source_size": 4, "target_size": 5,
    }


def test_shift_down_of_up_image_only():
    w = A2.parse_word("a a b2")  # prefix weights 1, 2, 5
    with pytest.raises(PreconditionError):
        shift_down(w, 2)  # no weight-3 prefix


def test_shift_by_is_the_iterated_unit_shift():
    w = A1.parse_word("a b a")  # Γ(p=1) member, total 4, n = (1), q = 2
    two = shift_by(w, 1, 2)
    assert two == shift_by(shift_by(w, 1, 1), 2, 1)
    assert two.prefix_cut(3) is not None


def test_verify_shift_bijection_report():
    report = verify_shift_bijection(2, 2, (2,), A1)
    assert report.ok
    assert report.check == "shift-bijection"
    assert report.params == {"p": 2, "q": 2, "n": [2], "z": [1], "r": 1}
    # Γ(p=2) inside weight-6 two-b words: a a b b, b a a b, b a b a, b b a a
    assert report.details["class_size"] == 4
    report3 = verify_shift_bijection(2, 3, (1,), GradedAlphabet(z=(2,)), r=2)
    assert report3.ok and report3.params["r"] == 2


def test_verify_shift_bijection_streams_in_constant_memory():
    # 13 095 source words, each with its image and round trip: either class
    # held as a set of words would take about 5 MB
    tracemalloc.start()
    try:
        report = verify_shift_bijection(10, 4, (3, 2), A2, r=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.details == {"class_size": 13095, "round_trips": 13095}
    assert peak < 1_000_000


def test_verify_shift_bijection_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        verify_shift_bijection(0, 2, (1,), A1)  # p < n.z
    with pytest.raises(PreconditionError):
        verify_shift_bijection(2, 0, (1,), A1)  # q < 1
    with pytest.raises(PreconditionError):
        verify_shift_bijection(2, 1, (1,), A1, r=2)  # q < r


@given(
    z=st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple),
    n=st.lists(st.integers(0, 2), min_size=1, max_size=2).map(tuple),
    p_off=st.integers(0, 3),
    q=st.integers(1, 4),
    pick=st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_shift_round_trip_random(z, n, p_off, q, pick):
    if len(n) != len(z):
        n = (n + (0,) * len(z))[: len(z)]
    alphabet = GradedAlphabet(z=z)
    nz = dot(n, z)
    p = nz + p_off
    words = _class(alphabet, p + q + nz, n, r=p)
    assume(words)
    w = words[pick % len(words)]
    image = shift_by(w, p, q)  # the largest allowed shift distance
    assert image.prefix_cut(p + q) is not None
    back = image
    for step in range(q - 1, -1, -1):
        back = shift_down(back, p + step)
    assert back == w


# ---------------------------------------------------------------------------
# the overshoot factorization
# ---------------------------------------------------------------------------


def test_raney_factorize_examples():
    f = raney_factorize(A1.parse_word("a b"), 1)
    assert isinstance(f, PrefixCase)
    assert (str(f.u), str(f.v)) == ("a", "b")
    f = raney_factorize(A1.parse_word("b a"), 1)
    assert isinstance(f, Overshoot)
    assert (f.i, f.j, str(f.u_prime), str(f.v)) == (1, 1, "", "a")
    f = raney_factorize(A2.parse_word("b2 a a"), 2)
    assert isinstance(f, Overshoot)
    assert (f.i, f.j, str(f.u_prime), str(f.v)) == (2, 1, "", "a a")


def test_raney_requires_positive_grading():
    with pytest.raises(PreconditionError):
        raney_factorize(Word(GradedAlphabet(z=(0,)), (1, 0)), 1)


def test_raney_preconditions():
    w = A1.parse_word("b a")  # n.z = 1, weight 3
    with pytest.raises(PreconditionError):
        raney_factorize(w, 0)  # p < n.z
    with pytest.raises(PreconditionError):
        raney_factorize(w, 2)  # q = 0


def test_raney_factorize_refuses_a_split_weight_between_ints():
    # a weight-1.5 "overshoot" through the letter a would be no factorization
    with pytest.raises(PreconditionError, match=r"\bp\b"):
        raney_factorize(A1.parse_word("a a b a"), 1.5)


def test_raney_prefix_case_iff_word_has_weight_p_prefix():
    for z in [(1,), (2,), (1, 2)]:
        alphabet = GradedAlphabet(z=z)
        for n in itertools.product(range(3), repeat=len(z)):
            nz = dot(n, z)
            for p in range(nz, nz + 4):
                for q in range(1, 4):
                    for w in _class(alphabet, p + q + nz, n):
                        f = raney_factorize(w, p)
                        if w.prefix_cut(p) is not None:
                            assert isinstance(f, PrefixCase)
                            assert f.u.weight == p
                        else:
                            assert isinstance(f, Overshoot)
                            z_i = z[f.i - 1]
                            assert 1 <= f.j <= z_i
                            assert f.u_prime.weight == p + f.j - z_i - 1
                        assert raney_unfactorize(f, p) == w


def test_raney_unfactorize_validates_consistency():
    with pytest.raises(PreconditionError):
        raney_unfactorize(PrefixCase(u=A1.parse_word("a"), v=A1.parse_word("b")), 2)
    with pytest.raises(PreconditionError):
        raney_unfactorize(
            Overshoot(i=1, j=2, u_prime=Word(A1, ()), v=A1.parse_word("a")), 1
        )  # j > z_1
    with pytest.raises(PreconditionError):
        raney_unfactorize(
            Overshoot(i=1, j=1, u_prime=A1.parse_word("a"), v=A1.parse_word("a")), 1
        )  # ||u_prime|| != p + j - z_i - 1 = 0


def test_raney_join_rejects_inconsistent_pieces():
    lw = A2.weights  # a, b1, b2 weigh 1, 2, 3
    assert _raney_join(lw, 1, 0, 0, (0,), (2,)) == (0, 2)
    assert _raney_join(lw, 2, 2, 1, (), (0,)) == (2, 0)  # b2 overshoots 2 by 1
    for pieces in [
        (2, 0, 0, (0,), (2,)),  # prefix case with ||u|| = 1, not p = 2
        (2, 3, 1, (), ()),  # no letter b3 when m = 2
        (2, 1, 2, (), ()),  # j = 2 > z_1 = 1
        (3, 2, 1, (), (0,)),  # ||u'|| = 0, not p + j - z_2 - 1 = 1
    ]:
        with pytest.raises(PreconditionError):
            _raney_join(lw, *pieces)


def test_verify_raney_decomposition_examples():
    report = verify_raney_decomposition(1, 1, (1,), A1)
    assert report.ok
    assert report.details["total"] == 2
    assert report.details["prefix_case"] == 1
    assert report.details["overshoot"] == 1
    report = verify_raney_decomposition(2, 1, (0,), A1)
    assert report.ok
    assert report.details["total"] == 1
    assert report.details["overshoot"] == 0
    report = verify_raney_decomposition(3, 2, (1, 1), A2)
    assert report.ok
    assert report.details["total"] == 20
    assert report.check == "raney-decomposition"


def test_verify_raney_decomposition_rejects_zero_grading():
    with pytest.raises(PreconditionError):
        verify_raney_decomposition(1, 1, (1,), GradedAlphabet(z=(0,)))


# class(p + q + n.z, n) over A2 with p = 4, q = 5, n = (2, 1): 252 words in
# enumeration blocks of both kinds, some whose weight-p scan stops in the
# shared head and some whose scan runs into the table
_RANEY_CLASS = (4, 5, (2, 1))
_RANEY_ARGV = ["bijection", "raney", "--z", "1,2", "--p", "4", "--q", "5", "--n", "2,1"]


def _raney_blocks(split_in_head):
    """The blocks of _RANEY_CLASS whose weight-p scan stops in the head, or not."""
    p, q, n = _RANEY_CLASS
    lw = A2.weights
    return [
        (head, table)
        for _, head, table in words._class_blocks(A2, p + q + dot(n, A2.z), n)
        if (bijections._cut(lw, head, p)[1] >= p) == split_in_head
    ]


def test_the_raney_class_has_blocks_of_both_kinds():
    assert _raney_blocks(True) and _raney_blocks(False)


def _first_raney_failure():
    """The counterexample of the word-by-word certificate: the reason and
    the word of the first word of _RANEY_CLASS, in class order, whose
    factorization by the (possibly planted) bijections._cut and
    bijections._raney_join does not reassemble it."""
    p, q, n = _RANEY_CLASS
    lw = A2.weights
    for letters in words._iter_class(A2, p + q + dot(n, A2.z), n):
        cut, achieved = bijections._cut(lw, letters, p)
        if achieved == p:
            i, j, u = 0, 0, letters[:cut]
        else:
            i, j, u = letters[cut - 1], achieved - p, letters[: cut - 1]
        try:
            if bijections._raney_join(lw, p, i, j, u, letters[cut:]) == letters:
                continue
            reason = "factorization does not reassemble"
        except PreconditionError as exc:
            reason = str(exc)
        return {"reason": reason, "word": str(Word(A2, letters))}
    return None


def _target(split_in_head):
    """The middle word of the first block of the given kind."""
    head, table = _raney_blocks(split_in_head)[0]
    return head + table[len(table) // 2]


def _dropping_join(target):
    def join(lw, p, i, j, u, v):
        word = _raney_join(lw, p, i, j, u, v)
        return _raney_join(lw, p, i, j, u, v[:-1]) if word >= target else word

    return join


def _relabelling_join(target):
    def join(lw, p, i, j, u, v):
        word = _raney_join(lw, p, i, j, u, v)
        if word >= target:
            return _raney_join(lw, p, i, j, u, v[:-1] + ((v[-1] + 1) % len(lw),))
        return word

    return join


def _refusing_join(target):
    def join(lw, p, i, j, u, v):
        word = _raney_join(lw, p, i, j, u, v)
        if word == target:
            raise PreconditionError("planted refusal")
        return word

    return join


@pytest.mark.parametrize("split_in_head", [True, False], ids=["head-block", "table-block"])
@pytest.mark.parametrize("join, reason", [
    (_dropping_join, "factorization does not reassemble"),
    (_relabelling_join, "factorization does not reassemble"),
    (_refusing_join, "planted refusal"),
])
def test_a_faulty_raney_join_names_the_first_failing_word(
    monkeypatch, capsys, join, reason, split_in_head
):
    # the fault fires from a word inside a block on: per block or per word,
    # the certificate must name that word, as the word-by-word walk does
    target = _target(split_in_head)
    monkeypatch.setattr(bijections, "_raney_join", join(target))
    expected = {"reason": reason, "word": str(Word(A2, target))}
    assert _first_raney_failure() == expected
    report = verify_raney_decomposition(*_RANEY_CLASS, A2)
    assert report.verdict == "fail" and report.counterexample == expected
    code = main(_RANEY_ARGV)
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_COUNTEREXAMPLE and out["counterexample"] == expected


def _strict_cut(lw, letters, target):
    # the shortest prefix of weight > target, where >= is due
    acc = 0
    for length, c in enumerate(letters, 1):
        acc += lw[c]
        if acc > target:
            return length, acc
    return len(letters), acc


def test_a_faulty_weight_p_scan_names_the_first_failing_word(monkeypatch, capsys):
    monkeypatch.setattr(bijections, "_cut", _strict_cut)
    expected = _first_raney_failure()
    assert expected is not None
    report = verify_raney_decomposition(*_RANEY_CLASS, A2)
    assert report.verdict == "fail" and report.counterexample == expected
    code = main(_RANEY_ARGV)
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_COUNTEREXAMPLE and out["counterexample"] == expected


@pytest.mark.parametrize("p, q, n", [_RANEY_CLASS, (7, 6, (1, 3))])
def test_block_tallies_are_the_word_by_word_tallies(p, q, n):
    # in the 2860-word class (7, 6, (1, 3)) some blocks overshoot in the
    # head and still place a b letter after the cut: a cell must count the
    # letters up to the cut, not the whole head
    lw = A2.weights
    past_the_cut = [
        head
        for _, head, _ in words._class_blocks(A2, p + q + dot(n, A2.z), n)
        for cut, achieved in [bijections._cut(lw, head, p)]
        if achieved > p and any(head[cut:])
    ]
    assert bool(past_the_cut) == (n == (1, 3))
    prefix_case, cells = 0, collections.Counter()
    for w in _class(A2, p + q + dot(n, A2.z), n):
        f = raney_factorize(w, p)
        if isinstance(f, PrefixCase):
            prefix_case += 1
        else:
            k = (f.u_prime + Word(A2, (f.i,))).counts
            cells[f"i={f.i},j={f.j},k={','.join(map(str, k))}"] += 1
    report = verify_raney_decomposition(p, q, n, A2)
    assert report.ok and report.details == {
        "total": prefix_case + sum(cells.values()),
        "prefix_case": prefix_case,
        "overshoot": sum(cells.values()),
        "overshoot_cells": dict(sorted(cells.items())),
    }


def _count_calls(monkeypatch, name):
    """Wrap bijections.<name>; the list returned grows by one entry per call."""
    calls = []
    kernel = getattr(bijections, name)

    def counted(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(bijections, name, counted)
    return calls


def test_every_word_of_a_class_is_joined_and_shifted(monkeypatch):
    # the per-block work (scans, cuts and tallies) may move; the per-word
    # checks may not: every word is joined, and shifted r times each way
    joins = _count_calls(monkeypatch, "_raney_join")
    report = verify_raney_decomposition(*_RANEY_CLASS, A2)
    assert report.ok and len(joins) == report.details["total"] == 252
    swaps = _count_calls(monkeypatch, "_swap_balanced")
    for r in (1, 2, 3):
        swaps.clear()
        report = verify_shift_bijection(4, 5, (2, 1), A2, r)
        assert report.ok and len(swaps) == 2 * r * report.details["class_size"], r


# ---------------------------------------------------------------------------
# the argument checks of the word layer
# ---------------------------------------------------------------------------

_W = A1.parse_word("a a b a")  # n.z = 1, prefix weights 1, 2, 4, 5

# each public word and bijection entry point, with arguments it accepts
# (every int among them is 1, so a bad value of the same size can replace it)
_ENTRY_CALLS = {
    count_words: dict(p=1, k=(1,), alphabet=A1),
    count_prefix_class: dict(p=1, q=1, n=(1,), alphabet=A1),
    shift_down: dict(w=_W, p=1),
    shift_by: dict(w=_W, p=1, r=1),
    raney_factorize: dict(w=_W, p=1),
    raney_unfactorize: dict(f=raney_factorize(_W, 1), p=1),
    verify_shift_bijection: dict(p=1, q=1, n=(1,), alphabet=A1, r=1),
    verify_raney_decomposition: dict(p=1, q=1, n=(1,), alphabet=A1),
}


def _int_params(entry):
    """The parameters annotated as an int or a multi-index of ints."""
    return [
        name
        for name, param in inspect.signature(entry).parameters.items()
        if param.annotation in ("int", "MultiIndex")
    ]


def test_every_entry_point_has_int_parameters():
    assert all(map(_int_params, _ENTRY_CALLS))


@pytest.mark.parametrize("entry, name", [
    (entry, name) for entry in _ENTRY_CALLS for name in _int_params(entry)
], ids=lambda x: getattr(x, "__name__", x))
@pytest.mark.parametrize("bad", [1.0, True, Fraction(1), "1"], ids=repr)
def test_a_float_bool_or_fraction_int_argument_is_refused_by_name(entry, name, bad):
    args = _ENTRY_CALLS[entry]
    entry(**args)
    value = (bad,) if type(args[name]) is tuple else bad
    with pytest.raises(PreconditionError, match=rf"\b{name}\b"):
        entry(**{**args, name: value})


@pytest.mark.parametrize("message", [
    "requires p >= n.z", "requires q >= r >= 1", "requires z_i >= 1 for every i",
])
def test_each_split_hypothesis_is_raised_from_one_place(message):
    # a refactor that forks the split check again fails here
    tree = ast.parse(inspect.getsource(bijections))
    raises = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and message in ast.unparse(node)
    ]
    assert len(raises) == 1
