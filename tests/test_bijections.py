"""The weight-shift bijection and the overshoot (Raney) factorization."""

from __future__ import annotations

import ast
import collections
import functools
import inspect
import itertools
import json
import re
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
    raney_factorize,
    raney_unfactorize,
    shift_by,
    shift_down,
    verify_raney_decomposition,
    verify_shift_bijection,
)
from gradedwords import bijections, main, words
from gradedwords.bijections import _balanced_cut, _raney_join, _swap_balanced
from gradedwords.cli import EXIT_COUNTEREXAMPLE, EXIT_INTERNAL
from conftest import prefix_weights

A1 = GradedAlphabet(z=(1,))
A2 = GradedAlphabet(z=(1, 2))


def _class(alphabet, p, k, r=None):
    return list(enumerate_words(WordClassSpec(p=p, k=k, r=r), alphabet))


# ---------------------------------------------------------------------------
# equal-weight prefixes (the existence lemma)
# ---------------------------------------------------------------------------


def test_the_prefix_weight_pigeonhole_exhaustive_small():
    # wherever ||u||, ||v|| >= n.z + 1, for n the letter counts of u.v, the
    # prefix weights of u and v share a value: each b_i skips at most z_i
    # values, and the skips of u and v together miss at most n.z of the
    # n.z + 1 values open to both words
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
                                common = set(prefix_weights(u)) & set(prefix_weights(v))
                                assert common and min(common) > 0


# ---------------------------------------------------------------------------
# balanced pairs
# ---------------------------------------------------------------------------


def _pair(u, v):
    """The minimal (suffix x of u, prefix y of v) with ||x|| = ||y|| - 1, as
    _balanced_cut finds it in u.v at the cut |u|."""
    letters = u.letters + v.letters
    i, j = _balanced_cut(u.alphabet.weights, letters, len(u), 1)
    return Word(u.alphabet, letters[i:len(u)]), Word(u.alphabet, letters[len(u):j])


def test_balanced_cut_examples():
    x, y = _pair(A1.parse_word("a"), A1.parse_word("b"))
    assert (str(x), str(y)) == ("a", "b")
    x, y = _pair(A1.parse_word("a a"), A1.parse_word("a b"))
    assert (str(x), str(y)) == ("", "a")
    x, y = _pair(A1.parse_word("b"), A1.parse_word("b a"))
    assert (str(x), str(y)) == ("b", "b a")


def test_balanced_pair_cut_bookkeeping():
    u, v = A1.parse_word("a b"), A1.parse_word("b a")
    x, y = _pair(u, v)
    assert u.letters[len(u) - len(x):] == x.letters and v.prefix(len(y)) == y
    assert x.weight + 1 == y.weight
    assert len(y) >= 1


def test_balanced_pair_minimality_oracle():
    # the t = ||x|| found must be the smallest t >= 0 that is a suffix
    # weight of u (or 0) with t + 1 a prefix weight of v, wherever
    # ||u|| >= n.z and ||v|| >= n.z + 1 guarantee that one exists
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
                                u.weight - c for c in prefix_weights(u)[:-1]
                            } | {u.weight}
                            for v in _class(alphabet, wv, kv):
                                x, _ = _pair(u, v)
                                prefix_weights_v = set(prefix_weights(v))
                                candidates = [
                                    t
                                    for t in sorted(suffix_weights)
                                    if t + 1 in prefix_weights_v
                                ]
                                assert candidates, "lemma guarantees existence"
                                assert x.weight == candidates[0]


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
    # the kernel reports a missing pair as None, for more letters; on a whole
    # word the shift steps raise it as a counterexample, naming u and v
    alphabet = GradedAlphabet(z=(2,))  # b weighs 3
    lw = alphabet.weights
    cases = [
        ((1,), 0, 1),  # u empty, v = b skips weight 1
        ((1, 1), 1, 1),  # suffix weights 0, 3 of u vs prefix weight 3 of v
        ((0, 0), 2, 1),  # v empty
        ((1,), 1, -1),  # mirrored search, u = b skips weight 1
        ((0, 0), 0, -1),  # mirrored search, u empty
    ]
    for letters, cut, excess in cases:
        assert _swap_balanced(lw, letters, cut, excess) is None
        u, v = (str(Word(alphabet, part)) for part in (letters[:cut], letters[cut:]))
        named = re.escape(f'u="{u}", v="{v}" at cut {cut}')
        with pytest.raises(LemmaViolationError, match=named):
            bijections._shift_letters(alphabet, letters, cut, 1, excess)
    # off the preconditions the merge either finds a pair or reports none;
    # it never runs off either end of the word
    for letters in itertools.product(range(2), repeat=5):
        for cut in range(6):
            for excess in (1, -1):
                _swap_balanced(lw, letters, cut, excess)


def test_a_whole_word_without_a_balanced_pair_is_a_lemma_violation(monkeypatch):
    # the public operations keep raising where the kernel reports no pair,
    # each naming the word's two parts as --word takes them, and the cut
    monkeypatch.setattr(bijections, "_balanced_cut", lambda *args: None)
    w = A2.parse_word("a b1 a b2 a a a a")

    def no_pair(u, v, cut):
        message = (f'no balanced pair for u="{u}", v="{v}" at cut {cut}: this contradicts'
                   " the prefix-weight pigeonhole and would be a counterexample")
        return pytest.raises(LemmaViolationError, match=f"^{re.escape(message)}$")

    with no_pair("a b1 a", "b2 a a a a", 3):
        shift_by(w, 4, 1)
    with no_pair("a b1 a", "b2 a a a a", 3):
        bijections.verify_shift_word(w, 4, 2)
    with no_pair("a b1 a b2", "a a a a", 4):
        shift_down(w, 6)
    with no_pair("a", "b", 1):
        verify_shift_bijection(1, 1, (1,), A1)


def _plain_swap(lw, letters, cut, excess):
    found = _balanced_cut(lw, letters, cut, excess)
    if found is None:
        return None
    i, j = found
    return letters[:i] + letters[cut:j][::-1] + letters[i:cut][::-1] + letters[j:], i + j - cut


def test_shift_kernel_matches_the_plain_formula_exhaustive():
    # the unmoved-image shortcut returns what the formula builds, on every
    # word of small classes, at every cut (and one past either end) and in
    # both directions, and reports no pair (or raises) where the formula does
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
                            except IndexError as exc:
                                with pytest.raises(type(exc)):
                                    _swap_balanced(lw, w.letters, cut, excess)
                            else:
                                assert _swap_balanced(lw, w.letters, cut, excess) == expected


# Planted shift kernels.  A local one reads only the letters it is given,
# as the range certificate assumes, and the certificate must name the same
# first failing word as a word-by-word replay; a non-local one must fail the
# locality test below.


def _wrong_cut(lw, letters, cut, excess=1):
    swapped = _swap_balanced(lw, letters, cut, excess)
    if swapped is None:
        return None
    image, image_cut = swapped
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
        swapped = _swap_balanced(lw, letters, cut, excess)
        if swapped is None:
            return None
        image, image_cut = swapped
        return image[:-1] + ((image[-1] + 1) % len(lw),), image_cut
    return _swap_balanced(lw, letters[:-1] + ((letters[-1] - 1) % len(lw),), cut, excess)


def _wrong_sign(lw, letters, cut, excess=1):
    # the mirrored search each way
    return _swap_balanced(lw, letters, cut, -excess)


def _unreversed(lw, letters, cut, excess=1):
    # the balanced pair swapped without reversing either segment
    found = _balanced_cut(lw, letters, cut, excess)
    if found is None:
        return None
    i, j = found
    return letters[:i] + letters[cut:j] + letters[i:cut] + letters[j:], i + j - cut


def _first_shift_failure(p, q, n, alphabet, r):
    """The counterexample of the word-by-word certificate: every word of the
    source class in order, shifted by the (possibly planted)
    bijections._swap_balanced, with the membership and round-trip checks of
    verify_shift_bijection's docstring; None if every word passes."""
    lw = alphabet.weights
    nz = dot(n, alphabet.z)
    length = p + q
    counts = (length - sum(n), *n)
    render = functools.partial(bijections._render, alphabet)
    for source_cut, head, table in words._class_blocks(alphabet, p + q + nz, n, p):
        for letters in (head + t for t in table):
            image, cut = bijections._shift_letters(alphabet, letters, source_cut, r)
            if image is letters:
                member = source_cut <= cut <= length and sum(
                    lw[c] for c in letters[source_cut:cut]) == r
            else:
                member = (
                    len(image) == length
                    and tuple(map(image.count, range(len(lw)))) == counts
                    and 0 <= cut <= length
                    and sum(lw[c] for c in image[:cut]) == p + r
                )
            if not member:
                return {"reason": "image escapes the target class",
                        "word": render(letters), "image": render(image)}
            back, _ = bijections._shift_letters(alphabet, image, cut, r, -1)
            if back != letters:
                return {"reason": "inverse does not round-trip", "word": render(letters),
                        "image": render(image), "back": render(back)}
    return None


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


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("kernel", [_wrong_cut, _unmoved, _wrong_sign, _unreversed],
                         ids=lambda k: k.__name__)
def test_a_local_kernel_fault_names_the_first_failing_word(monkeypatch, kernel, r):
    # certified by ranges or word by word, a class names the same word
    monkeypatch.setattr(bijections, "_swap_balanced", kernel)
    expected = _first_shift_failure(4, 5, (2, 1), A2, r)
    assert expected is not None
    report = verify_shift_bijection(4, 5, (2, 1), A2, r)
    assert report.verdict == "fail" and report.counterexample == expected


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


def test_a_shortfall_shared_by_both_classes_is_a_counterexample(monkeypatch):
    # a walker that drops one word from each class keeps the two sizes equal:
    # only the closed forms of both classes rule it out
    blocks, counted = bijections._class_blocks, bijections._class_size

    def short_blocks(*args):
        walked = blocks(*args)
        cut, head, table = next(walked)
        yield cut, head, table[1:]
        yield from walked

    monkeypatch.setattr(bijections, "_class_blocks", short_blocks)
    monkeypatch.setattr(bijections, "_class_size", lambda *args: counted(*args) - 1)
    report = verify_shift_bijection(2, 2, (2,), A1)
    assert report.verdict == "fail"
    assert report.counterexample == {
        "reason": "class size disagrees with the closed form",
        "class_size": 3, "source_formula": "4", "target_formula": "4",
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
    blocks = words._class_blocks(A2, p + q + dot(n, A2.z), n)
    for letters in (head + t for _, head, table in blocks for t in table):
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


def _u_of(word):
    """The piece u (u' in the overshoot case) of word's factorization at p."""
    cut, achieved = words._cut(A2.weights, word, _RANEY_CLASS[0])
    return word[:cut] if achieved == _RANEY_CLASS[0] else word[: cut - 1]


# Planted joins.  The local ones misbehave on every word whose piece u is
# the target's; they read only their pieces, so the range certificate must
# name the same first failing word as the word-by-word walk.  The non-local
# ones compare the whole joined word with the target: they must fail the
# locality test below.


def _u_dropping_join(target):
    u_target = _u_of(target)

    def join(lw, p, i, j, u, v):
        word = _raney_join(lw, p, i, j, u, v)
        return word[1:] if u == u_target else word

    return join


def _u_relabelling_join(target):
    u_target = _u_of(target)

    def join(lw, p, i, j, u, v):
        word = _raney_join(lw, p, i, j, u, v)
        return ((word[0] + 1) % len(lw),) + word[1:] if u == u_target else word

    return join


def _u_refusing_join(target):
    u_target = _u_of(target)

    def join(lw, p, i, j, u, v):
        if u == u_target:
            raise PreconditionError("planted refusal")
        return _raney_join(lw, p, i, j, u, v)

    return join


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
    (_u_dropping_join, "factorization does not reassemble"),
    (_u_relabelling_join, "factorization does not reassemble"),
    (_u_refusing_join, "planted refusal"),
])
def test_a_faulty_raney_join_names_the_first_failing_word(
    monkeypatch, capsys, join, reason, split_in_head
):
    # the fault fires from the first word that shares the target's piece u:
    # by ranges or per word, the certificate must name that word, as the
    # word-by-word walk does
    target = _target(split_in_head)
    monkeypatch.setattr(bijections, "_raney_join", join(target))
    expected = _first_raney_failure()
    assert expected is not None and expected["reason"] == reason
    u = _u_of(target)
    assert A2.parse_word(expected["word"]).letters[: len(u)] == u
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


def _short_cut(lw, letters, target):
    # the scan for target - 1: local, and wrong on every word with a prefix
    # of that weight
    return words._cut(lw, letters, target - 1)


def test_a_faulty_weight_p_scan_names_the_first_failing_word(monkeypatch, capsys):
    monkeypatch.setattr(bijections, "_cut", _short_cut)
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
            k = Word(A2, f.u_prime.letters + (f.i,)).counts
            cells[f"i={f.i},j={f.j},k={','.join(map(str, k))}"] += 1
    report = verify_raney_decomposition(p, q, n, A2)
    assert report.ok and report.details == {
        "total": prefix_case + sum(cells.values()),
        "prefix_case": prefix_case,
        "overshoot": sum(cells.values()),
        "overshoot_cells": dict(sorted(cells.items())),
    }


# ---------------------------------------------------------------------------
# certificates by ranges: what they cover, and the locality they assume
# ---------------------------------------------------------------------------


@functools.cache
def _criterion_classes():
    """Every class of criteria 3-5, as (alphabet, n, n.z, total weight,
    words in lexicographic order): z in {1, 2, 3}^m for m <= 2, |n| <= 4,
    and total weights 2 n.z + 1 .. 14."""
    classes = []
    for m in (1, 2):
        for z in itertools.product((1, 2, 3), repeat=m):
            alphabet = GradedAlphabet(z=z)
            for n in itertools.product(range(5), repeat=m):
                nz = dot(n, z)
                for total in range(2 * nz + 1, 15) if sum(n) <= 4 else ():
                    letters = [w.letters for w in _class(alphabet, total, n)]
                    classes.append((alphabet, n, nz, total, letters))
    return classes


def _certified(monkeypatch):
    """Spy on bijections._certify: the list returned grows by (letters,
    words) for each range or word whose check passes."""
    certified = []
    certify = bijections._certify

    def spying(check, head, table):
        def spy(letters, rest, words):
            outcome = check(letters, rest, words)
            if outcome is True:
                certified.append((letters, words))
            return outcome

        return certify(spy, head, table)

    monkeypatch.setattr(bijections, "_certify", spying)
    return certified


def _assert_partition(certified, class_words):
    """The certified (prefix, words) pairs, in order, cut class_words into
    consecutive groups: each group is every word of the class, from there
    on, that extends the prefix, and a one-word group is its prefix."""
    k = 0
    for letters, count in certified:
        group = class_words[k : k + count]
        assert len(group) == count and all(w[: len(letters)] == letters for w in group)
        assert count > 1 or group == [letters]
        assert k + count == len(class_words) or class_words[k + count][: len(letters)] != letters
        k += count
    assert k == len(class_words)


def test_certified_ranges_partition_every_class_of_criteria_3_to_5(monkeypatch):
    # each word is certified once, by its range or by itself, in
    # lexicographic order, and each range holds exactly the words that
    # extend its prefix; both kinds occur
    certified = _certified(monkeypatch)
    ranges = singles = 0
    for alphabet, n, nz, total, class_words in _criterion_classes():
        assert class_words == sorted(set(class_words))
        lw = alphabet.weights
        for p in range(nz, total - nz):
            certified.clear()
            report = verify_raney_decomposition(p, total - nz - p, n, alphabet)
            assert report.ok
            _assert_partition(certified, class_words)
            source = [w for w in class_words if words._cut(lw, w, p)[1] == p]
            for r in sorted({1, total - nz - p}):  # criterion 3's r and 4's largest
                certified.clear()
                assert verify_shift_bijection(p, total - nz - p, n, alphabet, r).ok
                _assert_partition(certified, source)
                ranges += sum(count > 1 for _, count in certified)
                singles += sum(count == 1 for _, count in certified)
    assert ranges and singles


def _outcome(call, *args):
    """What call(*args) gives: ("returns", its value) or ("raises", the
    exception's type and message)."""
    try:
        return "returns", call(*args)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, not handled
        return "raises", type(exc), str(exc)


def test_the_shift_kernel_reads_only_the_letters_it_is_given():
    # at every cut a shift of criteria 3/4 starts from (weight p up, p + 1
    # down) and every split point d past it, the kernel on w[:d] gives None,
    # for more letters, or the image it gives on w, less w[d:]
    for alphabet, _, nz, total, class_words in _criterion_classes():
        lw = alphabet.weights
        for w in class_words:
            weights = itertools.accumulate(map(lw.__getitem__, w), initial=0)
            for cut, weight in enumerate(weights):
                for excess in (1, -1):
                    if not nz + (excess < 0) <= weight <= total - nz - (excess > 0):
                        continue
                    whole = bijections._swap_balanced(lw, w, cut, excess)
                    assert whole is not None, (w, cut, excess)
                    for d in range(cut, len(w)):
                        part = bijections._swap_balanced(lw, w[:d], cut, excess)
                        if part is not None:
                            assert (part[0] + w[d:], part[1]) == whole, (w, cut, excess, d)


def test_the_weight_p_scan_reads_only_the_letters_it_is_given():
    # at every weight p of criterion 5 and every split point d, the scan of
    # w[:d] falls short of p, for more letters, or gives the scan of w
    for alphabet, _, nz, total, class_words in _criterion_classes():
        lw = alphabet.weights
        for w in class_words:
            for p in range(nz, total - nz):
                whole = bijections._cut(lw, w, p)
                assert whole[1] >= p, (w, p)
                for d in range(len(w)):
                    part = bijections._cut(lw, w[:d], p)
                    assert part[1] < p or part == whole, (w, p, d)


def test_the_raney_join_reads_only_the_letters_it_is_given():
    # the pieces of every factorization of criterion 5, with v cut at every
    # split point d past the cut: the join gives the same word less w[d:],
    # or raises as it does on the whole of v
    for alphabet, _, nz, total, class_words in _criterion_classes():
        lw = alphabet.weights
        for w in class_words:
            for p in range(nz, total - nz):
                cut, achieved = words._cut(lw, w, p)
                i, j, u = (0, 0, w[:cut]) if achieved == p else (w[cut - 1], achieved - p, w[: cut - 1])
                whole = _outcome(bijections._raney_join, lw, p, i, j, u, w[cut:])
                assert whole == ("returns", w), (w, p)
                for d in range(cut, len(w)):
                    part = _outcome(bijections._raney_join, lw, p, i, j, u, w[cut:d])
                    if part[0] == "returns":
                        part = ("returns", part[1] + w[d:])
                    assert part == whole, (w, p, d)


@pytest.mark.parametrize("name, planted, locality_test", [
    ("_swap_balanced", lambda: _relabelled, test_the_shift_kernel_reads_only_the_letters_it_is_given),
    ("_swap_balanced", _collapsing, test_the_shift_kernel_reads_only_the_letters_it_is_given),
    ("_raney_join", lambda: _dropping_join(_target(True)),
     test_the_raney_join_reads_only_the_letters_it_is_given),
    ("_raney_join", lambda: _relabelling_join(_target(False)),
     test_the_raney_join_reads_only_the_letters_it_is_given),
    ("_raney_join", lambda: _refusing_join(_target(True)),
     test_the_raney_join_reads_only_the_letters_it_is_given),
    ("_cut", lambda: _strict_cut, test_the_weight_p_scan_reads_only_the_letters_it_is_given),
], ids=["relabelled", "collapsing", "dropping-join", "relabelling-join", "refusing-join",
        "strict-cut"])
def test_a_planted_nonlocal_kernel_fails_its_locality_test(monkeypatch, name, planted, locality_test):
    # a fault the range certificate cannot see, since it reads letters the
    # range does not share, is failed by the locality test it breaks
    monkeypatch.setattr(bijections, name, planted())
    with pytest.raises(AssertionError):
        locality_test()


def test_an_unsorted_table_fails_the_certificate_by_name(plant_arrangements, capsys):
    # ranges are cut by bisect, which needs strictly increasing tables: a
    # table with two entries swapped is refused as a fault of the program
    arrangements = words._arrangements

    def swapped(counts):
        table = list(arrangements(counts))
        if len(table) > 2:
            table[1], table[2] = table[2], table[1]
        return iter(table)

    plant_arrangements(swapped)
    for certificate in (verify_shift_bijection, verify_raney_decomposition):
        with pytest.raises(RuntimeError, match=r"does not increase at entry 2"):
            certificate(*_RANEY_CLASS, A2)
    code = main(_RANEY_ARGV)
    err = capsys.readouterr().err
    assert code == EXIT_INTERNAL and "does not increase at entry 2" in err


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
