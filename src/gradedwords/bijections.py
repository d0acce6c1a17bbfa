"""Constructive bijections between word classes.

Two constructions:

* The weight-shift map: a bijection from class(P, n, r=p) to
  class(P, n, r=p+1), for p >= n.z and P = p + q + n.z with q >= 1.  A word
  w splits at its weight-p prefix as w = u'.x.y.v' where x is a suffix of u
  (possibly empty) and y a nonempty prefix of v with ||x|| = ||y|| - 1,
  chosen of minimal length; the image is w' = u'.rev(y).rev(x).v'.  The
  minimal pair is unique because prefix and suffix weights are strictly
  increasing, which also gives the inverse: the mirrored search on the
  weight-(p+1) cut swaps the pair back.

* The overshoot factorization: split w in class(P, n) at the unique minimal
  prefix u with ||u|| >= p.  Either ||u|| = p exactly (w has a weight-p
  prefix) or u overshoots to p + j through its final letter, which must be
  some b_i with 1 <= j <= z_i.  Both cases invert, which decomposes the
  whole class as the weight-p prefix subclass plus a disjoint union of
  products of smaller classes.

A unit shift is local: one merge of the suffix weights of u and the prefix
weights of v, walked outward from the cut, stops at the minimal pair.  The
image's weight-(p+1) cut is |u'| + |y|, so the swap returns it and r-fold
shifts and their inverses carry it from step to step.  When the letter
across the cut weighs 1 the swap moves nothing, and the word itself comes
back with its cut moved by one.

verify_shift_word and verify_raney_word run a construction on one word
and back, and report whether the word returns.  verify_shift_bijection and
verify_raney_decomposition replay a construction over an entire class and
report the tallies.  They take the class in the enumeration's blocks (a
shared head and a strictly increasing table of tails) and certify a block
by ranges of its table: the words whose tails share their first few
letters, found by bisect.  A range is checked once, on its shared prefix
alone: the shift's r steps up and down, or the factorization's weight-p
scan and one join.  When the check needs a letter past the prefix, the
range splits by the next tail letter; a one-word range is the whole word,
checked as it stands.  A failing range is checked word by word, so a
failure names the first failing word of the class.

This rests on one assumption: the kernel, the scan and the join read only
the letters they are given, so that on any longer word they give the same
result followed by the rest.  The tier-1 tests named
test_the_*_reads_only_the_letters_it_is_given check it on every word of
the acceptance criteria's classes, at every split point.

The shift's certificate streams the source class: each image must be in
the target class (length, letter counts and its prefix of weight p + r) and
go back to its word under the downward shifts, a left inverse that makes
the map injective; the two classes are then counted by enumeration and by
the closed form, and equal sizes make it a bijection.  No set of words is
kept, so memory is one range's prefix and its image, besides the bounded
memo of leftover-letter tables (words._table).
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .arith import MultiIndex, dot, multinomial, naturals, unit, vec_sub, box
from .errors import DimensionMismatchError, LemmaViolationError, PreconditionError
from .reports import VERDICT_FAIL, VERDICT_PASS, EvalReport
from .words import (
    GradedAlphabet,
    Word,
    _check_dimension,
    _check_ints,
    _class_blocks,
    _class_size,
    _cut,
    _trusted_word,
    count_prefix_class,
    count_words,
)

__all__ = [
    "PrefixCase",
    "Overshoot",
    "RaneyFactorization",
    "shift_down",
    "shift_by",
    "raney_factorize",
    "raney_unfactorize",
    "verify_shift_word",
    "verify_raney_word",
    "verify_shift_bijection",
    "verify_raney_decomposition",
]


@dataclass(frozen=True)
class PrefixCase:
    """Factorization w = u.v with ||u|| hitting the target weight exactly."""

    u: Word
    v: Word


@dataclass(frozen=True)
class Overshoot:
    """Factorization w = u_prime . b_i . v where the minimal prefix of
    weight >= p overshoots to p + j, 1 <= j <= z_i."""

    i: int
    j: int
    u_prime: Word
    v: Word


RaneyFactorization = Union[PrefixCase, Overshoot]


# ---------------------------------------------------------------------------
# tuple-level core (hot path for whole-class verification)
# ---------------------------------------------------------------------------


def _balanced_cut(
    lw: tuple[int, ...], letters: tuple[int, ...], cut: int, excess: int
) -> Optional[tuple[int, int]]:
    """Bounds (i, j) of the minimal segments x = letters[i:cut] and
    y = letters[cut:j] with ||y|| - ||x|| = excess (+1 or -1): one merge of
    the suffix weights of letters[:cut] and the prefix weights of
    letters[cut:], which stops at the first balanced pair.  None when the
    merge runs off either end of the letters given: past their end a longer
    word may still hold the pair; in a whole word there is none."""
    i = j = cut
    gap = 0  # ||y|| - ||x|| of the segments walked so far
    while gap != excess:
        if gap < excess and j < len(letters):
            gap += lw[letters[j]]
            j += 1
        elif gap > excess and i > 0:
            i -= 1
            gap -= lw[letters[i]]
        else:
            return None
    return i, j


def _no_pair(letters: tuple[int, ...], cut: int) -> LemmaViolationError:
    """The counterexample of a whole word with no balanced pair at cut."""
    return LemmaViolationError(
        f"no balanced pair for u={letters[:cut]!r}, v={letters[cut:]!r}: this "
        "contradicts the prefix-weight pigeonhole and would be a counterexample"
    )


def _swap_balanced(
    lw: tuple[int, ...], letters: tuple[int, ...], cut: int, excess: int = 1
) -> Optional[tuple[tuple[int, ...], int]]:
    """Split at cut as u.v = u'.x.y.v' around the minimal pair with
    ||y|| - ||x|| = excess, and return u'.rev(y).rev(x).v' with its cut
    |u'| + |y|.  At excess +1 this is the unit shift up from the weight-p
    cut to the image's weight-(p+1) cut; at excess -1 it is the shift down
    (the mirrored search) from the weight-(p+1) cut to the weight-p cut.
    None when _balanced_cut finds no pair in the letters given.

    When the letter across the cut weighs 1 (x empty and y that letter, or
    the mirror), the image is the word itself: it comes back as the same
    tuple with the cut moved by one, the merge's own result on that input.
    Only letters[i:j] are read, so on any letters that extend the ones
    given the result is the same image extended the same way."""
    if excess == 1:
        if 0 <= cut < len(letters) and lw[letters[cut]] == 1:
            return letters, cut + 1
    elif cut > 0 and lw[letters[cut - 1]] == 1:
        return letters, cut - 1
    found = _balanced_cut(lw, letters, cut, excess)
    if found is None:
        return None
    i, j = found
    image = letters[:i] + letters[cut:j][::-1] + letters[i:cut][::-1] + letters[j:]
    return image, i + j - cut


def _raney_join(
    lw: tuple[int, ...], p: int, i: int, j: int, u: tuple[int, ...], v: tuple[int, ...]
) -> tuple[int, ...]:
    """Reassemble the word whose factorization at p has the given pieces,
    checking that they are consistent.  i = 0 is the prefix case (the letter
    a never overshoots): the word is u.v with ||u|| = p.  Otherwise u is u',
    the word is u'.b_i.v, and 1 <= j <= z_i with ||u'|| = p + j - z_i - 1."""
    weight_u = sum(map(lw.__getitem__, u))
    if i == 0:
        if weight_u != p:
            raise PreconditionError(
                f"inconsistent factorization: ||u|| = {weight_u}, expected {p}"
            )
        return u + v
    if not 1 <= i < len(lw):
        raise PreconditionError(f"letter index {i} out of range 1..{len(lw) - 1}")
    z_i = lw[i] - 1
    if not 1 <= j <= z_i:
        raise PreconditionError(f"overshoot j={j} out of range 1..{z_i}")
    if weight_u != p + j - z_i - 1:
        raise PreconditionError(
            f"inconsistent factorization: ||u_prime|| = {weight_u}, "
            f"expected p + j - z_i - 1 = {p + j - z_i - 1}"
        )
    return u + (i,) + v


# ---------------------------------------------------------------------------
# public word-level operations
# ---------------------------------------------------------------------------


def _check_split(
    p: int, q: int, nz: int, r: int = 1, grading: Optional[MultiIndex] = None
) -> None:
    """The hypotheses of a split at weight p of a class of weight p + q + n.z,
    checked in this order: p, q and r are ints; every z_i >= 1, when the
    overshoot factorization passes its grading (each b_i must outweigh a);
    p >= n.z; and q >= r >= 1, r the shift distance (1 for a unit shift and
    for the factorization).  A word w of the class has q = |w| - p and
    n.z = ||w|| - |w|, since each b_i outweighs a by z_i."""
    _check_ints(p=p, q=q, r=r)
    if grading is not None and any(e < 1 for e in grading):
        raise PreconditionError(f"requires z_i >= 1 for every i, got z={grading}")
    if p < nz:
        raise PreconditionError(f"requires p >= n.z (p={p}, n.z={nz})")
    if not 1 <= r <= q:
        raise PreconditionError(f"requires q >= r >= 1 (q={q}, r={r})")


def _check_word_split(w: Word, p: int, r: int = 1, grading: Optional[MultiIndex] = None) -> None:
    """_check_split for a word w of the class: p and r are checked to be
    ints before q = |w| - p is formed from p."""
    _check_ints(p=p, r=r)
    _check_split(p, len(w) - p, w.weight - len(w), r, grading)


def _shift_cut(w: Word, p: int, r: int, lift: int = 0) -> int:
    """Check the hypotheses of an r-fold shift from prefix weight p, and
    return the length of the weight-(p + lift) prefix of w, which must
    exist."""
    _check_word_split(w, p, r)
    cut = w.prefix_cut(p + lift)
    if cut is None:
        raise PreconditionError(f"word {w} has no prefix of weight {p + lift}")
    return cut


def shift_down(w: Word, p: int) -> Word:
    """Inverse of shift_by(., p, 1): takes the word with a weight-(p+1) prefix
    back to the unique preimage with a weight-p prefix."""
    image, _ = _shift_letters(w.alphabet.weights, w.letters, _shift_cut(w, p, 1, 1), 1, -1)
    return _trusted_word(w.alphabet, image)


def _shift_letters(
    lw: tuple[int, ...], letters: tuple[int, ...], cut: int, r: int, excess: int = 1
) -> tuple[tuple[int, ...], int]:
    """r unit shifts of a whole word from the cut, up (excess +1) or down
    (-1), each carrying the cut to the next: the last image and its cut.  A
    step with no balanced pair is a counterexample."""
    for _ in range(r):
        swapped = _swap_balanced(lw, letters, cut, excess)
        if swapped is None:
            raise _no_pair(letters, cut)
        letters, cut = swapped
    return letters, cut


def shift_by(w: Word, p: int, r: int) -> Word:
    """r-fold composition of unit shifts: prefix weight p to prefix weight
    p + r.  Requires int p and r, p >= n.z and q >= r >= 1.  Each unit
    shift returns its image's next cut, so the word is scanned for a cut
    only once."""
    cut = _shift_cut(w, p, r)
    letters, _ = _shift_letters(w.alphabet.weights, w.letters, cut, r)
    return _trusted_word(w.alphabet, letters)


def verify_shift_word(w: Word, p: int, r: int) -> EvalReport:
    """shift_by(w, p, r), shifted back down r times: pass when that gives w
    back, else fail with the word, its image and what came back.  The way
    back starts from the image's cut, so w is the only word scanned."""
    alphabet, lw = w.alphabet, w.alphabet.weights
    image, cut = _shift_letters(lw, w.letters, _shift_cut(w, p, r), r)
    back, _ = _shift_letters(lw, image, cut, r, -1)
    image_text = str(_trusted_word(alphabet, image))
    report = EvalReport(
        check="shift-word",
        params={"p": p, "z": list(alphabet.z), "r": r},
        details={"word": str(w), "image": image_text},
    )
    report.verdict = VERDICT_PASS if back == w.letters else VERDICT_FAIL
    if not report.ok:
        report.counterexample = {
            "word": str(w), "image": image_text, "back": str(_trusted_word(alphabet, back)),
        }
    return report


def raney_factorize(w: Word, p: int) -> RaneyFactorization:
    """Split w at the minimal prefix u with ||u|| >= p.

    PrefixCase(u, v) when ||u|| = p; otherwise the prefix overshoots through
    its final letter b_i by j = ||u|| - p with 1 <= j <= z_i, giving
    Overshoot(i, j, u_prime, v) where u = u_prime . b_i.  Requires an int
    p, every z_i >= 1, p >= n.z and q >= 1.
    """
    alphabet = w.alphabet
    _check_word_split(w, p, grading=alphabet.z)
    cut, achieved = _cut(alphabet.weights, w.letters, p)
    u, v = w.prefix(cut), Word(alphabet, w.letters[cut:])
    if achieved == p:
        return PrefixCase(u=u, v=v)
    i = w.letters[cut - 1]
    # an exact hit is forced when the last letter weighs 1, so code > 0 here
    j = achieved - p
    return Overshoot(i=i, j=j, u_prime=w.prefix(cut - 1), v=v)


def raney_unfactorize(f: RaneyFactorization, p: int) -> Word:
    """Reassemble the word whose factorization at p is f.  Requires an int p."""
    _check_ints(p=p)
    if isinstance(f, PrefixCase):
        i, j, u = 0, 0, f.u
    else:
        i, j, u = f.i, f.j, f.u_prime
    if u.alphabet != f.v.alphabet:
        raise DimensionMismatchError("cannot concatenate words over different alphabets")
    letters = _raney_join(u.alphabet.weights, p, i, j, u.letters, f.v.letters)
    return Word(u.alphabet, letters)


def verify_raney_word(w: Word, p: int) -> EvalReport:
    """raney_factorize(w, p), reassembled by raney_unfactorize: pass when
    that gives w back, else fail with the word and what came back.  The
    report's details name the case and its pieces."""
    f = raney_factorize(w, p)
    if isinstance(f, PrefixCase):
        case = {"case": "prefix", "u": str(f.u), "v": str(f.v)}
    else:
        case = {
            "case": "overshoot", "i": f.i, "j": f.j, "u_prime": str(f.u_prime), "v": str(f.v),
        }
    back = raney_unfactorize(f, p)
    report = EvalReport(
        check="raney-word", params={"p": p, "z": list(w.alphabet.z)},
        details={"word": str(w), **case},
    )
    report.verdict = VERDICT_PASS if back == w else VERDICT_FAIL
    if not report.ok:
        report.counterexample = {"word": str(w), "back": str(back)}
    return report


# ---------------------------------------------------------------------------
# whole-class verification
# ---------------------------------------------------------------------------


# A check certifies words that share a prefix: check(letters, rest, words)
# covers the `words` words letters + s, for s of the letters of rest and its
# length (rest is one of them).  It gives True when they pass, None when it
# needs letters past `letters`, and otherwise the counterexample context of a
# failure.  With words = 1, letters is a whole word and rest is empty; the
# check is then the per-word check, and never gives None.
_Check = Callable[[tuple[int, ...], tuple[int, ...], int], object]


def _certify(
    check: _Check, head: tuple[int, ...], table: tuple[tuple[int, ...], ...]
) -> Optional[dict]:
    """Certify the words head + t for t in table, a range of the table at a
    time, in lexicographic order: None when all pass, else the
    counterexample context of the first failing word.

    A range is table[lo:hi] with its tails sharing t[:depth], the first one
    the whole table at depth 0.  A one-word range is checked whole.  A longer
    one is checked on head + t[:depth] alone, which covers all its words when
    the check reads only the letters it is given.  If the check needs more
    letters, the range splits by the next tail letter, each part found by
    bisect: the table is strictly increasing (words._table checks it) and
    its tails have one length.  If the check fails, the range's words are
    checked one by one, so the failure named is that of the first failing
    word."""
    ranges = [(0, len(table), 0)] if table else []  # a stack, the next range on top
    while ranges:
        lo, hi, depth = ranges.pop()
        t = table[lo]
        if hi - lo == 1:
            outcome = check(head + t, (), 1)
            if outcome is not True:
                return outcome
            continue
        outcome = check(head + t[:depth], t[depth:], hi - lo)
        if outcome is None:  # split by the next letter, the first part on top
            parts = []
            while lo < hi:
                t = table[lo]
                mid = bisect_left(table, t[:depth] + (t[depth] + 1,), lo, hi)
                parts.append((lo, mid, depth + 1))
                lo = mid
            ranges += reversed(parts)
        elif outcome is not True:  # word by word, the first word on top
            ranges += [(k, k + 1, depth) for k in range(hi - 1, lo - 1, -1)]
    return None


def verify_shift_bijection(
    p: int, q: int, n: MultiIndex, alphabet: GradedAlphabet, r: int = 1
) -> EvalReport:
    """Replay the r-fold weight shift over the whole class and certify it a
    bijection from the prefix-weight-p subclass onto the prefix-weight-(p+r)
    subclass, streaming: no collection of words is kept.

    Each source word w, with its weight-p cut c from the enumeration, goes
    to an image w' with cut c', and two things are checked.

    * Membership: w' is in the target class.  An image that is w itself
      (the same tuple, so the same length and counts) needs
      c <= c' <= |w| and ||w[c:c']|| = r; any other needs |w'| = |w|, the
      letter counts of w, 0 <= c' <= |w'| and ||w'[:c']|| = p + r.
    * Left inverse: the r downward shifts from (w', c') give w back.

    The words come in ranges of a block's table (see _certify), all sharing
    a prefix that holds c.  The 2r shifts run on that prefix alone, and when
    none runs past it, each word's image is the prefix's image followed by
    the word's rest: membership is checked on the image and the rest of
    the range's first word, with c' inside the image, and the shifts down
    must give the prefix back.  The kernel is taken to read only the letters
    it is given (a tier-1 test checks this on every word of the criterion
    classes).

    Prefix weights increase strictly, so c' is fixed by w', and the left
    inverse (a function of w' alone) makes the map injective.  The source
    and target classes are then counted by enumeration, and equal finite
    sizes, each also checked against the closed form count_prefix_class,
    make the injective map a bijection.  Memory is one range and its image
    at a time, besides the memo of leftover-letter tables (words._table).
    """
    n = naturals(n, "n")
    _check_dimension(n, alphabet)
    nz = dot(n, alphabet.z)
    _check_split(p, q, nz, r)
    total_weight = p + q + nz
    z = alphabet.z
    lw = alphabet.weights
    length = total_weight - nz  # every word of the class
    codes = range(alphabet.m + 1)
    counts = (length - sum(n), *n)  # of each code, a first
    target_weight = p + r
    params = {"p": p, "q": q, "n": list(n), "z": list(z), "r": r}
    report = EvalReport(check="shift-bijection", params=params)
    render = functools.partial(_render, alphabet)
    source_cut = 0  # the weight-p cut of the block being certified

    # The r-loops below inline _shift_letters, which raises where a range
    # needs more letters: a call per word measured slower in 15 of 15
    # interleaved runs of one class (5.6 -> 6.0 ms, CPython 3.11.7, 2 vCPUs).
    def check(letters: tuple[int, ...], rest: tuple[int, ...], words: int) -> object:
        image, cut = letters, source_cut
        for _ in range(r):
            swapped = _swap_balanced(lw, image, cut)
            if swapped is None:
                if words > 1:
                    return None
                raise _no_pair(image, cut)
            image, cut = swapped
        if image is letters:
            member = (
                source_cut <= cut <= len(letters)
                and sum(map(lw.__getitem__, letters[source_cut:cut])) == r
            )
        else:
            word = image + rest
            member = (
                len(word) == length
                and tuple(map(word.count, codes)) == counts
                and 0 <= cut <= len(image)
                and sum(map(lw.__getitem__, image[:cut])) == target_weight
            )
        if not member:
            return {
                "reason": "image escapes the target class",
                "word": render(letters), "image": render(image),
            }
        back = image
        for _ in range(r):
            swapped = _swap_balanced(lw, back, cut, -1)
            if swapped is None:
                if words > 1:
                    return None
                raise _no_pair(back, cut)
            back, cut = swapped
        if back != letters:
            return {
                "reason": "inverse does not round-trip",
                "word": render(letters), "image": render(image), "back": render(back),
            }
        return True

    source_size = 0
    for source_cut, head, table in _class_blocks(alphabet, total_weight, n, p):
        failure = _certify(check, head, table)
        if failure is not None:
            return _fail(report, **failure)
        source_size += len(table)
    target_size = _class_size(alphabet, total_weight, n, target_weight)
    if source_size != target_size:
        return _fail(report, "class sizes differ", source_size=source_size, target_size=target_size)
    source_formula = count_prefix_class(p, q + nz, n, alphabet)
    target_formula = count_prefix_class(target_weight, q + nz - r, n, alphabet)
    if not source_size == source_formula == target_formula:
        return _fail(
            report, "class size disagrees with the closed form", class_size=source_size,
            source_formula=str(source_formula), target_formula=str(target_formula),
        )
    report.verdict = VERDICT_PASS
    report.details = {
        "class_size": source_size,
        "round_trips": source_size,
    }
    return report


def verify_raney_decomposition(
    p: int, q: int, n: MultiIndex, alphabet: GradedAlphabet
) -> EvalReport:
    """Factorize every word of class(p + q + n.z, n) at weight p and check
    the case tallies against the closed-form and enumerated counts of each
    piece, with every factorization round-tripped.

    The words come in ranges of a block's table (see _certify), all sharing
    a prefix.  The weight-p scan runs on that prefix alone: when it stops
    there, every word of the range has the same cut, case and overshoot
    cell, and one _raney_join of the prefix's pieces, compared with the
    prefix, checks them all (the join reads the rest only to append it).
    The range is then tallied at once.  The scan and the join are taken to
    read only the letters they are given (a tier-1 test checks both on
    every word of the criterion classes); a failure names the first
    failing word of the class."""
    n = naturals(n, "n")
    _check_dimension(n, alphabet)
    nz = dot(n, alphabet.z)
    _check_split(p, q, nz, grading=alphabet.z)
    z = alphabet.z
    m = alphabet.m
    lw = alphabet.weights
    total_weight = p + q + nz
    params = {"p": p, "q": q, "n": list(n), "z": list(z)}
    report = EvalReport(check="raney-decomposition", params=params)
    render = functools.partial(_render, alphabet)

    prefix_tally = 0
    overshoot_tally: dict[tuple[int, int, MultiIndex], int] = {}
    total = 0
    codes = range(1, m + 1)

    def check(letters: tuple[int, ...], rest: tuple[int, ...], words: int) -> object:
        nonlocal prefix_tally, total
        cut, achieved = _cut(lw, letters, p)
        if achieved < p and words > 1:
            return None  # the scan runs past the prefix
        if achieved == p:
            i, j, u = 0, 0, letters[:cut]
        else:
            i, j, u = letters[cut - 1], achieved - p, letters[: cut - 1]
        try:
            reassembled = _raney_join(lw, p, i, j, u, letters[cut:])
        except PreconditionError as exc:
            return {"reason": str(exc), "word": render(letters)}
        if reassembled != letters:
            return {"reason": "factorization does not reassemble", "word": render(letters)}
        total += words
        if achieved == p:
            prefix_tally += words
        else:
            key = (i, j, tuple(map(letters[:cut].count, codes)))
            overshoot_tally[key] = overshoot_tally.get(key, 0) + words
        return True

    for _, head, table in _class_blocks(alphabet, total_weight, n):
        failure = _certify(check, head, table)
        if failure is not None:
            return _fail(report, **failure)

    # the weight-p prefix subclass, both routes
    prefix_enumerated = _class_size(alphabet, total_weight, n, p)
    prefix_formula = count_prefix_class(p, q + nz, n, alphabet)
    if not prefix_tally == prefix_enumerated == prefix_formula:
        return _fail(
            report, "prefix-case tally disagrees",
            tally=prefix_tally,
            enumerated=prefix_enumerated,
            formula=str(prefix_formula),
        )

    # each overshoot cell is a product of two smaller classes, both routes
    rhs_total = prefix_tally
    for i in range(1, m + 1):
        for j in range(1, z[i - 1] + 1):
            for k in box(n):
                ku = vec_sub(k, unit(m, i))
                head_p = p + j - z[i - 1] - 1
                tail_p = q + nz - j
                # an infeasible piece (negative weight or count) counts as zero
                formula = count_words(head_p, ku, alphabet) * count_words(
                    tail_p, vec_sub(n, k), alphabet
                )
                tally = overshoot_tally.get((i, j, k), 0)
                if formula != tally:
                    return _fail(
                        report, "overshoot cell tally disagrees with the closed form",
                        i=i,
                        j=j,
                        k=list(k),
                        tally=tally,
                        formula=str(formula),
                    )
                if tally:
                    head_count = _class_size(alphabet, head_p, ku)
                    tail_count = _class_size(alphabet, tail_p, vec_sub(n, k))
                    if head_count * tail_count != tally:
                        return _fail(
                            report, "overshoot cell tally disagrees with enumeration",
                            i=i,
                            j=j,
                            k=list(k),
                            tally=tally,
                            enumerated=head_count * tail_count,
                        )
                rhs_total += tally
    if rhs_total != total:
        return _fail(
            report, "cases do not partition the class", total=total, sum_of_cases=rhs_total
        )
    closed_total = multinomial(p + q, n)
    if closed_total != total:
        return _fail(
            report, "class size disagrees with C(p+q, n)",
            total=total,
            formula=str(closed_total),
        )

    report.verdict = VERDICT_PASS
    report.details = {
        "total": total,
        "prefix_case": prefix_tally,
        "overshoot": total - prefix_tally,
        "overshoot_cells": {
            f"i={i},j={j},k={','.join(map(str, k))}": c
            for (i, j, k), c in sorted(overshoot_tally.items())
        },
    }
    return report


def _fail(report: EvalReport, reason: str, **ctx: object) -> EvalReport:
    """report, failed for reason, with ctx as the counterexample's context."""
    report.verdict = VERDICT_FAIL
    report.counterexample = {"reason": reason, **ctx}
    return report


def _render(alphabet: GradedAlphabet, letters: tuple[int, ...]) -> str:
    return str(Word(alphabet, letters))
