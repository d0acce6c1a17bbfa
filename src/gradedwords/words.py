"""Words over a graded alphabet, their enumeration, and closed-form counts.

The alphabet is Gamma = {a, b_1, ..., b_m} where the letter a has weight 1
and b_i has weight z_i + 1 for a grading vector z of naturals.  Letters are
stored as integer codes: 0 for a, i (1-based) for b_i; tuple comparison of
code sequences therefore gives the canonical lexicographic order
a < b_1 < ... < b_m.

Two word classes matter:

    class(p, k)     -- words of weight p containing exactly k_i copies of b_i
    class(p, k, r)  -- its subset of words having a prefix of weight r

Since every letter weighs at least 1, prefix weights increase strictly with
prefix length, so a word has at most one prefix of any given weight.  The
empty prefix (weight 0) counts as a prefix, so r = 0 selects the whole class.

The count of class(p, k) is the multinomial C(p - k.z, k): such words have
length p - k.z, and the formula chooses the positions of the b letters.  The
class is exactly the arrangements of the multiset {a^(p - k.z - |k|),
b_1^(k_1), ..., b_m^(k_m)}, which Knuth's Algorithm L (TAOCP vol. 4A,
7.2.1.2) visits in lexicographic order.

A class is listed in blocks (cut, head, table): every word of a block is
head + t for t in its table, and cut is the length of the word's weight-r
prefix.  A depth-first search over heads first places the weight-r prefix,
then keeps placing letters until the letters left over have one arrangement
(a run of one letter: the only tail of its block) or at most _TABLE_CAP.
Those arrangements are the table; two or more are listed by Algorithm L
(and checked to increase strictly, as bisecting a table needs) into a
bounded memo of the process keyed by their letter counts, so a table serves
every head, class and alphabet of its m that leaves the same letters.
The heads come in lexicographic order and none is a prefix of another, so
the blocks concatenated are the class in lexicographic order; consumers
build a block's words with map(head.__add__, table), without a Python step
per word.  A class is counted by its table lengths, so a count builds no
word at all.

verify_count checks a closed-form count against that count of the
enumeration, for a class or a prefix class, and reports the verdict.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .arith import MultiIndex, _Cap, dot, multinomial, naturals, norm, vec_sub, box
from .errors import DimensionMismatchError, PreconditionError
from .reports import VERDICT_EQUAL, VERDICT_MISMATCH, EvalReport

__all__ = [
    "GradedAlphabet",
    "Word",
    "WordClassSpec",
    "enumerate_words",
    "count_words",
    "count_prefix_class",
    "verify_count",
]


@dataclass(frozen=True)
class GradedAlphabet:
    """The alphabet {a, b_1..b_m} with ||a|| = 1 and ||b_i|| = z_i + 1.

    z_i = 0 is allowed (a weight-1 letter distinct from a); operations that
    need z_i >= 1 check it themselves.  The tuples weights and names give
    each letter's weight and name, indexed by letter code.
    """

    z: MultiIndex
    weights: tuple[int, ...] = field(init=False, repr=False, compare=False)
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", naturals(self.z, "z"))
        object.__setattr__(self, "weights", (1,) + tuple(e + 1 for e in self.z))
        object.__setattr__(self, "names", tuple(map(self.letter_name, range(self.m + 1))))

    @property
    def m(self) -> int:
        return len(self.z)

    def _check_code(self, code: int) -> None:
        if type(code) is not int or not 0 <= code <= self.m:
            raise PreconditionError(f"letter code {code!r} out of range 0..{self.m}")

    def letter_name(self, code: int) -> str:
        self._check_code(code)
        if code == 0:
            return "a"
        return "b" if self.m == 1 else f"b{code}"

    def parse_word(self, text: str) -> "Word":
        """Parse the space-separated text format, e.g. "a b2 a b1".

        For m = 1 the bare token "b" is accepted (and produced) for b_1.
        """
        letters = []
        for tok in text.split():
            if tok == "a":
                letters.append(0)
            elif tok == "b" and self.m == 1:
                letters.append(1)
            elif tok.startswith("b") and tok[1:].isdigit():
                i = int(tok[1:])
                if not 1 <= i <= self.m:
                    raise PreconditionError(
                        f"letter {tok!r} out of range for alphabet with m={self.m}"
                    )
                letters.append(i)
            else:
                raise PreconditionError(f"unrecognized letter token {tok!r}")
        return Word(self, tuple(letters))


@dataclass(frozen=True)
class Word:
    """A finite letter sequence over a graded alphabet, its letters stored
    as a tuple of codes."""

    alphabet: GradedAlphabet
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        m = self.alphabet.m
        if self.letters and not (
            {*map(type, self.letters)} == {int} and 0 <= min(self.letters) <= max(self.letters) <= m
        ):
            raise PreconditionError(f"letter codes must be ints in 0..{m}, got {self.letters!r}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(map(self.alphabet.names.__getitem__, self.letters))

    @property
    def weight(self) -> int:
        return sum(map(self.alphabet.weights.__getitem__, self.letters))

    @property
    def counts(self) -> MultiIndex:
        return tuple(map(self.letters.count, range(1, self.alphabet.m + 1)))

    def prefix(self, length: int) -> "Word":
        return Word(self.alphabet, self.letters[:length])

    def prefix_cut(self, r: int) -> Optional[int]:
        """Length of the (unique) prefix of weight r, or None.

        r = 0 always cuts at the empty prefix.
        """
        length, weight = _cut(self.alphabet.weights, self.letters, r)
        return length if weight == r else None


def _trusted_word(alphabet: GradedAlphabet, letters: tuple[int, ...]) -> Word:
    """Word(alphabet, letters) without the range check, for in-range letters.
    The fields go straight into the instance dict, where the frozen
    dataclass keeps them: cheaper per word than object.__setattr__."""
    w = object.__new__(Word)
    fields = w.__dict__
    fields["alphabet"] = alphabet
    fields["letters"] = letters
    return w


@dataclass(frozen=True)
class WordClassSpec:
    """Description of a word class: weight p, letter counts k, optional
    required prefix weight r.  p, the entries of k and r must be ints, never
    a bool; a negative one gives an empty class."""

    p: int
    k: MultiIndex
    r: Optional[int] = None

    def __post_init__(self) -> None:
        k = tuple(self.k)
        _check_ints(p=self.p, k=k, r=self.r)
        object.__setattr__(self, "k", k)


def _check_ints(**values: object) -> None:
    """Refuse, by its name, a value that is not an int (a bool, float or
    Fraction included), or a tuple with such an entry; None passes.  The
    word layer's one type check: a class's p, k and r, a prefix class's q,
    and a split's p, q and r."""
    for name, value in values.items():
        if type(value) is tuple:
            if not all(type(e) is int for e in value):
                raise PreconditionError(f"{name} entries must be ints, got {value!r}")
        elif value is not None and type(value) is not int:
            raise PreconditionError(f"{name} must be an int, got {value!r}")


def _cut(lw: tuple[int, ...], letters: tuple[int, ...], target: int) -> tuple[int, int]:
    """(length, weight) of the shortest prefix of weight >= target under the
    weight table lw, or of the whole word if it weighs less.  Prefix weights
    increase strictly, so the word has a prefix of weight target exactly
    when the weight returned is target."""
    if target <= 0:
        return 0, 0
    acc = 0
    for i, c in enumerate(letters, 1):
        acc += lw[c]
        if acc >= target:
            return i, acc
    return len(letters), acc


def _arrangements(counts: list[int]) -> Iterator[tuple[int, ...]]:
    """Every arrangement of counts[c] copies of each code c, in lexicographic
    order: Knuth's Algorithm L, from the sorted multiset to its reverse."""
    a: list[int] = []
    for c, e in enumerate(counts):
        a += [c] * e
    last = len(a) - 1
    while True:
        yield tuple(a)
        # a[j+1:] is the longest non-increasing tail: raise a[j] to the next
        # larger letter of that tail, then sort the tail ascending
        j = last - 1
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        aj = a[j]
        t = last
        while aj >= a[t]:
            t -= 1
        a[j] = a[t]
        a[t] = aj
        a[j + 1 :] = a[:j:-1]


def _check_dimension(counts: MultiIndex, alphabet: GradedAlphabet) -> None:
    if len(counts) != alphabet.m:
        raise DimensionMismatchError(
            f"counts length {len(counts)} vs alphabet dimension {alphabet.m}"
        )


# The largest table a block may take.  Algorithm L lists a table at one
# Python step per entry, map builds a block's words with none, and the head
# search takes a few steps per block: a small cap multiplies the blocks, a
# large one lists big tables that few heads share.  Building every word of
# the 234 classes (221 k words) of seeds 1-3 of the words-bijections
# benchmark took, by cap (median of 9, CPython 3.11.7, 2 vCPUs): 16: 93 ms,
# 32: 79 ms, 64: 79 ms, 128: 85 ms, 256: 103 ms, 1024: 147 ms; one generator
# step per word, as before blocks, took 256 ms.  Re-measured with the tables
# memoized per process (words-bijections benchmark, seed 77): caps 128 and
# 256 gave a check_p50_ms of 0.151 and 0.129 against 0.16 at 64, but no
# checks_per_s gain (4103 against 4156 at 64), and the memo grew 1.7- and
# 3.2-fold.
_TABLE_CAP = 64

# The most tables the memo keeps, each 2 to _TABLE_CAP tails of at most
# _TABLE_CAP letters (L letters of two kinds have L arrangements or more):
# under 10 MB.  A words-bijections benchmark pass (seeds 1-3, 5, 77) lists
# 113-119 distinct tables, 0.25 MB at seed 77, other workloads at most 45,
# and a second pass lists none.
_TABLES_KEPT = 256

_Table = tuple[tuple[int, ...], ...]
_Block = tuple[int, tuple[int, ...], _Table]


def _class_blocks(
    alphabet: GradedAlphabet, p: int, k: MultiIndex, r: Optional[int] = None
) -> Iterator[_Block]:
    """Yield class(p, k), restricted to prefix weight r if given, as blocks
    (cut, head, table) in lexicographic order: the block's words are
    head + t for t in table, and each has its weight-r prefix at length cut.

    An explicit-stack depth-first search first lists the weight-r prefixes
    in lexicographic order, pruning a branch once its weight would pass r.
    Past the prefix it places any letter still left, until the letters left
    over have at most _TABLE_CAP arrangements; size holds that count
    exactly, updated as size * counts[c] // left when c is placed.  Size 1
    leaves a run of one letter, the block's only tail; below weight r it
    reaches r or never, so its letters up to r join the head in one step,
    never pushed, or the branch is dropped.  Larger tables are listed by
    the process's memo _table.  No head is a prefix of another, so the
    (head, table) order is lexicographic.
    r = None, like r = 0, takes the single empty prefix; a negative r, or
    one past p, takes none.
    """
    r = r or 0
    if p < 0 or any(e < 0 for e in k) or not 0 <= r <= p:
        return
    counts = [p - dot(k, alphabet.z) - norm(k), *k]
    if counts[0] < 0:
        return
    weights = alphabet.weights
    top = len(weights)
    left = sum(counts)
    size = multinomial(left, k)  # the arrangements of the letters left
    head: list[int] = []
    acc = c = cut = 0  # the weight of head, the next letter to try, the weight-r cut
    while True:
        if acc >= r:
            if size <= _TABLE_CAP:
                table = _table[tuple(counts)] if size > 1 else ((counts.index(left),) * left,)
                yield cut, tuple(head), table
                c = top
        elif size == 1:  # the letters left are one run, of c: it reaches r or never
            c = counts.index(left)
            steps, short = divmod(r - acc, weights[c])
            if not short and steps <= counts[c]:
                yield len(head) + steps, (*head, *[c] * steps), ((c,) * (left - steps),)
            c = top
        # below weight r a letter must fit under r; past it any letter left goes
        while c < top and not (counts[c] and (acc >= r or acc + weights[c] <= r)):
            c += 1
        if c < top:
            size = size * counts[c] // left
            left -= 1
            counts[c] -= 1
            head.append(c)
            acc += weights[c]
            if acc == r:
                cut = len(head)
            c = 0
            continue
        if not head:
            return
        c = head.pop()
        counts[c] += 1
        left += 1
        size = size * left // counts[c]
        acc -= weights[c]
        c += 1


def _list_table(counts: tuple[int, ...]) -> _Table:
    """The Algorithm L table of counts (two or more arrangements), a tuple
    no caller can change, for the memo _table.  It is checked to increase
    strictly when listed: the certificates split tables by bisect, which is
    sound only on sorted ones."""
    table = tuple(_arrangements(counts))
    if not all(map(operator.lt, table, table[1:])):
        k = next(k for k in range(1, len(table)) if not table[k - 1] < table[k])
        raise RuntimeError(
            f"the table of leftover counts {counts} does not increase at entry {k}: "
            f"{table[k - 1]} then {table[k]}"
        )
    return table


# counts -> the table of their arrangements, the process's
_table = _Cap(_TABLES_KEPT).memo(0, _list_table)


def _class_size(alphabet: GradedAlphabet, p: int, k: MultiIndex, r: Optional[int] = None) -> int:
    """The number of words of the class: the table lengths of its blocks,
    summed.  The count is the enumeration's own, with no word built."""
    return sum(len(table) for _, _, table in _class_blocks(alphabet, p, k, r))


def enumerate_words(spec: WordClassSpec, alphabet: GradedAlphabet) -> Iterator[Word]:
    """Stream the words of the class described by spec, each exactly once,
    in lexicographic order under a < b_1 < ... < b_m.

    Infeasible specs (p - k.z - |k| < 0, or r unreachable) yield nothing.
    """
    _check_dimension(spec.k, alphabet)
    build = functools.partial(_trusted_word, alphabet)
    for _, head, table in _class_blocks(alphabet, spec.p, spec.k, spec.r):
        yield from map(build, map(head.__add__, table))


def count_words(p: int, k: MultiIndex, alphabet: GradedAlphabet) -> int:
    """Closed-form count of class(p, k): the multinomial C(p - k.z, k), an int.

    p and the entries of k must be ints (never a bool), as for a
    WordClassSpec.  Infeasible classes, a negative p or k entry among them,
    count as zero.  The guard on p - k.z < 0 matters: the total multinomial
    at a negative first argument need not vanish (e.g. C(-1, (1,1)) = 2),
    but no word has a negative number of a's.
    """
    k = WordClassSpec(p, k).k
    _check_dimension(k, alphabet)
    if p < 0 or any(e < 0 for e in k) or p - dot(k, alphabet.z) < 0:
        return 0
    return multinomial(p - dot(k, alphabet.z), k)


def _split_count(z: MultiIndex, p: int, q: int, n: MultiIndex) -> int:
    """The number of words of weight p + q with letter counts n that have a
    prefix of weight p: the convolution sum

        sum_k C(p - k.z, k) C(q - (n-k).z, n-k)

    over 0 <= k <= n.  Splitting such a word at its weight-p prefix sends it
    to a pair (word of weight p with counts k, word of weight q with counts
    n - k), which is where the sum comes from.  A piece of negative length
    has no words and counts as zero, so any p, q and n may be given."""
    total = 0
    for k in box(n):
        nk = vec_sub(n, k)
        head, tail = p - dot(k, z), q - dot(nk, z)
        if head >= 0 and tail >= 0:
            total += multinomial(head, k) * multinomial(tail, nk)
    return total


def count_prefix_class(p: int, q: int, n: MultiIndex, alphabet: GradedAlphabet) -> int:
    """Closed-form count of class(p + q, n, r=p), the sum of _split_count,
    an int.  p, q and the entries of n must be ints (never a bool), and
    p, q >= n.z."""
    n = tuple(n)
    _check_ints(p=p, q=q, n=n)
    _check_dimension(n, alphabet)
    nz = dot(n, alphabet.z)
    if p < nz or q < nz:
        raise PreconditionError(
            f"prefix-class count requires p >= n.z and q >= n.z (p={p}, q={q}, n.z={nz})"
        )
    return _split_count(alphabet.z, p, q, n)


def verify_count(
    alphabet: GradedAlphabet, p: int, k: MultiIndex, q: Optional[int] = None
) -> EvalReport:
    """The closed form against the enumeration's count: count_words for
    class(p, k), or, given q, count_prefix_class for the prefix class
    class(p + q, k, r=p), whose letter counts k the report names n.  Equal
    counts are the verdict; a mismatch names both and the parameters."""
    z = list(alphabet.z)
    if q is None:
        formula = count_words(p, k, alphabet)
        enumerated = _class_size(alphabet, p, k)
        report = EvalReport(check="count", params={"p": p, "k": list(k), "z": z})
    else:
        formula = count_prefix_class(p, q, k, alphabet)
        enumerated = _class_size(alphabet, p + q, k, p)
        report = EvalReport(
            check="count-prefix-class", params={"p": p, "q": q, "n": list(k), "z": z}
        )
    report.details = {"formula": formula, "enumerated": enumerated}
    report.verdict = VERDICT_EQUAL if formula == enumerated else VERDICT_MISMATCH
    if not report.ok:
        report.counterexample = {**report.details, "params": report.params}
    return report
