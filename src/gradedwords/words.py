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
7.2.1.2) visits in lexicographic order.  class(p, k, r) is listed as its
weight-r prefixes u in lexicographic order, each followed by the arrangements
of the letters u leaves over.  That order is lexicographic too: two distinct
weight-r words are never prefixes of each other, so they differ at a position
inside both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, Optional

from .arith import MultiIndex, dot, multinomial, norm, vec_sub, box
from .errors import DimensionMismatchError, PreconditionError

__all__ = [
    "GradedAlphabet",
    "Word",
    "WordClassSpec",
    "enumerate_words",
    "count_words",
    "count_prefix_class",
]


@dataclass(frozen=True)
class GradedAlphabet:
    """The alphabet {a, b_1..b_m} with ||a|| = 1 and ||b_i|| = z_i + 1.

    z_i = 0 is allowed (a weight-1 letter distinct from a); operations that
    need z_i >= 1 check it themselves.
    """

    z: MultiIndex
    _weights: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if any(e < 0 for e in self.z):
            raise PreconditionError(f"grading entries must be >= 0, got {self.z}")
        object.__setattr__(self, "_weights", (1,) + tuple(e + 1 for e in self.z))
        object.__setattr__(self, "_names", tuple(map(self.letter_name, range(self.m + 1))))

    @property
    def m(self) -> int:
        return len(self.z)

    def _check_code(self, code: int) -> None:
        if type(code) is not int or not 0 <= code <= self.m:
            raise PreconditionError(f"letter code {code!r} out of range 0..{self.m}")

    def letter_weight(self, code: int) -> int:
        self._check_code(code)
        return self._weights[code]

    def letter_weights(self) -> tuple[int, ...]:
        """Weight table indexed by letter code."""
        return self._weights

    def letter_name(self, code: int) -> str:
        self._check_code(code)
        if code == 0:
            return "a"
        return "b" if self.m == 1 else f"b{code}"

    def word(self, letters: tuple[int, ...]) -> "Word":
        return Word(self, letters)

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
    """A finite letter sequence over a graded alphabet."""

    alphabet: GradedAlphabet
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.alphabet.m
        if self.letters and not 0 <= min(self.letters) <= max(self.letters) <= m:
            raise PreconditionError(f"letter code out of range 0..{m}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(map(self.alphabet._names.__getitem__, self.letters))

    @property
    def weight(self) -> int:
        return sum(map(self.alphabet._weights.__getitem__, self.letters))

    @property
    def counts(self) -> MultiIndex:
        return tuple(map(self.letters.count, range(1, self.alphabet.m + 1)))

    def reversed(self) -> "Word":
        return Word(self.alphabet, self.letters[::-1])

    def __add__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise DimensionMismatchError("cannot concatenate words over different alphabets")
        return Word(self.alphabet, self.letters + other.letters)

    def prefix(self, length: int) -> "Word":
        return Word(self.alphabet, self.letters[:length])

    def suffix(self, length: int) -> "Word":
        return Word(self.alphabet, self.letters[len(self.letters) - length :])

    def prefix_weight_list(self) -> tuple[int, ...]:
        """Weights of the nonempty prefixes, strictly increasing, one per length."""
        return tuple(accumulate(map(self.alphabet._weights.__getitem__, self.letters)))

    def prefix_cut(self, r: int) -> Optional[int]:
        """Length of the (unique) prefix of weight r, or None.

        r = 0 always cuts at the empty prefix.
        """
        return _prefix_cut(self.alphabet._weights, self.letters, r)

    def has_prefix_of_weight(self, r: int) -> bool:
        return _prefix_cut(self.alphabet._weights, self.letters, r) is not None


def _trusted_word(alphabet: GradedAlphabet, letters: tuple[int, ...]) -> Word:
    """Word(alphabet, letters) without the range check, for in-range letters."""
    w = object.__new__(Word)
    object.__setattr__(w, "alphabet", alphabet)
    object.__setattr__(w, "letters", letters)
    return w


@dataclass(frozen=True)
class WordClassSpec:
    """Description of a word class: weight p, letter counts k, optional
    required prefix weight r."""

    p: int
    k: MultiIndex
    r: Optional[int] = None


def _prefix_cut(lw: tuple[int, ...], letters: tuple[int, ...], target: int) -> Optional[int]:
    """Length of the prefix of weight target under the weight table lw, or
    None.  target 0 cuts at 0."""
    if target == 0:
        return 0
    acc = 0
    for i, c in enumerate(letters):
        acc += lw[c]
        if acc == target:
            return i + 1
        if acc > target:
            return None
    return None


def _arrangements(counts: list[int]) -> Iterator[tuple[int, ...]]:
    """Every arrangement of counts[c] copies of each code c, in lexicographic
    order: Knuth's Algorithm L, from the sorted multiset to its reverse."""
    a = [c for c, e in enumerate(counts) for _ in range(e)]
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


def _iter_class(
    z: MultiIndex, p: int, k: MultiIndex, r: Optional[int] = None
) -> Iterator[tuple[int, ...]]:
    """Yield the letter tuples of class(p, k) (restricted to prefix weight r
    if given) in lexicographic order.

    A depth-first search, kept on the head list rather than the call stack,
    lists the weight-r prefixes u in lexicographic order, pruning a branch
    once its weight would pass r; each u is followed by the Algorithm L
    arrangements of the letters it leaves over (counts holds them).  No
    weight-r word is a prefix of another, so this (u, v) order is
    lexicographic.  r = None, like r = 0, takes the single empty prefix.
    """
    r = r or 0
    if p < 0 or any(e < 0 for e in k) or r > p:
        return
    counts = [p - dot(k, z) - norm(k), *k]
    if counts[0] < 0:
        return
    weights = (1, *(e + 1 for e in z))
    head: list[int] = []
    acc = c = 0  # the weight of head, and the next letter to try after it
    while True:
        while acc < r and c < len(weights):
            if counts[c] and acc + weights[c] <= r:
                counts[c] -= 1
                head.append(c)
                acc += weights[c]
                c = 0
            else:
                c += 1
        if acc == r:
            u = tuple(head)
            for v in _arrangements(counts):
                yield u + v
        if not head:
            return
        c = head.pop()
        counts[c] += 1
        acc -= weights[c]
        c += 1


def enumerate_words(spec: WordClassSpec, alphabet: GradedAlphabet) -> Iterator[Word]:
    """Stream the words of the class described by spec, each exactly once,
    in lexicographic order under a < b_1 < ... < b_m.

    Infeasible specs (p - k.z - |k| < 0, or r unreachable) yield nothing.
    """
    _check_dimension(spec.k, alphabet)
    for letters in _iter_class(alphabet.z, spec.p, spec.k, spec.r):
        yield _trusted_word(alphabet, letters)


def count_words(p: int, k: MultiIndex, alphabet: GradedAlphabet) -> Fraction:
    """Closed-form count of class(p, k): the multinomial C(p - k.z, k).

    Infeasible classes count as zero.  The guard on p - k.z < 0 matters: the
    total multinomial at a negative first argument need not vanish (e.g.
    C(-1, (1,1)) = 2), but no word has a negative number of a's.
    """
    _check_dimension(k, alphabet)
    if p < 0 or any(e < 0 for e in k) or p - dot(k, alphabet.z) < 0:
        return Fraction(0)
    return Fraction(multinomial(p - dot(k, alphabet.z), k))


def count_prefix_class(
    p: int, q: int, n: MultiIndex, alphabet: GradedAlphabet
) -> Fraction:
    """Closed-form count of class(p + q, n, r=p): the convolution sum

        sum_k C(p - k.z, k) C(q - (n-k).z, n-k)

    over 0 <= k <= n.  Splitting such a word at its weight-p prefix sends it
    to a pair (word of weight p with counts k, word of weight q with counts
    n - k), which is where the sum comes from.  Requires p, q >= n.z.
    """
    _check_dimension(n, alphabet)
    nz = dot(n, alphabet.z)
    if p < nz or q < nz:
        raise PreconditionError(
            f"prefix-class count requires p >= n.z and q >= n.z (p={p}, q={q}, n.z={nz})"
        )
    z = alphabet.z
    total = Fraction(0)
    for k in box(n):
        nk = vec_sub(n, k)
        total += multinomial(p - dot(k, z), k) * multinomial(q - dot(nk, z), nk)
    return total
