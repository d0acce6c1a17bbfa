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
length p - k.z, and the formula chooses the positions of the b letters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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

    def __post_init__(self) -> None:
        if any(e < 0 for e in self.z):
            raise PreconditionError(f"grading entries must be >= 0, got {self.z}")
        object.__setattr__(self, "_weights", (1,) + tuple(e + 1 for e in self.z))

    @property
    def m(self) -> int:
        return len(self.z)

    def letter_weight(self, code: int) -> int:
        return 1 if code == 0 else self.z[code - 1] + 1

    def letter_weights(self) -> tuple[int, ...]:
        """Weight table indexed by letter code."""
        return self._weights

    def letter_name(self, code: int) -> str:
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
        if any(not 0 <= c <= m for c in self.letters):
            raise PreconditionError(f"letter code out of range 0..{m}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(self.alphabet.letter_name(c) for c in self.letters)

    @property
    def weight(self) -> int:
        lw = self.alphabet.letter_weights()
        return sum(lw[c] for c in self.letters)

    @property
    def counts(self) -> MultiIndex:
        out = [0] * self.alphabet.m
        for c in self.letters:
            if c:
                out[c - 1] += 1
        return tuple(out)

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
        lw = self.alphabet.letter_weights()
        out = []
        acc = 0
        for c in self.letters:
            acc += lw[c]
            out.append(acc)
        return tuple(out)

    def prefix_cut(self, r: int) -> Optional[int]:
        """Length of the (unique) prefix of weight r, or None.

        r = 0 always cuts at the empty prefix.
        """
        return _prefix_cut(self.alphabet.letter_weights(), self.letters, r)

    def has_prefix_of_weight(self, r: int) -> bool:
        return self.prefix_cut(r) is not None


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


def _iter_class(
    z: MultiIndex, p: int, k: MultiIndex, r: Optional[int] = None
) -> Iterator[tuple[int, ...]]:
    """Yield the letter tuples of class(p, k) (restricted to prefix weight r
    if given) in lexicographic order.

    Recursive over remaining letter budgets; a branch is pruned as soon as
    the running weight passes r without hitting it, since prefix weights
    only ever increase.
    """
    if p < 0 or any(e < 0 for e in k):
        return
    num_a = p - dot(k, z) - norm(k)
    if num_a < 0:
        return
    if r is not None and r > p:
        return
    m = len(z)
    weights = tuple(e + 1 for e in z)
    counts = list(k)
    word: list[int] = []

    def rec(na: int, acc_weight: int, hit: bool) -> Iterator[tuple[int, ...]]:
        if r is not None and not hit:
            if acc_weight > r:
                return
            hit = acc_weight == r
        if na == 0 and acc_weight == p:
            if r is None or hit:
                yield tuple(word)
            return
        if na > 0:
            word.append(0)
            yield from rec(na - 1, acc_weight + 1, hit)
            word.pop()
        for i in range(m):
            if counts[i] > 0:
                counts[i] -= 1
                word.append(i + 1)
                yield from rec(na, acc_weight + weights[i], hit)
                word.pop()
                counts[i] += 1

    yield from rec(num_a, 0, False)


def enumerate_words(spec: WordClassSpec, alphabet: GradedAlphabet) -> Iterator[Word]:
    """Stream the words of the class described by spec, each exactly once,
    in lexicographic order under a < b_1 < ... < b_m.

    Infeasible specs (p - k.z - |k| < 0, or r unreachable) yield nothing.
    """
    if len(spec.k) != alphabet.m:
        raise DimensionMismatchError(
            f"counts length {len(spec.k)} vs alphabet dimension {alphabet.m}"
        )
    for letters in _iter_class(alphabet.z, spec.p, spec.k, spec.r):
        yield Word(alphabet, letters)


def count_words(p: int, k: MultiIndex, alphabet: GradedAlphabet) -> Fraction:
    """Closed-form count of class(p, k): the multinomial C(p - k.z, k).

    Infeasible classes count as zero.  The guard on p - k.z < 0 matters: the
    total multinomial at a negative first argument need not vanish (e.g.
    C(-1, (1,1)) = 2), but no word has a negative number of a's.
    """
    if len(k) != alphabet.m:
        raise DimensionMismatchError(
            f"counts length {len(k)} vs alphabet dimension {alphabet.m}"
        )
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
    if len(n) != alphabet.m:
        raise DimensionMismatchError(
            f"counts length {len(n)} vs alphabet dimension {alphabet.m}"
        )
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
