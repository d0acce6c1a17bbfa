"""Exact integer/rational arithmetic over multi-indices.

A multi-index is a plain tuple of ints of some fixed length m.  Scalars are
exact rationals: Python ints and `fractions.Fraction` mix freely, and nothing
in this package ever touches a float.

The central primitive is the generalized multinomial coefficient

    C(x, n) = x (x-1) ... (x-|n|+1) / n!    if every entry of n is >= 0,
    C(x, n) = 0                             otherwise,

a total function: negative entries in n silently give 0.  Identity sums rely
on this vanishing (terms like k - e_i with k_i = 0 simply drop out), so no
error is raised.  C(x, n) is an int at an integer x (an int, or a Fraction
with denominator 1) and a Fraction otherwise, so sums over integer points
stay in int arithmetic.  At an integer x it is one binomial times a weight,

    C(x, n) = C(x, |n|) |n|!/n!,
    C(x, |n|) = (-1)^|n| C(|n| - x - 1, |n|)    at x < 0 (upper negation),

and the pair (|n|, |n|!/n!) of each n is kept in a bounded cache, so a
call at an integer x costs one math.comb.  exact(num, den) is the
package's one division, an int wherever the quotient is integral; qsum
sums quotients through it once.
"""

from __future__ import annotations

import decimal
import itertools
import weakref
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Callable, Iterable, Iterator, Optional, Union

from .errors import DimensionMismatchError, PreconditionError

MultiIndex = tuple[int, ...]
Scalar = Union[int, Fraction]

__all__ = [
    "MultiIndex",
    "Scalar",
    "natural",
    "naturals",
    "rational",
    "dot",
    "norm",
    "multi_factorial",
    "multinomial",
    "exact",
    "qsum",
    "vec_add",
    "vec_sub",
    "unit",
    "zeros",
    "box",
    "format_scalar",
    "parse_scalar",
]


def natural(value: object, name: str) -> int:
    """value itself if it is a natural number: an int >= 0, never a bool."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise PreconditionError(f"{name} must be a natural number, got {value!r}")
    return value


def naturals(value: object, name: str) -> MultiIndex:
    """The entries of value, each a natural number, as a multi-index."""
    try:
        entries = tuple(value)  # type: ignore[arg-type]
    except TypeError:
        raise PreconditionError(f"{name} must be a vector of naturals, got {value!r}")
    return tuple(natural(e, f"{name} entry") for e in entries)


def rational(value: object, name: str) -> Scalar:
    """value itself if it is an exact rational: an int or a Fraction, never a
    bool or a float."""
    if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
        raise PreconditionError(f"{name} must be an int or a Fraction, got {value!r}")
    return value


def _check_dims(a: MultiIndex, b: MultiIndex) -> None:
    if len(a) != len(b):
        raise DimensionMismatchError(
            f"multi-index length mismatch: {len(a)} vs {len(b)}"
        )


def dot(a: MultiIndex, b: MultiIndex) -> int:
    """Scalar product a_1 b_1 + ... + a_m b_m."""
    _check_dims(a, b)
    return sum(x * y for x, y in zip(a, b))


def norm(a: MultiIndex) -> int:
    """Entry sum |a| = a_1 + ... + a_m."""
    return sum(a)


def multi_factorial(a: MultiIndex) -> int:
    """a! = a_1! ... a_m!.  All entries must be >= 0."""
    out = 1
    for x in a:
        if x < 0:
            raise ValueError(f"factorial of negative entry {x}")
        out *= factorial(x)
    return out


def multinomial(x: Scalar, n: MultiIndex) -> Scalar:
    """Generalized multinomial coefficient C(x, n).

    Equals the falling factorial x(x-1)...(x-|n|+1) divided by n! when all
    entries of n are nonnegative, and exactly 0 otherwise.  x may be any
    exact rational (an int or a Fraction, never a bool; anything else is
    refused).  The result is an int at an integer x (an int, or a Fraction
    with denominator 1), and a Fraction otherwise.
    """
    if type(x) is not int:  # an int is the grid's case: skip the slower checks
        if not isinstance(x, (int, Fraction)) or isinstance(x, bool):
            raise PreconditionError(f"multinomial needs an int or Fraction x, got {x!r}")
        if x.denominator != 1:
            if min(n, default=0) < 0:
                return Fraction(0)
            # x = a/b: the falling factorial is prod (a - t b) over b^|n|,
            # an int product divided once
            a, b, j = x.numerator, x.denominator, sum(n)
            return Fraction(prod(range(a, a - j * b, -b)), b**j * multi_factorial(n))
        x = int(x)
    # integer x: C(x, n) = C(x, |n|) |n|!/n!, with (|n|, |n|!/n!) from the
    # cache; comb is 0 at 0 <= x < |n|, and at negative x upper negation
    # gives C(x, |n|) = (-1)^|n| C(|n| - x - 1, |n|)
    j, weight = _shape(tuple(n))
    if not weight:  # a negative entry
        return 0
    if x >= 0:
        return comb(x, j) * weight
    out = comb(j - x - 1, j) * weight
    return -out if j & 1 else out


@lru_cache(maxsize=1024)
def _shape(n: MultiIndex) -> tuple[int, int]:
    """(|n|, |n|!/n!) for a multi-index n >= 0, and (0, 0) if an entry of n
    is negative.  The weight is the product of the binomials
    C(n_1 + ... + n_i, n_i), which computes no factorial of |n|."""
    if min(n, default=0) < 0:
        return 0, 0
    j, weight = 0, 1
    for e in n:
        j += e
        weight *= comb(j, e)
    return j, weight


class _Memo(dict):
    """A dict that fills in each missing key with fill(key) on first use,
    made by the _Cap that bounds it.  A value counts size(value) against
    the cap, 1 without a size; a value larger than the cap is handed out
    but not kept."""

    def __init__(self, fill: Callable, cap: _Cap, size: Optional[Callable] = None) -> None:
        super().__init__()
        self.fill, self.cap, self.size = fill, cap, size

    def __missing__(self, key):
        value, cap = self.fill(key), self.cap  # a fill that raises keeps nothing
        size = 1 if self.size is None else self.size(value)
        if size <= cap.most:
            if cap.kept + size > cap.most:
                cap.empty()
            cap.kept += size
            self[key] = value
        return value


class _Cap(weakref.WeakValueDictionary):
    """Memos, each listed under its key while it lives, that keep at most
    `most` values together, each counted by its memo's size: kept counts
    what was filled since they were last emptied, and the miss that would
    take kept past `most` empties each in place."""

    def __init__(self, most: int) -> None:
        super().__init__()
        self.most, self.kept = most, 0

    def memo(self, key: object, fill: Callable, size: Optional[Callable] = None) -> _Memo:
        memo = self.get(key)
        if memo is None:
            memo = self[key] = _Memo(fill, self, size)
        return memo

    def empty(self) -> None:
        for memo in filter(None, [ref() for ref in self.valuerefs()]):
            memo.clear()
        self.kept = 0


def exact(num: Scalar, den: Scalar) -> Scalar:
    """num / den, as an int when the quotient is integral."""
    if type(num) is int and type(den) is int and not num % den:
        return num // den
    q = Fraction(num, den)
    return q.numerator if q.denominator == 1 else q


def qsum(terms: Iterable[tuple[Scalar, Scalar]]) -> Scalar:
    """The sum of num/den over the (num, den) terms, through one exact().

    The terms are added over a common denominator, the product of every
    den, and divided once: an int when the sum is integral, else a Fraction.
    Every den must be nonzero."""
    num, den = 0, 1
    for a, b in terms:
        if type(a) is not int or type(b) is not int:  # a rational point: a/b over ints
            a, b = a.numerator * b.denominator, a.denominator * b.numerator
        num, den = num * b + a * den, den * b
    return exact(num, den)


def vec_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    _check_dims(a, b)
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    _check_dims(a, b)
    return tuple(x - y for x, y in zip(a, b))


def unit(m: int, i: int) -> MultiIndex:
    """Standard basis vector e_i of length m (i is 1-based)."""
    if not 1 <= i <= m:
        raise ValueError(f"unit index {i} out of range 1..{m}")
    return tuple(1 if t == i - 1 else 0 for t in range(m))


def zeros(m: int) -> MultiIndex:
    return (0,) * m


def box(n: MultiIndex) -> Iterator[MultiIndex]:
    """All multi-indices k with 0 <= k <= n entrywise, in lexicographic order.

    Empty if any entry of n is negative.
    """
    return itertools.product(*(range(e + 1) for e in n))


# Bits of the pieces that _digits converts to Decimal directly.
_LEAF_BITS = 128


def _digits(n: int) -> str:
    """The decimal text of n, for an int too long for str() under the
    interpreter's digit limit; a Decimal's text has no such limit.

    n is cut in two by bits, each half converted alike down to pieces of
    _LEAF_BITS, and the halves joined as hi * 2**h + lo in Decimal arithmetic
    with no rounding.  Cutting by bits costs no division, and the Decimal
    products of long numbers are subquadratic, where CPython 3.11's int
    division and str() are quadratic in the number of digits.
    """
    Decimal = decimal.Decimal
    powers: dict[int, decimal.Decimal] = {}  # h -> Decimal(2)**h

    def power(h: int) -> decimal.Decimal:
        if h not in powers:
            half = h >> 1
            powers[h] = Decimal(2) ** h if h <= _LEAF_BITS else power(half) * power(h - half)
        return powers[h]

    def convert(v: int, bits: int) -> decimal.Decimal:
        # v < 2**bits
        if bits <= _LEAF_BITS:
            return Decimal(v)
        h = bits >> 1
        hi = v >> h
        return convert(v - (hi << h), h) + convert(hi, bits - h) * power(h)

    rest = abs(n)
    with decimal.localcontext() as context:
        context.prec, context.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        context.traps[decimal.Inexact] = True
        text = str(convert(rest, rest.bit_length()))
    return "-" * (n < 0) + text


def format_scalar(v: Scalar) -> str:
    """Render an exact scalar: decimal string if integral, else "p/q",
    every digit of it, also past the limit that str() puts on an int."""
    f = v if type(v) is int else Fraction(v)
    try:
        return str(f)
    except ValueError:
        if f.denominator == 1:
            return _digits(f.numerator)
        return f"{_digits(f.numerator)}/{_digits(f.denominator)}"


def parse_scalar(text: str) -> Scalar:
    """Inverse of format_scalar; accepts "30", "-4" and "2/3" forms, and
    whatever else Fraction(text.strip()) accepts.  An integer text parses
    as an int: int() is several times faster than Fraction(), and every
    text it accepts Fraction() accepts with the same value."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        return Fraction(text)
