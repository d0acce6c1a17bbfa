"""Exact integer/rational arithmetic over multi-indices.

A multi-index is a plain tuple of ints of some fixed length m.  Scalars are
exact rationals: Python ints and `fractions.Fraction` mix freely, and nothing
in this package ever touches a float.

The central primitive is the generalized multinomial coefficient

    C(x, n) = x (x-1) ... (x-|n|+1) / n!    if every entry of n is >= 0,
    C(x, n) = 0                             otherwise,

a total function: negative entries in n silently give 0.  Identity sums rely
on this vanishing (terms like k - e_i with k_i = 0 simply drop out), so no
error is raised.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterator, Union

from .errors import DimensionMismatchError, PreconditionError

MultiIndex = tuple[int, ...]
Scalar = Union[int, Fraction]

__all__ = [
    "MultiIndex",
    "Scalar",
    "natural",
    "naturals",
    "dot",
    "norm",
    "multi_factorial",
    "multinomial",
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


def multinomial(x: Scalar, n: MultiIndex) -> Fraction:
    """Generalized multinomial coefficient C(x, n).

    Equals the falling factorial x(x-1)...(x-|n|+1) divided by n! when all
    entries of n are nonnegative, and exactly 0 otherwise.  x may be any
    exact rational (an int or a Fraction; anything else is refused); at
    integer x the result is an integer (denominator 1).
    """
    if not isinstance(x, (int, Fraction)):
        raise PreconditionError(f"multinomial needs an int or Fraction x, got {x!r}")
    if any(e < 0 for e in n):
        return Fraction(0)
    j = sum(n)
    if isinstance(x, Fraction) and x.denominator != 1:
        ff = Fraction(1)
        for t in range(j):
            ff *= x - t
        return ff / multi_factorial(n)
    # integer fast path (grid evaluation spends nearly all its time here)
    xi = int(x)
    ff = 1
    for t in range(j):
        ff *= xi - t
    return Fraction(ff, multi_factorial(n))


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
    if any(e < 0 for e in n):
        return
    if not n:
        yield ()
        return
    for head in range(n[0] + 1):
        for tail in box(n[1:]):
            yield (head,) + tail


def format_scalar(v: Scalar) -> str:
    """Render an exact scalar: decimal string if integral, else "p/q"."""
    f = Fraction(v)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_scalar(text: str) -> Fraction:
    """Inverse of format_scalar; accepts "30", "-4" and "2/3" forms."""
    return Fraction(text.strip())
