"""Exact multi-index arithmetic: multinomials, boxes, scalar formatting."""

from __future__ import annotations

import ast
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradedwords import (
    DimensionMismatchError,
    PreconditionError,
    box,
    dot,
    format_scalar,
    multi_factorial,
    multinomial,
    norm,
    parse_scalar,
    unit,
    vec_sub,
)
from gradedwords import arith
from gradedwords.arith import natural, naturals


# ---------------------------------------------------------------------------
# multinomial
# ---------------------------------------------------------------------------


def test_multinomial_matches_binomial_for_naturals():
    for x in range(12):
        for k in range(6):
            assert multinomial(x, (k,)) == math.comb(x, k)


def test_multinomial_two_part_matches_comb_product():
    # C(x, (k1, k2)) = C(x, k1) * C(x - k1, k2)
    for x in range(10):
        for k1 in range(4):
            for k2 in range(4):
                expected = math.comb(x, k1) * math.comb(x - k1, k2) if x >= k1 + k2 else 0
                assert multinomial(x, (k1, k2)) == expected


def test_multinomial_negative_entry_is_zero():
    assert multinomial(5, (-1,)) == 0
    assert multinomial(5, (2, -1)) == 0
    assert multinomial(Fraction(7, 2), (1, -2)) == 0


def test_multinomial_is_total_at_negative_and_rational_arguments():
    # the falling-factorial form keeps going below zero: C(-1, k) = (-1)^k
    for k in range(6):
        assert multinomial(-1, (k,)) == (-1) ** k
    assert multinomial(-1, (1, 1)) == 2
    assert multinomial(Fraction(1, 2), (2,)) == Fraction(-1, 8)


def test_multinomial_empty_index():
    assert multinomial(17, ()) == 1
    assert multinomial(Fraction(-3, 7), ()) == 1


def test_multinomial_refuses_inexact_arguments():
    # C(2.5, 1) = 5/2: a float must be refused, never truncated to an int
    for x in (2.5, 2.0, "3", None):
        with pytest.raises(PreconditionError, match="needs an int or Fraction x"):
            multinomial(x, (1,))
        with pytest.raises(PreconditionError):
            multinomial(x, (-1,))
    assert multinomial(Fraction(5, 2), (1,)) == Fraction(5, 2)
    assert multinomial(Fraction(6, 3), (2,)) == 1


def test_multinomial_refuses_bool():
    # natural and rational refuse bools; so does the multinomial
    for x in (True, False):
        with pytest.raises(PreconditionError, match="needs an int or Fraction x"):
            multinomial(x, (1,))
    assert multinomial(1, (1,)) == 1


def _comb_product_reference(x: int, n: tuple) -> int:
    """C(x, n) at an integer x by a product of binomials,
    prod_i C(x - n_1 - ... - n_(i-1), n_i), after upper negation at x < 0."""
    if min(n, default=0) < 0:
        return 0
    j = sum(n)
    out = 1
    if x < 0:
        out, x = (-1) ** j, j - x - 1
    elif x < j:
        return 0
    for e in n:
        out *= math.comb(x, e)
        x -= e
    return out


def test_multinomial_at_an_integer_x_is_the_comb_product():
    # every n of length m <= 3 with entries in -2..6, at every x in -40..40,
    # as a tuple and as a list, and x also as an integral Fraction
    for m in range(4):
        for n in itertools.product(range(-2, 7), repeat=m):
            for x in range(-40, 41):
                expected = _comb_product_reference(x, n)
                for got in (multinomial(x, n), multinomial(x, list(n)),
                            multinomial(Fraction(x, 1), n)):
                    assert got == expected and type(got) is int, (x, n)


def test_multinomial_is_exact_past_the_cache_of_multi_indices():
    # more distinct n than the memo of (|n|, |n|!/n!) holds, twice over,
    # so it is emptied and entries are computed again
    shapes = list(itertools.product(range(7), repeat=4))
    assert len(shapes) > arith._shape.cap.most
    for _ in range(2):
        for n in shapes:
            for x in (-9, 5, 30):
                assert multinomial(x, n) == _comb_product_reference(x, n), (x, n)


def test_natural_numbers_refuse_bool_float_and_negatives():
    assert natural(0, "n") == 0
    assert naturals([2, 0], "z") == (2, 0)
    for bad in (True, 2.0, -1, "3", None):
        with pytest.raises(PreconditionError, match=r"^--p must be a natural number, got "):
            natural(bad, "--p")
    with pytest.raises(PreconditionError, match=r"^z entry must be a natural number, got 1\.0$"):
        naturals((2, 1.0), "z")
    with pytest.raises(PreconditionError, match=r"^z must be a vector of naturals, got 5$"):
        naturals(5, "z")


def test_multinomial_degree_bound_via_finite_differences():
    # C(x, n) is a polynomial in x of degree |n|: the (|n|+1)-st finite
    # difference must vanish identically on a window of integer points.
    for n in [(2,), (3,), (1, 2), (2, 2)]:
        d = norm(n)
        values = [multinomial(x, n) for x in range(d + 6)]
        for _ in range(d + 1):
            values = [b - a for a, b in zip(values, values[1:])]
        assert all(v == 0 for v in values)


@given(
    x=st.integers(min_value=-8, max_value=8),
    n=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3).map(tuple),
)
def test_multinomial_pascal_recurrence(x, n):
    # C(x, n) = C(x-1, n) + sum_i C(x-1, n - e_i), the multi-index Pascal rule
    m = len(n)
    rhs = multinomial(x - 1, n)
    for i in range(1, m + 1):
        rhs += multinomial(x - 1, vec_sub(n, unit(m, i)))
    assert multinomial(x, n) == rhs


def _falling_factorial_reference(x: Fraction, n: tuple) -> Fraction:
    """C(x, n) by one Fraction multiply per factor of the falling factorial."""
    if min(n, default=0) < 0:
        return Fraction(0)
    ff = Fraction(1)
    for t in range(sum(n)):
        ff *= x - t
    return ff / multi_factorial(n)


@given(
    a=st.integers(min_value=-60, max_value=60),
    b=st.integers(min_value=2, max_value=12),
    n=st.lists(st.integers(min_value=-1, max_value=4), min_size=0, max_size=3).map(tuple),
)
@settings(max_examples=300)
def test_multinomial_at_a_rational_x_is_the_falling_factorial(a, b, n):
    x = Fraction(a, b)
    got = multinomial(x, n)
    assert got == _falling_factorial_reference(x, n)
    assert type(got) is (int if x.denominator == 1 else Fraction)


def test_multi_factorial():
    assert multi_factorial((3,)) == 6
    assert multi_factorial((2, 3)) == 12
    assert multi_factorial(()) == 1


# ---------------------------------------------------------------------------
# vectors and boxes
# ---------------------------------------------------------------------------


def test_dot_norm_sub_unit():
    assert dot((1, 2), (3, 4)) == 11
    assert norm((1, 2, 3)) == 6
    assert vec_sub((3, 4), (1, 2)) == (2, 2)
    assert unit(3, 2) == (0, 1, 0)


def test_dot_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        dot((1,), (1, 2))


def test_box_is_lexicographic_and_complete():
    got = list(box((1, 2)))
    assert got == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert list(box(())) == [()]
    assert list(box((0, 0))) == [(0, 0)]


@given(n=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3).map(tuple))
@settings(max_examples=30)
def test_box_size(n):
    assert sum(1 for _ in box(n)) == math.prod(e + 1 for e in n)


# ---------------------------------------------------------------------------
# powers and scalar text
# ---------------------------------------------------------------------------


def test_format_and_parse_scalar_round_trip():
    for s in [Fraction(0), Fraction(-7), Fraction(22, 7), Fraction(-3, 2), Fraction(10**30)]:
        assert parse_scalar(format_scalar(s)) == s
    assert format_scalar(Fraction(4, 2)) == "2"
    assert parse_scalar("5/10") == Fraction(1, 2)


def _format_through_fraction(v) -> str:
    """format_scalar as it was before its int fast path."""
    f = Fraction(v)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


@pytest.mark.parametrize("v", [
    0, 7, -7, 10**30, -(10**30), True, False,  # a bool renders as 1 or 0, as before
    Fraction(0), Fraction(-7), Fraction(4, 2), Fraction(22, 7), Fraction(-3, 2),
])
def test_format_scalar_renders_as_through_a_fraction(v):
    assert format_scalar(v) == _format_through_fraction(v)


def _with_int_str_limit(limit: int, f, *args):
    """f(*args) with sys.set_int_max_str_digits(limit), restored after."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        return f(*args)
    finally:
        sys.set_int_max_str_digits(before)


def _of_length(digits: int) -> int:
    """An int of that many digits, not all alike: 1 and then 142857 repeated."""
    return 10 ** (digits - 1) + 10 ** (digits - 1) // 7


_HUGE = {
    "1e4300": 10**4300, "-1e4300": -(10**4300), "1e6000-1": 10**6000 - 1,
    "7e4800+3": 7 * 10**4800 + 3, "1e1200": 10**1200, "-1/1e5000": Fraction(-1, 10**5000),
    "(1e4301+1)/3": Fraction(10**4301 + 1, 3),
    # lengths around 1, 2, 4 and 8 chunks of 600 digits, either sign
    **{f"{sign}{chunks}x600{delta:+d}": int(f"{sign}1") * _of_length(600 * chunks + delta)
       for chunks in (1, 2, 4, 8) for delta in (-1, 0, 1) for sign in ("", "-")},
    # around the powers of two at which the bits are cut in halves
    **{f"2**{bits}{delta:+d}": 2**bits + delta for bits in (4096, 16384) for delta in (-1, 0, 1)},
    "-(2**16384-1)/2**4096": Fraction(1 - 2**16384, 2**4096),
}


@pytest.mark.parametrize("v", _HUGE.values(), ids=_HUGE.keys())
def test_format_scalar_prints_every_digit_past_the_int_str_limit(v):
    expected = _with_int_str_limit(0, _format_through_fraction, v)  # 0: no limit
    assert format_scalar(v) == expected
    assert _with_int_str_limit(640, format_scalar, v) == expected  # the least limit allowed


# scalar-like text: signs, separators, exponents, base prefixes, non-ASCII
# digits and spaces, and the whitespace str.strip removes but a regex \s may not
_SCALAR_CHARS = "0123456789_+-/.eExob \t\n\x1c\x85\u3000\u0663\uff17"
_SPACES = st.sampled_from(["", " ", "\t\n", "\x1c", "\u3000"])
_NUMERAL_TEXT = st.tuples(
    _SPACES,
    st.sampled_from(["", "+", "-", "--"]),
    st.integers(0, 10**30).flatmap(lambda n: st.sampled_from([str(n), f"{n:_}", f"0{n}", f"0x{n}"])),
    st.sampled_from(["", "/7", "/0", "/-7", ".5", "e2", "_"]),
    _SPACES,
).map("".join)


@given(text=st.one_of(st.text(), st.text(_SCALAR_CHARS, max_size=12), _NUMERAL_TEXT))
@settings(max_examples=400)
@example("1E4300")
@example("1e-5000")
def test_parse_scalar_accepts_exactly_what_fraction_accepts(text):
    try:
        expected = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            parse_scalar(text)
    else:
        value = parse_scalar(text)
        assert value == expected and format_scalar(value) == format_scalar(expected)


@given(num=st.integers(-10**6, 10**6), den=st.integers(1, 10**6))
@settings(max_examples=50)
def test_parse_format_inverse(num, den):
    s = Fraction(num, den)
    assert parse_scalar(format_scalar(s)) == s


def test_only_arith_takes_a_factorial():
    # C(x, n) has one implementation, arith.multinomial: no other module
    # computes one from factorials
    calls = []
    for path in sorted(Path(arith.__file__).parent.glob("*.py")):
        if path.name == "arith.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("factorial", "multi_factorial"):
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []
