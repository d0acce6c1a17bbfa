"""Truncated multivariate power series and the functional equation
v = 1 + sum_i u_i v^{z_i}, with independent coefficient oracles."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedwords import series
from gradedwords import (
    DimensionMismatchError,
    PreconditionError,
    TruncatedSeries,
    check_generating_function_1,
    check_generating_function_2,
    exponents_up_to,
    functional_equation_residual,
    multinomial,
    solve_functional_equation,
)


def S(nvars: int, order: int, coeffs) -> TruncatedSeries:
    return TruncatedSeries(nvars=nvars, order=order, coeffs=coeffs)


# ---------------------------------------------------------------------------
# representation
# ---------------------------------------------------------------------------


def test_exponents_up_to_is_graded_and_complete():
    got = list(exponents_up_to(2, 2))
    assert got == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert len(list(exponents_up_to(3, 4))) == math.comb(4 + 3, 3)


def test_construction_normalizes():
    s = S(1, 3, {(0,): 2, (1,): 0, (5,): 7})
    assert s.coefficient((0,)) == 2
    assert (1,) not in s.coeffs  # zero dropped
    assert (5,) not in s.coeffs  # beyond order dropped
    assert isinstance(s.coefficient((0,)), Fraction)


def test_coefficient_refuses_exponents_outside_the_truncation():
    s = S(2, 3, {(1, 1): 4})
    assert s.coefficient((1, 1)) == 4
    assert s.coefficient((0, 3)) == 0  # inside the truncation, absent
    with pytest.raises(DimensionMismatchError):
        s.coefficient((1,))
    with pytest.raises(PreconditionError):
        s.coefficient((-1, 2))
    with pytest.raises(PreconditionError):
        s.coefficient((2, 2))  # degree 4 > order 3: unknown, not zero


def test_construction_rejects_bad_exponents():
    with pytest.raises(PreconditionError):
        S(2, 3, {(1,): 1})  # wrong arity
    with pytest.raises(PreconditionError):
        S(1, 3, {(-1,): 1})  # negative exponent


def test_equality_and_zero():
    assert S(1, 4, {(2,): 5}) == S(1, 4, {(2,): Fraction(5)})
    assert S(1, 4, {}) == TruncatedSeries.zero(1, 4)
    assert TruncatedSeries.zero(2, 3).is_zero()
    assert S(1, 3, {}) != S(1, 4, {})  # different truncation orders differ


def test_constant_one_variable():
    assert TruncatedSeries.one(2, 3).constant_term == 1
    u2 = TruncatedSeries.variable(2, 2, 3)
    assert u2.coefficient((0, 1)) == 1
    with pytest.raises(PreconditionError):
        TruncatedSeries.variable(3, 2, 5)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_product_truncates():
    u = TruncatedSeries.variable(1, 1, 2)
    one = TruncatedSeries.one(1, 2)
    geometric = (one - u).reciprocal()
    assert geometric == S(1, 2, {(0,): 1, (1,): 1, (2,): 1})
    assert (one + u) * (one - u) == S(1, 2, {(0,): 1, (2,): -1})


def test_pow_matches_repeated_multiplication():
    u = TruncatedSeries.variable(1, 1, 6)
    s = TruncatedSeries.one(1, 6) + u + u * u
    by_pow = s**4
    by_mul = s
    for _ in range(3):
        by_mul = by_mul * s
    assert by_pow == by_mul
    assert s**0 == TruncatedSeries.one(1, 6)
    with pytest.raises(PreconditionError):
        s**-1


def test_pow_without_constant_term_squares_only_while_bits_remain(monkeypatch):
    s = S(1, 12, {(1,): 1, (2,): -1})
    products = []
    mul = TruncatedSeries.__mul__
    monkeypatch.setattr(TruncatedSeries, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    for x in range(1, 10):
        products.clear()
        s**x
        # one product per set bit, one square per bit after the first
        assert len(products) == bin(x).count("1") + x.bit_length() - 1, x


def test_reciprocal_requires_nonzero_constant_term():
    u = TruncatedSeries.variable(1, 1, 4)
    with pytest.raises(PreconditionError):
        u.reciprocal()
    s = TruncatedSeries.constant(2, 1, 4) + u
    assert s * s.reciprocal() == TruncatedSeries.one(1, 4)


def test_binomial_series_reciprocal():
    # 1 / (1 - u)^2 has coefficients k + 1
    one = TruncatedSeries.one(1, 5)
    u = TruncatedSeries.variable(1, 1, 5)
    s = ((one - u) ** 2).reciprocal()
    for k in range(6):
        assert s.coefficient((k,)) == k + 1


@st.composite
def unit_series(draw, nvars=1, order=4):
    coeffs = {}
    for e in exponents_up_to(nvars, order):
        value = draw(st.integers(-4, 4))
        if value:
            coeffs[e] = Fraction(value)
    coeffs[(0,) * nvars] = Fraction(1)
    return TruncatedSeries(nvars=nvars, order=order, coeffs=coeffs)


@given(a=unit_series(), b=unit_series(), c=unit_series())
@settings(max_examples=40, deadline=None)
def test_mul_commutative_associative_distributive(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@st.composite
def exact_series(draw, constants=(0, 1, -1, 2, Fraction(1, 3))):
    """A series in 1 to 3 variables: the constant term from `constants`,
    Fraction coefficients elsewhere."""
    nvars = draw(st.integers(1, 3))
    order = draw(st.integers(0, 5 - nvars))
    coeffs = {
        e: draw(st.fractions(-3, 3, max_denominator=3))
        for e in exponents_up_to(nvars, order)
        if any(e)
    }
    coeffs[(0,) * nvars] = draw(st.sampled_from(constants))
    return S(nvars, order, coeffs)


def canonical(s: TruncatedSeries) -> bool:
    """Every integral coefficient is stored as an int."""
    return all(type(c) is int or c.denominator != 1 for c in s.coeffs.values())


@given(s=exact_series(), x=st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_pow_is_the_repeated_product(s, x):
    product = TruncatedSeries.one(s.nvars, s.order)
    for _ in range(x):
        product = product * s
    assert canonical(product)
    power = s**x
    assert power == product
    assert canonical(power)


@given(s=exact_series(constants=(1, -1, 2, -3, Fraction(1, 3), Fraction(-3, 2))))
@settings(max_examples=60, deadline=None)
def test_reciprocal_is_a_two_sided_inverse(s):
    r = s.reciprocal()
    one = TruncatedSeries.one(s.nvars, s.order)
    assert canonical(r)
    assert s * r == one
    assert r * s == one


@given(s=exact_series(), factor=st.fractions(-2, 2, max_denominator=3))
@settings(max_examples=60, deadline=None)
def test_kernel_results_are_what_the_checked_constructor_builds(s, factor):
    """The kernels skip the constructor's checks; what they build must hold
    no zero and no integral Fraction, exactly as if it had been checked."""
    for result in (s + s.scaled(factor), s - s, s.scaled(factor), s * s, s**2):
        assert canonical(result) and all(result.coeffs.values())
        assert result == TruncatedSeries(result.nvars, result.order, result.coeffs)


# ---------------------------------------------------------------------------
# the functional equation
# ---------------------------------------------------------------------------


def test_solve_z1_is_geometric():
    # v = 1 + u v  =>  v = 1/(1-u)
    v = solve_functional_equation((1,), 9)
    for k in range(10):
        assert v.coefficient((k,)) == 1


def test_solve_z2_gives_catalan():
    # independent oracle: the recurrence C_0 = 1, C_{t+1} = sum C_s C_{t-s}
    catalan = [Fraction(1)]
    for t in range(8):
        catalan.append(sum(catalan[s] * catalan[t - s] for s in range(t + 1)))
    v = solve_functional_equation((2,), 8)
    for t in range(9):
        assert v.coefficient((t,)) == catalan[t]


def test_solve_two_variables_equal_grading_gives_binomials():
    # v = 1 + (u1 + u2) v  =>  coefficient of u1^j u2^k is C(j+k, j)
    v = solve_functional_equation((1, 1), 6)
    for j, k in exponents_up_to(2, 6):
        assert v.coefficient((j, k)) == math.comb(j + k, j)


def test_solve_z0_terminates_in_one_step():
    # v = 1 + u: z = (0) makes the right side constant in v
    v = solve_functional_equation((0,), 5)
    assert v == S(1, 5, {(0,): 1, (1,): 1})


def test_residual_is_zero_and_solution_stabilizes():
    for z in [(1,), (3,), (1, 2), (2, 2)]:
        v = solve_functional_equation(z, 7)
        assert functional_equation_residual(v, z).is_zero()
        w = solve_functional_equation(z, 9)
        for e in exponents_up_to(len(z), 7):
            assert v.coefficient(e) == w.coefficient(e)


def fixed_point_oracle(z, order):
    """v by fixed-point iteration from v = 1, with + and * only: round t
    fixes total degree t."""
    m = len(z)
    one = TruncatedSeries.one(m, order)
    v = one
    for _ in range(order):
        nxt = one
        for i, a in enumerate(z, 1):
            power = one
            for _ in range(a):
                power = power * v
            nxt = nxt + TruncatedSeries.variable(i, m, order) * power
        v = nxt
    return v


@pytest.mark.parametrize(
    "z", [(0,), (1,), (2,), (3,), (0, 2), (2, 0), (1, 2), (2, 2), (1, 0, 3), (1, 1, 1), (0, 0, 1)]
)
def test_solve_matches_fixed_point_oracle(z):
    for order in range(7):
        v = solve_functional_equation(z, order)
        assert v == fixed_point_oracle(z, order), order
        assert all(type(c) is int for c in v.coeffs.values())


@pytest.mark.parametrize("z", [(2,), (0, 2), (1, 2), (1, 0, 3)])
def test_residual_flags_a_raised_coefficient_at_its_degree(z, monkeypatch):
    order = 5
    v = solve_functional_equation(z, order)

    def refuse(*args):
        raise AssertionError("the residual must not use the solver's power recurrence")

    # the certificate forms u_i v^(z_i) from products alone
    monkeypatch.setattr(series, "_miller_step", refuse)
    assert functional_equation_residual(v, z).is_zero()
    for k in exponents_up_to(len(z), order):
        raised = S(len(z), order, {**v.coeffs, k: v.coeffs.get(k, 0) + 1})
        residual = functional_equation_residual(raised, z)
        low = {e: c for e, c in residual.coeffs.items() if sum(e) <= sum(k)}
        assert low == {k: 1}, k


def test_solution_coefficients_are_natural():
    for z in [(1,), (2,), (3,), (1, 2), (3, 1)]:
        v = solve_functional_equation(z, 7)
        assert all(c.denominator == 1 and c >= 0 for c in v.coeffs.values())


def test_raney_closed_form_single_variable():
    # for m = 1 the coefficients are the Fuss-Catalan numbers
    # (1/(zk+1)) C(zk+1, k); check them directly for z = 3
    v = solve_functional_equation((3,), 7)
    for k in range(8):
        expected = Fraction(1, 3 * k + 1) * multinomial(3 * k + 1, (k,))
        assert v.coefficient((k,)) == expected


# ---------------------------------------------------------------------------
# generating-function checks
# ---------------------------------------------------------------------------


def test_generating_function_1_reports():
    report = check_generating_function_1(2, (2,), 8)
    assert report.ok
    assert report.check == "generating-function-1"
    assert report.params == {"x": 2, "z": [2], "order": 8}
    assert report.details["coefficients_compared"] == 9
    assert "positive integers" in report.details["restriction"]


def test_generating_function_2_reports():
    report = check_generating_function_2(3, (1, 2), 6)
    assert report.ok
    assert report.details["coefficients_compared"] == math.comb(6 + 2, 2)


def test_generating_function_1_multi_index():
    for z in [(1, 1), (1, 2), (3, 2)]:
        for x in (1, 4):
            assert check_generating_function_1(x, z, 6).ok


def test_generating_function_x_restriction():
    with pytest.raises(PreconditionError):
        check_generating_function_1(0, (1,), 5)
    with pytest.raises(PreconditionError):
        check_generating_function_1(-2, (1,), 5)
    with pytest.raises(PreconditionError):
        check_generating_function_2(Fraction(1, 2), (1,), 5)


def test_order_and_grading_must_be_naturals():
    # a float order raised TypeError (the exit-3 class); True passed as order 1
    for bad in (2.0, True, -1):
        with pytest.raises(PreconditionError, match=r"^order must be a natural number"):
            solve_functional_equation((1,), bad)
        with pytest.raises(PreconditionError, match=r"^order must be a natural number"):
            check_generating_function_1(1, (1,), bad)
        with pytest.raises(PreconditionError, match=r"^order must be a natural number"):
            check_generating_function_2(1, (1,), bad)
    with pytest.raises(PreconditionError, match=r"^z entry must be a natural number, got True$"):
        solve_functional_equation((1, True), 3)


def test_generating_function_2_needs_positive_grading():
    with pytest.raises(PreconditionError):
        check_generating_function_2(1, (0,), 5)
    assert check_generating_function_1(1, (0,), 5).ok  # gf1 allows z_i = 0


def test_gf2_coefficients_match_binomials_for_z1():
    # for z = (1): sum_k C(x+k, k) u^k = v^x / (1 - u v^0)... the check
    # itself certifies the identity; spot-check the binomial side directly
    x = 3
    report = check_generating_function_2(x, (1,), 7)
    assert report.ok
    for k in range(8):
        assert multinomial(x + k, (k,)) == math.comb(x + k, k)
