"""Truncated multivariate power series and the functional equation
v = 1 + sum_i u_i v^{z_i}, with independent coefficient oracles."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedwords import main, run_suite, series
from gradedwords.arith import exact
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
    verify_solution,
)
from conftest import count_fills


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
    assert S(1, 4, {}) == TruncatedSeries(1, 4)
    assert TruncatedSeries(2, 3).is_zero()
    assert S(1, 3, {}) != S(1, 4, {})  # different truncation orders differ


def test_constant_one_variable():
    assert TruncatedSeries.constant(1, 2, 3).coefficient((0, 0)) == 1
    u2 = TruncatedSeries.variable(2, 2, 3)
    assert u2.coefficient((0, 1)) == 1
    with pytest.raises(PreconditionError):
        TruncatedSeries.variable(3, 2, 5)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_product_truncates():
    u = TruncatedSeries.variable(1, 1, 2)
    one = TruncatedSeries.constant(1, 1, 2)
    geometric = (one - u).reciprocal()
    assert geometric == S(1, 2, {(0,): 1, (1,): 1, (2,): 1})
    assert (one + u) * (one - u) == S(1, 2, {(0,): 1, (2,): -1})


def test_pow_matches_repeated_multiplication():
    u = TruncatedSeries.variable(1, 1, 6)
    s = TruncatedSeries.constant(1, 1, 6) + u + u * u
    by_pow = s**4
    by_mul = s
    for _ in range(3):
        by_mul = by_mul * s
    assert by_pow == by_mul
    assert s**0 == TruncatedSeries.constant(1, 1, 6)
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
    assert s * s.reciprocal() == TruncatedSeries.constant(1, 1, 4)


def test_binomial_series_reciprocal():
    # 1 / (1 - u)^2 has coefficients k + 1
    one = TruncatedSeries.constant(1, 1, 5)
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
def exact_series(draw, constants=(0, 1, -1, 2, Fraction(1, 3)), shape=None):
    """A series in 1 to 3 variables, or of the given (nvars, order): the
    constant term from `constants`, Fraction coefficients elsewhere."""
    nvars = draw(st.integers(1, 3)) if shape is None else shape[0]
    order = draw(st.integers(0, 5 - nvars)) if shape is None else shape[1]
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
    product = TruncatedSeries.constant(1, s.nvars, s.order)
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
    one = TruncatedSeries.constant(1, s.nvars, s.order)
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


def test_builders_are_what_the_checked_constructor_builds():
    """one, variable and constant skip the constructor's checks."""
    for nvars, order in ((0, 0), (1, 0), (1, 3), (3, 2)):
        for value in (1, 0, -2, Fraction(4, 2), Fraction(-1, 3)):
            built = TruncatedSeries.constant(value, nvars, order)
            assert canonical(built)
            assert built == S(nvars, order, {(0,) * nvars: value})
        assert TruncatedSeries.constant(1, nvars, order) == S(nvars, order, {(0,) * nvars: 1})
        for i in range(1, nvars + 1):
            exponent = tuple(int(j == i - 1) for j in range(nvars))
            assert TruncatedSeries.variable(i, nvars, order) == S(nvars, order, {exponent: 1})


@pytest.mark.parametrize("x, z, order", [(1, (2,), 9), (3, (1, 2), 5), (2, (1, 3), 4)])
def test_generating_function_left_sides_are_what_the_checked_constructor_builds(
    x, z, order, monkeypatch
):
    lefts = []
    monkeypatch.setattr(series, "_compare_series", lambda *args: lefts.append(args[3]))
    check_generating_function_1(x, z, order)
    check_generating_function_2(x, z, order)
    gf1, gf2 = lefts
    tops = [(k, x + sum(a * b for a, b in zip(k, z))) for k in exponents_up_to(len(z), order)]
    assert canonical(gf1) and canonical(gf2)
    assert gf1 == S(len(z), order, {k: Fraction(x, t) * multinomial(t, k) for k, t in tops})
    assert gf2 == S(len(z), order, {k: multinomial(t, k) for k, t in tops})


# ---------------------------------------------------------------------------
# the packed kernels against a tuple-keyed oracle
# ---------------------------------------------------------------------------


def graded(nvars: int, order: int) -> list[tuple[int, ...]]:
    """Every exponent of degree <= order, lower degrees first."""
    box = itertools.product(range(order + 1), repeat=nvars)
    return sorted((e for e in box if sum(e) <= order), key=sum)


def schoolbook_product(a: dict, b: dict, order: int) -> dict:
    """The truncated product of two tuple-keyed coefficient maps, term by term."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(e) <= order:
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def schoolbook_power(a: dict, x: int, nvars: int, order: int) -> dict:
    out = {(0,) * nvars: 1}
    for _ in range(x):
        out = schoolbook_product(out, a, order)
    return out


def schoolbook_reciprocal(a: dict, nvars: int, order: int) -> dict:
    """r with a r = 1, solved in graded order: a_0 r_k = [k = 0] - sum over
    j != 0 of a_j r_(k-j)."""
    zero = (0,) * nvars
    r: dict = {}
    for k in graded(nvars, order):
        total = Fraction(k == zero)
        for j, c in a.items():
            if j != zero and all(x <= y for x, y in zip(j, k)):
                total -= c * r.get(tuple(y - x for x, y in zip(j, k)), 0)
        r[k] = total / a[zero]
    return {e: c for e, c in r.items() if c}


def schoolbook_solution(z: tuple[int, ...], order: int) -> dict:
    """v = 1 + sum_i u_i v^(z_i) by fixed-point iteration with the
    schoolbook product; round t fixes total degree t."""
    m = len(z)
    one = {(0,) * m: 1}
    v = one
    for _ in range(order):
        nxt = dict(one)
        for i, a in enumerate(z):
            for e, c in schoolbook_power(v, a, m, order).items():
                e = tuple(x + (t == i) for t, x in enumerate(e))
                if sum(e) <= order:
                    nxt[e] = nxt.get(e, 0) + c
        v = nxt
    return v


@st.composite
def series_pairs(draw):
    s = draw(exact_series())
    return s, draw(exact_series(shape=(s.nvars, s.order)))


@given(pair=series_pairs(), x=st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_product_and_power_match_the_schoolbook_oracle(pair, x):
    s, t = pair
    assert (s * t).coeffs == schoolbook_product(s.coeffs, t.coeffs, s.order)
    assert (s**x).coeffs == schoolbook_power(s.coeffs, x, s.nvars, s.order)


@given(s=exact_series(constants=(1, -1, 2, -3, Fraction(1, 3), Fraction(-3, 2))))
@settings(max_examples=60, deadline=None)
def test_reciprocal_matches_the_schoolbook_oracle(s):
    assert s.reciprocal().coeffs == schoolbook_reciprocal(s.coeffs, s.nvars, s.order)


@given(z=st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple), data=st.data())
@settings(max_examples=40, deadline=None)
def test_solve_matches_the_schoolbook_oracle(z, data):
    order = data.draw(st.integers(0, 7 - 2 * len(z)))
    assert solve_functional_equation(z, order).coeffs == schoolbook_solution(z, order)


@pytest.mark.parametrize("order", range(1, 7))
def test_packed_keys_do_not_alias_across_the_truncation(order):
    # m = 2 packs in base order + 1, where (order, 0) + (1, 0) packs as (0, 1):
    # u1^order u1 lies above the truncation and must vanish, not land on u2
    one, u1 = TruncatedSeries.constant(1, 2, order), TruncatedSeries.variable(1, 2, order)
    top = S(2, order, {(order, 0): 1})
    assert (top * u1).is_zero() and (u1 * top).is_zero()
    for product in ((one + top) * (one + u1), (one + u1) ** (order + 1), (one - u1).reciprocal()):
        assert all(e[1] == 0 for e in product.coeffs), product
    assert (one + top) * (one + u1) == S(2, order, {(0, 0): 1, (1, 0): 1}) + top
    assert (one + u1) ** (order + 1) == S(
        2, order, {(j, 0): math.comb(order + 1, j) for j in range(order + 1)}
    )
    assert (one - u1).reciprocal() == S(2, order, {(j, 0): 1 for j in range(order + 1)})


def test_packing_holds_only_the_exponents_a_computation_reaches():
    # all exponents of degree <= 400 in 3 variables would be C(403, 3) = 10.9 M
    order = 400
    u1, u3 = TruncatedSeries.variable(1, 3, order), TruncatedSeries.variable(3, 3, order)
    s = TruncatedSeries.constant(1, 3, order) + u1 + u3
    assert s**3 == s * s * s
    assert (s**3).coeffs[(1, 0, 2)] == 3 and len((s**3).coeffs) == 10
    _, unpack, pack = series._packing[3, order]
    assert len(unpack) == 10 and len(pack) <= 10
    # a key past the last digit, and the key of (1, 400, 0), of degree 401
    for key in (-1, (order + 1) ** 3, 1 + 400 * (order + 1)):
        with pytest.raises(ValueError, match="no exponent of degree <= 400"):
            unpack[key]


def test_power_zero_is_one_and_power_one_is_itself_without_a_miller_pass(monkeypatch):
    calls = []
    step = series._miller_step
    monkeypatch.setattr(series, "_miller_step", lambda *args: calls.append(1) or step(*args))
    v = solve_functional_equation((1, 2), 6)
    calls.clear()
    assert v**0 == TruncatedSeries.constant(1, 2, 6) and calls == []
    assert v**1 == v and calls == []
    v**2
    assert calls  # the counter sees a Miller pass where there is one


@pytest.mark.parametrize("make", [
    lambda: S(1, 3, {(0,): 0.1}),
    lambda: S(1, 3, {(1,): True}),
    lambda: S(1, 3, {(1,): "1/2"}),
    lambda: TruncatedSeries.constant(0.5, 1, 2),
    lambda: TruncatedSeries.constant(False, 1, 2),
    lambda: TruncatedSeries.constant(1, 1, 2.0),
    lambda: TruncatedSeries.constant(1, -1, 2),
    lambda: TruncatedSeries.variable(True, 1, 2),
    lambda: TruncatedSeries(1, True),
    lambda: TruncatedSeries.constant(1, 1, 3).scaled(0.25),
    lambda: TruncatedSeries.constant(1, 1, 3).scaled(True),
    lambda: TruncatedSeries.constant(1, 1, 3) ** True,
    lambda: TruncatedSeries.constant(1, 1, 3) ** 2.0,
])
def test_floats_and_bools_are_refused(make):
    # a float coefficient was stored as its binary value, 0.1 as
    # 3602879701896397/36028797018963968, and a bool passed as 1
    with pytest.raises(PreconditionError, match="must be"):
        make()


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
    one = TruncatedSeries.constant(1, m, order)
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


@pytest.mark.parametrize("pair, message", [
    (((-1, 2), 5), "exponent entry must be a natural number, got -1"),
    (((-1, 2), 0), "exponent entry must be a natural number, got -1"),
    (((1.0, 0), 1), "exponent entry must be a natural number, got 1.0"),
    (((True, 0), 1), "exponent entry must be a natural number, got True"),
    (((1, 0), 1.0), "value must be an int or a Fraction, got 1.0"),
    (((1, 0), True), "value must be an int or a Fraction, got True"),
])
def test_verify_solution_refuses_a_malformed_expected_pair(pair, message):
    # a negative exponent entry used to read as a missing coefficient (a false
    # mismatch against 5, a pass against 0), and a float or bool as an int
    with pytest.raises(PreconditionError, match=f"^expect_coefficients {message}$"):
        verify_solution((1, 2), 4, [pair])
    report = verify_solution((1, 2), 4, [((1, 0), 1), ((1, 1), Fraction(3))])
    assert report.ok and report.details["expected_coefficients_checked"] == 2


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


@pytest.mark.parametrize("check, command", [
    (check_generating_function_1, "series-check1"),
    (check_generating_function_2, "series-check2"),
])
def test_planted_left_side_mismatch_is_named_at_its_first_exponent(check, command, monkeypatch):
    x, z, order = 2, (1, 2), 4
    planted = [(2, 1), (1, 2), (0, 3)]  # graded order puts (0, 3) first
    real = series.multinomial
    monkeypatch.setattr(series, "multinomial", lambda t, k: real(t, k) + (k in planted))
    report = check(x, z, order)
    assert report.verdict == "mismatch"
    k, t = (0, 3), x + 6
    left, right = real(t, k) + 1, real(t, k)
    if command == "series-check1":
        left, right = exact(x * left, t), exact(x * right, t)
    assert report.counterexample == {"exponent": [0, 3], "left": str(left), "right": str(right)}
    assert main([*command.split("-"), "--x", str(x), "--z", "1,2", "--order", str(order)]) == 1
    payload, code = run_suite([{"command": command, "x": x, "z": list(z), "order": order}], 1)
    assert code == 1 and payload["members"][0]["exit_code"] == 1
    assert payload["members"][0]["report"]["counterexample"] == report.counterexample


@pytest.mark.parametrize("check, left, right", [
    # C(x + 1, 1) + 1 = x + 2 against x + 1
    (check_generating_function_2, "1" + "0" * 4999 + "2", "1" + "0" * 4999 + "1"),
    # x/(x + 1) * (C(x + 1, 1) + 1) = x(x + 2)/(x + 1) against x
    (check_generating_function_1, "1" + "0" * 4999 + "2" + "0" * 5000 + "/1" + "0" * 4999 + "1",
     "1" + "0" * 5000),
], ids=["gf2-int", "gf1-fraction"])
def test_a_mismatch_past_the_int_str_limit_names_every_digit(check, left, right, monkeypatch):
    # str() refuses an int of more than 4300 digits
    real = series.multinomial
    monkeypatch.setattr(series, "multinomial", lambda t, k: real(t, k) + (k == (1,)))
    report = check(10**5000, (1,), 2)
    assert report.verdict == "mismatch"
    assert report.counterexample == {"exponent": [1], "left": left, "right": right}
    assert report.to_json().count(left) == 1


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


# ---------------------------------------------------------------------------
# the process's memo of the solved series v
# ---------------------------------------------------------------------------


def test_v_is_solved_once_per_z_and_order_and_no_caller_can_change_it(monkeypatch, empty_memos):
    calls = []
    step = series._miller_step
    monkeypatch.setattr(series, "_miller_step", lambda *args: calls.append(1) or step(*args))
    v = solve_functional_equation((1, 2), 6)
    solved = len(calls)
    assert solved and v.coeffs[(1, 0)] == 1
    v.coeffs[(1, 0)] = 99  # a caller's change reaches its own copy only
    again = solve_functional_equation([1, 2], 6)
    assert len(calls) == solved and again.coeffs is not v.coeffs
    assert again == series._solved[(1, 2), 6] and again.coeffs[(1, 0)] == 1
    # the generating-function checks and the solution check read the memo's v too
    assert check_generating_function_1(1, (1, 2), 6).ok and verify_solution((1, 2), 6).ok
    assert len(calls) == solved


def test_the_solved_memo_keeps_at_most_its_cap_of_coefficients(monkeypatch, empty_memos):
    # z = (1,) has v = 1/(1 - u): order + 1 coefficients, each 1, made here
    # without the solver so that filling the cap is cheap
    def geometric(key):
        return TruncatedSeries._trusted(1, key[1], {(d,): 1 for d in range(key[1] + 1)})

    assert geometric(((1,), 9)) == series._solve(((1,), 9))
    monkeypatch.setattr(series._solved, "fill", geometric)
    memo, cap, quarter = series._solved, series._solved.cap, series._SOLVED_KEPT // 4
    for order in range(quarter - 4, quarter):
        assert solve_functional_equation((1,), order).order == order
    assert len(memo) == 4 and cap.kept == 4 * quarter - 6 <= cap.most
    # quarter + 1 more coefficients would pass the cap: the memo empties first
    solve_functional_equation((1,), quarter)
    assert list(memo) == [((1,), quarter)] and cap.kept == quarter + 1
    # a v larger than the whole cap empties the memo and is kept alone: it is
    # solved once over two calls, and the next miss empties it
    fills = count_fills(monkeypatch, memo)
    for _ in range(2):
        assert solve_functional_equation((1,), cap.most).order == cap.most
    assert fills == [((1,), cap.most)] and list(memo) == fills and cap.kept == cap.most + 1
    solve_functional_equation((1,), 3)
    assert fills[1:] == list(memo) == [((1,), 3)] and cap.kept == 4
