"""Truncated multivariate formal power series with exact coefficients.

A TruncatedSeries holds the coefficients of total degree at most N in m
variables u_1..u_m: an int where the value is integral, a Fraction only
where a division leaves a remainder.  Every division goes through
arith.exact, the division arith.qsum makes for the rational identities.
Arithmetic truncates at N; a product pairs each term only with the terms of
the other factor that keep it within degree N.  Powers with a nonzero
constant term, and the reciprocal (power -1), come from the Euler-operator
recurrence of J.C.P. Miller (Knuth, TAOCP vol. 2, 4.7), one quadratic pass
for any a: for w = s^a,

    |k| s_0 w_k = sum_{0 < j <= k} (a|j| - |k-j|) s_j w_(k-j).

v = 1 + sum_i u_i v^(z_i) is solved one total degree at a time: degree d+1
of v needs each v^(z_i) through degree d only, and one Miller step per
degree extends those powers, once per (z, order) in the process: the
memo _solved keeps v, bounded by the coefficients it holds.
functional_equation_residual forms each u_i v^(z_i) from products alone, a
check on v independent of the recurrence; verify_solution makes that check,
and checks that the coefficients are naturals and any expected ones.  The
two generating-function identities

    sum_k (x/(x+k.z)) C(x+k.z,k) u^k  =  v^x
    sum_k C(x+k.z,k) u^k              =  v^x / (1 - sum_i u_i z_i v^(z_i-1))

are verified coefficientwise, for positive integer x only (series powers
need no exp/log machinery then); reports record that restriction.

The kernels (product, power, solver) key their terms by packed ints, not by
exponent tuples (Kronecker substitution): e in m variables packs to
e_1 + e_2 B + ... + e_m B^(m-1) in base B = N + 1.  No entry of an exponent
of degree <= N reaches B, so packing is additive, pack(i) + pack(j) =
pack(i + j), for every pair with |i| + |j| <= N: no carry crosses from one
entry into the next.  Each kernel pairs terms by degree and drops a pair of
degree above N before it adds their keys; such a pair could alias, as
pack((N, 0)) + pack((1, 0)) = pack((0, 1)).  `coeffs` stays keyed by
tuples: terms are packed on the way into a kernel and unpacked on the way
out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from operator import mul
from typing import Iterable, Iterator, Mapping

from .arith import (
    MultiIndex,
    Scalar,
    _Cap,
    dot,
    exact,
    format_scalar,
    multinomial,
    natural,
    naturals,
    norm,
    rational,
)
from .errors import DimensionMismatchError, PreconditionError
from .reports import VERDICT_EQUAL, VERDICT_FAIL, VERDICT_MISMATCH, VERDICT_PASS, EvalReport

__all__ = [
    "TruncatedSeries",
    "exponents_up_to",
    "solve_functional_equation",
    "verify_solution",
    "check_generating_function_1",
    "check_generating_function_2",
]


def exponents_up_to(nvars: int, order: int) -> Iterator[MultiIndex]:
    """All exponent vectors with total degree <= order, graded lexicographic."""
    if nvars == 0:
        yield ()
        return

    def parts(total: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in parts(total - first, slots - 1):
                yield (first,) + rest

    for degree in range(order + 1):
        yield from parts(degree, nvars)


def _pack(key: tuple[int, int]) -> tuple[tuple[int, ...], dict, dict]:
    """Kronecker packing of the exponents of degree <= order in nvars
    variables, for key = (nvars, order) of the memo _packing: the weights
    (1, B, ..., B^(nvars-1)) of base B = order + 1, and two memos filled in
    as exponents are used, so they hold the exponents a computation reaches
    rather than all C(order + nvars, nvars), each at most that many: the
    exponent of a packed key, and the (degree, packed key) of an exponent."""
    nvars, order = key
    base = order + 1
    weights = tuple(base**i for i in range(nvars))

    def unpack(key: int) -> MultiIndex:
        rest, digits = key, []
        for _ in range(nvars):
            rest, digit = divmod(rest, base)
            digits.append(digit)
        if rest or key < 0 or sum(digits) > order:  # a kernel's bug, never an input's
            raise ValueError(f"packed key {key} is no exponent of degree <= {order}")
        return tuple(digits)

    cap = _Cap(2 * comb(order + nvars, nvars))
    pack = cap.memo(1, lambda e: (sum(e), sum(map(mul, e, weights))))
    return weights, cap.memo(0, unpack), pack


# (nvars, order) -> its packing: a suite pass over any benchmark manifest
# makes at most 18
_packing = _Cap(32).memo(0, _pack)


def _by_degree(series: TruncatedSeries) -> list[dict]:
    """The terms of a series grouped by total degree, 0 through order, and
    keyed by packed exponents."""
    pack = _packing[series.nvars, series.order][2]
    out: list[dict] = [{} for _ in range(series.order + 1)]
    for exponent, value in series.coeffs.items():
        degree, key = pack[exponent]
        out[degree][key] = value
    return out


def _miller_step(s: list[list], w: list[list], alpha: int, d: int, c0: Scalar) -> list:
    """Degree d of w = s^alpha, given s through degree d and w below it;
    each degree is a list of (packed exponent, coefficient) pairs."""
    acc: dict = {}
    for t in range(1, d + 1):
        f = alpha * t - (d - t)
        low = w[d - t]
        if not f or not low:
            continue
        for j, sj in s[t]:
            c = f * sj
            for i, wi in low:
                k = i + j
                acc[k] = acc.get(k, 0) + c * wi
    return [(k, exact(n, d * c0)) for k, n in acc.items() if n]


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Exact power series in nvars variables, truncated at total degree order.

    Absent exponents mean coefficient zero; nothing beyond the truncation
    order is stored.  Coefficients must be ints or Fractions, never a bool
    or a float.  `coeffs` holds an int for every integral coefficient and a
    Fraction otherwise; coefficient() always returns a Fraction.
    Instances are immutable; all arithmetic returns series with the same
    nvars and order.
    """

    nvars: int
    order: int
    coeffs: Mapping[MultiIndex, Scalar] = field(default_factory=dict)

    def __post_init__(self) -> None:
        natural(self.nvars, "nvars")
        natural(self.order, "order")
        cleaned: dict[MultiIndex, Scalar] = {}
        for exponent, value in self.coeffs.items():
            exponent = tuple(exponent)
            if len(exponent) != self.nvars or min(exponent, default=0) < 0:
                raise PreconditionError(f"bad exponent {exponent} for {self.nvars} variables")
            value = exact(rational(value, f"coefficient of {exponent}"), 1)
            if value and sum(exponent) <= self.order:
                cleaned[exponent] = value
        object.__setattr__(self, "coeffs", cleaned)

    @classmethod
    def _trusted(
        cls, nvars: int, order: int, coeffs: dict, packed: bool = False
    ) -> TruncatedSeries:
        """A series from a kernel's own coeffs, whose exponents are already
        tuples of nvars naturals of total degree <= order, or their packed
        keys if `packed` (unpacked here through the table of _packing), and
        whose values are ints or Fractions; only zeros and integral Fractions
        are cleaned."""
        terms: Iterable = coeffs.items()
        if packed:
            terms = zip(map(_packing[nvars, order][1].__getitem__, coeffs), coeffs.values())
        series = object.__new__(cls)
        object.__setattr__(series, "nvars", nvars)
        object.__setattr__(series, "order", order)
        object.__setattr__(series, "coeffs", {
            e: c if type(c) is int or c.denominator != 1 else c.numerator
            for e, c in terms if c
        })
        return series

    @classmethod
    def constant(cls, value: Scalar, nvars: int, order: int) -> TruncatedSeries:
        value = rational(value, "constant")
        natural(nvars, "nvars")
        natural(order, "order")
        return cls._trusted(nvars, order, {(0,) * nvars: value})

    @classmethod
    def variable(cls, i: int, nvars: int, order: int) -> TruncatedSeries:
        """The series u_i (1-based index)."""
        natural(order, "order")
        if not 1 <= natural(i, "variable index") <= natural(nvars, "nvars"):
            raise PreconditionError(f"variable index {i} out of range 1..{nvars}")
        exponent = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return cls._trusted(nvars, order, {exponent: 1} if order else {})

    def coefficient(self, exponent: MultiIndex) -> Fraction:
        """The coefficient of u^exponent; exponents outside the truncation
        (wrong arity, a negative entry, degree above order) are refused."""
        exponent = tuple(exponent)
        value = self.coeffs.get(exponent)
        if value is not None:
            return Fraction(value)
        if len(exponent) != self.nvars:
            raise DimensionMismatchError(
                f"exponent {exponent} has {len(exponent)} entries for {self.nvars} variables"
            )
        if any(e < 0 for e in exponent) or norm(exponent) > self.order:
            raise PreconditionError(
                f"exponent {exponent} is not a monomial of degree <= {self.order}"
            )
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.nvars, self.order, self.coeffs) == (other.nvars, other.order, other.coeffs)

    def __repr__(self) -> str:
        terms = ", ".join(f"{exponent}: {value}" for exponent, value in sorted(self.coeffs.items()))
        return f"TruncatedSeries(nvars={self.nvars}, order={self.order}, {{{terms}}})"

    def _check_compatible(self, other: TruncatedSeries) -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatchError(f"series in {self.nvars} vs {other.nvars} variables")
        if self.order != other.order:
            raise PreconditionError(
                f"series truncated at different orders {self.order} vs {other.order}"
            )

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_compatible(other)
        out = dict(self.coeffs)
        for exponent, value in other.coeffs.items():
            out[exponent] = out.get(exponent, 0) + value
        return TruncatedSeries._trusted(self.nvars, self.order, out)

    def __neg__(self) -> TruncatedSeries:
        return self.scaled(-1)

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        return self + (-other)

    def scaled(self, factor: Scalar) -> TruncatedSeries:
        factor = exact(rational(factor, "scale factor"), 1)
        scaled = {e: factor * c for e, c in self.coeffs.items()}
        return TruncatedSeries._trusted(self.nvars, self.order, scaled)

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_compatible(other)
        order, right, out = self.order, _by_degree(other), {}
        for d, level in enumerate(_by_degree(self)):
            if not level:
                continue
            # the terms of other that keep a degree-d term within the order
            low = [term for terms in right[: order - d + 1] for term in terms.items()]
            for e1, c1 in level.items():
                for e2, c2 in low:
                    k = e1 + e2
                    out[k] = out.get(k, 0) + c1 * c2
        return TruncatedSeries._trusted(self.nvars, order, out, packed=True)

    def __pow__(self, exponent: int) -> TruncatedSeries:
        natural(exponent, "series power")
        if not exponent:
            return TruncatedSeries.constant(1, self.nvars, self.order)
        if self.coeffs.get((0,) * self.nvars):
            return self if exponent == 1 else self._power(exponent)
        # no Miller recurrence without a constant term: repeated squaring
        result, base = TruncatedSeries.constant(1, self.nvars, self.order), self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def reciprocal(self) -> TruncatedSeries:
        """The series r with self * r = 1 through the truncation order."""
        if not self.coeffs.get((0,) * self.nvars):
            raise PreconditionError("reciprocal requires a unit (nonzero) constant term")
        return self._power(-1)

    def _power(self, alpha: int) -> TruncatedSeries:
        """self^alpha by the Miller recurrence; the constant term is nonzero."""
        c0 = self.coeffs[(0,) * self.nvars]
        s = [list(level.items()) for level in _by_degree(self)]
        w = [[(0, c0**alpha if alpha >= 0 else exact(1, c0**-alpha))]]
        for d in range(1, self.order + 1):
            w.append(_miller_step(s, w, alpha, d, c0))
        coeffs = {k: c for level in w for k, c in level}
        return TruncatedSeries._trusted(self.nvars, self.order, coeffs, packed=True)


def solve_functional_equation(z: MultiIndex, order: int) -> TruncatedSeries:
    """The unique series v with constant term 1 and v = 1 + sum_i u_i v^(z_i):
    a copy of the memo's v, so that no caller can change the memo."""
    v = _solved[naturals(z, "z"), natural(order, "order")]
    return TruncatedSeries._trusted(v.nvars, v.order, v.coeffs)


def _solve(key: tuple[MultiIndex, int]) -> TruncatedSeries:
    """v for key = (z, order), solved one total degree at a time: degree
    d + 1 of v is the sum over i of u_i times degree d of v^(z_i), and each
    power v^a is extended to degree d by one Miller step once v is known
    through degree d.  Each degree is a list of (packed exponent,
    coefficient) pairs; u_i packs to the weight B^(i-1).
    """
    z, order = key
    m = len(z)
    weights = _packing[m, order][0]
    v = [[(0, 1)]]
    powers = {a: [v[0]] for a in z}
    for d in range(order):
        if d:
            for a, w in powers.items():
                w.append(_miller_step(v, w, a, d, 1))
        level: dict = {}
        for unit, a in zip(weights, z):
            for k, c in powers[a][d]:
                k += unit
                level[k] = level.get(k, 0) + c
        v.append(list(level.items()))
    coeffs = {k: c for level in v for k, c in level}
    return TruncatedSeries._trusted(m, order, coeffs, packed=True)


# The most coefficients the memo of v keeps, over all the v it holds; the
# miss that would pass it empties the memo, so a larger v is kept alone.  A
# series-gf benchmark pass (seeds 1-3, 5, 77) solves 35-38 v of 512-592
# coefficients in all; three v of order 30 at m = 3 (5456 each) fit.
_SOLVED_KEPT = 1 << 14

# (z, order) -> v, filled by _solve
_solved = _Cap(_SOLVED_KEPT).memo(0, _solve, lambda v: len(v.coeffs))


def functional_equation_residual(v: TruncatedSeries, z: MultiIndex) -> TruncatedSeries:
    """v - 1 - sum_i u_i v^(z_i); the zero series iff v solves the equation.

    Each v^(z_i) is a z_i-fold product, never a Miller power, so a fault in
    the recurrence that solve_functional_equation uses cannot cancel here.
    """
    z = naturals(z, "z")
    if len(z) != v.nvars:
        raise DimensionMismatchError(f"z has dimension {len(z)}, series has {v.nvars}")
    residual = v - TruncatedSeries.constant(1, v.nvars, v.order)
    for i, a in enumerate(z, 1):
        power = TruncatedSeries.constant(1, v.nvars, v.order)
        for _ in range(a):
            power = power * v
        residual = residual - TruncatedSeries.variable(i, v.nvars, v.order) * power
    return residual


def verify_solution(
    z: MultiIndex, order: int, expect: Iterable[tuple[MultiIndex, Scalar]] = ()
) -> EvalReport:
    """Check v, solved for (z, order): pass when its residual is the zero
    series and its coefficients are naturals, else fail; then mismatch at
    the first (exponent, value) of expect that is not v's coefficient.
    Each expected exponent must be a monomial of degree <= order in len(z)
    variables, and each expected value an int or a Fraction."""
    z, order = naturals(z, "z"), natural(order, "order")
    expect = tuple(
        (naturals(exponent, "expect_coefficients exponent"),
         rational(value, "expect_coefficients value"))
        for exponent, value in expect
    )
    for exponent, _ in expect:
        if not (len(exponent) == len(z) and sum(exponent) <= order):
            raise PreconditionError(
                f"expect_coefficients exponent {','.join(map(str, exponent))} is not a"
                f" monomial of degree <= {order} in {len(z)} variables"
            )
    v = _solved[z, order]
    checks = {
        "residual_zero": functional_equation_residual(v, z).is_zero(),
        "natural_coefficients": all(type(c) is int and c >= 0 for c in v.coeffs.values()),
    }
    coefficients = {",".join(map(str, e)): format_scalar(c) for e, c in sorted(v.coeffs.items())}
    report = EvalReport(
        check="series-solve",
        params={"z": list(z), "order": order},
        details={"coefficients": coefficients, **checks},
    )
    report.verdict = VERDICT_PASS if all(checks.values()) else VERDICT_FAIL
    if not report.ok:
        report.counterexample = checks
        return report
    for exponent, expected in expect:
        actual = v.coeffs.get(exponent, 0)
        if actual != expected:
            report.verdict = VERDICT_MISMATCH
            report.counterexample = {
                "exponent": list(exponent),
                "expected": format_scalar(expected),
                "actual": format_scalar(actual),
            }
            return report
    if expect:
        report.details["expected_coefficients_checked"] = len(expect)
    return report


_X_RESTRICTION = "x verified for positive integers only"


def _compare_series(
    check: str, x: int, z: MultiIndex, left: TruncatedSeries, right: TruncatedSeries
) -> EvalReport:
    """Equal iff the coefficients agree at every exponent of degree <= order:
    both coeffs are canonical and hold no zero, so that is dict equality.
    A mismatch names its first exponent in graded order."""
    report = EvalReport(check=check, params={"x": x, "z": list(z), "order": left.order})
    if left.coeffs == right.coeffs:
        report.verdict = VERDICT_EQUAL
        report.details = {
            "coefficients_compared": comb(left.order + left.nvars, left.nvars),
            "restriction": _X_RESTRICTION,
        }
        return report
    for exponent in exponents_up_to(left.nvars, left.order):
        lc, rc = left.coeffs.get(exponent, 0), right.coeffs.get(exponent, 0)
        if lc != rc:
            break
    report.verdict = VERDICT_MISMATCH
    report.counterexample = {
        "exponent": list(exponent), "left": format_scalar(lc), "right": format_scalar(rc)
    }
    return report


def _check_x(x: object) -> int:
    if not isinstance(x, int) or isinstance(x, bool) or x < 1:
        raise PreconditionError(f"x must be a positive integer, got {x!r}")
    return x


def check_generating_function_1(x: int, z: MultiIndex, order: int) -> EvalReport:
    """sum_k (x/(x+k.z)) C(x+k.z,k) u^k = v^x, coefficientwise to `order`."""
    x, z, order = _check_x(x), naturals(z, "z"), natural(order, "order")
    m = len(z)
    tops = ((k, x + dot(k, z)) for k in exponents_up_to(m, order))
    left = TruncatedSeries._trusted(
        m, order, {k: exact(x * multinomial(t, k), t) for k, t in tops}
    )
    right = _solved[z, order] ** x
    return _compare_series("generating-function-1", x, z, left, right)


def check_generating_function_2(x: int, z: MultiIndex, order: int) -> EvalReport:
    """sum_k C(x+k.z,k) u^k = v^x / (1 - sum_i u_i z_i v^(z_i-1))."""
    x, z, order = _check_x(x), naturals(z, "z"), natural(order, "order")
    if any(e < 1 for e in z):
        raise PreconditionError(f"requires z_i >= 1 for every i, got z={list(z)}")
    m = len(z)
    tops = ((k, x + dot(k, z)) for k in exponents_up_to(m, order))
    left = TruncatedSeries._trusted(m, order, {k: multinomial(t, k) for k, t in tops})
    v = _solved[z, order]
    denominator = TruncatedSeries.constant(1, m, order)
    for i, a in enumerate(z, 1):
        denominator = denominator - (TruncatedSeries.variable(i, m, order) * v ** (a - 1)).scaled(a)
    right = (v**x) * denominator.reciprocal()
    return _compare_series("generating-function-2", x, z, left, right)
