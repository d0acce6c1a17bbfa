"""Truncated multivariate formal power series with exact coefficients.

A TruncatedSeries holds the coefficients of total degree at most N in m
variables u_1..u_m: an int where the value is integral, a Fraction only
where a division leaves a remainder.  Arithmetic truncates at N; a product
pairs each term only with the terms of the other factor that keep it within
degree N.  Powers with a nonzero constant term, and the reciprocal (power
-1), come from the Euler-operator recurrence of J.C.P. Miller (Knuth, TAOCP
vol. 2, 4.7), one quadratic pass for any a: for w = s^a,

    |k| s_0 w_k = sum_{0 < j <= k} (a|j| - |k-j|) s_j w_(k-j).

v = 1 + sum_i u_i v^(z_i) is solved one total degree at a time: degree d+1
of v needs each v^(z_i) through degree d only, and one Miller step per
degree extends those powers.  functional_equation_residual forms each
u_i v^(z_i) from products alone, a check on v independent of the
recurrence.  The two generating-function identities

    sum_k (x/(x+k.z)) C(x+k.z,k) u^k  =  v^x
    sum_k C(x+k.z,k) u^k              =  v^x / (1 - sum_i u_i z_i v^(z_i-1))

are verified coefficientwise, for positive integer x only (series powers
need no exp/log machinery then); reports record that restriction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping

from .arith import MultiIndex, Scalar, dot, multinomial, natural, naturals, norm
from .errors import DimensionMismatchError, PreconditionError
from .reports import VERDICT_EQUAL, VERDICT_MISMATCH, EvalReport

__all__ = [
    "TruncatedSeries",
    "exponents_up_to",
    "solve_functional_equation",
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


def _exact(num: Scalar, den: Scalar) -> Scalar:
    """num / den, as an int when the quotient is integral."""
    if type(num) is int and type(den) is int and not num % den:
        return num // den
    q = Fraction(num, den)
    return q.numerator if q.denominator == 1 else q


def _by_degree(coeffs: Mapping[MultiIndex, Scalar], order: int) -> list[dict]:
    """The terms of a series grouped by total degree, 0 through order."""
    out: list[dict] = [{} for _ in range(order + 1)]
    for exponent, value in coeffs.items():
        out[sum(exponent)][exponent] = value
    return out


def _miller_step(s: list[dict], w: list[dict], alpha: int, d: int, c0: Scalar) -> dict:
    """Degree d of w = s^alpha, given s through degree d and w below it."""
    acc: dict = {}
    for t in range(1, d + 1):
        f = alpha * t - (d - t)
        if not f:
            continue
        for j, sj in s[t].items():
            c = f * sj
            for i, wi in w[d - t].items():
                k = tuple(map(int.__add__, i, j))
                acc[k] = acc.get(k, 0) + c * wi
    return {k: _exact(n, d * c0) for k, n in acc.items() if n}


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Exact power series in nvars variables, truncated at total degree order.

    Absent exponents mean coefficient zero; nothing beyond the truncation
    order is stored.  `coeffs` holds an int for every integral coefficient
    and a Fraction otherwise; coefficient() always returns a Fraction.
    Instances are immutable; all arithmetic returns new series with the
    same nvars and order.
    """

    nvars: int
    order: int
    coeffs: Mapping[MultiIndex, Scalar] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.nvars < 0 or self.order < 0:
            raise PreconditionError(f"nvars and order must be >= 0, got {self.nvars}, {self.order}")
        cleaned: dict[MultiIndex, Scalar] = {}
        for exponent, value in self.coeffs.items():
            exponent = tuple(exponent)
            if len(exponent) != self.nvars or min(exponent, default=0) < 0:
                raise PreconditionError(f"bad exponent {exponent} for {self.nvars} variables")
            value = value if type(value) is int else _exact(Fraction(value), 1)
            if value and sum(exponent) <= self.order:
                cleaned[exponent] = value
        object.__setattr__(self, "coeffs", cleaned)

    @classmethod
    def _trusted(cls, nvars: int, order: int, coeffs: dict) -> TruncatedSeries:
        """A series from a kernel's own coeffs, whose exponents are already
        tuples of nvars naturals of total degree <= order and whose values
        are ints or Fractions; only zeros and integral Fractions are cleaned."""
        series = object.__new__(cls)
        object.__setattr__(series, "nvars", nvars)
        object.__setattr__(series, "order", order)
        object.__setattr__(series, "coeffs", {
            e: c if type(c) is int or c.denominator != 1 else c.numerator
            for e, c in coeffs.items() if c
        })
        return series

    @classmethod
    def constant(cls, value: Scalar, nvars: int, order: int) -> TruncatedSeries:
        return cls(nvars, order, {(0,) * nvars: Fraction(value)})

    @classmethod
    def one(cls, nvars: int, order: int) -> TruncatedSeries:
        return cls.constant(1, nvars, order)

    @classmethod
    def zero(cls, nvars: int, order: int) -> TruncatedSeries:
        return cls(nvars, order, {})

    @classmethod
    def variable(cls, i: int, nvars: int, order: int) -> TruncatedSeries:
        """The series u_i (1-based index)."""
        if not 1 <= i <= nvars:
            raise PreconditionError(f"variable index {i} out of range 1..{nvars}")
        exponent = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return cls(nvars, order, {exponent: 1})

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

    @property
    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * self.nvars)

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
        factor = _exact(Fraction(factor), 1)
        scaled = {e: factor * c for e, c in self.coeffs.items()}
        return TruncatedSeries._trusted(self.nvars, self.order, scaled)

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_compatible(other)
        right = _by_degree(other.coeffs, self.order)
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for level in right[: self.order - sum(e1) + 1]:
                for e2, c2 in level.items():
                    key = tuple(map(int.__add__, e1, e2))
                    out[key] = out.get(key, 0) + c1 * c2
        return TruncatedSeries._trusted(self.nvars, self.order, out)

    def __pow__(self, exponent: int) -> TruncatedSeries:
        if not isinstance(exponent, int) or exponent < 0:
            raise PreconditionError(f"series power must be a natural number, got {exponent!r}")
        if self.coeffs.get((0,) * self.nvars):
            return self._power(exponent)
        # no Miller recurrence without a constant term: repeated squaring
        result, base = TruncatedSeries.one(self.nvars, self.order), self
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
        s = _by_degree(self.coeffs, self.order)
        w = [{(0,) * self.nvars: _exact(Fraction(c0) ** alpha, 1)}]
        for d in range(1, self.order + 1):
            w.append(_miller_step(s, w, alpha, d, c0))
        coeffs = {k: c for level in w for k, c in level.items()}
        return TruncatedSeries._trusted(self.nvars, self.order, coeffs)


def solve_functional_equation(z: MultiIndex, order: int) -> TruncatedSeries:
    """The unique series v with constant term 1 and v = 1 + sum_i u_i v^(z_i).

    Solved one total degree at a time: degree d + 1 of v is the sum over i
    of u_i times degree d of v^(z_i), and each power v^a is extended to
    degree d by one Miller step once v is known through degree d.
    """
    z, order = naturals(z, "z"), natural(order, "order")
    m = len(z)
    units = [tuple(int(a == i) for a in range(m)) for i in range(m)]
    v = [{(0,) * m: 1}]
    powers = {a: [v[0]] for a in z}
    for d in range(order):
        if d:
            for a, w in powers.items():
                w.append(_miller_step(v, w, a, d, 1))
        level: dict = {}
        for unit, a in zip(units, z):
            for k, c in powers[a][d].items():
                key = tuple(map(int.__add__, k, unit))
                level[key] = level.get(key, 0) + c
        v.append(level)
    return TruncatedSeries._trusted(m, order, {k: c for level in v for k, c in level.items()})


def functional_equation_residual(v: TruncatedSeries, z: MultiIndex) -> TruncatedSeries:
    """v - 1 - sum_i u_i v^(z_i); the zero series iff v solves the equation.

    Each v^(z_i) is a z_i-fold product, never a Miller power, so a fault in
    the recurrence that solve_functional_equation uses cannot cancel here.
    """
    z = naturals(z, "z")
    if len(z) != v.nvars:
        raise DimensionMismatchError(f"z has dimension {len(z)}, series has {v.nvars}")
    residual = v - TruncatedSeries.one(v.nvars, v.order)
    for i, a in enumerate(z, 1):
        power = TruncatedSeries.one(v.nvars, v.order)
        for _ in range(a):
            power = power * v
        residual = residual - TruncatedSeries.variable(i, v.nvars, v.order) * power
    return residual


_X_RESTRICTION = "x verified for positive integers only"


def _compare_series(
    check: str, x: int, z: MultiIndex, left: TruncatedSeries, right: TruncatedSeries
) -> EvalReport:
    report = EvalReport(check=check, params={"x": x, "z": list(z), "order": left.order})
    for compared, exponent in enumerate(exponents_up_to(left.nvars, left.order), 1):
        lc, rc = left.coeffs.get(exponent, 0), right.coeffs.get(exponent, 0)
        if lc != rc:
            report.verdict = VERDICT_MISMATCH
            report.counterexample = {"exponent": list(exponent), "left": str(lc), "right": str(rc)}
            return report
    report.verdict = VERDICT_EQUAL
    report.details = {"coefficients_compared": compared, "restriction": _X_RESTRICTION}
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
    left = TruncatedSeries(m, order, {k: Fraction(x, t) * multinomial(t, k) for k, t in tops})
    right = solve_functional_equation(z, order) ** x
    return _compare_series("generating-function-1", x, z, left, right)


def check_generating_function_2(x: int, z: MultiIndex, order: int) -> EvalReport:
    """sum_k C(x+k.z,k) u^k = v^x / (1 - sum_i u_i z_i v^(z_i-1))."""
    x, z, order = _check_x(x), naturals(z, "z"), natural(order, "order")
    if any(e < 1 for e in z):
        raise PreconditionError(f"requires z_i >= 1 for every i, got z={list(z)}")
    m = len(z)
    tops = ((k, x + dot(k, z)) for k in exponents_up_to(m, order))
    left = TruncatedSeries(m, order, {k: multinomial(t, k) for k, t in tops})
    v = solve_functional_equation(z, order)
    denominator = TruncatedSeries.one(m, order)
    for i, a in enumerate(z, 1):
        denominator = denominator - (TruncatedSeries.variable(i, m, order) * v ** (a - 1)).scaled(a)
    right = (v**x) * denominator.reciprocal()
    return _compare_series("generating-function-2", x, z, left, right)
