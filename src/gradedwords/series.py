"""Truncated multivariate formal power series with exact coefficients.

A TruncatedSeries holds rational coefficients for exponents of total degree
at most N in m variables u_1..u_m; arithmetic truncates at N.  The module
solves the fixed-point equation v = 1 + sum_i u_i v^(z_i) (each iteration
from v = 1 settles one more total degree, so N iterations determine v
through degree N) and verifies the two generating-function identities

    sum_k (x/(x+k.z)) C(x+k.z,k) u^k  =  v^x
    sum_k C(x+k.z,k) u^k              =  v^x / (1 - sum_i u_i z_i v^(z_i-1))

coefficientwise.  The checks take positive integer x only (series powers
need no exp/log machinery then); reports record that restriction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping

from .arith import MultiIndex, Scalar, dot, multinomial, norm
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


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Exact power series in nvars variables, truncated at total degree order.

    Absent exponents mean coefficient zero; nothing beyond the truncation
    order is stored.  Instances are immutable; all arithmetic returns new
    series with the same nvars and order.
    """

    nvars: int
    order: int
    coeffs: Mapping[MultiIndex, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.nvars < 0 or self.order < 0:
            raise PreconditionError(
                f"nvars and order must be >= 0, got {self.nvars}, {self.order}"
            )
        cleaned: dict[MultiIndex, Fraction] = {}
        for exponent, value in self.coeffs.items():
            exponent = tuple(exponent)
            if len(exponent) != self.nvars or any(e < 0 for e in exponent):
                raise PreconditionError(f"bad exponent {exponent} for {self.nvars} variables")
            if norm(exponent) > self.order:
                continue
            value = value if isinstance(value, Fraction) else Fraction(value)
            if value != 0:
                cleaned[exponent] = value
        object.__setattr__(self, "coeffs", cleaned)

    # -- constructors -------------------------------------------------------

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
        return cls(nvars, order, {exponent: Fraction(1)})

    # -- basics -------------------------------------------------------------

    def coefficient(self, exponent: MultiIndex) -> Fraction:
        """The coefficient of u^exponent; exponents outside the truncation
        (wrong arity, a negative entry, degree above order) are refused."""
        exponent = tuple(exponent)
        value = self.coeffs.get(exponent)
        if value is not None:
            return value
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
        return (
            self.nvars == other.nvars
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        terms = ", ".join(
            f"{exponent}: {value}" for exponent, value in sorted(self.coeffs.items())
        )
        return f"TruncatedSeries(nvars={self.nvars}, order={self.order}, {{{terms}}})"

    def _check_compatible(self, other: TruncatedSeries) -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatchError(
                f"series in {self.nvars} vs {other.nvars} variables"
            )
        if self.order != other.order:
            raise PreconditionError(
                f"series truncated at different orders {self.order} vs {other.order}"
            )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_compatible(other)
        out = dict(self.coeffs)
        for exponent, value in other.coeffs.items():
            out[exponent] = out.get(exponent, Fraction(0)) + value
        return TruncatedSeries(self.nvars, self.order, out)

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries(
            self.nvars, self.order, {e: -c for e, c in self.coeffs.items()}
        )

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        return self + (-other)

    def scaled(self, factor: Scalar) -> TruncatedSeries:
        factor = Fraction(factor)
        return TruncatedSeries(
            self.nvars, self.order, {e: factor * c for e, c in self.coeffs.items()}
        )

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_compatible(other)
        out: dict[MultiIndex, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            d1 = norm(e1)
            for e2, c2 in other.coeffs.items():
                if d1 + norm(e2) > self.order:
                    continue
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return TruncatedSeries(self.nvars, self.order, out)

    def __pow__(self, exponent: int) -> TruncatedSeries:
        if not isinstance(exponent, int) or exponent < 0:
            raise PreconditionError(f"series power must be a natural number, got {exponent!r}")
        result = TruncatedSeries.one(self.nvars, self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def reciprocal(self) -> TruncatedSeries:
        """The series r with self * r = 1 through the truncation order."""
        c0 = self.constant_term
        if c0 == 0:
            raise PreconditionError(
                "reciprocal requires a unit (nonzero) constant term"
            )
        inv0 = 1 / c0
        out: dict[MultiIndex, Fraction] = {(0,) * self.nvars: inv0}
        for exponent in exponents_up_to(self.nvars, self.order):
            if norm(exponent) == 0:
                continue
            acc = Fraction(0)
            for e1, c1 in self.coeffs.items():
                if norm(e1) == 0 or any(a > b for a, b in zip(e1, exponent)):
                    continue
                rest = tuple(b - a for a, b in zip(e1, exponent))
                if rest in out:
                    acc += c1 * out[rest]
            value = -inv0 * acc
            if value != 0:
                out[exponent] = value
        return TruncatedSeries(self.nvars, self.order, out)


def _check_grading(z: object) -> MultiIndex:
    try:
        entries = tuple(z)  # type: ignore[arg-type]
    except TypeError:
        raise PreconditionError(f"z must be a vector of naturals, got {z!r}")
    for e in entries:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise PreconditionError(f"z entries must be naturals, got {entries}")
    return entries


def solve_functional_equation(z: MultiIndex, order: int) -> TruncatedSeries:
    """The unique series v with constant term 1 and v = 1 + sum_i u_i v^(z_i).

    Fixed-point iteration from v = 1; iteration t fixes total degree t, so
    `order` iterations pin every stored coefficient.
    """
    z = _check_grading(z)
    if order < 0:
        raise PreconditionError(f"order must be >= 0, got {order}")
    m = len(z)
    v = TruncatedSeries.one(m, order)
    for _ in range(order):
        nxt = TruncatedSeries.one(m, order)
        for i in range(1, m + 1):
            nxt = nxt + TruncatedSeries.variable(i, m, order) * v ** z[i - 1]
        v = nxt
    return v


def functional_equation_residual(v: TruncatedSeries, z: MultiIndex) -> TruncatedSeries:
    """v - 1 - sum_i u_i v^(z_i); the zero series iff v solves the equation."""
    z = _check_grading(z)
    if len(z) != v.nvars:
        raise DimensionMismatchError(f"z has dimension {len(z)}, series has {v.nvars}")
    residual = v - TruncatedSeries.one(v.nvars, v.order)
    for i in range(1, v.nvars + 1):
        residual = residual - TruncatedSeries.variable(i, v.nvars, v.order) * v ** z[i - 1]
    return residual


_X_RESTRICTION = "x verified for positive integers only"


def _compare_series(
    check: str,
    params: dict[str, object],
    left: TruncatedSeries,
    right: TruncatedSeries,
) -> EvalReport:
    report = EvalReport(check=check, params=params)
    compared = 0
    for exponent in exponents_up_to(left.nvars, left.order):
        compared += 1
        lc = left.coefficient(exponent)
        rc = right.coefficient(exponent)
        if lc != rc:
            report.verdict = VERDICT_MISMATCH
            report.counterexample = {
                "exponent": list(exponent),
                "left": str(lc),
                "right": str(rc),
            }
            return report
    report.verdict = VERDICT_EQUAL
    report.details = {
        "coefficients_compared": compared,
        "restriction": _X_RESTRICTION,
    }
    return report


def _check_x(x: object) -> int:
    if not isinstance(x, int) or isinstance(x, bool) or x < 1:
        raise PreconditionError(f"x must be a positive integer, got {x!r}")
    return x


def check_generating_function_1(x: int, z: MultiIndex, order: int) -> EvalReport:
    """sum_k (x/(x+k.z)) C(x+k.z,k) u^k = v^x, coefficientwise to `order`."""
    x = _check_x(x)
    z = _check_grading(z)
    m = len(z)
    explicit: dict[MultiIndex, Fraction] = {}
    for k in exponents_up_to(m, order):
        kz = dot(k, z)
        explicit[k] = Fraction(x, x + kz) * multinomial(x + kz, k)
    left = TruncatedSeries(m, order, explicit)
    right = solve_functional_equation(z, order) ** x
    return _compare_series(
        "generating-function-1",
        {"x": x, "z": list(z), "order": order},
        left,
        right,
    )


def check_generating_function_2(x: int, z: MultiIndex, order: int) -> EvalReport:
    """sum_k C(x+k.z,k) u^k = v^x / (1 - sum_i u_i z_i v^(z_i-1))."""
    x = _check_x(x)
    z = _check_grading(z)
    if any(e < 1 for e in z):
        raise PreconditionError(f"requires z_i >= 1 for every i, got z={list(z)}")
    m = len(z)
    explicit: dict[MultiIndex, Fraction] = {}
    for k in exponents_up_to(m, order):
        explicit[k] = multinomial(x + dot(k, z), k)
    left = TruncatedSeries(m, order, explicit)
    v = solve_functional_equation(z, order)
    denominator = TruncatedSeries.one(m, order)
    for i in range(1, m + 1):
        term = TruncatedSeries.variable(i, m, order) * v ** (z[i - 1] - 1)
        denominator = denominator - term.scaled(z[i - 1])
    right = (v**x) * denominator.reciprocal()
    return _compare_series(
        "generating-function-2",
        {"x": x, "z": list(z), "order": order},
        left,
        right,
    )
