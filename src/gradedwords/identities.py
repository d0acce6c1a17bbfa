"""Exact paired-side evaluators for the convolution identities, and a
degree-bounded grid checker that promotes pointwise equality to identity.

Every evaluator returns the exact (left, right) pair at one point; for a
true identity the two values agree at every admissible point.  Equality as
polynomials follows from equality on a large enough product grid: if both
sides have degree at most D in each free variable, agreement at D + 1
distinct values per variable forces the difference to vanish identically.

The rational forms (the Abel identities, the x/(x - k.z)-weighted sums and
absorption) divide by finitely many linear forms.  Each is declared once, as
a _Pole: the sum of some variables minus a constant, which must not vanish.
The evaluators refuse a point on a declared pole with PoleError, and the
grid chooser skips such points.  The grid argument certifies a rational
identity only if every declared pole is removable, so that each side agrees
off the poles with a polynomial within its degree bound.  The catalog
asserts that per entry; the program does not yet check it.

An identity is declared once, by the @_identity decorator on its public
evaluator, whose body holds only the mathematics.  The decorator names the
catalog entry and its degree bound, poles and grid start; the free
variables, the multi-index slot (n, or k for absorption) and the letter
indices i and j the entry takes are read from the evaluator's signature.
The public function it returns checks the arguments and refuses a declared
pole before running the body; the catalog calls the body directly, with
parameters checked once per spec and points that avoid every declared pole.
verify_identity_on_grid builds a pole-free integer product grid sized by
the degree bound and checks exact equality at every point.

Grid points are ints, and so is C(x, n) at an integer x, so the polynomial
sides are evaluated in int arithmetic.  A rational side sums its quotients
through arith.qsum: numerators and denominators are accumulated in ints over
one common denominator, a product of declared poles, and divided once, by
arith.exact, into an int or a Fraction.  qsum is the one place a rational
side divides, where an exact polynomial division would go.  The Abel forms
divide nowhere: each quotient of theirs cancels to 1 off a declared pole
(the conventions below), and every other power they take is a natural one.
No evaluator divides two ints with / or raises a scalar to a negative power,
so no value is ever a float, and at an integer point every side is an int.
The public evaluators return a pair of Fractions whatever the path.

A body reads C(x, k) from rows: row[x] is C(x, k), and the terms table of
(n, z) carries, for each summand k, k.z and the rows of C(., k), C(., n - k)
and each C(., k - e_i), besides constants such as |k|, next to the row of
C(., n).  A grid recomputes the same C(x, k) many times (C(x - k.z, k)
recurs for every y and eps), so while verify_identity_on_grid runs, the
bodies read that grid's own tables, whose rows are dicts keyed by x that
fill from arith's multinomial on first use.  The tables and their rows are
dropped whenever the grid is left, by a verdict or by an exception, so
nothing carries over to the next certification.  Every x that reaches a row
there is an int.  Point checks and the public evaluators read a table whose
rows compute C(x, k) at each lookup and store nothing: one point never
repeats a lookup, and a rational x would only cost a Fraction hash.

Conventions shared by all evaluators:

* multinomial(x, n) is the total function: zero whenever n has a negative
  entry, so sums may range over the full box 0 <= k <= n.
* the Abel factor x(x - kz)^(k-1) is read as (x/(x - kz)) * (x - kz)^k,
  which makes it exactly 1 at k = 0 and requires x != 0; likewise abel-2's
  (y + nz)(y + kz)^(n-k-1) is 1 at k = n, off y + nz = 0, and its right
  side (x + y)(x + y)^(-1) is 1 at n = 0, off x + y = 0.
* summation over multi-indices is in lexicographic order; with exact
  arithmetic the order is irrelevant, but reports stay reproducible.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

from . import arith
from .arith import (
    MultiIndex,
    Scalar,
    _Memo,
    box,
    dot,
    format_scalar,
    multi_factorial,
    qsum,
    natural,
    naturals,
    norm,
    rational,
    unit,
    vec_sub,
)
from .errors import (
    DimensionMismatchError,
    GridExhaustedError,
    PoleError,
    PreconditionError,
)
from .reports import VERDICT_EQUAL, VERDICT_MISMATCH, EvalReport

__all__ = [
    "IdentitySpec",
    "eval_abel_1",
    "eval_abel_2",
    "eval_rothe_1",
    "eval_rothe_2",
    "eval_gould",
    "eval_jensen",
    "eval_raney_mohanty_1",
    "eval_raney_mohanty_2",
    "eval_mohanty_handa",
    "eval_gould_mohanty",
    "eval_gmh_special",
    "eval_kmx",
    "eval_kmpink",
    "eval_pkroth",
    "check_absorption",
    "check_rm2_decomposition",
    "check_mh_expansion",
    "identity_variables",
    "verify_identity_on_grid",
    "verify_identity_at_point",
]


def _same_dim(n: MultiIndex, z: MultiIndex) -> None:
    if len(n) != len(z):
        raise DimensionMismatchError(
            f"n has dimension {len(n)} but z has dimension {len(z)}"
        )


def _check_letters(
    needs: frozenset[str], n: MultiIndex, z: MultiIndex, i: object, j: object
) -> None:
    """The letter index i and the shift j, where the identity takes them."""
    if "i" in needs and not 1 <= natural(i, "i") <= len(n):
        raise PreconditionError(f"letter index i = {i} out of range 1..{len(n)}")
    if "j" in needs and not 1 <= natural(j, "j") <= z[i - 1]:
        raise PreconditionError(f"requires 1 <= j <= z_i, got j = {j} with z_{i} = {z[i - 1]}")


# ---------------------------------------------------------------------------
# declared poles: one list per rational form, shared by the evaluators, the
# point check and the grid chooser
# ---------------------------------------------------------------------------


class _Pole(NamedTuple):
    """The denominator factor sum(vars) - c, which must not vanish."""

    vars: tuple[str, ...]
    c: Scalar

    @property
    def label(self) -> str:
        head = " + ".join(self.vars)
        if self.c == 0:
            return head
        return f"{head} {'-' if self.c > 0 else '+'} {format_scalar(abs(self.c))}"


def _check_poles(poles: list[_Pole], point: dict[str, Scalar]) -> None:
    sums = {vs: sum(point[v] for v in vs) for vs in {p.vars for p in poles}}
    # copies of one pole vanish together; name each once
    violated = dict.fromkeys(p.label for p in poles if sums[p.vars] == p.c)
    if violated:
        raise PoleError(f"denominators vanish at this point: {'; '.join(violated)}")


def _no_poles(n: MultiIndex, z: MultiIndex) -> list[_Pole]:
    return []


def _poles_x(n: MultiIndex, z: MultiIndex) -> list[_Pole]:
    """x - k.z for 0 <= k <= n, repeats included: the x/(x - k.z) weights."""
    kzs: list[Scalar] = [0]
    for n_i, z_i in zip(n, z):
        kzs = [z_i * k + v for v in kzs for k in range(n_i + 1)]
    return [_Pole(("x",), kz) for kz in kzs]


def _poles_xy(n: MultiIndex, z: MultiIndex) -> list[_Pole]:
    """x - k.z and y - (n-k).z for 0 <= k <= n, and x + y - n.z."""
    xs = _poles_x(n, z)
    return xs + [_Pole(("y",), kz) for _, kz in xs] + [_Pole(("x", "y"), dot(n, z))]


def _poles_abel_1(n: MultiIndex, z: MultiIndex) -> list[_Pole]:
    """x: the k = 0 term reads x * x^(-1)."""
    return [_Pole(("x",), 0)]


def _poles_abel_2(n: MultiIndex, z: MultiIndex) -> list[_Pole]:
    """x, the k = n term's y + nz, and at n = 0 the right side's x + y."""
    poles = [_Pole(("x",), 0), _Pole(("y",), -n[0] * z[0])]
    if n[0] == 0:
        poles.append(_Pole(("x", "y"), 0))
    return poles


def _poles_absorption(n: MultiIndex, z: MultiIndex) -> list[_Pole]:
    """p - k.z, with the multi-index k in the slot n."""
    return [_Pole(("p",), dot(n, z))]


# ---------------------------------------------------------------------------
# the catalog, filled by the @_identity declarations below
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentitySpec:
    """A catalog identity plus its fixed parameters.

    The multi-index slot n carries the identity's n; for absorption it
    carries the multi-index k (reported under the key "k").  i and j are
    only accepted by the entries that use them (kmpink, absorption).
    grid_range, when set, is the inclusive integer interval candidates are
    drawn from for every free variable; otherwise each variable uses its
    catalog default, ascending.
    """

    identity: str
    n: MultiIndex
    z: MultiIndex
    i: Optional[int] = None
    j: Optional[int] = None
    grid_range: Optional[tuple[int, int]] = None

    @property
    def m(self) -> int:
        return len(self.n)


PairList = list[tuple[Scalar, Scalar]]
_Evaluator = Callable[..., tuple[Scalar, Scalar]]


@dataclass(frozen=True)
class _Entry:
    name: str
    variables: tuple[str, ...]
    param_name: str  # "n" or "k"
    needs: frozenset[str]  # subset of {"i", "j"}
    classical: bool  # restricted to m = 1
    degree: Callable[[IdentitySpec], int]
    default_lo: Callable[[str, IdentitySpec], int]
    poles: Callable[[MultiIndex, MultiIndex], list[_Pole]]
    # the pairs at a pole-free point of a spec that passed _validate
    evaluate: Callable[[dict[str, Scalar], IdentitySpec], PairList]


def _deg_conv(spec: IdentitySpec) -> int:
    return norm(spec.n)


def _deg_abel(spec: IdentitySpec) -> int:
    return spec.n[0] + 1


def _deg_absorption(spec: IdentitySpec) -> int:
    return norm(spec.n) + 1


def _lo_xy(var: str, spec: IdentitySpec) -> int:
    nz = dot(spec.n, spec.z)
    return {"x": nz + 1, "y": nz + 1, "eps": 0, "p": nz, "q": 1}[var]


def _lo_absorption(var: str, spec: IdentitySpec) -> int:
    return dot(spec.n, spec.z) + 1


CATALOG: dict[str, _Entry] = {}


def _identity(
    name: str,
    *,
    poles: Callable[[MultiIndex, MultiIndex], list[_Pole]] = _no_poles,
    degree: Callable[[IdentitySpec], int] = _deg_conv,
    default_lo: Callable[[str, IdentitySpec], int] = _lo_xy,
    classical: bool = False,
) -> Callable[[_Evaluator], _Evaluator]:
    """Enter the decorated evaluator in CATALOG as `name`; return it checked.

    The free variables are the parameters other than the multi-index slot
    (n, or k for absorption), z, i and j; the entry takes whichever of i and
    j the evaluator names.  A classical (m = 1) evaluator takes n and z as
    scalars.  The returned function checks that the variables (and a
    classical z) are exact rationals, checks n or k, z, i and j, refuses a
    declared pole, and only then runs the body; it returns both sides as
    Fractions.
    """

    def declare(body: _Evaluator) -> _Evaluator:
        sig = inspect.signature(body)
        slot = "k" if "k" in sig.parameters else "n"
        variables = tuple(v for v in sig.parameters if v not in (slot, "z", "i", "j"))
        needs = frozenset(sig.parameters) & {"i", "j"}
        plain = slot == "n" and not needs  # every entry but kmpink and absorption
        scalars = [v for v in sig.parameters if v in variables or classical and v == "z"]

        @functools.wraps(body)
        def checked(*args: object, **kwargs: object) -> tuple[Fraction, Fraction]:
            a = sig.bind(*args, **kwargs).arguments
            for v in scalars:
                a[v] = rational(a[v], v)
            if classical:
                a["n"] = natural(a["n"], "n")
                n, z = (a["n"],), (a["z"],)
            else:
                n = a[slot] = naturals(a[slot], slot)
                z = a["z"] = naturals(a["z"], "z")
                _same_dim(n, z)
                _check_letters(needs, n, z, a.get("i"), a.get("j"))
            _check_poles(poles(n, z), a)
            left, right = body(**a)
            return Fraction(left), Fraction(right)

        def evaluate(point: dict[str, Scalar], spec: IdentitySpec) -> PairList:
            if classical:
                return [body(**point, n=spec.n[0], z=spec.z[0])]
            if plain:
                return [body(**point, n=spec.n, z=spec.z)]
            letters = {flag: getattr(spec, flag) for flag in needs}
            return [body(**point, **{slot: spec.n}, z=spec.z, **letters)]

        CATALOG[name] = _Entry(
            name, variables, slot, needs, classical, degree, default_lo, poles, evaluate
        )
        return checked

    return declare


# ---------------------------------------------------------------------------
# shared arithmetic of the bodies: the rows C(., k), carried by one terms
# table per (n, z), and filled once per grid certification
# ---------------------------------------------------------------------------


class _Fresh:
    """The row C(., k) outside a grid: each lookup computes C(x, k) afresh,
    and nothing is stored."""

    __slots__ = ("k",)

    def __init__(self, k: MultiIndex) -> None:
        self.k = k

    def __getitem__(self, x: Scalar) -> Scalar:
        return arith.multinomial(x, self.k)


_Row = Union[_Memo, _Fresh]  # C(x, k) is row[x]


class _Table(NamedTuple):
    """The terms table of (n, z).  Its summands k, 0 <= k <= n, each come
    as the tuple (k.z, C(., k), C(., n - k), (C(., k - e_i) for i = 1..m),
    |k|, z^k C(|k|, k)), holding rows where C(., .) is written."""

    nz: int  # n.z
    cn: _Row  # C(., n)
    terms: tuple[tuple, ...]  # the summands, lexicographic in k
    rows: tuple[_Row, ...]  # every row above, each once


@functools.lru_cache(maxsize=1024)
def _fresh_table(n: MultiIndex, z: MultiIndex) -> _Table:
    """The terms table of (n, z) with one _Fresh row per multi-index, built
    once per (n, z) rather than at every point."""
    row = _Memo(_Fresh)
    units = [unit(len(n), i) for i in range(1, len(n) + 1)]
    terms = []
    for k in box(n):
        size = norm(k)
        z_pow = math.prod(zi**ki for zi, ki in zip(z, k))
        terms.append(
            (
                dot(k, z),
                row[k],
                row[vec_sub(n, k)],
                tuple(row[vec_sub(k, e)] for e in units),
                size,
                z_pow * (math.factorial(size) // multi_factorial(k)),
            )
        )
    return _Table(dot(n, z), row[n], tuple(terms), tuple(row.values()))


def _filled(table: _Table) -> _Table:
    """table with each _Fresh row replaced by a row of its own: a dict from
    x to C(x, k), filled on first use by the _Fresh row, which looks arith's
    multinomial up at each call."""
    memo = {fresh: _Memo(fresh.__getitem__) for fresh in table.rows}
    row = memo.__getitem__
    terms = tuple(
        (kz, row(ck), row(cr), tuple(map(row, below)), size, weight)
        for kz, ck, cr, below, size, weight in table.terms
    )
    return _Table(table.nz, row(table.cn), terms, tuple(memo.values()))


_grid: Optional[_Memo] = None  # the running grid's tables, by (n, z)


def _terms(n: MultiIndex, z: MultiIndex) -> _Table:
    """The terms table of (n, z): the running grid's, or outside a grid one
    whose rows store nothing."""
    grid = _grid  # read once: another thread's grid may end meanwhile
    return _fresh_table(n, z) if grid is None else grid[n, z]


@contextlib.contextmanager
def _memoized():
    """Within the block the bodies read the grid's own tables, whose rows
    fill as they are read; on every way out the tables and rows are dropped.
    Grids run at once in two threads could read each other's rows, which
    changes no value: every entry is the exact C(x, k) of its row and x."""
    global _grid
    _grid = _Memo(lambda nz: _filled(_fresh_table(*nz)))
    try:
        yield
    finally:
        _grid = None


# ---------------------------------------------------------------------------
# classical single-variable forms (m = 1)
# ---------------------------------------------------------------------------


@_identity("abel-1", poles=_poles_abel_1, degree=_deg_abel, classical=True)
def eval_abel_1(x: Scalar, y: Scalar, z: Scalar, n: int) -> tuple[Fraction, Fraction]:
    """sum_k C(n,k) x(x-kz)^(k-1) (y+kz)^(n-k)  vs  (x+y)^n."""
    lhs = 0
    for k in range(n + 1):
        head = x * (x - k * z) ** (k - 1) if k else 1  # x * x^(-1), off the pole x
        lhs += math.comb(n, k) * head * (y + k * z) ** (n - k)
    return lhs, (x + y) ** n


@_identity("abel-2", poles=_poles_abel_2, degree=_deg_abel, classical=True)
def eval_abel_2(x: Scalar, y: Scalar, z: Scalar, n: int) -> tuple[Fraction, Fraction]:
    """sum_k C(n,k) x(y+nz)(x-kz)^(k-1)(y+kz)^(n-k-1)  vs  (x+y+nz)(x+y)^(n-1).

    This is the companion of Abel's identity, normalized so the right side
    is (x+y+nz)(x+y)^(n-1); under y -> y - nz it is the classical symmetric
    form sum_k C(n,k) xy(x-kz)^(k-1)(y-(n-k)z)^(n-k-1) = (x+y)(x+y-nz)^(n-1).
    """
    lhs = 0
    for k in range(n + 1):
        head = x * (x - k * z) ** (k - 1) if k else 1  # x * x^(-1), off the pole x
        # (y+nz)(y+nz)^(-1) at k = n, off the pole y + nz
        tail = (y + n * z) * (y + k * z) ** (n - k - 1) if k < n else 1
        lhs += math.comb(n, k) * head * tail
    rhs = (x + y + n * z) * (x + y) ** (n - 1) if n else 1  # at n = 0, off the pole x + y
    return lhs, rhs


@_identity("rothe-1", poles=_poles_x, classical=True)
def eval_rothe_1(x: Scalar, y: Scalar, z: Scalar, n: int) -> tuple[Fraction, Fraction]:
    """sum_k (x/(x-kz)) C(x-kz,k) C(y+kz,n-k)  vs  C(x+y,n)."""
    table = _terms((n,), (z,))
    lhs = qsum((x * ck[x - kz] * cr[y + kz], x - kz) for kz, ck, cr, _, _, _ in table.terms)
    return lhs, table.cn[x + y]


@_identity("rothe-2", poles=_poles_xy, classical=True)
def eval_rothe_2(x: Scalar, y: Scalar, z: Scalar, n: int) -> tuple[Fraction, Fraction]:
    """sum_k xy/((x-kz)(y-(n-k)z)) C(x-kz,k) C(y-(n-k)z,n-k)
    vs  (x+y)/(x+y-nz) C(x+y-nz,n)."""
    table = _terms((n,), (z,))
    y_nz = y - table.nz  # y - (n-k)z is y_nz + kz
    lhs = qsum(
        (x * y * ck[x - kz] * cr[y_nz + kz], (x - kz) * (y_nz + kz))
        for kz, ck, cr, _, _, _ in table.terms
    )
    rhs = qsum([((x + y) * table.cn[x + y_nz], x + y_nz)])
    return lhs, rhs


@_identity("gould", classical=True)
def eval_gould(
    x: Scalar, y: Scalar, z: Scalar, eps: Scalar, n: int
) -> tuple[Fraction, Fraction]:
    """sum_k C(x-kz,k) C(y+kz,n-k)  vs  sum_k C(x+e-kz,k) C(y-e+kz,n-k)."""
    lhs = 0
    rhs = 0
    for kz, ck, cr, _, _, _ in _terms((n,), (z,)).terms:
        lhs += ck[x - kz] * cr[y + kz]
        rhs += ck[x + eps - kz] * cr[y - eps + kz]
    return lhs, rhs


@_identity("jensen", classical=True)
def eval_jensen(x: Scalar, y: Scalar, z: Scalar, n: int) -> tuple[Fraction, Fraction]:
    """sum_k C(x+kz,k) C(y-kz,n-k)  vs  sum_k C(x+y-k,n-k) z^k."""
    lhs = 0
    rhs = 0
    for kz, ck, cr, _, k, _ in _terms((n,), (z,)).terms:
        lhs += ck[x + kz] * cr[y - kz]
        rhs += cr[x + y - k] * z**k
    return lhs, rhs


# ---------------------------------------------------------------------------
# multi-index forms (any m >= 1)
# ---------------------------------------------------------------------------


@_identity("raney-mohanty-1", poles=_poles_x)
def eval_raney_mohanty_1(
    x: Scalar, y: Scalar, n: MultiIndex, z: MultiIndex
) -> tuple[Fraction, Fraction]:
    """sum_{0<=k<=n} (x/(x-k.z)) C(x-k.z,k) C(y+k.z,n-k)  vs  C(x+y,n)."""
    table = _terms(n, z)
    lhs = qsum((x * ck[x - kz] * cr[y + kz], x - kz) for kz, ck, cr, _, _, _ in table.terms)
    return lhs, table.cn[x + y]


@_identity("raney-mohanty-2", poles=_poles_xy)
def eval_raney_mohanty_2(
    x: Scalar, y: Scalar, n: MultiIndex, z: MultiIndex
) -> tuple[Fraction, Fraction]:
    """sum_k xy/((x-k.z)(y-(n-k).z)) C(x-k.z,k) C(y-(n-k).z,n-k)
    vs  (x+y)/(x+y-n.z) C(x+y-n.z,n)."""
    table = _terms(n, z)
    y_nz = y - table.nz  # y - (n-k).z is y_nz + k.z
    lhs = qsum(
        (x * y * ck[x - kz] * cr[y_nz + kz], (x - kz) * (y_nz + kz))
        for kz, ck, cr, _, _, _ in table.terms
    )
    rhs = qsum([((x + y) * table.cn[x + y_nz], x + y_nz)])
    return lhs, rhs


@_identity("mohanty-handa")
def eval_mohanty_handa(
    x: Scalar, y: Scalar, n: MultiIndex, z: MultiIndex
) -> tuple[Fraction, Fraction]:
    """sum_k C(x+k.z,k) C(y-k.z,n-k)  vs  sum_k C(x+y-|k|,n-k) C(|k|,k) z^k."""
    lhs = 0
    rhs = 0
    for kz, ck, cr, _, size, weight in _terms(n, z).terms:
        lhs += ck[x + kz] * cr[y - kz]
        rhs += cr[x + y - size] * weight
    return lhs, rhs


@_identity("gould-mohanty")
def eval_gould_mohanty(
    x: Scalar, y: Scalar, eps: Scalar, n: MultiIndex, z: MultiIndex
) -> tuple[Fraction, Fraction]:
    """sum_k C(x-k.z,k) C(y+k.z,n-k)  vs  sum_k C(x+e-k.z,k) C(y-e+k.z,n-k)."""
    lhs = 0
    rhs = 0
    for kz, ck, cr, _, _, _ in _terms(n, z).terms:
        lhs += ck[x - kz] * cr[y + kz]
        rhs += ck[x + eps - kz] * cr[y - eps + kz]
    return lhs, rhs


@_identity("gmh-special")
def eval_gmh_special(
    p: Scalar, q: Scalar, n: MultiIndex, z: MultiIndex
) -> tuple[Fraction, Fraction]:
    """Gould-Mohanty at eps = 1:
    sum_k C(p-k.z,k) C(q+k.z,n-k)  vs  sum_k C(p+1-k.z,k) C(q-1+k.z,n-k)."""
    return eval_gould_mohanty.__wrapped__(p, q, 1, n, z)


@_identity("kmx")
def eval_kmx(
    p: Scalar, q: Scalar, n: MultiIndex, z: MultiIndex
) -> tuple[Fraction, Fraction]:
    """sum_k [ C(p-k.z,k) C(q+k.z,n-k)
              + sum_i sum_{j=1}^{z_i} C(p-k.z+j-1,k-e_i) C(q+k.z-j,n-k) ]
    vs  C(p+q,n)."""
    table = _terms(n, z)
    lhs = 0
    for kz, ck, cr, below, _, _ in table.terms:
        term = ck[p - kz] * cr[q + kz]
        for z_i, ci in zip(z, below):
            for j in range(1, z_i + 1):
                term += ci[p - kz + j - 1] * cr[q + kz - j]
        lhs += term
    return lhs, table.cn[p + q]


@_identity("kmpink")
def eval_kmpink(
    p: Scalar, q: Scalar, n: MultiIndex, z: MultiIndex, i: int, j: int
) -> tuple[Fraction, Fraction]:
    """sum_k C(p-k.z+j-1,k-e_i) C(q+k.z-j,n-k)
    vs  sum_k C(p-k.z-1,k-e_i) C(q+k.z,n-k),  for 1 <= j <= z_i."""
    lhs = 0
    rhs = 0
    for kz, _, cr, below, _, _ in _terms(n, z).terms:
        ci = below[i - 1]
        lhs += ci[p - kz + j - 1] * cr[q + kz - j]
        rhs += ci[p - kz - 1] * cr[q + kz]
    return lhs, rhs


@_identity("pkroth")
def eval_pkroth(
    p: Scalar, q: Scalar, n: MultiIndex, z: MultiIndex
) -> tuple[Fraction, Fraction]:
    """sum_k [ C(p-k.z,k) + sum_i z_i C(p-k.z-1,k-e_i) ] C(q+k.z,n-k)
    vs  C(p+q,n)."""
    table = _terms(n, z)
    lhs = 0
    for kz, ck, cr, below, _, _ in table.terms:
        head = ck[p - kz]
        for z_i, ci in zip(z, below):
            head += z_i * ci[p - kz - 1]
        lhs += head * cr[q + kz]
    return lhs, table.cn[p + q]


@_identity(
    "absorption",
    poles=_poles_absorption,
    degree=_deg_absorption,
    default_lo=_lo_absorption,
)
def check_absorption(
    p: Scalar, k: MultiIndex, z: MultiIndex, i: int
) -> tuple[Fraction, Fraction]:
    """C(p-k.z-1, k-e_i)  vs  (k_i/(p-k.z)) C(p-k.z, k),  p-k.z != 0."""
    kz, ck, _, below, _, _ = _terms(k, z).terms[-1]  # the last summand of the box is k
    lhs = below[i - 1][p - kz - 1]
    rhs = qsum([(k[i - 1] * ck[p - kz], p - kz)])
    return lhs, rhs


@_identity("rm2-decomposition", poles=_poles_xy)
def check_rm2_decomposition(
    x: Scalar, y: Scalar, n: MultiIndex, z: MultiIndex
) -> tuple[Fraction, Fraction]:
    """The two-sum rewriting of the second Raney-Mohanty form's left side:

    sum_k xy/((x-k.z)(y-(n-k).z)) C C  vs  (S1 + S2)/(x+y-n.z)  where
    S1 = sum_k (xy/(x-k.z)) C C  and  S2 = sum_k (xy/(y-(n-k).z)) C C.
    """
    table = _terms(n, z)
    y_nz = y - table.nz  # y - (n-k).z is y_nz + k.z
    w = x + y_nz
    rows = [
        (x * y * ck[x - kz] * cr[y_nz + kz], x - kz, y_nz + kz)
        for kz, ck, cr, _, _, _ in table.terms
    ]
    lhs = qsum((prod, a * b) for prod, a, b in rows)
    rhs = qsum((prod, d * w) for prod, a, b in rows for d in (a, b))  # (S1 + S2) / w
    return lhs, rhs


@_identity("mh-expansion")
def check_mh_expansion(
    x: Scalar, y: Scalar, n: MultiIndex, z: MultiIndex
) -> tuple[Fraction, Fraction]:
    """sum_k C(x+k.z,k) C(y-k.z,n-k)
    vs  C(x+y,n) + sum_i sum_k z_i C(x-1+k.z,k-e_i) C(y-k.z,n-k)."""
    table = _terms(n, z)
    lhs = 0
    rhs = table.cn[x + y]
    for kz, ck, cr, below, _, _ in table.terms:
        tail = cr[y - kz]
        lhs += ck[x + kz] * tail
        for z_i, ci in zip(z, below):
            rhs += z_i * ci[x - 1 + kz] * tail
    return lhs, rhs


def _coherence(name: str, multi: str, single: str) -> None:
    """Declare `name`: the multi-index entry `multi` at m = 1 must agree
    componentwise with its classical counterpart `single`.  The classical
    bodies stay separate evaluators because criterion 7 takes them as its
    reference; a tier-1 test checks them against textbook binomials."""
    multi_pairs, single_pairs = CATALOG[multi].evaluate, CATALOG[single].evaluate

    def evaluate(point: dict[str, Scalar], spec: IdentitySpec) -> PairList:
        [(left, right)] = multi_pairs(point, spec)
        [(single_left, single_right)] = single_pairs(point, spec)
        return [(left, single_left), (right, single_right), (left, right)]

    CATALOG[name] = replace(CATALOG[multi], name=name, classical=True, evaluate=evaluate)


_coherence("gould-mohanty-vs-gould", "gould-mohanty", "gould")
_coherence("raney-mohanty-1-vs-rothe-1", "raney-mohanty-1", "rothe-1")
_coherence("mohanty-handa-vs-jensen", "mohanty-handa", "jensen")


# ---------------------------------------------------------------------------
# grid and point verification
# ---------------------------------------------------------------------------


def identity_variables(name: str) -> tuple[str, ...]:
    return _lookup(name).variables


def _lookup(name: str) -> _Entry:
    try:
        return CATALOG[name]
    except KeyError:
        known = ", ".join(CATALOG)
        raise PreconditionError(f"unknown identity {name!r}; known: {known}")


def _validate(spec: IdentitySpec, entry: _Entry) -> IdentitySpec:
    """spec, with n and z as tuples, once every parameter checks out."""
    n = naturals(spec.n, entry.param_name)
    z = naturals(spec.z, "z")
    _same_dim(n, z)
    if entry.classical and len(n) != 1:
        raise PreconditionError(
            f"{entry.name} is a single-variable (m = 1) identity; "
            f"got dimension {len(n)}"
        )
    for flag in ("i", "j"):
        given = getattr(spec, flag) is not None
        if given and flag not in entry.needs:
            raise PreconditionError(f"{entry.name} does not take --{flag}")
        if not given and flag in entry.needs:
            raise PreconditionError(f"{entry.name} requires --{flag}")
    _check_letters(entry.needs, n, z, spec.i, spec.j)
    if spec.grid_range is not None:
        ends = spec.grid_range if isinstance(spec.grid_range, (tuple, list)) else ()
        if len(ends) != 2 or any(not isinstance(e, int) or isinstance(e, bool) for e in ends):
            raise PreconditionError(f"grid range must be a pair of ints, got {spec.grid_range!r}")
        if ends[0] > ends[1]:
            raise PreconditionError(f"empty grid range {spec.grid_range}")
    return replace(spec, n=n, z=z)


def _params_dict(spec: IdentitySpec, entry: _Entry) -> dict[str, object]:
    params: dict[str, object] = {
        "identity": spec.identity,
        entry.param_name: list(spec.n),
        "z": list(spec.z),
    }
    if spec.i is not None:
        params["i"] = spec.i
    if spec.j is not None:
        params["j"] = spec.j
    return params


def _rerun_command(spec: IdentitySpec, entry: _Entry, point: dict[str, Scalar]) -> str:
    parts = [
        "gradedwords verify",
        spec.identity,
        f"--{entry.param_name} {','.join(map(str, spec.n))}",
        f"--z {','.join(map(str, spec.z))}",
    ]
    if spec.i is not None:
        parts.append(f"--i {spec.i}")
    if spec.j is not None:
        parts.append(f"--j {spec.j}")
    rendered = ",".join(f"{v}={format_scalar(point[v])}" for v in entry.variables)
    parts.append(f"--point {rendered}")
    return " ".join(parts)


def _counterexample(
    spec: IdentitySpec, entry: _Entry, point: dict[str, Scalar], pairs: PairList
) -> Optional[dict[str, object]]:
    """The first unequal pair at point, with enough context to re-run it."""
    for idx, (left, right) in enumerate(pairs):
        if left != right:
            return {
                "point": {v: format_scalar(point[v]) for v in entry.variables},
                "left": format_scalar(left),
                "right": format_scalar(right),
                "pair": idx,
                "rerun": _rerun_command(spec, entry, point),
            }
    return None


_GRID_SCAN_MARGIN = 512


def _select_axes(
    spec: IdentitySpec, entry: _Entry
) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
    """Choose degree + 1 pole-free integer values per variable.

    Variables are fixed left to right.  A pole whose variables are all
    fixed once the current one is blocks the values c - (sum of the others)
    for every combination of already-chosen values, so the final product
    grid avoids every pole.
    """
    degree = entry.degree(spec)
    poles = entry.poles(spec.n, spec.z)
    axes: dict[str, list[int]] = {}
    skipped: dict[str, list[int]] = {}
    for var in entry.variables:
        need = degree + 1
        if spec.grid_range is not None:
            lo, hi = spec.grid_range
            candidates = range(lo, hi + 1)
        else:
            lo = entry.default_lo(var, spec)
            candidates = range(lo, lo + need + _GRID_SCAN_MARGIN)
        blocked = {
            pole.c - sum(combo)
            for pole in poles
            if var in pole.vars and set(pole.vars) <= axes.keys() | {var}
            for combo in itertools.product(*(axes[o] for o in pole.vars if o != var))
        }
        chosen: list[int] = []
        skips: list[int] = []
        for cand in candidates:
            if cand in blocked:
                skips.append(cand)
                continue
            chosen.append(cand)
            if len(chosen) == need:
                break
        if len(chosen) < need:
            raise GridExhaustedError(
                f"found only {len(chosen)} of {need} pole-free values for {var} "
                f"in {candidates[0]}..{candidates[-1]}; enlarge --grid-range"
            )
        axes[var] = chosen
        if skips:
            skipped[var] = skips
    return axes, skipped


def verify_identity_on_grid(spec: IdentitySpec) -> EvalReport:
    """Evaluate both sides on a pole-free product grid sized by the degree
    bound; exact equality everywhere certifies the identity."""
    entry = _lookup(spec.identity)
    spec = _validate(spec, entry)
    degree = entry.degree(spec)
    axes, skipped = _select_axes(spec, entry)
    total_points = math.prod(len(axes[v]) for v in entry.variables)
    report = EvalReport(
        check=spec.identity,
        params=_params_dict(spec, entry),
        grid={
            "axes": {v: axes[v] for v in entry.variables},
            "degree_bounds": {v: degree for v in entry.variables},
            "skipped": skipped,
            "points": total_points,
        },
    )
    variables, evaluate = entry.variables, entry.evaluate
    with _memoized():
        for combo in itertools.product(*(axes[v] for v in variables)):
            point = dict(zip(variables, combo))
            pairs = evaluate(point, spec)
            for left, right in pairs:
                if left != right:  # only a mismatch builds the counterexample
                    report.verdict = VERDICT_MISMATCH
                    report.counterexample = _counterexample(spec, entry, point, pairs)
                    return report
    report.verdict = VERDICT_EQUAL
    return report


def verify_identity_at_point(
    spec: IdentitySpec, point: dict[str, Scalar]
) -> EvalReport:
    """Evaluate both sides at one explicit point."""
    entry = _lookup(spec.identity)
    spec = _validate(spec, entry)
    missing = [v for v in entry.variables if v not in point]
    if missing:
        raise PreconditionError(
            f"{entry.name} needs values for {', '.join(entry.variables)}; "
            f"missing {', '.join(missing)}"
        )
    extra = sorted(set(point) - set(entry.variables))
    if extra:
        raise PreconditionError(
            f"{entry.name} takes only {', '.join(entry.variables)}; "
            f"got extra {', '.join(extra)}"
        )
    values = {v: rational(point[v], v) for v in entry.variables}
    _check_poles(entry.poles(spec.n, spec.z), values)
    params = _params_dict(spec, entry)
    params["point"] = {v: format_scalar(values[v]) for v in entry.variables}
    pairs = entry.evaluate(values, spec)
    report = EvalReport(check=spec.identity, params=params)
    report.left = format_scalar(pairs[0][0])
    report.right = format_scalar(pairs[0][1])
    if len(pairs) > 1:
        report.details = {
            "pairs": [[format_scalar(l), format_scalar(r)] for l, r in pairs]
        }
    report.counterexample = _counterexample(spec, entry, values, pairs)
    if report.counterexample is None:
        report.verdict = VERDICT_EQUAL
    else:
        report.verdict = VERDICT_MISMATCH
        report.left = report.counterexample["left"]
        report.right = report.counterexample["right"]
    return report
