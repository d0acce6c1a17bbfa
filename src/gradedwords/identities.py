"""Exact paired-side evaluators for the convolution identities, and a
degree-bounded grid checker that promotes pointwise equality to identity.

Every evaluator returns the exact (left, right) pair at one point; for a
true identity the two values agree at every admissible point.  Equality as
polynomials follows from equality on a large enough product grid: if both
sides have degree at most D in each free variable, agreement at D + 1
distinct values per variable forces the difference to vanish identically.
Every grid takes D = |n| (|k| for absorption).  C(L, k) has degree |k| in
each variable of a linear form L, so a convolution term C(L, k) C(L', n - k)
has degree at most |n|: that bounds gould, jensen, the Mohanty forms,
gmh-special, kmx, kmpink, pkroth and mh-expansion, eps included.  A weight
x/(x - k.z) cancels the factor x - k.z of C(x - k.z, k), or is 1 at k = 0:
that bounds the Rothe and Raney-Mohanty forms and rm2-decomposition, whose
right side is its left term by term.  The Abel terms have degree k in x and
n - k in y, and absorption's sides degree |k| - 1 off its pole.  A tier-1
test checks the rule by finite differences along generic lines.

The rational forms (the Abel identities, the x/(x - k.z)-weighted sums and
absorption) divide by finitely many linear forms.  Each is declared once, as
a _Pole: the sum of some variables minus an integer, which must not vanish.
verify_identity_at_point refuses a point on a declared pole with PoleError,
and the grid chooser skips such points.  The grid argument certifies a
rational identity only if every declared pole is removable, so that each
side agrees off the poles with a polynomial within its degree bound.  The catalog
asserts that per entry; the program does not yet check it.

An identity is declared once, by the @_identity decorator on its body,
which holds only the mathematics.  The decorator names the catalog entry
and its poles.  A body takes its fixed parameters first, by name (the
multi-index slot n, or k for absorption, z, i, j and table, each only where
it reads it), then its free variables, and returns its list of pairs; the
entry reads its variables, slot and letter indices from that signature.
The decorator returns the body unchanged, so the catalog entry is the one
way into it: its bind, called once per grid or point with a spec that
_validate checked and the terms table below, binds the body to the fixed
values with functools.partial, and the result is called with each point's
values, a tuple in the entry's variable order.
verify_identity_on_grid builds a pole-free integer product grid sized by
the degree bound, each default axis starting at 0 or past the poles in its
variable alone, and checks exact equality at every point.

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

A body reads C(x, k) from rows, in the terms table of (n, z) it is handed
as its fixed parameter table: row[x] is C(x, k), and the table carries,
for each summand k, k.z and the rows of C(., k), C(., n - k) and each
C(., k - e_i), besides constants such as |k|, next to the row of C(., n).
A grid reads the same C(x, k) many times (C(x - k.z, k) recurs for every y
and eps), and so do other grids and points, so the rows are the process's:
one dict per k, kept while a cached table holds it, that fills from arith's
multinomial on a miss.  Grids and point checks both read them.  Together
the rows keep at most _ROWS.most values; the miss that finds that many
counted empties every row in place, and a forked child's values die with it.

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

import functools
import inspect
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

from . import arith
from .arith import (
    MultiIndex,
    Scalar,
    _Cap,
    box,
    dot,
    format_scalar,
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

__all__ = ["IdentitySpec", "verify_identity_on_grid", "verify_identity_at_point"]


# ---------------------------------------------------------------------------
# declared poles: one list per rational form, shared by the point check and
# the grid chooser
# ---------------------------------------------------------------------------


class _Pole(NamedTuple):
    """The denominator factor sum(vars) - c, which must not vanish."""

    vars: tuple[str, ...]
    c: int

    @property
    def label(self) -> str:
        head = " + ".join(self.vars)
        if self.c == 0:
            return head
        return f"{head} {'-' if self.c > 0 else '+'} {abs(self.c)}"


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
    kzs = [0]
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


PairList = list[tuple[Scalar, Scalar]]
_Evaluator = Callable[..., PairList]


@dataclass(frozen=True)
class _Entry:
    name: str
    variables: tuple[str, ...]
    param_name: str  # "n" or "k"
    needs: frozenset[str]  # subset of {"i", "j"}
    classical: bool  # restricted to m = 1
    poles: Callable[[MultiIndex, MultiIndex], list[_Pole]]
    # the body over a spec that passed _validate and the terms table of its
    # (n, z): called with a pole-free point's values, in variables order, it
    # returns the pairs there
    bind: Callable[[IdentitySpec, _Table], Callable[..., PairList]]


CATALOG: dict[str, _Entry] = {}

# the names a body's fixed parameters take, ahead of its free variables
_FIXED = ("n", "k", "z", "i", "j", "table")


def _identity(
    name: str,
    *,
    poles: Callable[[MultiIndex, MultiIndex], list[_Pole]] = _no_poles,
    classical: bool = False,
) -> Callable[[_Evaluator], _Evaluator]:
    """Enter the decorated body in CATALOG as `name`, and return the body.

    Each side has degree at most |n| in each free variable.  The body takes
    its fixed parameters first, by name: the multi-index slot n (k for
    absorption), z, i, j and table, each only where it reads it.  The rest
    are its free variables; a fixed name after a free variable is refused
    here, with TypeError.  The body returns its list of pairs.  The entry's
    bind binds the body once per grid or point, with functools.partial, to
    the spec's fixed values (n and z as scalars for a classical body) and
    the terms table; the result takes the free variables positionally.
    """

    def declare(body: _Evaluator) -> _Evaluator:
        params = list(inspect.signature(body).parameters)
        count = next((c for c, p in enumerate(params) if p not in _FIXED), len(params))
        fixed, variables = params[:count], tuple(params[count:])
        late = [p for p in variables if p in _FIXED]
        if late:
            raise TypeError(f"identity {name}: fixed parameter {late[0]} follows a free variable")

        def bind(spec: IdentitySpec, table: _Table) -> Callable[..., PairList]:
            given = {"n": spec.n, "k": spec.n, "z": spec.z, "i": spec.i, "j": spec.j, "table": table}
            if classical:
                given.update(n=spec.n[0], z=spec.z[0])
            return functools.partial(body, *(given[p] for p in fixed))

        slot = "k" if "k" in fixed else "n"
        needs = frozenset(fixed) & {"i", "j"}
        CATALOG[name] = _Entry(name, variables, slot, needs, classical, poles, bind)
        return body

    return declare


# ---------------------------------------------------------------------------
# shared arithmetic of the bodies: the rows C(., k) of the process, carried
# by one terms table per (n, z)
# ---------------------------------------------------------------------------


# The most values of C(x, k) all rows keep, those of cached tables included:
# an identity-grids benchmark pass (seeds 1-3, 5, 77) reads 834-881, under
# 0.1 MB; a full cap of values up to 76 bits, keys included, takes 1.7 MB.
_ROWS = _Cap(1 << 14)


class _Table(NamedTuple):
    """The terms table of (n, z).  Its summands k, 0 <= k <= n, each come
    as the tuple (k.z, C(., k), C(., n - k), (C(., k - e_i) for i = 1..m),
    |k|, z^k C(|k|, k)), holding rows where C(., .) is written."""

    nz: int  # n.z
    cn: dict  # C(., n)
    terms: tuple[tuple, ...]  # the summands, lexicographic in k


def _terms(key: tuple[MultiIndex, MultiIndex]) -> _Table:
    """The terms table of key = (n, z), for the memo _table, so that it is
    built once per (n, z) rather than at every point.  Its row of k is the
    process's, in _ROWS: a dict from x to C(x, k) that fills on a miss from
    the multinomial arith holds then."""
    n, z = key
    row = lambda k: _ROWS.memo(k, lambda x: arith.multinomial(x, k))  # noqa: E731
    units = [unit(len(n), i) for i in range(1, len(n) + 1)]
    terms = []
    for k in box(n):
        size = norm(k)
        weight = math.prod(zi**ki for zi, ki in zip(z, k)) * arith.multinomial(size, k)
        below = tuple(row(vec_sub(k, e)) for e in units)
        terms.append((dot(k, z), row(k), row(vec_sub(n, k)), below, size, weight))
    return _Table(dot(n, z), row(n), tuple(terms))


# (n, z) -> its terms table: a suite pass over any benchmark manifest builds
# at most 66
_table = _Cap(1024).memo(0, _terms)


# ---------------------------------------------------------------------------
# classical single-variable forms (m = 1)
# ---------------------------------------------------------------------------


@_identity("abel-1", poles=_poles_abel_1, classical=True)
def _abel_1(n: int, z: int, x: Scalar, y: Scalar) -> PairList:
    """sum_k C(n,k) x(x-kz)^(k-1) (y+kz)^(n-k)  vs  (x+y)^n."""
    lhs = 0
    for k in range(n + 1):
        head = x * (x - k * z) ** (k - 1) if k else 1  # x * x^(-1), off the pole x
        lhs += math.comb(n, k) * head * (y + k * z) ** (n - k)
    return [(lhs, (x + y) ** n)]


@_identity("abel-2", poles=_poles_abel_2, classical=True)
def _abel_2(n: int, z: int, x: Scalar, y: Scalar) -> PairList:
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
    return [(lhs, rhs)]


@_identity("rothe-1", poles=_poles_x, classical=True)
def _rothe_1(table: _Table, x: Scalar, y: Scalar) -> PairList:
    """sum_k (x/(x-kz)) C(x-kz,k) C(y+kz,n-k)  vs  C(x+y,n)."""
    lhs = qsum((x * ck[x - kz] * cr[y + kz], x - kz) for kz, ck, cr, _, _, _ in table.terms)
    return [(lhs, table.cn[x + y])]


@_identity("rothe-2", poles=_poles_xy, classical=True)
def _rothe_2(table: _Table, x: Scalar, y: Scalar) -> PairList:
    """sum_k xy/((x-kz)(y-(n-k)z)) C(x-kz,k) C(y-(n-k)z,n-k)
    vs  (x+y)/(x+y-nz) C(x+y-nz,n)."""
    y_nz = y - table.nz  # y - (n-k)z is y_nz + kz
    lhs = qsum(
        (x * y * ck[x - kz] * cr[y_nz + kz], (x - kz) * (y_nz + kz))
        for kz, ck, cr, _, _, _ in table.terms
    )
    rhs = qsum([((x + y) * table.cn[x + y_nz], x + y_nz)])
    return [(lhs, rhs)]


@_identity("gould", classical=True)
def _gould(table: _Table, x: Scalar, y: Scalar, eps: Scalar) -> PairList:
    """sum_k C(x-kz,k) C(y+kz,n-k)  vs  sum_k C(x+e-kz,k) C(y-e+kz,n-k)."""
    lhs = 0
    rhs = 0
    for kz, ck, cr, _, _, _ in table.terms:
        lhs += ck[x - kz] * cr[y + kz]
        rhs += ck[x + eps - kz] * cr[y - eps + kz]
    return [(lhs, rhs)]


@_identity("jensen", classical=True)
def _jensen(z: int, table: _Table, x: Scalar, y: Scalar) -> PairList:
    """sum_k C(x+kz,k) C(y-kz,n-k)  vs  sum_k C(x+y-k,n-k) z^k."""
    lhs = 0
    rhs = 0
    for kz, ck, cr, _, k, _ in table.terms:
        lhs += ck[x + kz] * cr[y - kz]
        rhs += cr[x + y - k] * z**k
    return [(lhs, rhs)]


# ---------------------------------------------------------------------------
# multi-index forms (any m >= 1)
# ---------------------------------------------------------------------------


@_identity("raney-mohanty-1", poles=_poles_x)
def _raney_mohanty_1(table: _Table, x: Scalar, y: Scalar) -> PairList:
    """sum_{0<=k<=n} (x/(x-k.z)) C(x-k.z,k) C(y+k.z,n-k)  vs  C(x+y,n)."""
    lhs = qsum((x * ck[x - kz] * cr[y + kz], x - kz) for kz, ck, cr, _, _, _ in table.terms)
    return [(lhs, table.cn[x + y])]


@_identity("raney-mohanty-2", poles=_poles_xy)
def _raney_mohanty_2(table: _Table, x: Scalar, y: Scalar) -> PairList:
    """sum_k xy/((x-k.z)(y-(n-k).z)) C(x-k.z,k) C(y-(n-k).z,n-k)
    vs  (x+y)/(x+y-n.z) C(x+y-n.z,n)."""
    y_nz = y - table.nz  # y - (n-k).z is y_nz + k.z
    lhs = qsum(
        (x * y * ck[x - kz] * cr[y_nz + kz], (x - kz) * (y_nz + kz))
        for kz, ck, cr, _, _, _ in table.terms
    )
    rhs = qsum([((x + y) * table.cn[x + y_nz], x + y_nz)])
    return [(lhs, rhs)]


@_identity("mohanty-handa")
def _mohanty_handa(table: _Table, x: Scalar, y: Scalar) -> PairList:
    """sum_k C(x+k.z,k) C(y-k.z,n-k)  vs  sum_k C(x+y-|k|,n-k) C(|k|,k) z^k."""
    lhs = 0
    rhs = 0
    for kz, ck, cr, _, size, weight in table.terms:
        lhs += ck[x + kz] * cr[y - kz]
        rhs += cr[x + y - size] * weight
    return [(lhs, rhs)]


@_identity("gould-mohanty")
def _gould_mohanty(table: _Table, x: Scalar, y: Scalar, eps: Scalar) -> PairList:
    """sum_k C(x-k.z,k) C(y+k.z,n-k)  vs  sum_k C(x+e-k.z,k) C(y-e+k.z,n-k)."""
    lhs = 0
    rhs = 0
    for kz, ck, cr, _, _, _ in table.terms:
        lhs += ck[x - kz] * cr[y + kz]
        rhs += ck[x + eps - kz] * cr[y - eps + kz]
    return [(lhs, rhs)]


@_identity("gmh-special")
def _gmh_special(table: _Table, p: Scalar, q: Scalar) -> PairList:
    """Gould-Mohanty at eps = 1:
    sum_k C(p-k.z,k) C(q+k.z,n-k)  vs  sum_k C(p+1-k.z,k) C(q-1+k.z,n-k)."""
    return _gould_mohanty(table, p, q, 1)


@_identity("kmx")
def _kmx(z: MultiIndex, table: _Table, p: Scalar, q: Scalar) -> PairList:
    """sum_k [ C(p-k.z,k) C(q+k.z,n-k)
              + sum_i sum_{j=1}^{z_i} C(p-k.z+j-1,k-e_i) C(q+k.z-j,n-k) ]
    vs  C(p+q,n)."""
    lhs = 0
    for kz, ck, cr, below, _, _ in table.terms:
        term = ck[p - kz] * cr[q + kz]
        for z_i, ci in zip(z, below):
            for j in range(1, z_i + 1):
                term += ci[p - kz + j - 1] * cr[q + kz - j]
        lhs += term
    return [(lhs, table.cn[p + q])]


@_identity("kmpink")
def _kmpink(i: int, j: int, table: _Table, p: Scalar, q: Scalar) -> PairList:
    """sum_k C(p-k.z+j-1,k-e_i) C(q+k.z-j,n-k)
    vs  sum_k C(p-k.z-1,k-e_i) C(q+k.z,n-k),  for 1 <= j <= z_i."""
    lhs = 0
    rhs = 0
    for kz, _, cr, below, _, _ in table.terms:
        ci = below[i - 1]
        lhs += ci[p - kz + j - 1] * cr[q + kz - j]
        rhs += ci[p - kz - 1] * cr[q + kz]
    return [(lhs, rhs)]


@_identity("pkroth")
def _pkroth(z: MultiIndex, table: _Table, p: Scalar, q: Scalar) -> PairList:
    """sum_k [ C(p-k.z,k) + sum_i z_i C(p-k.z-1,k-e_i) ] C(q+k.z,n-k)
    vs  C(p+q,n)."""
    lhs = 0
    for kz, ck, cr, below, _, _ in table.terms:
        head = ck[p - kz]
        for z_i, ci in zip(z, below):
            head += z_i * ci[p - kz - 1]
        lhs += head * cr[q + kz]
    return [(lhs, table.cn[p + q])]


@_identity("absorption", poles=_poles_absorption)
def _absorption(k: MultiIndex, i: int, table: _Table, p: Scalar) -> PairList:
    """C(p-k.z-1, k-e_i)  vs  (k_i/(p-k.z)) C(p-k.z, k),  p-k.z != 0."""
    kz, ck, _, below, _, _ = table.terms[-1]  # the last summand of the box is k
    lhs = below[i - 1][p - kz - 1]
    rhs = qsum([(k[i - 1] * ck[p - kz], p - kz)])
    return [(lhs, rhs)]


@_identity("rm2-decomposition", poles=_poles_xy)
def _rm2_decomposition(table: _Table, x: Scalar, y: Scalar) -> PairList:
    """The two-sum rewriting of the second Raney-Mohanty form's left side:

    sum_k xy/((x-k.z)(y-(n-k).z)) C C  vs  (S1 + S2)/(x+y-n.z)  where
    S1 = sum_k (xy/(x-k.z)) C C  and  S2 = sum_k (xy/(y-(n-k).z)) C C.
    """
    y_nz = y - table.nz  # y - (n-k).z is y_nz + k.z
    w = x + y_nz
    rows = [
        (x * y * ck[x - kz] * cr[y_nz + kz], x - kz, y_nz + kz)
        for kz, ck, cr, _, _, _ in table.terms
    ]
    lhs = qsum((prod, a * b) for prod, a, b in rows)
    rhs = qsum((prod, d * w) for prod, a, b in rows for d in (a, b))  # (S1 + S2) / w
    return [(lhs, rhs)]


@_identity("mh-expansion")
def _mh_expansion(z: MultiIndex, table: _Table, x: Scalar, y: Scalar) -> PairList:
    """sum_k C(x+k.z,k) C(y-k.z,n-k)
    vs  C(x+y,n) + sum_i sum_k z_i C(x-1+k.z,k-e_i) C(y-k.z,n-k)."""
    lhs = 0
    rhs = table.cn[x + y]
    for kz, ck, cr, below, _, _ in table.terms:
        tail = cr[y - kz]
        lhs += ck[x + kz] * tail
        for z_i, ci in zip(z, below):
            rhs += z_i * ci[x - 1 + kz] * tail
    return [(lhs, rhs)]


def _coherence(name: str, multi: str, single: str) -> None:
    """Declare `name`: the multi-index entry `multi` at m = 1 must agree
    componentwise with its classical counterpart `single`.  A tier-1 test
    checks each classical body against textbook binomials."""
    # rothe-1, rothe-2 and gould read the same table through the same
    # expressions as raney-mohanty-1, raney-mohanty-2 and gould-mohanty, and
    # jensen differs from mohanty-handa only by z**k for the table's weight,
    # so these grids fail only if one copy drifts or _terms' weight is wrong
    # at m = 1.  The classical bodies stay separate all the same, because
    # criterion 7 takes them as its reference; an independent classical
    # evaluation is an open item
    multi_bind, single_bind = CATALOG[multi].bind, CATALOG[single].bind

    def bind(spec: IdentitySpec, table: _Table) -> Callable[..., PairList]:
        multi_pairs, single_pairs = multi_bind(spec, table), single_bind(spec, table)

        def pairs(*values: Scalar) -> PairList:
            [(left, right)] = multi_pairs(*values)
            [(single_left, single_right)] = single_pairs(*values)
            return [(left, single_left), (right, single_right), (left, right)]

        return pairs

    CATALOG[name] = replace(CATALOG[multi], name=name, classical=True, bind=bind)


_coherence("gould-mohanty-vs-gould", "gould-mohanty", "gould")
_coherence("raney-mohanty-1-vs-rothe-1", "raney-mohanty-1", "rothe-1")
_coherence("mohanty-handa-vs-jensen", "mohanty-handa", "jensen")


# ---------------------------------------------------------------------------
# grid and point verification
# ---------------------------------------------------------------------------


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
    if len(n) != len(z):
        raise DimensionMismatchError(f"n has dimension {len(n)} but z has dimension {len(z)}")
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
    i, j = spec.i, spec.j
    if "i" in entry.needs and not 1 <= natural(i, "i") <= len(n):
        raise PreconditionError(f"letter index i = {i} out of range 1..{len(n)}")
    if "j" in entry.needs and not 1 <= natural(j, "j") <= z[i - 1]:
        raise PreconditionError(f"requires 1 <= j <= z_i, got j = {j} with z_{i} = {z[i - 1]}")
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
    params = _params_dict(spec, entry)
    parts = ["gradedwords verify", params.pop("identity")]
    for flag, value in params.items():
        parts.append(f"--{flag} {','.join(map(str, value)) if isinstance(value, list) else value}")
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


def _select_axes(
    spec: IdentitySpec, entry: _Entry
) -> tuple[dict[str, list[int]], dict[str, list[int]], int]:
    """Choose |n| + 1 pole-free integer values per variable; return the
    axes, the values skipped on each, and the degree bound |n|.

    Variables are fixed left to right.  A pole whose variables are all
    fixed once the current one is blocks the values c - (sum of the others)
    for every combination of already-chosen values, so the final product
    grid avoids every pole.  A default axis starts at 0, raised past every
    pole in its variable alone, so none of those is ever skipped.
    """
    degree = norm(spec.n)
    need = degree + 1
    poles = entry.poles(spec.n, spec.z)
    axes: dict[str, list[int]] = {}
    skipped: dict[str, list[int]] = {}
    for var in entry.variables:
        lo = 0
        blocked: set[Scalar] = set()
        for pole in poles:
            if var in pole.vars and set(pole.vars) <= axes.keys() | {var}:
                others = [axes[o] for o in pole.vars if o != var]
                blocked.update(pole.c - sum(combo) for combo in itertools.product(*others))
                if not others:
                    lo = max(lo, pole.c + 1)
        if spec.grid_range is not None:
            lo, hi = spec.grid_range
            candidates = range(lo, hi + 1)
        else:  # at most len(blocked) of these are blocked, so need are left
            candidates = range(lo, lo + need + len(blocked))
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
    return axes, skipped, degree


def verify_identity_on_grid(spec: IdentitySpec) -> EvalReport:
    """Evaluate both sides on a pole-free product grid sized by the degree
    bound; exact equality everywhere certifies the identity."""
    entry = _lookup(spec.identity)
    spec = _validate(spec, entry)
    axes, skipped, degree = _select_axes(spec, entry)  # axes in variables order
    report = EvalReport(
        check=spec.identity,
        params=_params_dict(spec, entry),
        grid={
            "axes": axes,
            "degree_bounds": dict.fromkeys(entry.variables, degree),
            "skipped": skipped,
            "points": math.prod(map(len, axes.values())),
        },
    )
    pairs_at = entry.bind(spec, _table[spec.n, spec.z])
    for values in itertools.product(*axes.values()):
        pairs = pairs_at(*values)
        for left, right in pairs:
            if left != right:  # only a mismatch builds the point dict
                point = dict(zip(entry.variables, values))
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
    if spec.grid_range is not None:
        raise PreconditionError("--point and --grid-range exclude each other")
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
    pairs = entry.bind(spec, _table[spec.n, spec.z])(*values.values())
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
