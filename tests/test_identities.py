"""The convolution-identity catalog: evaluators, pole handling, grid
certification, and the counterexample machinery."""

from __future__ import annotations

import dataclasses
import gc
import inspect
import itertools
import math
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedwords import (
    CATALOG,
    GridExhaustedError,
    IdentitySpec,
    PoleError,
    PreconditionError,
    identity_variables,
    multinomial,
    verify_identity_at_point,
    verify_identity_on_grid,
)
from gradedwords import arith, identities
from gradedwords.cli import EXIT_CONFIG, main
from gradedwords.identities import (
    _poles_abel_2,
    _poles_x,
    _poles_xy,
    check_absorption,
    eval_abel_1,
    eval_abel_2,
    eval_gmh_special,
    eval_gould,
    eval_gould_mohanty,
    eval_jensen,
    eval_kmpink,
    eval_kmx,
    eval_raney_mohanty_2,
    eval_rothe_1,
    eval_rothe_2,
)

ALL_NAMES = [
    "abel-1", "abel-2", "rothe-1", "rothe-2", "gould", "jensen",
    "raney-mohanty-1", "raney-mohanty-2", "mohanty-handa", "gould-mohanty",
    "gmh-special", "kmx", "kmpink", "pkroth", "absorption",
    "rm2-decomposition", "mh-expansion",
    "gould-mohanty-vs-gould", "raney-mohanty-1-vs-rothe-1",
    "mohanty-handa-vs-jensen",
]


def test_catalog_is_complete():
    assert list(CATALOG) == ALL_NAMES


# every catalog entry as its evaluator declares it: free variables, multi-index
# slot, letter indices taken, m = 1 only, degree bound, grid start, poles, and
# the public evaluator (None for the coherence entries, which compose two)
DECLARED = {
    "abel-1": (("x", "y"), "n", (), True, "_deg_abel", "_lo_xy", "_poles_abel_1", "eval_abel_1"),
    "abel-2": (("x", "y"), "n", (), True, "_deg_abel", "_lo_xy", "_poles_abel_2", "eval_abel_2"),
    "rothe-1": (("x", "y"), "n", (), True, "_deg_conv", "_lo_xy", "_poles_x", "eval_rothe_1"),
    "rothe-2": (("x", "y"), "n", (), True, "_deg_conv", "_lo_xy", "_poles_xy", "eval_rothe_2"),
    "gould": (("x", "y", "eps"), "n", (), True, "_deg_conv", "_lo_xy", "_no_poles", "eval_gould"),
    "jensen": (("x", "y"), "n", (), True, "_deg_conv", "_lo_xy", "_no_poles", "eval_jensen"),
    "raney-mohanty-1": (
        ("x", "y"), "n", (), False, "_deg_conv", "_lo_xy", "_poles_x", "eval_raney_mohanty_1"
    ),
    "raney-mohanty-2": (
        ("x", "y"), "n", (), False, "_deg_conv", "_lo_xy", "_poles_xy", "eval_raney_mohanty_2"
    ),
    "mohanty-handa": (
        ("x", "y"), "n", (), False, "_deg_conv", "_lo_xy", "_no_poles", "eval_mohanty_handa"
    ),
    "gould-mohanty": (
        ("x", "y", "eps"), "n", (), False, "_deg_conv", "_lo_xy", "_no_poles",
        "eval_gould_mohanty",
    ),
    "gmh-special": (
        ("p", "q"), "n", (), False, "_deg_conv", "_lo_xy", "_no_poles", "eval_gmh_special"
    ),
    "kmx": (("p", "q"), "n", (), False, "_deg_conv", "_lo_xy", "_no_poles", "eval_kmx"),
    "kmpink": (
        ("p", "q"), "n", ("i", "j"), False, "_deg_conv", "_lo_xy", "_no_poles", "eval_kmpink"
    ),
    "pkroth": (("p", "q"), "n", (), False, "_deg_conv", "_lo_xy", "_no_poles", "eval_pkroth"),
    "absorption": (
        ("p",), "k", ("i",), False, "_deg_absorption", "_lo_absorption", "_poles_absorption",
        "check_absorption",
    ),
    "rm2-decomposition": (
        ("x", "y"), "n", (), False, "_deg_conv", "_lo_xy", "_poles_xy",
        "check_rm2_decomposition",
    ),
    "mh-expansion": (
        ("x", "y"), "n", (), False, "_deg_conv", "_lo_xy", "_no_poles", "check_mh_expansion"
    ),
    "gould-mohanty-vs-gould": (
        ("x", "y", "eps"), "n", (), True, "_deg_conv", "_lo_xy", "_no_poles", None
    ),
    "raney-mohanty-1-vs-rothe-1": (
        ("x", "y"), "n", (), True, "_deg_conv", "_lo_xy", "_poles_x", None
    ),
    "mohanty-handa-vs-jensen": (
        ("x", "y"), "n", (), True, "_deg_conv", "_lo_xy", "_no_poles", None
    ),
}

# signature and docstring of every public evaluator
PUBLIC_EVALUATORS = {
    "eval_abel_1": (
        "(x: 'Scalar', y: 'Scalar', z: 'Scalar', n: 'int') -> 'tuple[Fraction, Fraction]'",
        "sum_k C(n,k) x(x-kz)^(k-1) (y+kz)^(n-k)  vs  (x+y)^n.",
    ),
    "eval_abel_2": (
        "(x: 'Scalar', y: 'Scalar', z: 'Scalar', n: 'int') -> 'tuple[Fraction, Fraction]'",
        (
            "sum_k C(n,k) x(y+nz)(x-kz)^(k-1)(y+kz)^(n-k-1)  vs  (x+y+nz)(x+y)^(n-1).\n"
            "\n"
            "    This is the companion of Abel's identity, normalized so the right side\n"
            "    is (x+y+nz)(x+y)^(n-1); under y -> y - nz it is the classical symmetric\n"
            "    form sum_k C(n,k) xy(x-kz)^(k-1)(y-(n-k)z)^(n-k-1) = (x+y)(x+y-nz)^(n-1).\n"
            "    "
        ),
    ),
    "eval_rothe_1": (
        "(x: 'Scalar', y: 'Scalar', z: 'Scalar', n: 'int') -> 'tuple[Fraction, Fraction]'",
        "sum_k (x/(x-kz)) C(x-kz,k) C(y+kz,n-k)  vs  C(x+y,n).",
    ),
    "eval_rothe_2": (
        "(x: 'Scalar', y: 'Scalar', z: 'Scalar', n: 'int') -> 'tuple[Fraction, Fraction]'",
        (
            "sum_k xy/((x-kz)(y-(n-k)z)) C(x-kz,k) C(y-(n-k)z,n-k)\n"
            "    vs  (x+y)/(x+y-nz) C(x+y-nz,n)."
        ),
    ),
    "eval_gould": (
        (
            "(x: 'Scalar', y: 'Scalar', z: 'Scalar', eps: 'Scalar', n: 'int')"
            " -> 'tuple[Fraction, Fraction]'"
        ),
        "sum_k C(x-kz,k) C(y+kz,n-k)  vs  sum_k C(x+e-kz,k) C(y-e+kz,n-k).",
    ),
    "eval_jensen": (
        "(x: 'Scalar', y: 'Scalar', z: 'Scalar', n: 'int') -> 'tuple[Fraction, Fraction]'",
        "sum_k C(x+kz,k) C(y-kz,n-k)  vs  sum_k C(x+y-k,n-k) z^k.",
    ),
    "eval_raney_mohanty_1": (
        (
            "(x: 'Scalar', y: 'Scalar', n: 'MultiIndex', z: 'MultiIndex')"
            " -> 'tuple[Fraction, Fraction]'"
        ),
        "sum_{0<=k<=n} (x/(x-k.z)) C(x-k.z,k) C(y+k.z,n-k)  vs  C(x+y,n).",
    ),
    "eval_raney_mohanty_2": (
        (
            "(x: 'Scalar', y: 'Scalar', n: 'MultiIndex', z: 'MultiIndex')"
            " -> 'tuple[Fraction, Fraction]'"
        ),
        (
            "sum_k xy/((x-k.z)(y-(n-k).z)) C(x-k.z,k) C(y-(n-k).z,n-k)\n"
            "    vs  (x+y)/(x+y-n.z) C(x+y-n.z,n)."
        ),
    ),
    "eval_mohanty_handa": (
        (
            "(x: 'Scalar', y: 'Scalar', n: 'MultiIndex', z: 'MultiIndex')"
            " -> 'tuple[Fraction, Fraction]'"
        ),
        "sum_k C(x+k.z,k) C(y-k.z,n-k)  vs  sum_k C(x+y-|k|,n-k) C(|k|,k) z^k.",
    ),
    "eval_gould_mohanty": (
        (
            "(x: 'Scalar', y: 'Scalar', eps: 'Scalar', n: 'MultiIndex', z: 'MultiIndex')"
            " -> 'tuple[Fraction, Fraction]'"
        ),
        "sum_k C(x-k.z,k) C(y+k.z,n-k)  vs  sum_k C(x+e-k.z,k) C(y-e+k.z,n-k).",
    ),
    "eval_gmh_special": (
        (
            "(p: 'Scalar', q: 'Scalar', n: 'MultiIndex', z: 'MultiIndex')"
            " -> 'tuple[Fraction, Fraction]'"
        ),
        (
            "Gould-Mohanty at eps = 1:\n"
            "    sum_k C(p-k.z,k) C(q+k.z,n-k)  vs  sum_k C(p+1-k.z,k) C(q-1+k.z,n-k)."
        ),
    ),
    "eval_kmx": (
        (
            "(p: 'Scalar', q: 'Scalar', n: 'MultiIndex', z: 'MultiIndex')"
            " -> 'tuple[Fraction, Fraction]'"
        ),
        (
            "sum_k [ C(p-k.z,k) C(q+k.z,n-k)\n"
            "              + sum_i sum_{j=1}^{z_i} C(p-k.z+j-1,k-e_i) C(q+k.z-j,n-k) ]\n"
            "    vs  C(p+q,n)."
        ),
    ),
    "eval_kmpink": (
        (
            "(p: 'Scalar', q: 'Scalar', n: 'MultiIndex', z: 'MultiIndex', i: 'int', j: 'int')"
            " -> 'tuple[Fraction, Fraction]'"
        ),
        (
            "sum_k C(p-k.z+j-1,k-e_i) C(q+k.z-j,n-k)\n"
            "    vs  sum_k C(p-k.z-1,k-e_i) C(q+k.z,n-k),  for 1 <= j <= z_i."
        ),
    ),
    "eval_pkroth": (
        (
            "(p: 'Scalar', q: 'Scalar', n: 'MultiIndex', z: 'MultiIndex')"
            " -> 'tuple[Fraction, Fraction]'"
        ),
        (
            "sum_k [ C(p-k.z,k) + sum_i z_i C(p-k.z-1,k-e_i) ] C(q+k.z,n-k)\n"
            "    vs  C(p+q,n)."
        ),
    ),
    "check_absorption": (
        "(p: 'Scalar', k: 'MultiIndex', z: 'MultiIndex', i: 'int') -> 'tuple[Fraction, Fraction]'",
        "C(p-k.z-1, k-e_i)  vs  (k_i/(p-k.z)) C(p-k.z, k),  p-k.z != 0.",
    ),
    "check_rm2_decomposition": (
        (
            "(x: 'Scalar', y: 'Scalar', n: 'MultiIndex', z: 'MultiIndex')"
            " -> 'tuple[Fraction, Fraction]'"
        ),
        (
            "The two-sum rewriting of the second Raney-Mohanty form's left side:\n"
            "\n"
            "    sum_k xy/((x-k.z)(y-(n-k).z)) C C  vs  (S1 + S2)/(x+y-n.z)  where\n"
            "    S1 = sum_k (xy/(x-k.z)) C C  and  S2 = sum_k (xy/(y-(n-k).z)) C C.\n"
            "    "
        ),
    ),
    "check_mh_expansion": (
        (
            "(x: 'Scalar', y: 'Scalar', n: 'MultiIndex', z: 'MultiIndex')"
            " -> 'tuple[Fraction, Fraction]'"
        ),
        (
            "sum_k C(x+k.z,k) C(y-k.z,n-k)\n"
            "    vs  C(x+y,n) + sum_i sum_k z_i C(x-1+k.z,k-e_i) C(y-k.z,n-k)."
        ),
    ),
}


def _call_public(name, pt, n, z):
    """name's public evaluator at pt, called the way its catalog entry reads
    its signature; i is the last letter and j = 1 where the entry takes them."""
    entry = CATALOG[name]
    evaluator = getattr(identities, DECLARED[name][-1])
    if entry.classical:
        return evaluator(**pt, n=n[0], z=z[0])
    letters = {flag: {"i": len(n), "j": 1}[flag] for flag in entry.needs}
    return evaluator(**pt, **{entry.param_name: n}, z=z, **letters)


def test_catalog_is_derived_from_the_evaluators():
    assert list(CATALOG) == list(DECLARED)
    for name, row in DECLARED.items():
        entry = CATALOG[name]
        variables, slot, needs, classical, degree, lo, poles, evaluator = row
        assert entry.name == name
        assert entry.variables == variables, name
        assert (entry.param_name, entry.needs, entry.classical) == (
            slot, frozenset(needs), classical
        ), name
        assert entry.degree is getattr(identities, degree), name
        assert entry.default_lo is getattr(identities, lo), name
        assert entry.poles is getattr(identities, poles), name
        if evaluator is None:
            continue
        # the entry evaluates what its public evaluator does, off every pole
        n, z = ((2,), (1,)) if classical else ((1, 1), (1, 2))
        pt = dict(zip(variables, map(Fraction, (11, 13, 17))))
        spec = IdentitySpec(
            identity=name, n=n, z=z,
            i=len(n) if "i" in needs else None, j=1 if "j" in needs else None,
        )
        assert entry.evaluate(pt, spec) == [_call_public(name, pt, n, z)], name
    public = [v for v in identities.__all__ if v.startswith(("eval_", "check_"))]
    assert public == list(PUBLIC_EVALUATORS)
    for fname, (signature, doc) in PUBLIC_EVALUATORS.items():
        evaluator = getattr(identities, fname)
        assert evaluator.__name__ == fname
        assert str(inspect.signature(evaluator)) == signature, fname
        assert evaluator.__doc__ == doc, fname


def test_identity_variables():
    assert identity_variables("abel-1") == ("x", "y")
    assert identity_variables("gould") == ("x", "y", "eps")
    assert identity_variables("gould-mohanty") == ("x", "y", "eps")
    assert identity_variables("kmx") == ("p", "q")
    assert identity_variables("absorption") == ("p",)


# ---------------------------------------------------------------------------
# direct evaluator checks at hand-computed points
# ---------------------------------------------------------------------------


def test_abel_1_classical_value():
    # n = 1, z = 1: x + (y + 1) = (x + y) + 1... trivially equal; check n = 2
    lhs, rhs = eval_abel_1(Fraction(3), Fraction(5), 1, 2)
    assert lhs == rhs == Fraction(64)  # (3+5)^2


def test_abel_2_symmetric_companion_value():
    # the x(y + nz) prefactor form: at n=1, z=1, x=y=1 both sides give 3
    lhs, rhs = eval_abel_2(Fraction(1), Fraction(1), 1, 1)
    assert lhs == rhs == 3
    lhs, rhs = eval_abel_2(Fraction(3), Fraction(5), 1, 2)
    assert lhs == rhs == (3 + 5 + 2) * (3 + 5)  # (x+y+nz)(x+y)^{n-1}


def test_abel_forms_need_nonzero_x():
    with pytest.raises(PoleError):
        eval_abel_1(Fraction(0), Fraction(5), 1, 2)
    with pytest.raises(PoleError):
        eval_abel_2(Fraction(2), Fraction(-2), 1, 2)  # y + nz = 0


@pytest.mark.parametrize(
    "name, n, z, point, pole",
    [
        ("abel-1", 2, 1, (0, 5), "x"),
        ("abel-1", 0, 3, (0, 5), "x"),
        ("abel-2", 2, 1, (0, 5), "x"),
        ("abel-2", 3, 2, (4, -6), "y + 6"),  # y + nz = 0
        ("abel-2", 0, 2, (3, 0), "y"),
        ("abel-2", 0, 2, (3, -3), "x + y"),
    ],
)
def test_abel_poles_are_refused_by_the_evaluators_and_verify_point(
    name, n, z, point, pole, capsys
):
    # the Abel sides read x/x, (y + nz)/(y + nz) and, at n = 0, (x + y)/(x + y)
    # as 1, so only the pole check stands between such a point and a value
    evaluator = {"abel-1": eval_abel_1, "abel-2": eval_abel_2}[name]
    for x, y in (point, (Fraction(point[0]), Fraction(point[1]))):
        with pytest.raises(PoleError) as err:
            evaluator(x, y, z, n)
        assert str(err.value).endswith(f"vanish at this point: {pole}")
    argv = ["verify", name, "--n", str(n), "--z", str(z), "--point", "x={},y={}".format(*point)]
    code = main(argv)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.strip().endswith(f"vanish at this point: {pole}")


def test_rothe_1_value_and_poles():
    lhs, rhs = eval_rothe_1(Fraction(7), Fraction(5), 2, 2)
    assert lhs == rhs == multinomial(Fraction(12), (2,))
    with pytest.raises(PoleError) as err:
        eval_rothe_1(Fraction(2), Fraction(5), 2, 2)  # x = 1*z
    assert "x" in str(err.value)


def test_gould_shift_invariance_chain():
    # the eps-shift leaves the convolution sum unchanged, so composing two
    # shifts agrees with the combined shift
    x, y, z, n = Fraction(9), Fraction(4), 2, 3
    first = eval_gould(x, y, z, Fraction(1, 2), n)
    second = eval_gould(x + Fraction(1, 2), y - Fraction(1, 2), z, Fraction(1, 3), n)
    combined = eval_gould(x, y, z, Fraction(5, 6), n)
    assert first[0] == first[1] == second[0] == second[1]
    assert combined == (first[0], second[1])


def test_jensen_value():
    lhs, rhs = eval_jensen(Fraction(1, 2), Fraction(1, 3), 2, 2)
    assert lhs == rhs


def _binomial(x, k):
    """C(x, k) by the textbook: the falling factorial x(x-1)...(x-k+1) over k!."""
    return Fraction(math.prod(x - i for i in range(k))) / math.factorial(k)


def _rothe_1(x, y, z, n):
    lhs = sum(Fraction(x) / (x - k * z) * _binomial(x - k * z, k) * _binomial(y + k * z, n - k)
              for k in range(n + 1))
    return lhs, _binomial(x + y, n)


def _rothe_2(x, y, z, n):
    lhs = sum(
        Fraction(x * y) / ((x - k * z) * (y - (n - k) * z))
        * _binomial(x - k * z, k) * _binomial(y - (n - k) * z, n - k)
        for k in range(n + 1)
    )
    return lhs, Fraction(x + y) / (x + y - n * z) * _binomial(x + y - n * z, n)


def _gould_sum(x, y, z, n):
    return sum(_binomial(x - k * z, k) * _binomial(y + k * z, n - k) for k in range(n + 1))


def _gould(x, y, z, eps, n):
    return _gould_sum(x, y, z, n), _gould_sum(x + eps, y - eps, z, n)


def _jensen(x, y, z, n):
    lhs = sum(_binomial(x + k * z, k) * _binomial(y - k * z, n - k) for k in range(n + 1))
    return lhs, sum(_binomial(x + y - k, n - k) * z**k for k in range(n + 1))


_POINT_VALUES = [0, 1, -2, 3, Fraction(5, 2), Fraction(-1, 3)]


# criterion 7 compares the multi-index evaluators at m = 1 with these four,
# so they are checked here against formulas that share none of their code
@pytest.mark.parametrize("evaluator, reference", [
    (eval_rothe_1, _rothe_1), (eval_rothe_2, _rothe_2),
    (eval_gould, _gould), (eval_jensen, _jensen),
], ids=["rothe-1", "rothe-2", "gould", "jensen"])
def test_classical_evaluators_match_the_textbook_formulas(evaluator, reference):
    variables = [v for v in inspect.signature(evaluator).parameters if v not in ("z", "n")]
    evaluated = 0
    for n, z in itertools.product(range(5), (0, 1, 2, Fraction(1, 2))):
        for values in itertools.product(_POINT_VALUES, repeat=len(variables)):
            point = dict(zip(variables, values))
            try:
                expected = reference(**point, z=z, n=n)
            except ZeroDivisionError:  # a textbook denominator vanishes: a declared pole
                with pytest.raises(PoleError):
                    evaluator(**point, z=z, n=n)
                continue
            assert evaluator(**point, z=z, n=n) == expected, (point, z, n)
            assert expected[0] == expected[1], (point, z, n)
            evaluated += 1
    swept = 20 * len(_POINT_VALUES) ** len(variables)  # 5 values of n times 4 of z
    assert 2 * evaluated > swept  # most points are off the poles


def test_kmx_equals_vandermonde_total():
    lhs, rhs = eval_kmx(Fraction(6), Fraction(3), (2,), (1,))
    assert lhs == rhs == multinomial(Fraction(9), (2,))


def test_absorption_value():
    # C(p - k.z - 1, k - e_i) = (k_i / (p - k.z)) C(p - k.z, k)
    lhs, rhs = check_absorption(Fraction(10), (2, 1), (1, 2), 1)
    assert lhs == rhs
    with pytest.raises(PoleError):
        check_absorption(Fraction(4), (2, 1), (1, 2), 1)  # p - k.z = 0


def test_evaluators_return_exact_fractions():
    lhs, rhs = eval_gould_mohanty(
        Fraction(7, 2), Fraction(5, 3), Fraction(1, 5), (1, 1), (1, 2)
    )
    assert isinstance(lhs, Fraction) and isinstance(rhs, Fraction)
    assert lhs == rhs


def _default_spec(name, n=None, z=None):
    """A spec of the catalog entry name at n, z (defaults by the entry's
    shape), with i the last letter and j = 1 where the entry takes them."""
    entry = CATALOG[name]
    if n is None:
        n, z = ((3,), (2,)) if entry.classical else ((1, 2), (1, 2))
    return IdentitySpec(
        identity=name, n=n, z=z,
        i=len(n) if "i" in entry.needs else None, j=1 if "j" in entry.needs else None,
    )


def test_grid_path_stays_in_int_and_fraction_arithmetic():
    # every catalog entry, at the int points of its own default grid, yields
    # ints and Fractions only: a `/` between two ints would yield a float
    for name, entry in CATALOG.items():
        shapes = [((0,), (1,)), ((3,), (2,)), ((2,), (0,))] if entry.classical else [
            ((1, 2), (1, 2)), ((2, 1), (0, 1)), ((0, 0), (2, 1))
        ]
        for n, z in shapes:
            spec = identities._validate(_default_spec(name, n, z), entry)
            axes, _ = identities._select_axes(spec, entry)
            for combo in itertools.product(*(axes[v] for v in entry.variables)):
                point = dict(zip(entry.variables, combo))
                for pair in entry.evaluate(point, spec):
                    assert all(type(v) in (int, Fraction) for v in pair), (name, n, z, point)
    # the public evaluators return two Fractions at int and integral-Fraction inputs
    for name, row in DECLARED.items():
        if row[-1] is None:
            continue
        spec = _default_spec(name)
        for values in ((11, 13, 17), (Fraction(11), Fraction(13), Fraction(17))):
            pt = dict(zip(CATALOG[name].variables, values))
            pair = _call_public(name, pt, spec.n, spec.z)
            assert [type(v) for v in pair] == [Fraction, Fraction], (name, values)
    # C(x, n) is an int at every integer x, negative ones included
    for x in range(-6, 9):
        for n in ((0,), (3,), (2, 1), (1, 0, 2), (1, -1), ()):
            assert type(multinomial(x, n)) is int, (x, n)
            assert type(multinomial(Fraction(x), n)) is int, (x, n)
    assert type(multinomial(Fraction(1, 2), (2,))) is Fraction


PUBLIC = [name for name, row in DECLARED.items() if row[-1] is not None]


@given(
    name=st.sampled_from(PUBLIC),
    slot=st.integers(min_value=0, max_value=3),
    bad=st.one_of(st.booleans(), st.floats()),
    via_point=st.booleans(),
)
@settings(max_examples=200)
def test_float_and_bool_variables_are_refused(name, slot, bad, via_point):
    entry = CATALOG[name]
    spec = _default_spec(name)
    pt = dict(zip(entry.variables, (11, 13, 17)))
    z = spec.z
    # the classical forms also take their scalar z from the caller
    targets = list(entry.variables) + (["z"] if entry.classical and not via_point else [])
    target = targets[slot % len(targets)]
    if target == "z":
        z = (bad,)
    else:
        pt[target] = bad
    with pytest.raises(PreconditionError, match=f"^{target} must be an int or a Fraction"):
        if via_point:
            verify_identity_at_point(spec, pt)
        else:
            _call_public(name, pt, spec.n, z)


def test_letter_indices_must_be_naturals():
    for i, j in ((True, 1), (1, True), (1.0, 1), (1, 1.0)):
        with pytest.raises(PreconditionError, match="must be a natural number"):
            verify_identity_on_grid(IdentitySpec("kmpink", (1, 1), (1, 2), i=i, j=j))
        with pytest.raises(PreconditionError, match="must be a natural number"):
            eval_kmpink(11, 13, (1, 1), (1, 2), i, j)
    with pytest.raises(PreconditionError, match="must be a natural number"):
        verify_identity_on_grid(IdentitySpec("absorption", (1, 1), (1, 2), i=True))
    report = verify_identity_on_grid(IdentitySpec("kmpink", (1, 1), (1, 2), i=1, j=1))
    assert report.ok and report.params["i"] == 1


# ---------------------------------------------------------------------------
# pole completeness: every declared pole raises PoleError, and every point off
# the declared poles evaluates (an undeclared pole would divide by zero)
# ---------------------------------------------------------------------------

HALF = Fraction(1, 2)
CLASSICAL_SPECS = [((n,), (z,)) for z in (0, 1, 2, HALF) for n in range(4)]
MULTI_SPECS = [(n, z) for z in ((1, 2), (0, 1)) for n in ((0, 0), (1, 0), (1, 1), (2, 1))]


POLE_SWEEPS = {
    "abel-1": CLASSICAL_SPECS,
    "abel-2": CLASSICAL_SPECS,
    "rothe-1": CLASSICAL_SPECS,
    "rothe-2": CLASSICAL_SPECS,
    "raney-mohanty-1": MULTI_SPECS,
    "raney-mohanty-2": MULTI_SPECS,
    "rm2-decomposition": MULTI_SPECS,
    "absorption": MULTI_SPECS + [((0,), (1,)), ((3,), (2,))],
}


def test_every_rational_evaluator_is_swept():
    rational = {
        name
        for name, row in DECLARED.items()
        if row[-1] is not None and CATALOG[name].poles((1,), (1,))
    }
    assert rational == set(POLE_SWEEPS)


def _near_poles(poles, var):
    """Every single-variable pole of var, its half-integer neighbours, and a
    few small half-integers (which also reach the joint x + y poles)."""
    near = {p.c + d for p in poles if p.vars == (var,) for d in (-HALF, 0, HALF)}
    return sorted(near | {Fraction(j, 2) for j in range(-4, 5)})


@pytest.mark.parametrize("name", list(POLE_SWEEPS))
def test_declared_poles_are_complete(name):
    entry = CATALOG[name]
    variables = entry.variables
    for n, z in POLE_SWEEPS[name]:
        poles = entry.poles(n, z)
        hit = set()
        axes = [_near_poles(poles, v) for v in variables]
        for values in itertools.product(*axes):
            pt = dict(zip(variables, values))
            on = {p for p in poles if sum(pt[v] for v in p.vars) == p.c}
            if on:
                with pytest.raises(PoleError):
                    _call_public(name, pt, n, z)
                hit |= on
            else:
                lhs, rhs = _call_public(name, pt, n, z)
                assert lhs == rhs, (name, n, z, pt)
        assert hit == set(poles), (name, n, z)


def test_pole_labels_read_as_linear_forms():
    assert [p.label for p in _poles_xy((2,), (1,))] == [
        "x", "x - 1", "x - 2", "y", "y - 1", "y - 2", "x + y - 2"
    ]
    assert [p.label for p in _poles_abel_2((3,), (2,))] == ["x", "y + 6"]
    assert [p.label for p in _poles_abel_2((0,), (2,))] == ["x", "y", "x + y"]
    assert [p.label for p in _poles_x((2,), (HALF,))] == ["x", "x - 1/2", "x - 1"]
    # k = (1, 0) and (0, 1) both give k.z = 1: the message names x - 1 once
    with pytest.raises(PoleError, match=r"point: x - 1; y - 1; x \+ y - 2$"):
        eval_raney_mohanty_2(1, 1, (1, 1), (1, 1))


# ---------------------------------------------------------------------------
# the epsilon-telescoping replay: integer-shift Gould-Mohanty is the
# composition of unit shifts
# ---------------------------------------------------------------------------


def test_gould_mohanty_integer_eps_telescopes_through_gmh_special():
    n, z = (2,), (2,)
    x, y, shift = Fraction(11), Fraction(9), 4
    lhs, rhs = eval_gould_mohanty(x, y, Fraction(shift), n, z)
    chain = [eval_gmh_special(x + t, y - t, n, z) for t in range(shift)]
    for left, right in chain:
        assert left == right  # each unit step is an identity instance
    for (_, right), (nxt_left, _) in zip(chain, chain[1:]):
        assert right == nxt_left  # adjacent links share their middle value
    assert chain[0][0] == lhs
    assert chain[-1][1] == rhs


def test_gould_mohanty_multi_index_telescoping():
    n, z = (1, 1), (1, 2)
    x, y, shift = Fraction(8), Fraction(7), 3
    lhs, rhs = eval_gould_mohanty(x, y, Fraction(shift), n, z)
    chain = [eval_gmh_special(x + t, y - t, n, z) for t in range(shift)]
    assert chain[0][0] == lhs and chain[-1][1] == rhs
    assert all(left == right for left, right in chain)


# ---------------------------------------------------------------------------
# grid verification
# ---------------------------------------------------------------------------


def test_every_identity_verifies_on_a_default_grid():
    for name in ALL_NAMES:
        m = 2 if name in (
            "raney-mohanty-2", "mohanty-handa", "gould-mohanty", "gmh-special",
            "kmx", "kmpink", "pkroth", "absorption", "rm2-decomposition",
            "mh-expansion",
        ) else 1
        n = (1, 2) if m == 2 else (3,)
        z = (1, 2) if m == 2 else (2,)
        i = 1 if name in ("kmpink", "absorption") else None
        j = 1 if name == "kmpink" else None
        report = verify_identity_on_grid(
            IdentitySpec(identity=name, n=n, z=z, i=i, j=j)
        )
        assert report.ok, (name, report.to_dict())
        assert report.verdict == "equal"


def test_grid_report_structure():
    report = verify_identity_on_grid(IdentitySpec(identity="rothe-1", n=(3,), z=(2,)))
    grid = report.grid
    assert set(grid) == {"axes", "degree_bounds", "skipped", "points"}
    for var in ("x", "y"):
        assert len(grid["axes"][var]) == grid["degree_bounds"][var] + 1
    assert grid["points"] == (grid["degree_bounds"]["x"] + 1) * (
        grid["degree_bounds"]["y"] + 1
    )


def test_grid_avoids_poles_and_records_skips():
    report = verify_identity_on_grid(
        IdentitySpec(identity="rothe-1", n=(3,), z=(2,), grid_range=(-1, 12))
    )
    assert report.ok
    # x = k z for 0 <= k <= 3 are poles of x/(x - k z): 0, 2, 4, 6
    skipped_x = report.grid["skipped"]["x"]
    assert 0 in skipped_x and 2 in skipped_x and 4 in skipped_x
    assert all(v not in report.grid["axes"]["x"] for v in (0, 2, 4, 6))


def test_abel_grid_avoids_zero_x():
    report = verify_identity_on_grid(
        IdentitySpec(identity="abel-1", n=(2,), z=(1,), grid_range=(-2, 8))
    )
    assert report.ok
    assert 0 not in report.grid["axes"]["x"]


def test_grid_exhaustion_is_a_config_error():
    with pytest.raises(GridExhaustedError) as err:
        verify_identity_on_grid(
            IdentitySpec(identity="rothe-1", n=(2,), z=(1,), grid_range=(0, 2))
        )
    assert "grid-range" in str(err.value)


def test_n_zero_uses_single_point_grids():
    report = verify_identity_on_grid(IdentitySpec(identity="rothe-2", n=(0,), z=(1,)))
    assert report.ok
    assert report.grid["points"] == 1


def test_joint_pole_of_rm2_decomposition_is_respected():
    # the x + y - n.z denominator depends on both variables; the axis chooser
    # must leave no combination on the pole
    report = verify_identity_on_grid(
        IdentitySpec(identity="rm2-decomposition", n=(1, 1), z=(1, 2))
    )
    assert report.ok
    nz = 3
    for xv in report.grid["axes"]["x"]:
        for yv in report.grid["axes"]["y"]:
            assert xv + yv != nz


# ---------------------------------------------------------------------------
# point verification
# ---------------------------------------------------------------------------


def test_point_verification_at_rationals():
    report = verify_identity_at_point(
        IdentitySpec(identity="jensen", n=(3,), z=(2,)),
        {"x": Fraction(1, 2), "y": Fraction(-4, 3)},
    )
    assert report.ok
    assert report.left == report.right
    assert report.params["point"] == {"x": "1/2", "y": "-4/3"}


def test_point_verification_rejects_missing_and_extra_variables():
    spec = IdentitySpec(identity="rothe-1", n=(2,), z=(1,))
    with pytest.raises(PreconditionError):
        verify_identity_at_point(spec, {"x": Fraction(5)})
    with pytest.raises(PreconditionError):
        verify_identity_at_point(
            spec, {"x": Fraction(5), "y": Fraction(1), "eps": Fraction(1)}
        )


def test_point_verification_reports_pole_labels():
    spec = IdentitySpec(identity="rothe-1", n=(2,), z=(1,))
    with pytest.raises(PoleError) as err:
        verify_identity_at_point(spec, {"x": Fraction(1), "y": Fraction(9)})
    assert "x - 1" in str(err.value)


def test_gould_point_with_rational_eps():
    report = verify_identity_at_point(
        IdentitySpec(identity="gould", n=(2,), z=(1,)),
        {"x": Fraction(7), "y": Fraction(3), "eps": Fraction(3, 2)},
    )
    assert report.ok


# ---------------------------------------------------------------------------
# spec validation and the mismatch path
# ---------------------------------------------------------------------------


def test_unknown_identity_rejected():
    with pytest.raises(PreconditionError):
        verify_identity_on_grid(IdentitySpec(identity="vandermonde", n=(1,), z=(1,)))


def test_dimension_and_parameter_validation():
    with pytest.raises(PreconditionError):
        verify_identity_on_grid(IdentitySpec(identity="kmx", n=(1, 1), z=(1,)))
    with pytest.raises(PreconditionError):
        verify_identity_on_grid(IdentitySpec(identity="abel-1", n=(1, 1), z=(1, 1)))
    with pytest.raises(PreconditionError):  # kmpink needs i and j
        verify_identity_on_grid(IdentitySpec(identity="kmpink", n=(1,), z=(2,)))
    with pytest.raises(PreconditionError):  # j out of range 1..z_i
        verify_identity_on_grid(
            IdentitySpec(identity="kmpink", n=(1,), z=(2,), i=1, j=3)
        )
    with pytest.raises(PreconditionError):  # extraneous i on a plain identity
        verify_identity_on_grid(IdentitySpec(identity="rothe-1", n=(1,), z=(1,), i=1))
    with pytest.raises(PreconditionError):  # empty grid range
        verify_identity_on_grid(
            IdentitySpec(identity="rothe-1", n=(1,), z=(1,), grid_range=(5, 4))
        )


def test_grid_range_must_be_a_pair_of_ints():
    # a float end or a short range used to escape as a TypeError or an
    # IndexError (exit 3), and a bool end was read as 0 or 1
    bad = [(0.5, 9), (0, 9.0), (True, 9), (0, True), (Fraction(1), 9), (5,), (1, 9, 3), 7]
    for grid_range in bad:
        with pytest.raises(PreconditionError, match="grid range must be a pair of ints"):
            verify_identity_on_grid(
                IdentitySpec(identity="rothe-1", n=(1,), z=(1,), grid_range=grid_range)
            )
    report = verify_identity_on_grid(
        IdentitySpec(identity="rothe-1", n=(1,), z=(1,), grid_range=(-3, 9))
    )
    assert report.ok


def test_gmh_special_grid_runs_the_gould_mohanty_body_unchecked(monkeypatch):
    calls = []
    monkeypatch.setattr(identities, "_check_poles", lambda *args: calls.append(args))
    spec = IdentitySpec(identity="gmh-special", n=(2, 1), z=(1, 2))
    pairs = CATALOG["gmh-special"].evaluate({"p": 7, "q": 5}, spec)
    assert calls == []  # no argument or pole re-check per grid point
    assert pairs == [eval_gould_mohanty(7, 5, 1, (2, 1), (1, 2))]
    assert eval_gmh_special(Fraction(7, 2), 5, (2, 1), (1, 2)) == eval_gould_mohanty(
        Fraction(7, 2), 5, 1, (2, 1), (1, 2)
    )


def test_mismatch_produces_counterexample_with_rerun_command(monkeypatch):
    entry = CATALOG["rothe-1"]

    def broken(point, spec):
        pairs = entry.evaluate(point, spec)
        return [(left, right + 1) for left, right in pairs]

    monkeypatch.setitem(CATALOG, "rothe-1", dataclasses.replace(entry, evaluate=broken))
    calls = _counterexample_calls(monkeypatch)
    report = verify_identity_on_grid(IdentitySpec(identity="rothe-1", n=(2,), z=(1,)))
    assert not report.ok
    assert report.verdict == "mismatch"
    ce = report.counterexample
    assert set(ce) == {"point", "left", "right", "pair", "rerun"}
    assert ce["rerun"].startswith("gradedwords verify rothe-1")
    assert "--point" in ce["rerun"]
    # the rerun command names every variable of the identity
    assert "x=" in ce["rerun"] and "y=" in ce["rerun"]
    # only the mismatching point builds a counterexample
    assert calls == [{"x": 3, "y": 3}]
    assert ce == {
        "point": {"x": "3", "y": "3"}, "left": "15", "right": "16", "pair": 0,
        "rerun": "gradedwords verify rothe-1 --n 2 --z 1 --point x=3,y=3",
    }


def _counterexample_calls(monkeypatch):
    """The point of every call of identities._counterexample from now on."""
    calls = []
    real = identities._counterexample

    def spy(spec, entry, point, pairs):
        calls.append(dict(point))
        return real(spec, entry, point, pairs)

    monkeypatch.setattr(identities, "_counterexample", spy)
    return calls


def test_a_passing_grid_builds_no_counterexample(monkeypatch):
    calls = _counterexample_calls(monkeypatch)
    for name in CATALOG:
        assert verify_identity_on_grid(_default_spec(name)).ok, name
    assert calls == []


def test_a_later_pair_at_a_later_point_is_the_counterexample(monkeypatch):
    # the coherence entry gives three pairs per point; break the last one at
    # x = 4 only, past the grid's first points
    name = "raney-mohanty-1-vs-rothe-1"
    entry = CATALOG[name]

    def broken(point, spec):
        pairs = entry.evaluate(point, spec)
        if point["x"] == 4:
            left, right = pairs[2]
            pairs[2] = (left, right - 1)
        return pairs

    monkeypatch.setitem(CATALOG, name, dataclasses.replace(entry, evaluate=broken))
    calls = _counterexample_calls(monkeypatch)
    report = verify_identity_on_grid(IdentitySpec(identity=name, n=(2,), z=(1,)))
    assert report.verdict == "mismatch"
    assert calls == [{"x": 4, "y": 3}]
    ce = report.counterexample
    assert (ce["point"], ce["pair"]) == ({"x": "4", "y": "3"}, 2)
    assert int(ce["left"]) == int(ce["right"]) + 1


# ---------------------------------------------------------------------------
# the per-grid rows of C(x, k), and the one division of a rational side
# ---------------------------------------------------------------------------


def _memo_is_gone():
    return identities._grid is None


def _rows(tables):
    """The rows the terms tables carry."""
    return [row for table in tables for row in table.rows]


def _counting(monkeypatch):
    """The (x, k) of every call of arith's multinomial from now on."""
    calls = []
    real = arith.multinomial

    def counted(x, k):
        calls.append((x, k))
        return real(x, k)

    monkeypatch.setattr(arith, "multinomial", counted)
    return calls


def _spying(monkeypatch, name, after=None):
    """CATALOG[name] with an evaluate that records, after each point, how
    many values the grid's rows hold, and weak references to those rows
    (then applies after, if given, to the pairs)."""
    entry = CATALOG[name]
    sizes, refs = [], {}

    def spy(point, spec):
        pairs = entry.evaluate(point, spec)
        rows = _rows(identities._grid.values())
        sizes.append(sum(map(len, rows)))
        refs.update((id(row), weakref.ref(row)) for row in rows)
        return pairs if after is None else after(pairs)

    monkeypatch.setitem(CATALOG, name, dataclasses.replace(entry, evaluate=spy))
    return sizes, refs


def _rows_are_freed(refs):
    gc.collect()
    return refs and all(ref() is None for ref in refs.values())


def test_memo_is_emptied_after_a_passing_grid(monkeypatch):
    sizes, refs = _spying(monkeypatch, "gould-mohanty")
    calls = _counting(monkeypatch)
    assert verify_identity_on_grid(IdentitySpec("gould-mohanty", (2, 1), (1, 2))).ok
    # the rows fill across the grid's points, and repeats are read from them:
    # each point reads 4 values per term (6 terms), but C(x - k.z, k) does not
    # depend on y or eps, so the 64 points reach only 48 distinct (x, k), and
    # arith's multinomial runs once for each
    assert len(sizes) == 64
    assert 0 < sizes[0] < sizes[-1] == 48 == len(calls) == len(set(calls))
    assert _memo_is_gone() and _rows_are_freed(refs)


def test_memo_is_emptied_after_a_mismatch(monkeypatch):
    sizes, refs = _spying(monkeypatch, "rothe-1", lambda pairs: [(l, r + 1) for l, r in pairs])
    report = verify_identity_on_grid(IdentitySpec("rothe-1", (2,), (1,)))
    assert report.verdict == "mismatch" and sizes == [sizes[0]] and sizes[0] > 0
    assert _memo_is_gone() and _rows_are_freed(refs)


def test_memo_is_emptied_after_a_body_raises(monkeypatch):
    def fault(pairs):
        raise RuntimeError("body fault")

    sizes, refs = _spying(monkeypatch, "kmx", fault)
    with pytest.raises(RuntimeError, match="body fault"):
        verify_identity_on_grid(IdentitySpec("kmx", (1, 1), (1, 2)))
    assert sizes[0] > 0
    assert _memo_is_gone() and _rows_are_freed(refs)


def test_point_checks_and_public_evaluators_leave_no_memo(monkeypatch):
    calls = _counting(monkeypatch)
    # rothe-1 at n = 3 reads 9 values: C(x - kz, k) C(y + kz, 3 - k) for
    # k = 0..3, and C(x + y, 3); a second call computes all 9 again
    eval_rothe_1(7, 5, 1, 3)
    assert len(calls) == 9
    eval_rothe_1(Fraction(7, 2), 5, 1, 3)
    verify_identity_at_point(IdentitySpec("gould", (2,), (1,)), {"x": 3, "y": 5, "eps": 1})
    eval_rothe_1(7, 5, 1, 3)
    assert len(calls) == 9 + 9 + 12 + 9 and calls[-9:] == calls[:9]
    assert _memo_is_gone()
    tables = [identities._terms((3,), (1,)), identities._terms((2,), (1,))]
    assert all(type(row) is identities._Fresh for row in _rows(tables))


def test_a_wrong_memo_entry_is_a_mismatch(monkeypatch):
    # the first point of the rothe-1 grid at n = 2, z = 1 is x = y = 3, whose
    # right side is C(x + y, 2) = C(6, 2) = 15; the grid's rows fill from the
    # multinomial arith holds when they fill
    real = arith.multinomial

    def wrong(x, n):
        return 16 if (x, n) == (6, (2,)) else real(x, n)

    monkeypatch.setattr(arith, "multinomial", wrong)
    report = verify_identity_on_grid(IdentitySpec("rothe-1", (2,), (1,)))
    assert report.verdict == "mismatch"
    assert report.counterexample["point"] == {"x": "3", "y": "3"}
    assert report.counterexample["right"] == "16"
    assert _memo_is_gone()
    monkeypatch.undo()
    assert arith.multinomial is real is multinomial
    assert verify_identity_on_grid(IdentitySpec("rothe-1", (2,), (1,))).ok


_QTERM_PART = st.one_of(
    st.integers(-50, 50), st.builds(Fraction, st.integers(-60, 60), st.integers(1, 9))
)
_QTERMS = st.lists(st.tuples(_QTERM_PART, _QTERM_PART.filter(bool)), max_size=8)


@given(terms=_QTERMS)
@settings(max_examples=200)
def test_qsum_is_the_termwise_fraction_sum(terms):
    got = arith.qsum(iter(terms))
    want = sum((Fraction(a) / Fraction(b) for a, b in terms), Fraction(0))
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)


def test_qsum_with_int_terms_divides_once(monkeypatch):
    made = []
    real = arith.Fraction

    def counting(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(arith, "Fraction", counting)
    one = arith.qsum([(1, 2), (1, -3), (5, 6), (0, 7)])
    assert type(one) is int and one == 1 and made == []  # integral: no Fraction at all
    assert arith.qsum([(1, 2), (1, -3), (5, 7)]) == real(37, 42)
    assert len(made) == 1
