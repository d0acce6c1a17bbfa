"""The convolution-identity catalog: evaluators, pole handling, grid
certification, and the counterexample machinery."""

from __future__ import annotations

import dataclasses
import itertools
import math
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
    multinomial,
    parse_scalar,
    verify_identity_at_point,
    verify_identity_on_grid,
)
from gradedwords import arith, identities
from gradedwords.cli import EXIT_CONFIG, main
from conftest import empty_every_memo
from gradedwords.identities import _poles_abel_2, _poles_x, _poles_xy

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


# every catalog entry as its body declares it: free variables, multi-index
# slot, letter indices taken, m = 1 only, and poles
DECLARED = {
    "abel-1": (("x", "y"), "n", (), True, "_poles_abel_1"),
    "abel-2": (("x", "y"), "n", (), True, "_poles_abel_2"),
    "rothe-1": (("x", "y"), "n", (), True, "_poles_x"),
    "rothe-2": (("x", "y"), "n", (), True, "_poles_xy"),
    "gould": (("x", "y", "eps"), "n", (), True, "_no_poles"),
    "jensen": (("x", "y"), "n", (), True, "_no_poles"),
    "raney-mohanty-1": (("x", "y"), "n", (), False, "_poles_x"),
    "raney-mohanty-2": (("x", "y"), "n", (), False, "_poles_xy"),
    "mohanty-handa": (("x", "y"), "n", (), False, "_no_poles"),
    "gould-mohanty": (("x", "y", "eps"), "n", (), False, "_no_poles"),
    "gmh-special": (("p", "q"), "n", (), False, "_no_poles"),
    "kmx": (("p", "q"), "n", (), False, "_no_poles"),
    "kmpink": (("p", "q"), "n", ("i", "j"), False, "_no_poles"),
    "pkroth": (("p", "q"), "n", (), False, "_no_poles"),
    "absorption": (("p",), "k", ("i",), False, "_poles_absorption"),
    "rm2-decomposition": (("x", "y"), "n", (), False, "_poles_xy"),
    "mh-expansion": (("x", "y"), "n", (), False, "_no_poles"),
    "gould-mohanty-vs-gould": (("x", "y", "eps"), "n", (), True, "_no_poles"),
    "raney-mohanty-1-vs-rothe-1": (("x", "y"), "n", (), True, "_poles_x"),
    "mohanty-handa-vs-jensen": (("x", "y"), "n", (), True, "_no_poles"),
}


def _sides(spec, point):
    """The two sides verify_identity_at_point reports for spec at point, read
    back as exact scalars."""
    report = verify_identity_at_point(spec, point)
    return parse_scalar(report.left), parse_scalar(report.right)


def test_catalog_is_derived_from_the_evaluators():
    assert list(CATALOG) == list(DECLARED)
    for name, (variables, slot, needs, classical, poles) in DECLARED.items():
        entry = CATALOG[name]
        assert entry.name == name
        assert entry.variables == variables, name
        assert (entry.param_name, entry.needs, entry.classical) == (
            slot, frozenset(needs), classical
        ), name
        assert entry.poles is getattr(identities, poles), name


def test_identity_variables():
    assert CATALOG["abel-1"].variables == ("x", "y")
    assert CATALOG["gould"].variables == ("x", "y", "eps")
    assert CATALOG["gould-mohanty"].variables == ("x", "y", "eps")
    assert CATALOG["kmx"].variables == ("p", "q")
    assert CATALOG["absorption"].variables == ("p",)


# ---------------------------------------------------------------------------
# direct evaluator checks at hand-computed points
# ---------------------------------------------------------------------------


def test_abel_1_classical_value():
    # n = 1, z = 1: x + (y + 1) = (x + y) + 1... trivially equal; check n = 2
    lhs, rhs = _sides(IdentitySpec("abel-1", (2,), (1,)), {"x": Fraction(3), "y": Fraction(5)})
    assert lhs == rhs == Fraction(64)  # (3+5)^2


def test_abel_2_symmetric_companion_value():
    # the x(y + nz) prefactor form: at n=1, z=1, x=y=1 both sides give 3
    lhs, rhs = _sides(IdentitySpec("abel-2", (1,), (1,)), {"x": 1, "y": 1})
    assert lhs == rhs == 3
    lhs, rhs = _sides(IdentitySpec("abel-2", (2,), (1,)), {"x": 3, "y": 5})
    assert lhs == rhs == (3 + 5 + 2) * (3 + 5)  # (x+y+nz)(x+y)^{n-1}


def test_abel_forms_need_nonzero_x():
    with pytest.raises(PoleError):
        verify_identity_at_point(IdentitySpec("abel-1", (2,), (1,)), {"x": 0, "y": 5})
    with pytest.raises(PoleError):  # y + nz = 0
        verify_identity_at_point(IdentitySpec("abel-2", (2,), (1,)), {"x": 2, "y": -2})


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
def test_abel_poles_are_refused_by_the_library_and_the_cli(name, n, z, point, pole, capsys):
    # the Abel sides read x/x, (y + nz)/(y + nz) and, at n = 0, (x + y)/(x + y)
    # as 1, so only the pole check stands between such a point and a value
    for x, y in (point, (Fraction(point[0]), Fraction(point[1]))):
        with pytest.raises(PoleError) as err:
            verify_identity_at_point(IdentitySpec(name, (n,), (z,)), {"x": x, "y": y})
        assert str(err.value).endswith(f"vanish at this point: {pole}")
    argv = ["verify", name, "--n", str(n), "--z", str(z), "--point", "x={},y={}".format(*point)]
    code = main(argv)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.strip().endswith(f"vanish at this point: {pole}")


def test_rothe_1_value_and_poles():
    spec = IdentitySpec("rothe-1", (2,), (2,))
    lhs, rhs = _sides(spec, {"x": Fraction(7), "y": Fraction(5)})
    assert lhs == rhs == multinomial(Fraction(12), (2,))
    with pytest.raises(PoleError) as err:
        verify_identity_at_point(spec, {"x": Fraction(2), "y": Fraction(5)})  # x = 1*z
    assert "x" in str(err.value)


def test_gould_shift_invariance_chain():
    # the eps-shift leaves the convolution sum unchanged, so composing two
    # shifts agrees with the combined shift
    x, y, spec = Fraction(9), Fraction(4), IdentitySpec("gould", (3,), (2,))
    first = _sides(spec, {"x": x, "y": y, "eps": Fraction(1, 2)})
    second = _sides(
        spec, {"x": x + Fraction(1, 2), "y": y - Fraction(1, 2), "eps": Fraction(1, 3)}
    )
    combined = _sides(spec, {"x": x, "y": y, "eps": Fraction(5, 6)})
    assert first[0] == first[1] == second[0] == second[1]
    assert combined == (first[0], second[1])


def test_jensen_value():
    spec = IdentitySpec("jensen", (2,), (2,))
    lhs, rhs = _sides(spec, {"x": Fraction(1, 2), "y": Fraction(1, 3)})
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


# criterion 7 compares the multi-index identities at m = 1 with these four,
# so they are checked here against formulas that share none of their code
@pytest.mark.parametrize("name, reference", [
    ("rothe-1", _rothe_1), ("rothe-2", _rothe_2), ("gould", _gould), ("jensen", _jensen),
], ids=["rothe-1", "rothe-2", "gould", "jensen"])
def test_classical_evaluators_match_the_textbook_formulas(name, reference):
    variables = CATALOG[name].variables
    evaluated = 0
    for n, z in itertools.product(range(5), (0, 1, 2, 3)):
        spec = IdentitySpec(name, (n,), (z,))
        for values in itertools.product(_POINT_VALUES, repeat=len(variables)):
            point = dict(zip(variables, values))
            try:
                expected = reference(**point, z=z, n=n)
            except ZeroDivisionError:  # a textbook denominator vanishes: a declared pole
                with pytest.raises(PoleError):
                    verify_identity_at_point(spec, point)
                continue
            assert _sides(spec, point) == expected, (point, z, n)
            assert expected[0] == expected[1], (point, z, n)
            evaluated += 1
    swept = 20 * len(_POINT_VALUES) ** len(variables)  # 5 values of n times 4 of z
    assert 2 * evaluated > swept  # most points are off the poles


# textbook forms of every other catalog identity, sharing no code with
# identities.py; C(x, k) of a multi-index k is the falling factorial
# x(x-1)...(x-|k|+1) over k_1! ... k_m!, and 0 when some k_i < 0


def _multinomial(x, k):
    if any(c < 0 for c in k):
        return Fraction(0)
    return Fraction(math.prod(x - i for i in range(sum(k)))) / math.prod(map(math.factorial, k))


def _box(n):
    return itertools.product(*(range(c + 1) for c in n))


def _dot(a, b):
    return sum(s * t for s, t in zip(a, b))


def _minus(a, b):
    return tuple(s - t for s, t in zip(a, b))


def _unit(m, i):
    return tuple(int(t == i) for t in range(1, m + 1))


def _abel_1(x, y, z, n):
    lhs = sum(
        _binomial(n, k) * x * Fraction(x - k * z) ** (k - 1) * Fraction(y + k * z) ** (n - k)
        for k in range(n + 1)
    )
    return lhs, Fraction(x + y) ** n


def _abel_2(x, y, z, n):
    lhs = sum(
        _binomial(n, k) * x * (y + n * z)
        * Fraction(x - k * z) ** (k - 1) * Fraction(y + k * z) ** (n - k - 1)
        for k in range(n + 1)
    )
    return lhs, (x + y + n * z) * Fraction(x + y) ** (n - 1)


def _raney_mohanty_1(x, y, n, z):
    lhs = sum(
        Fraction(x) / (x - _dot(k, z))
        * _multinomial(x - _dot(k, z), k) * _multinomial(y + _dot(k, z), _minus(n, k))
        for k in _box(n)
    )
    return lhs, _multinomial(x + y, n)


def _rm2_terms(x, y, n, z):
    """(xy C(x-k.z,k) C(y-(n-k).z,n-k), x-k.z, y-(n-k).z) for each k."""
    for k in _box(n):
        a, b = x - _dot(k, z), y - _dot(_minus(n, k), z)
        yield x * y * _multinomial(a, k) * _multinomial(b, _minus(n, k)), a, b


def _raney_mohanty_2(x, y, n, z):
    lhs = sum(Fraction(prod) / (a * b) for prod, a, b in _rm2_terms(x, y, n, z))
    w = x + y - _dot(n, z)
    return lhs, Fraction(x + y) / w * _multinomial(w, n)


def _rm2_decomposition(x, y, n, z):
    terms = list(_rm2_terms(x, y, n, z))
    lhs = sum(Fraction(prod) / (a * b) for prod, a, b in terms)
    s1 = sum(Fraction(prod) / a for prod, a, _ in terms)
    s2 = sum(Fraction(prod) / b for prod, _, b in terms)
    return lhs, (s1 + s2) / (x + y - _dot(n, z))


def _mohanty_handa(x, y, n, z):
    lhs = sum(
        _multinomial(x + _dot(k, z), k) * _multinomial(y - _dot(k, z), _minus(n, k))
        for k in _box(n)
    )
    rhs = sum(
        _multinomial(x + y - sum(k), _minus(n, k)) * _multinomial(sum(k), k)
        * math.prod(zi**ki for zi, ki in zip(z, k))
        for k in _box(n)
    )
    return lhs, rhs


def _gould_mohanty_sum(x, y, n, z):
    return sum(
        _multinomial(x - _dot(k, z), k) * _multinomial(y + _dot(k, z), _minus(n, k))
        for k in _box(n)
    )


def _gould_mohanty(x, y, eps, n, z):
    return _gould_mohanty_sum(x, y, n, z), _gould_mohanty_sum(x + eps, y - eps, n, z)


def _gmh_special(p, q, n, z):
    return _gould_mohanty(p, q, 1, n, z)


def _kmx(p, q, n, z):
    lhs = 0
    for k in _box(n):
        kz, rest = _dot(k, z), _minus(n, k)
        lhs += _multinomial(p - kz, k) * _multinomial(q + kz, rest)
        for i in range(1, len(n) + 1):
            below = _minus(k, _unit(len(n), i))
            for j in range(1, z[i - 1] + 1):
                lhs += _multinomial(p - kz + j - 1, below) * _multinomial(q + kz - j, rest)
    return lhs, _multinomial(p + q, n)


def _kmpink(p, q, n, z, i, j):
    lhs = rhs = 0
    for k in _box(n):
        kz, below, rest = _dot(k, z), _minus(k, _unit(len(n), i)), _minus(n, k)
        lhs += _multinomial(p - kz + j - 1, below) * _multinomial(q + kz - j, rest)
        rhs += _multinomial(p - kz - 1, below) * _multinomial(q + kz, rest)
    return lhs, rhs


def _pkroth(p, q, n, z):
    lhs = 0
    for k in _box(n):
        kz = _dot(k, z)
        head = _multinomial(p - kz, k) + sum(
            z[i - 1] * _multinomial(p - kz - 1, _minus(k, _unit(len(n), i)))
            for i in range(1, len(n) + 1)
        )
        lhs += head * _multinomial(q + kz, _minus(n, k))
    return lhs, _multinomial(p + q, n)


def _absorption(p, k, z, i):
    kz = _dot(k, z)
    lhs = _multinomial(p - kz - 1, _minus(k, _unit(len(k), i)))
    return lhs, Fraction(k[i - 1]) / (p - kz) * _multinomial(p - kz, k)


def _mh_expansion(x, y, n, z):
    lhs = sum(
        _multinomial(x + _dot(k, z), k) * _multinomial(y - _dot(k, z), _minus(n, k))
        for k in _box(n)
    )
    rhs = _multinomial(x + y, n) + sum(
        z[i - 1] * _multinomial(x - 1 + _dot(k, z), _minus(k, _unit(len(n), i)))
        * _multinomial(y - _dot(k, z), _minus(n, k))
        for i in range(1, len(n) + 1)
        for k in _box(n)
    )
    return lhs, rhs


REFERENCES = {
    "abel-1": _abel_1, "abel-2": _abel_2, "rothe-1": _rothe_1, "rothe-2": _rothe_2,
    "gould": _gould, "jensen": _jensen,
    "raney-mohanty-1": _raney_mohanty_1, "raney-mohanty-2": _raney_mohanty_2,
    "mohanty-handa": _mohanty_handa, "gould-mohanty": _gould_mohanty,
    "gmh-special": _gmh_special, "kmx": _kmx, "kmpink": _kmpink, "pkroth": _pkroth,
    "absorption": _absorption, "rm2-decomposition": _rm2_decomposition,
    "mh-expansion": _mh_expansion,
}
COHERENT = {
    "gould-mohanty-vs-gould": ("gould-mohanty", "gould"),
    "raney-mohanty-1-vs-rothe-1": ("raney-mohanty-1", "rothe-1"),
    "mohanty-handa-vs-jensen": ("mohanty-handa", "jensen"),
}
_REFERENCE_SHAPES = [  # (n, z) at m = 1, 2 and 3
    ((0,), (1,)), ((2,), (1,)), ((3,), (2,)),
    ((1, 2), (1, 2)), ((2, 1), (0, 1)), ((1, 1), (2, 3)),
    ((1, 1, 1), (1, 0, 2)),
]
_REFERENCE_VALUES = [-3, 5, Fraction(7, 2), Fraction(-2, 3)]


def _every_letter(needs, n, z):
    """Each (i, j) an entry taking needs may get at (n, z): every i in
    1..m, and every j in 1..z_i."""
    if "j" in needs:
        return [(i, j) for i in range(1, len(n) + 1) for j in range(1, z[i - 1] + 1)]
    if "i" in needs:
        return [(i, None) for i in range(1, len(n) + 1)]
    return [(None, None)]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_side_matches_its_textbook_formula(name):
    # each side separately, through the entry's bound body and through the
    # point check: exchanging two arguments of a body (gould's x and eps,
    # say) can leave an identity that still holds on every grid
    entry = CATALOG[name]
    multi, single = COHERENT.get(name, (name, None))
    evaluated = swept = 0
    for n, z in _REFERENCE_SHAPES:
        if entry.classical and len(n) > 1:
            continue
        for (i, j), values in itertools.product(
            _every_letter(entry.needs, n, z),
            itertools.product(_REFERENCE_VALUES, repeat=len(entry.variables)),
        ):
            if entry.classical and not single:
                fixed = {"n": n[0], "z": z[0]}
            else:
                fixed = {entry.param_name: n, "z": z}
                fixed.update({flag: v for flag, v in (("i", i), ("j", j)) if v is not None})
            point = dict(zip(entry.variables, values))  # the references bind by name
            where = (name, n, z, i, j, point)
            swept += 1
            spec = IdentitySpec(name, n, z, i=i, j=j)
            try:
                expected = [REFERENCES[multi](**point, **fixed)]
                if single:
                    single_pair = REFERENCES[single](**point, n=n[0], z=z[0])
                    (left, right), (single_left, single_right) = expected[0], single_pair
                    expected = [(left, single_left), (right, single_right), (left, right)]
            except ZeroDivisionError:  # a textbook denominator vanishes: a declared pole
                with pytest.raises(PoleError):
                    verify_identity_at_point(spec, point)
                continue
            pairs = entry.bind(spec, identities._table[n, z])(*values)
            assert len(pairs) == len(expected), where
            for (left, right), (want_left, want_right) in zip(pairs, expected):
                assert left == want_left and right == want_right, where
                assert want_left == want_right, where
            assert _sides(spec, point) == expected[0], where
            evaluated += 1
    assert 2 * evaluated > swept  # most points are off the poles


def test_kmx_equals_vandermonde_total():
    lhs, rhs = _sides(IdentitySpec("kmx", (2,), (1,)), {"p": Fraction(6), "q": Fraction(3)})
    assert lhs == rhs == multinomial(Fraction(9), (2,))


def test_absorption_value():
    # C(p - k.z - 1, k - e_i) = (k_i / (p - k.z)) C(p - k.z, k)
    spec = IdentitySpec("absorption", (2, 1), (1, 2), i=1)
    lhs, rhs = _sides(spec, {"p": Fraction(10)})
    assert lhs == rhs
    with pytest.raises(PoleError):
        verify_identity_at_point(spec, {"p": Fraction(4)})  # p - k.z = 0


def test_point_sides_are_exact_fractions():
    report = verify_identity_at_point(
        IdentitySpec("gould-mohanty", (1, 1), (1, 2)),
        {"x": Fraction(7, 2), "y": Fraction(5, 3), "eps": Fraction(1, 5)},
    )
    assert report.ok and report.left == report.right
    assert type(parse_scalar(report.left)) is Fraction


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
            axes, _, _ = identities._select_axes(spec, entry)
            pairs_at = entry.bind(spec, identities._table[n, z])
            for values in itertools.product(*(axes[v] for v in entry.variables)):
                for pair in pairs_at(*values):
                    assert all(type(v) in (int, Fraction) for v in pair), (name, n, z, values)
    # a point of integral Fractions reports what the same point of ints does
    for name, entry in CATALOG.items():
        spec = _default_spec(name)
        reports = [
            verify_identity_at_point(spec, dict(zip(entry.variables, values))).to_dict()
            for values in ((11, 13, 17), (Fraction(11), Fraction(13), Fraction(17)))
        ]
        assert reports[0] == reports[1] and reports[0]["verdict"] == "equal", name
    # C(x, n) is an int at every integer x, negative ones included
    for x in range(-6, 9):
        for n in ((0,), (3,), (2, 1), (1, 0, 2), (1, -1), ()):
            assert type(multinomial(x, n)) is int, (x, n)
            assert type(multinomial(Fraction(x), n)) is int, (x, n)
    assert type(multinomial(Fraction(1, 2), (2,))) is Fraction


@given(
    name=st.sampled_from(ALL_NAMES),
    slot=st.integers(min_value=0, max_value=2),
    bad=st.one_of(st.booleans(), st.floats()),
)
@settings(max_examples=200)
def test_float_and_bool_variables_are_refused(name, slot, bad):
    entry = CATALOG[name]
    pt = dict(zip(entry.variables, (11, 13, 17)))
    target = entry.variables[slot % len(entry.variables)]
    pt[target] = bad
    with pytest.raises(PreconditionError, match=f"^{target} must be an int or a Fraction"):
        verify_identity_at_point(_default_spec(name), pt)


def test_letter_indices_must_be_naturals():
    for i, j in ((True, 1), (1, True), (1.0, 1), (1, 1.0)):
        spec = IdentitySpec("kmpink", (1, 1), (1, 2), i=i, j=j)
        with pytest.raises(PreconditionError, match="must be a natural number"):
            verify_identity_on_grid(spec)
        with pytest.raises(PreconditionError, match="must be a natural number"):
            verify_identity_at_point(spec, {"p": 11, "q": 13})
    with pytest.raises(PreconditionError, match="must be a natural number"):
        verify_identity_on_grid(IdentitySpec("absorption", (1, 1), (1, 2), i=True))
    report = verify_identity_on_grid(IdentitySpec("kmpink", (1, 1), (1, 2), i=1, j=1))
    assert report.ok and report.params["i"] == 1


# ---------------------------------------------------------------------------
# pole completeness: every declared pole raises PoleError, and every point off
# the declared poles evaluates (an undeclared pole would divide by zero)
# ---------------------------------------------------------------------------

HALF = Fraction(1, 2)
CLASSICAL_SPECS = [((n,), (z,)) for z in (0, 1, 2, 3) for n in range(4)]
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
        for name, entry in CATALOG.items()
        if name not in COHERENT and entry.poles((1,), (1,))
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
        spec = _default_spec(name, n, z)
        poles = entry.poles(n, z)
        hit = set()
        axes = [_near_poles(poles, v) for v in variables]
        for values in itertools.product(*axes):
            pt = dict(zip(variables, values))
            on = {p for p in poles if sum(pt[v] for v in p.vars) == p.c}
            if on:
                with pytest.raises(PoleError):
                    verify_identity_at_point(spec, pt)
                hit |= on
            else:
                assert verify_identity_at_point(spec, pt).ok, (name, n, z, pt)
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
        verify_identity_at_point(IdentitySpec("raney-mohanty-2", (1, 1), (1, 1)), {"x": 1, "y": 1})


# ---------------------------------------------------------------------------
# the epsilon-telescoping replay: integer-shift Gould-Mohanty is the
# composition of unit shifts
# ---------------------------------------------------------------------------


def _telescope(n, z, x, y, shift):
    """Gould-Mohanty's two sides at eps = shift, and gmh-special's at each
    unit step (x + t, y - t) for t = 0..shift - 1."""
    sides = _sides(IdentitySpec("gould-mohanty", n, z), {"x": x, "y": y, "eps": shift})
    special = IdentitySpec("gmh-special", n, z)
    return sides, [_sides(special, {"p": x + t, "q": y - t}) for t in range(shift)]


def test_gould_mohanty_integer_eps_telescopes_through_gmh_special():
    (lhs, rhs), chain = _telescope((2,), (2,), Fraction(11), Fraction(9), 4)
    for left, right in chain:
        assert left == right  # each unit step is an identity instance
    for (_, right), (nxt_left, _) in zip(chain, chain[1:]):
        assert right == nxt_left  # adjacent links share their middle value
    assert chain[0][0] == lhs
    assert chain[-1][1] == rhs


def test_gould_mohanty_multi_index_telescoping():
    (lhs, rhs), chain = _telescope((1, 1), (1, 2), Fraction(8), Fraction(7), 3)
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


def test_a_default_axis_starts_past_a_planted_pole(monkeypatch):
    # a default axis starts at 0, raised past every declared pole in its
    # variable alone: a further pole x = n.z + 5 moves x's start from n.z + 1
    # to n.z + 6, so the grid skips nothing (n.z = 5 here, and |n| + 1 = 5
    # values per axis); y has no pole and starts at 0
    entry = CATALOG["raney-mohanty-1"]

    def poles(n, z):
        return entry.poles(n, z) + [identities._Pole(("x",), 10)]

    monkeypatch.setitem(CATALOG, entry.name, dataclasses.replace(entry, poles=poles))
    report = verify_identity_on_grid(IdentitySpec(identity=entry.name, n=(3, 1), z=(1, 2)))
    assert report.ok
    assert report.grid["axes"] == {"x": [11, 12, 13, 14, 15], "y": [0, 1, 2, 3, 4]}
    assert report.grid["skipped"] == {}


def test_a_free_variable_named_t_gets_a_default_axis(monkeypatch):
    # the grid knows no variable by name: a body in t alone, Vandermonde's
    # sum_k C(t, k) C(t, n - k) = C(2t, n), verifies on a default grid whose
    # one axis starts at 0.  Its fixed parameters z and table come first
    monkeypatch.setitem(CATALOG, "planted-t", None)  # undo removes the entry
    received = []

    @identities._identity("planted-t")
    def planted(z, table, t):
        """sum_k C(t, k) C(t, n - k)  vs  C(2t, n)."""
        received.append((z, table))
        return [(sum(ck[t] * cr[t] for _, ck, cr, _, _, _ in table.terms), table.cn[2 * t])]

    assert CATALOG["planted-t"].variables == ("t",)
    assert (CATALOG["planted-t"].param_name, CATALOG["planted-t"].needs) == ("n", frozenset())
    spec = IdentitySpec(identity="planted-t", n=(2, 1), z=(1, 2))
    # the decorator returns the body itself, table parameter and all, and the
    # entry binds it to spec.z and the terms table of (n, z)
    table = identities._table[spec.n, spec.z]
    assert CATALOG["planted-t"].bind(spec, table)(5) == planted(spec.z, table, 5)
    assert received[0] == received[1] and received[0][0] == spec.z
    assert received[0][1] is table
    # a fixed name after a free variable is refused at declaration, by name
    with pytest.raises(TypeError, match="planted-late"):

        @identities._identity("planted-late")
        def late(x, table):
            return [(table.cn[x], table.cn[x])]

    assert "planted-late" not in CATALOG
    report = verify_identity_on_grid(spec)
    assert report.ok
    assert report.grid == {
        "axes": {"t": [0, 1, 2, 3]}, "degree_bounds": {"t": 3}, "skipped": {}, "points": 4
    }


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


def test_point_verification_refuses_a_grid_range():
    # a point check draws no grid, so a range given with it is refused, not ignored
    spec = IdentitySpec(identity="rothe-1", n=(2,), z=(1,), grid_range=(0, 9))
    with pytest.raises(PreconditionError, match="^--point and --grid-range exclude each other$"):
        verify_identity_at_point(spec, {"x": Fraction(5), "y": Fraction(1)})


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


def test_every_identity_verifies_on_a_range_below_zero_across_its_poles():
    # the bodies meet negative arguments, and every rational form skips a
    # pole inside the range: the range starts 3 below the lowest declared
    # constant (0 without poles), so |n| + 1 = 4 values reach it, and runs
    # past the highest
    for name, entry in CATALOG.items():
        n, z = ((3,), (1,)) if entry.classical else ((2, 1), (0, 1))
        cs = [pole.c for pole in entry.poles(n, z)] or [0]
        grid_range = (min(cs) - 3, max(cs) + 9)
        spec = dataclasses.replace(_default_spec(name, n, z), grid_range=grid_range)
        report = verify_identity_on_grid(spec)
        assert report.ok, (name, report.counterexample)
        assert all(axis[0] < 0 for axis in report.grid["axes"].values()), name
        assert bool(report.grid["skipped"]) == bool(entry.poles(n, z)), name


def test_gmh_special_grid_runs_the_gould_mohanty_body_unchecked(monkeypatch):
    calls = []
    monkeypatch.setattr(identities, "_check_poles", lambda *args: calls.append(args))
    spec = IdentitySpec(identity="gmh-special", n=(2, 1), z=(1, 2))
    table = identities._table[spec.n, spec.z]
    pairs = CATALOG["gmh-special"].bind(spec, table)(7, 5)
    gould_mohanty = dataclasses.replace(spec, identity="gould-mohanty")
    assert pairs == CATALOG["gould-mohanty"].bind(gould_mohanty, table)(7, 5, 1)
    assert calls == []  # no argument or pole re-check per grid point
    monkeypatch.undo()
    assert _sides(spec, {"p": Fraction(7, 2), "q": 5}) == _sides(
        gould_mohanty, {"x": Fraction(7, 2), "y": 5, "eps": 1}
    )


def test_mismatch_produces_counterexample_with_rerun_command(monkeypatch):
    entry = CATALOG["rothe-1"]

    def broken(spec, table):
        pairs_at = entry.bind(spec, table)
        return lambda *values: [(left, right + 1) for left, right in pairs_at(*values)]

    monkeypatch.setitem(CATALOG, "rothe-1", dataclasses.replace(entry, bind=broken))
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
    assert calls == [{"x": 3, "y": 0}]
    assert ce == {
        "point": {"x": "3", "y": "0"}, "left": "3", "right": "4", "pair": 0,
        "rerun": "gradedwords verify rothe-1 --n 2 --z 1 --point x=3,y=0",
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

    def broken(spec, table):
        pairs_at = entry.bind(spec, table)

        def pairs_broken(*values):
            pairs = pairs_at(*values)
            if dict(zip(entry.variables, values))["x"] == 4:
                left, right = pairs[2]
                pairs[2] = (left, right - 1)
            return pairs

        return pairs_broken

    monkeypatch.setitem(CATALOG, name, dataclasses.replace(entry, bind=broken))
    calls = _counterexample_calls(monkeypatch)
    report = verify_identity_on_grid(IdentitySpec(identity=name, n=(2,), z=(1,)))
    assert report.verdict == "mismatch"
    assert calls == [{"x": 4, "y": 0}]
    ce = report.counterexample
    assert (ce["point"], ce["pair"]) == ({"x": "4", "y": "0"}, 2)
    assert int(ce["left"]) == int(ce["right"]) + 1


# ---------------------------------------------------------------------------
# the process's rows of C(x, k), and the one division of a rational side
# ---------------------------------------------------------------------------


def _kept():
    """Every (x, k) the process's rows hold, with its value."""
    return {(x, k): value for k, row in identities._ROWS.items() for x, value in row.items()}


def _counting(monkeypatch, *shapes):
    """The (x, k) of every call of arith's multinomial from now on, once the
    terms tables of the (n, z) in shapes are built (their weights call it)."""
    for n, z in shapes:
        identities._table[n, z]
    calls = []
    real = arith.multinomial

    def counted(x, k):
        calls.append((x, k))
        return real(x, k)

    monkeypatch.setattr(arith, "multinomial", counted)
    return calls


def test_multinomial_runs_once_per_value_across_grids_and_a_point(monkeypatch, empty_memos):
    calls = _counting(monkeypatch, ((2, 1), (1, 2)))
    spec = IdentitySpec("gould-mohanty", (2, 1), (1, 2))
    assert verify_identity_on_grid(spec).ok
    # each of the 64 points reads 4 values per term (6 terms), but C(x - k.z,
    # k) does not depend on y or eps: the grid reaches 48 distinct (x, k)
    assert len(calls) == 48 == len(_kept())
    # kmx on the same (n, z) reads the rows C(., k - e_i) too, and the point
    # one value past the grid; neither computes a value twice
    assert verify_identity_on_grid(IdentitySpec("kmx", (2, 1), (1, 2))).ok
    assert verify_identity_at_point(spec, {"x": 9, "y": 2, "eps": 1}).ok
    assert 48 < len(calls) == len(set(calls)) == len(_kept())
    # all three again read every value from the rows
    before = len(calls)
    assert verify_identity_on_grid(spec).ok
    assert verify_identity_on_grid(IdentitySpec("kmx", (2, 1), (1, 2))).ok
    assert verify_identity_at_point(spec, {"x": 9, "y": 2, "eps": 1}).ok
    assert len(calls) == before


def test_a_sweep_past_the_cap_keeps_at_most_the_cap(empty_memos):
    # rows of several tables filled far past the cap: the miss that finds the
    # cap reached empties every row in place, so the rows a table holds stay
    # its rows, and they never hold more than the cap together
    cap = identities._ROWS.most
    tables = [identities._table[n, z] for n, z in (((2,), (1,)), ((1, 1), (1, 2)))]
    rows = [table.cn for table in tables] + [tables[0].terms[1][1]]
    for x in range(-cap, cap // 2):
        for row in rows:
            row[x]
        if x % 997 == 0:
            assert sum(map(len, identities._ROWS.values())) <= identities._ROWS.kept <= cap
    assert len(_kept()) == identities._ROWS.kept <= cap
    assert tables[0].cn is identities._ROWS[(2,)] and tables[1].cn is identities._ROWS[(1, 1)]
    assert all(value == multinomial(x, k) for (x, k), value in _kept().items())
    assert verify_identity_on_grid(IdentitySpec("rothe-1", (2,), (1,))).ok


def test_a_body_that_raises_leaves_only_values_multinomial_returned(monkeypatch, empty_memos):
    entry = CATALOG["kmx"]
    points = []

    def fault(spec, table):
        pairs_at = entry.bind(spec, table)

        def pairs_fault(*values):
            points.append(values)
            pairs = pairs_at(*values)
            if len(points) == 5:
                raise RuntimeError("body fault")
            return pairs

        return pairs_fault

    monkeypatch.setitem(CATALOG, "kmx", dataclasses.replace(entry, bind=fault))
    with pytest.raises(RuntimeError, match="body fault"):
        verify_identity_on_grid(IdentitySpec("kmx", (1, 1), (1, 2)))
    kept = _kept()
    assert kept and all(value == multinomial(x, k) for (x, k), value in kept.items())
    # a fill that raises keeps nothing: every value held is one it returned
    real = arith.multinomial

    def refuse(x, k):
        if (x, k) == (4, (1, 1)):
            raise RuntimeError("fill fault")
        return real(x, k)

    assert (4, (1, 1)) not in kept  # the grid reaches it past its fifth point
    monkeypatch.setattr(arith, "multinomial", refuse)
    monkeypatch.setitem(CATALOG, "kmx", entry)
    with pytest.raises(RuntimeError, match="fill fault"):
        verify_identity_on_grid(IdentitySpec("kmx", (1, 1), (1, 2)))
    assert (4, (1, 1)) not in _kept()
    assert all(value == multinomial(x, k) for (x, k), value in _kept().items())
    assert identities._ROWS.kept == len(_kept())


def test_a_grid_inside_a_grid_shares_the_rows(monkeypatch, empty_memos):
    # a rothe-1 grid runs before every point of a gould-mohanty grid: the
    # inner grid fills its rows once, and the outer grid reads its own values
    # from the same rows, so arith's multinomial runs once per distinct
    # (x, k) of both grids together
    entry = CATALOG["gould-mohanty"]
    calls = _counting(monkeypatch, ((2, 1), (1, 2)), ((2,), (1,)))
    inner = []

    def nested(spec, table):
        pairs_at = entry.bind(spec, table)

        def pairs_nested(*values):
            mark = len(calls)
            assert verify_identity_on_grid(IdentitySpec("rothe-1", (2,), (1,))).ok
            inner.append(len(calls) - mark)
            return pairs_at(*values)

        return pairs_nested

    monkeypatch.setitem(CATALOG, "gould-mohanty", dataclasses.replace(entry, bind=nested))
    assert verify_identity_on_grid(IdentitySpec("gould-mohanty", (2, 1), (1, 2))).ok
    assert len(inner) == 64 and inner[0] > 0 and set(inner[1:]) == {0}
    assert len(calls) == len(set(calls)) == 48 + inner[0] == len(_kept())


def test_point_checks_read_the_shared_rows(monkeypatch, empty_memos):
    calls = _counting(monkeypatch, ((3,), (1,)), ((2,), (1,)))
    # rothe-1 at n = 3 reads 9 values: C(x - kz, k) C(y + kz, 3 - k) for
    # k = 0..3, and C(x + y, 3); a second check reads all 9 from the rows
    spec = IdentitySpec("rothe-1", (3,), (1,))
    assert verify_identity_at_point(spec, {"x": 7, "y": 5}).ok
    assert len(calls) == 9
    assert verify_identity_at_point(spec, {"x": 7, "y": 5}).ok
    assert len(calls) == 9
    # at x = 7/2 the rows of C(y + kz, 3 - k) already hold y = 5's values
    assert verify_identity_at_point(spec, {"x": Fraction(7, 2), "y": 5}).ok
    assert len(calls) == 9 + 5
    report = verify_identity_at_point(IdentitySpec("gould", (2,), (1,)), {"x": 3, "y": 5, "eps": 1})
    assert report.ok and len(calls) == len(set(calls)) == len(_kept())
    # the point checks read the rows of one table per (n, z)
    assert identities._table[(3,), (1,)].cn is identities._ROWS[(3,)]


def test_a_wrong_memo_entry_is_a_mismatch(monkeypatch, empty_memos):
    # the first point of the rothe-1 grid at n = 2, z = 1 is x = 3, y = 0,
    # whose right side is C(x + y, 2) = C(3, 2) = 3; the rows fill from the
    # multinomial arith holds when they fill
    real = arith.multinomial

    def wrong(x, n):
        return 16 if (x, n) == (3, (2,)) else real(x, n)

    monkeypatch.setattr(arith, "multinomial", wrong)
    spec = IdentitySpec("rothe-1", (2,), (1,))
    report = verify_identity_on_grid(spec)
    assert report.verdict == "mismatch"
    assert report.counterexample["point"] == {"x": "3", "y": "0"}
    assert report.counterexample["right"] == "16"
    monkeypatch.undo()
    assert arith.multinomial is real is multinomial
    # the planted value stays in the rows until they are emptied
    assert verify_identity_on_grid(spec).counterexample["right"] == "16"
    empty_every_memo()
    assert verify_identity_on_grid(spec).ok


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
