"""The convolution-identity catalog: evaluators, pole handling, grid
certification, and the counterexample machinery."""

from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction

import pytest

from gradedwords import (
    CATALOG,
    GridExhaustedError,
    IdentitySpec,
    PoleError,
    PreconditionError,
    catalog_names,
    identity_variables,
    multinomial,
    verify_identity_at_point,
    verify_identity_on_grid,
)
from gradedwords.identities import (
    _poles_abel_1,
    _poles_abel_2,
    _poles_absorption,
    _poles_x,
    _poles_xy,
    check_absorption,
    check_rm2_decomposition,
    eval_abel_1,
    eval_abel_2,
    eval_gmh_special,
    eval_gould,
    eval_gould_mohanty,
    eval_jensen,
    eval_kmx,
    eval_raney_mohanty_1,
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
    assert catalog_names() == ALL_NAMES


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


# ---------------------------------------------------------------------------
# pole completeness: every declared pole raises PoleError, and every point off
# the declared poles evaluates (an undeclared pole would divide by zero)
# ---------------------------------------------------------------------------

HALF = Fraction(1, 2)
CLASSICAL_SPECS = [((n,), (z,)) for z in (0, 1, 2, HALF) for n in range(4)]
MULTI_SPECS = [(n, z) for z in ((1, 2), (0, 1)) for n in ((0, 0), (1, 0), (1, 1), (2, 1))]


def _classical(evaluate):
    return lambda pt, n, z: evaluate(pt["x"], pt["y"], z[0], n[0])


def _multi(evaluate):
    return lambda pt, n, z: evaluate(pt["x"], pt["y"], n, z)


POLE_SWEEPS = {
    "abel-1": (_classical(eval_abel_1), _poles_abel_1, CLASSICAL_SPECS),
    "abel-2": (_classical(eval_abel_2), _poles_abel_2, CLASSICAL_SPECS),
    "rothe-1": (_classical(eval_rothe_1), _poles_x, CLASSICAL_SPECS),
    "rothe-2": (_classical(eval_rothe_2), _poles_xy, CLASSICAL_SPECS),
    "raney-mohanty-1": (_multi(eval_raney_mohanty_1), _poles_x, MULTI_SPECS),
    "raney-mohanty-2": (_multi(eval_raney_mohanty_2), _poles_xy, MULTI_SPECS),
    "rm2-decomposition": (_multi(check_rm2_decomposition), _poles_xy, MULTI_SPECS),
    "absorption": (
        lambda pt, k, z: check_absorption(pt["p"], k, z, len(k)),
        _poles_absorption,
        MULTI_SPECS + [((0,), (1,)), ((3,), (2,))],
    ),
}


def _near_poles(poles, var):
    """Every single-variable pole of var, its half-integer neighbours, and a
    few small half-integers (which also reach the joint x + y poles)."""
    near = {p.c + d for p in poles if p.vars == (var,) for d in (-HALF, 0, HALF)}
    return sorted(near | {Fraction(j, 2) for j in range(-4, 5)})


@pytest.mark.parametrize("name", list(POLE_SWEEPS))
def test_declared_poles_are_complete(name):
    evaluate, declared, specs = POLE_SWEEPS[name]
    variables = ("p",) if name == "absorption" else ("x", "y")
    for n, z in specs:
        poles = declared(n, z)
        hit = set()
        axes = [_near_poles(poles, v) for v in variables]
        for values in itertools.product(*axes):
            pt = dict(zip(variables, values))
            on = {p for p in poles if sum(pt[v] for v in p.vars) == p.c}
            if on:
                with pytest.raises(PoleError):
                    evaluate(pt, n, z)
                hit |= on
            else:
                lhs, rhs = evaluate(pt, n, z)
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


def test_mismatch_produces_counterexample_with_rerun_command(monkeypatch):
    entry = CATALOG["rothe-1"]

    def broken(point, spec):
        pairs = entry.evaluate(point, spec)
        return [(left, right + 1) for left, right in pairs]

    monkeypatch.setitem(CATALOG, "rothe-1", dataclasses.replace(entry, evaluate=broken))
    report = verify_identity_on_grid(IdentitySpec(identity="rothe-1", n=(2,), z=(1,)))
    assert not report.ok
    assert report.verdict == "mismatch"
    ce = report.counterexample
    assert set(ce) == {"point", "left", "right", "pair", "rerun"}
    assert ce["rerun"].startswith("gradedwords verify rothe-1")
    assert "--point" in ce["rerun"]
    # the rerun command names every variable of the identity
    assert "x=" in ce["rerun"] and "y=" in ce["rerun"]
