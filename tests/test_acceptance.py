"""Acceptance gate: every release criterion, verified exactly.

Each criterion prints a single pass/fail line (bypassing output capture) so a
full run reads as a checklist.  Every comparison is exact — Fractions and
integers only, no tolerances anywhere.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import sys
from contextlib import contextmanager
from fractions import Fraction

from gradedwords import (
    GradedAlphabet,
    IdentitySpec,
    WordClassSpec,
    check_generating_function_1,
    check_generating_function_2,
    count_prefix_class,
    count_words,
    dot,
    enumerate_words,
    functional_equation_residual,
    multinomial,
    shift_by,
    shift_down,
    solve_functional_equation,
    verify_identity_on_grid,
    verify_raney_decomposition,
)
from gradedwords.cli import default_manifest, run_suite
from gradedwords.identities import CATALOG, _table, _select_axes, _validate

MAX_WEIGHT = 14
MAX_NORM = 4


@contextmanager
def criterion(label: str, capfd):
    """Print one checklist line per criterion, past pytest's capture."""
    info: dict = {}
    try:
        yield info
    except BaseException:
        with capfd.disabled():
            print(f"{label}: FAIL", file=sys.stderr, flush=True)
        raise
    suffix = f"  [{info['detail']}]" if "detail" in info else ""
    with capfd.disabled():
        print(f"{label}: PASS{suffix}", flush=True)


def _multi_indices(m: int, bound: int = MAX_NORM):
    return [k for k in itertools.product(range(bound + 1), repeat=m) if sum(k) <= bound]


def _gradings(values):
    for m in (1, 2):
        for z in itertools.product(values, repeat=m):
            yield z


# ---------------------------------------------------------------------------
# criteria 1 and 2: counting formulas against enumeration
# ---------------------------------------------------------------------------


def test_criterion_1_counting_formula(capfd):
    cases = 0
    with criterion("criterion 1 (word-class counting formula vs enumeration)", capfd) as info:
        for z in _gradings((0, 1, 2, 3)):
            alphabet = GradedAlphabet(z=z)
            ks = _multi_indices(len(z))
            for p in range(MAX_WEIGHT + 1):
                for k in ks:
                    formula = count_words(p, k, alphabet)
                    enumerated = sum(
                        1 for _ in enumerate_words(WordClassSpec(p=p, k=k), alphabet)
                    )
                    assert formula == enumerated, (z, p, k, formula, enumerated)
                    if p - dot(k, z) >= 0:
                        assert formula == multinomial(p - dot(k, z), k)
                    cases += 1
        assert cases > 3000  # "several thousand cases"
        info["detail"] = f"{cases} cases"


def test_criterion_2_prefix_class_count(capfd):
    cases = 0
    with criterion("criterion 2 (prefix-class convolution count vs enumeration)", capfd) as info:
        for z in _gradings((0, 1, 2, 3)):
            alphabet = GradedAlphabet(z=z)
            for n in _multi_indices(len(z)):
                nz = dot(n, z)
                for total in range(2 * nz, MAX_WEIGHT + 1):
                    words = None
                    for p in range(nz, total - nz + 1):
                        q = total - p  # q >= nz by the loop bound
                        if words is None:
                            words = list(
                                enumerate_words(WordClassSpec(p=total, k=n), alphabet)
                            )
                        enumerated = sum(
                            1 for w in words if w.prefix_cut(p) is not None
                        )
                        formula = count_prefix_class(p, q, n, alphabet)
                        assert formula == enumerated, (z, n, p, q, formula, enumerated)
                        cases += 1
        info["detail"] = f"{cases} cases"


# ---------------------------------------------------------------------------
# criteria 3 and 4: the weight-shift bijection and its r-fold composition
# ---------------------------------------------------------------------------

_SHIFT_TABLES: dict = {}


def _shift_tables():
    """classes[p] and the unit-shift map for every admissible class with
    total weight <= MAX_WEIGHT; computed once, shared by criteria 3 and 4."""
    if _SHIFT_TABLES:
        return _SHIFT_TABLES
    for z in _gradings((1, 2, 3)):
        alphabet = GradedAlphabet(z=z)
        for n in _multi_indices(len(z)):
            nz = dot(n, z)
            for total in range(2 * nz + 1, MAX_WEIGHT + 1):
                words = list(enumerate_words(WordClassSpec(p=total, k=n), alphabet))
                if not words:
                    continue
                pmax = total - nz - 1  # q = total - nz - p >= 1
                classes = {
                    p: [w for w in words if w.prefix_cut(p) is not None]
                    for p in range(nz, pmax + 2)
                }
                step = {
                    p: [(w, shift_by(w, p, 1)) for w in classes[p]]
                    for p in range(nz, pmax + 1)
                }
                _SHIFT_TABLES[(z, n, total)] = (classes, step)
    return _SHIFT_TABLES


def test_criterion_3_weight_shift_bijection(capfd):
    checked = 0
    with criterion("criterion 3 (weight-shift bijection verified word-for-word)", capfd) as info:
        for (z, n, total), (classes, step) in _shift_tables().items():
            for p, pairs in step.items():
                target = classes[p + 1]
                assert len(classes[p]) == len(target), (z, n, total, p)
                images = [image for _, image in pairs]
                assert len(set(images)) == len(images), "injectivity"
                assert set(images) == set(target), "surjectivity"
                for w, image in pairs:
                    assert image.weight == w.weight
                    assert image.counts == w.counts
                    assert shift_down(image, p) == w, (z, n, total, p, str(w))
                checked += 1
        info["detail"] = f"{checked} class pairs"


def test_criterion_4_r_fold_shift(capfd):
    checked = 0
    with criterion("criterion 4 (r-fold shift bijection for all q >= r >= 1)", capfd) as info:
        for (z, n, total), (classes, step) in _shift_tables().items():
            nz = dot(n, z)
            maps = {p: dict(pairs) for p, pairs in step.items()}
            for p in maps:
                q = total - nz - p
                current = {w: w for w in classes[p]}
                for r in range(1, q + 1):
                    current = {
                        w: maps[p + r - 1][image] for w, image in current.items()
                    }
                    for w, image in current.items():
                        assert shift_by(w, p, r) == image, (z, n, total, p, r, str(w))
                    images = set(current.values())
                    assert len(images) == len(classes[p])
                    assert images == set(classes[p + r])
                    checked += 1
        info["detail"] = f"{checked} (p, r) maps"


# ---------------------------------------------------------------------------
# criterion 5: the overshoot decomposition
# ---------------------------------------------------------------------------


def test_criterion_5_raney_decomposition(capfd):
    checked = 0
    with criterion(
        "criterion 5 (overshoot decomposition tallies match the cardinality identity)",
        capfd,
    ) as info:
        for z in _gradings((1, 2, 3)):
            alphabet = GradedAlphabet(z=z)
            for n in _multi_indices(len(z)):
                nz = dot(n, z)
                for p in range(nz, MAX_WEIGHT):
                    for q in range(1, MAX_WEIGHT + 1 - p - nz):
                        report = verify_raney_decomposition(p, q, n, alphabet)
                        assert report.ok, (z, n, p, q, report.to_dict())
                        checked += 1
        info["detail"] = f"{checked} configurations"


# ---------------------------------------------------------------------------
# criteria 6 and 7: the identity catalog and classical coherence
# ---------------------------------------------------------------------------

_CLASSICAL = ["abel-1", "abel-2", "rothe-1", "rothe-2", "gould", "jensen"]
_MULTI = [
    "raney-mohanty-1", "raney-mohanty-2", "mohanty-handa", "gould-mohanty",
    "gmh-special", "kmx", "kmpink", "pkroth", "absorption",
    "rm2-decomposition", "mh-expansion",
]
_COHERENCE = [
    "gould-mohanty-vs-gould",
    "raney-mohanty-1-vs-rothe-1",
    "mohanty-handa-vs-jensen",
]


def _identity_configs(name: str, z: tuple, n: tuple):
    """The (i, j) combinations an identity admits at this grading."""
    m = len(z)
    if name == "kmpink":
        return [(i, j) for i in range(1, m + 1) for j in range(1, z[i - 1] + 1)]
    if name == "absorption":
        return [(i, None) for i in range(1, m + 1)]
    return [(None, None)]


def _catalog_sweep():
    """Every catalog spec criterion 6 certifies."""
    for m in (1, 2):
        names = (_CLASSICAL if m == 1 else []) + _MULTI
        for z in itertools.product((0, 1, 3), repeat=m):
            for n in _multi_indices(m):
                for name in names:
                    for i, j in _identity_configs(name, z, n):
                        yield IdentitySpec(identity=name, n=n, z=z, i=i, j=j)


def test_criterion_6_identity_catalog(capfd):
    verified = 0
    with criterion("criterion 6 (identity catalog verifies on degree-bound grids)", capfd) as info:
        for spec in _catalog_sweep():
            report = verify_identity_on_grid(spec)
            assert report.ok, (
                spec.identity, spec.n, spec.z, spec.i, spec.j, report.counterexample,
            )
            verified += 1
        info["detail"] = f"{verified} grid certifications"


def _suite_grid_specs():
    """The identity specs of the built-in suite's grid members."""
    for member in default_manifest():
        if member["command"] == "verify" and "point" not in member:
            yield IdentitySpec(
                identity=member["identity"],
                n=tuple(member.get("n") or member["k"]),
                z=tuple(member["z"]),
                i=member.get("i"),
                j=member.get("j"),
            )


def test_default_grids_start_above_every_pole():
    # a default axis scans degree + 1 + (values blocked) candidates from its
    # start: over criterion 6's sweep and the suite's grids, every value a
    # pole blocks lies below the first value the grid used, so no default
    # grid skips a value
    checked = 0
    for spec in itertools.chain(_catalog_sweep(), _suite_grid_specs()):
        entry = CATALOG[spec.identity]
        spec = _validate(spec, entry)
        axes, skipped, _ = _select_axes(spec, entry)
        assert skipped == {}, spec
        for pole in entry.poles(spec.n, spec.z):
            var = max(pole.vars, key=entry.variables.index)  # the last fixed
            others = [axes[v] for v in pole.vars if v != var]
            start = axes[var][0]
            assert all(pole.c - sum(combo) < start for combo in itertools.product(*others)), (
                spec, pole,
            )
        checked += 1
    assert checked > 2000


def test_every_side_at_an_integer_point_is_an_int(monkeypatch):
    # over the criterion 6 sweep and the built-in suite (grids and int
    # points): every side is an int, so no Fraction is built there
    seen, bad = collections.Counter(), []
    for name, entry in list(CATALOG.items()):

        def spy(spec, table, bind=entry.bind, name=name):
            pairs_at = bind(spec, table)

            def pairs_spied(*values):
                pairs = pairs_at(*values)
                if all(type(v) is int for v in values):
                    seen[name] += 1
                    if any(type(v) is not int for pair in pairs for v in pair):
                        bad.append((name, spec, values, pairs))
                return pairs

            return pairs_spied

        monkeypatch.setitem(CATALOG, name, dataclasses.replace(entry, bind=spy))
    for spec in _catalog_sweep():
        assert verify_identity_on_grid(spec).ok
    payload, code = run_suite(default_manifest(), jobs=1)
    assert code == 0 and payload["failed"] == 0
    assert bad == []
    assert set(seen) == set(CATALOG) and sum(seen.values()) > 10_000


def _coherence_sweep():
    """Every coherence spec criterion 7 certifies."""
    for name in _COHERENCE:
        for z in ((0,), (1,), (3,)):
            for n in _multi_indices(1):
                yield IdentitySpec(identity=name, n=n, z=z)


def test_criterion_7_classical_coherence(capfd):
    verified = 0
    with criterion(
        "criterion 7 (multi-index evaluators match classical forms at m = 1)", capfd
    ) as info:
        for spec in _coherence_sweep():
            report = verify_identity_on_grid(spec)
            assert report.ok, (spec.identity, spec.n, spec.z, report.counterexample)
            verified += 1
        info["detail"] = f"{verified} shared grids"


# the free variables along which some side of the entry has degree exactly
# the grid's bound |n| >= 1 for some spec of criterion 6's or 7's sweep; the
# sides of kmpink and absorption stop at |n| - 1, and gould's and
# gould-mohanty's sides have lower degree in eps (the left side has none)
REACH_THE_BOUND = {
    name: () if name in ("kmpink", "absorption") else tuple(
        v for v in entry.variables if v != "eps"
    )
    for name, entry in CATALOG.items()
}


def test_every_side_has_degree_at_most_the_grid_bound_along_generic_lines():
    # a grid of D + 1 values per variable certifies an identity only if each
    # side has degree at most D in each free variable.  Along an axis-parallel
    # line through a generic integer point, far from every pole, a side of
    # degree at most D has a zero (D + 1)-th forward difference; its D-th
    # difference is nonzero where it has degree exactly D.  D is the bound
    # _select_axes sizes the grid by
    over, reached = {}, collections.defaultdict(set)  # over: the first spec past D
    for spec in itertools.chain(_catalog_sweep(), _coherence_sweep()):
        entry = CATALOG[spec.identity]
        spec = _validate(spec, entry)
        _, _, degree = _select_axes(spec, entry)
        pairs_at = entry.bind(spec, _table[spec.n, spec.z])
        base = [1009 + 101 * j for j in range(len(entry.variables))]
        for axis, var in enumerate(entry.variables):
            line = []
            for t in range(degree + 2):
                values = tuple(b + t * (j == axis) for j, b in enumerate(base))
                line.append([side for pair in pairs_at(*values) for side in pair])
            for diffs in zip(*line):  # one side along the line
                for _ in range(degree):
                    diffs = [b - a for a, b in zip(diffs, diffs[1:])]
                if diffs[0] != diffs[1]:
                    over.setdefault((spec.identity, var), (degree, spec.n, spec.z, spec.i, spec.j))
                if diffs[0] != 0 and degree > 0:
                    reached[spec.identity].add(var)
    assert over == {}
    assert {name: tuple(v for v in CATALOG[name].variables if v in reached[name])
            for name in CATALOG} == REACH_THE_BOUND


# ---------------------------------------------------------------------------
# criterion 8: generating functions
# ---------------------------------------------------------------------------


def test_criterion_8_generating_functions(capfd):
    order = 8
    checked = 0
    with criterion(
        "criterion 8 (functional-equation series and generating-function checks)",
        capfd,
    ) as info:
        for z in _gradings((1, 2, 3)):
            v = solve_functional_equation(z, order)
            assert functional_equation_residual(v, z).is_zero(), z
            for x in (1, 2, 3, 4):
                assert check_generating_function_1(x, z, order).ok, (x, z)
                assert check_generating_function_2(x, z, order).ok, (x, z)
                checked += 2
        # Catalan numbers by an independent recurrence, against z = (2)
        catalan = [Fraction(1)]
        for t in range(order):
            catalan.append(sum(catalan[s] * catalan[t - s] for s in range(t + 1)))
        assert [int(c) for c in catalan] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
        v = solve_functional_equation((2,), order)
        for t in range(order + 1):
            assert v.coefficient((t,)) == catalan[t], t
        info["detail"] = f"{checked} series checks + Catalan coefficients"
