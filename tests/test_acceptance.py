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
from gradedwords.identities import CATALOG

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


def test_every_side_at_an_integer_point_is_an_int(monkeypatch):
    # over the criterion 6 sweep and the built-in suite (grids and int
    # points): every side is an int, so no Fraction is built there
    seen, bad = collections.Counter(), []
    for name, entry in list(CATALOG.items()):

        def spy(point, spec, evaluate=entry.evaluate, name=name):
            pairs = evaluate(point, spec)
            if all(type(v) is int for v in point.values()):
                seen[name] += 1
                if any(type(v) is not int for pair in pairs for v in pair):
                    bad.append((name, spec, point, pairs))
            return pairs

        monkeypatch.setitem(CATALOG, name, dataclasses.replace(entry, evaluate=spy))
    for spec in _catalog_sweep():
        assert verify_identity_on_grid(spec).ok
    payload, code = run_suite(default_manifest(), jobs=1)
    assert code == 0 and payload["failed"] == 0
    assert bad == []
    assert set(seen) == set(CATALOG) and sum(seen.values()) > 10_000


def test_criterion_7_classical_coherence(capfd):
    verified = 0
    with criterion(
        "criterion 7 (multi-index evaluators match classical forms at m = 1)", capfd
    ) as info:
        for name in _COHERENCE:
            for z in ((0,), (1,), (3,)):
                for n in _multi_indices(1):
                    report = verify_identity_on_grid(
                        IdentitySpec(identity=name, n=n, z=z)
                    )
                    assert report.ok, (name, n, z, report.counterexample)
                    verified += 1
        info["detail"] = f"{verified} shared grids"


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
