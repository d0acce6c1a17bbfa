"""Per-layer micro-cases built from a workload's own members.

Each case calls one layer's public functions directly, on inputs taken from
the workload's manifest and from the reports its warm-up pass produced, so
the per-layer rates describe the same inputs as the end-to-end numbers.
Results are checked outside the timed calls; a disagreement counts as a
failure.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import workloads as wl
from gradedwords.arith import multinomial
from gradedwords.bijections import raney_factorize, raney_unfactorize, shift_by, shift_down
from gradedwords.identities import IdentitySpec, verify_identity_on_grid
from gradedwords.series import solve_functional_equation
from gradedwords.words import GradedAlphabet, WordClassSpec, enumerate_words


def _timed(items: list, run, check, budget: float) -> tuple[float, int]:
    """Units of work per second over every item at least once, cycling until
    the budget is spent, and the number of results check() rejected.
    run(item) returns (units, result)."""
    units = seconds = 0.0
    failures = 0
    while items:
        for item in items:
            start = perf_counter()
            done, result = run(item)
            seconds += perf_counter() - start
            units += done
            failures += not check(item, result)
        if seconds >= budget:
            return units / seconds, failures
    return 0.0, 0


def _ok(item, result) -> bool:
    return bool(result)


def _positive(cases, *commands: str) -> list[dict]:
    return [c for c, e in cases if e["exit"] == 0 and c["command"] in commands]


def _multinomial_args(cases, entries) -> list[tuple]:
    """The (x, n) argument shapes each member's evaluation forms."""
    args = []
    for (c, e), entry in zip(cases, entries):
        if e["exit"] != 0:
            continue
        z = tuple(c["z"])
        if c["command"] in ("count", "enumerate"):
            k = tuple(c.get("k") or c["n"])
            args.append((c["p"] - wl.dot(k, z), k))
        elif c["command"] == "bijection" and "n" in c:
            args.append((c["p"] + c["q"], tuple(c["n"])))
        elif c["command"] == "verify":
            n = tuple(c.get("n") or c["k"])
            if "point" in c:
                values = [Fraction(next(iter(c["point"].values())))]
            else:
                values = next(iter(entry["report"]["grid"]["axes"].values()))
            for v in values:
                for k in wl.box(n):
                    kz = wl.dot(k, z)
                    args += [(v - kz, k), (v + kz, tuple(a - b for a, b in zip(n, k)))]
        elif c["command"].startswith("series"):
            x = c.get("x", 1)
            args += [(x + wl.dot(k, z), k) for k in wl.exponents(len(z), c["order"])]
    return args


def arith_case(cases, entries, budget: float) -> dict:
    rate, failures = _timed(
        _multinomial_args(cases, entries),
        lambda a: (1, multinomial(*a)),
        lambda a, value: value == wl.multinomial(*a),
        budget,
    )
    return {"arith.multinomial_per_s": rate, "failures": failures}


def _word_class(c: dict) -> tuple[WordClassSpec, GradedAlphabet, int]:
    """The class a count, enumerate or class-mode bijection member walks,
    with its size from the oracle."""
    z = tuple(c["z"])
    if c["command"] == "bijection":
        n = tuple(c["n"])
        spec = WordClassSpec(p=c["p"] + c["q"] + wl.dot(n, z), k=n,
                             r=c["p"] if c["kind"] == "shift" else None)
    elif "q" in c:
        spec = WordClassSpec(p=c["p"] + c["q"], k=tuple(c["n"]), r=c["p"])
    else:
        spec = WordClassSpec(p=c["p"], k=tuple(c["k"]), r=c.get("r"))
    size = (wl.n_words(spec.p, spec.k, z) if spec.r is None
            else wl.n_prefixed(spec.r, spec.p - spec.r, spec.k, z))
    return spec, GradedAlphabet(z=z), size


def _walk_class(item):
    found = sum(1 for _ in enumerate_words(item[0], item[1]))
    return found, found


def words_case(cases, budget: float) -> dict:
    classes = [_word_class(c) for c in _positive(cases, "count", "enumerate", "bijection")
               if "word" not in c]
    rate, failures = _timed(classes, _walk_class, lambda item, found: found == item[2], budget)
    return {"words.words_per_s": rate, "failures": failures}


def _class_words(cases, kind: str) -> list[tuple]:
    """(word, p, r) for every word of the workload's class-mode bijection
    members of this kind."""
    out = []
    for c in _positive(cases, "bijection"):
        if c["kind"] == kind and "word" not in c:
            spec, alphabet, _ = _word_class(c)
            out += [(w, c["p"], c.get("r", 1)) for w in enumerate_words(spec, alphabet)]
    return out


def _shift_round_trip(item):
    word, p, r = item
    back = shift_by(word, p, r)
    for step in range(r - 1, -1, -1):
        back = shift_down(back, p + step)
    return 1, back


def bijections_case(cases, budget: float) -> dict:
    shift_rate, shift_bad = _timed(
        _class_words(cases, "shift"), _shift_round_trip,
        lambda item, back: back == item[0], budget / 2,
    )
    raney_rate, raney_bad = _timed(
        _class_words(cases, "raney"),
        lambda item: (1, raney_unfactorize(raney_factorize(item[0], item[1]), item[1])),
        lambda item, back: back == item[0], budget / 2,
    )
    return {
        "bijections.round_trips_per_s": shift_rate,
        "bijections.raney_words_per_s": raney_rate,
        "failures": shift_bad + raney_bad,
    }


def identities_case(cases, budget: float) -> dict:
    specs = [
        IdentitySpec(identity=c["identity"], n=tuple(c.get("n") or c["k"]), z=tuple(c["z"]),
                     i=c.get("i"), j=c.get("j"))
        for c in _positive(cases, "verify")
        if "point" not in c
    ]

    def run(spec):
        report = verify_identity_on_grid(spec)
        return report.grid["points"], report.ok

    rate, failures = _timed(specs, run, _ok, budget)
    return {"identities.grid_points_per_s": rate, "failures": failures}


def series_case(cases, budget: float) -> dict:
    shapes = sorted({(tuple(c["z"]), c["order"])
                     for c in _positive(cases, "series-solve", "series-check1", "series-check2")})
    expected = {s: {e: wl.v_coefficient(e, s[0]) for e in wl.exponents(len(s[0]), s[1])}
                for s in shapes}
    solve_rate, solve_bad = _timed(
        shapes,
        lambda s: (1, solve_functional_equation(*s)),
        lambda s, v: all(v.coefficient(e) == c for e, c in expected[s].items()),
        budget / 2,
    )
    squares = [(v, v * v) for v in (solve_functional_equation(*s) for s in shapes)]
    mul_rate, mul_bad = _timed(
        squares, lambda item: (1, item[0] * item[0]),
        lambda item, product: product == item[1], budget / 2,
    )
    return {
        "series.solve_ms": 1000 / solve_rate if solve_rate else 0.0,
        "series.mul_per_s": mul_rate,
        "failures": solve_bad + mul_bad,
    }


def reports_case(payloads: list, budget: float) -> dict:
    reports = [p for p in payloads if hasattr(p, "to_json")]
    rate, _ = _timed(reports, lambda r: (len(r.to_json()), True), _ok, budget)
    return {"reports.json_mb_per_s": rate / 1e6, "failures": 0}
