"""Seeded suite manifests for the benchmark, with expected outcomes computed
independently of gradedwords.

Each workload is a list of cases.  A case is a manifest member (the config a
user would write) together with the outcome the benchmark expects for it,
worked out here with math.comb and Fraction only: class sizes, prefix-class
convolution counts, Raney totals, and the coefficients of the series v.
Nothing in this module imports gradedwords, so the expectations are not the
program checking itself.

Cost-driving parameters (command, dimension, class-size target, series
order, grid degree) are fixed per tier; the seed draws everything else
(gradings, letter counts, weights, words, exact points, x), and word-class
parameters are searched until the closed-form size lands near the tier's
target.  Different seeds therefore give different members while each
workload keeps the same amount of work, which is what lets run-to-run
spreads stay inside the benchmark's bounds.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from typing import Iterator, Optional

WORKLOADS = ("words-bijections", "identity-grids", "series-gf", "small-checks")

# the identity catalog of gradedwords.identities, written out here: entries that only
# take m = 1, entries that take i (and j), and the free variables of each
CLASSICAL = ("abel-1", "abel-2", "rothe-1", "rothe-2", "gould", "jensen")
COHERENCE = ("gould-mohanty-vs-gould", "raney-mohanty-1-vs-rothe-1", "mohanty-handa-vs-jensen")
MULTI = (
    "raney-mohanty-1",
    "raney-mohanty-2",
    "mohanty-handa",
    "gould-mohanty",
    "gmh-special",
    "kmx",
    "kmpink",
    "pkroth",
    "absorption",
    "rm2-decomposition",
    "mh-expansion",
)
_PQ = ("gmh-special", "kmx", "kmpink", "pkroth")
_EPS = ("gould", "gould-mohanty", "gould-mohanty-vs-gould")


def identity_variables(identity: str) -> tuple[str, ...]:
    if identity == "absorption":
        return ("p",)
    if identity in _PQ:
        return ("p", "q")
    if identity in _EPS:
        return ("x", "y", "eps")
    return ("x", "y")


# ---------------------------------------------------------------------------
# the oracle: word counts from math.comb, series coefficients from Fraction
# ---------------------------------------------------------------------------


def box(n: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    return itertools.product(*(range(e + 1) for e in n))


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def n_words(weight: int, counts: tuple[int, ...], z: tuple[int, ...]) -> int:
    """Words of the given weight with counts[i] copies of b_i: choose the
    positions of each b among the word's length weight - counts.z."""
    if weight < 0 or min(counts, default=0) < 0:
        return 0
    length = weight - dot(counts, z)
    if length - sum(counts) < 0:
        return 0
    out, free = 1, length
    for c in counts:
        out *= math.comb(free, c)
        free -= c
    return out


def n_prefixed(p: int, s: int, n: tuple[int, ...], z: tuple[int, ...]) -> int:
    """Words of weight p + s with counts n that have a prefix of weight p:
    cutting at that prefix pairs a weight-p word with a weight-s word."""
    return sum(
        n_words(p, k, z) * n_words(s, tuple(a - b for a, b in zip(n, k)), z) for k in box(n)
    )


def falling(x, j: int):
    out = 1
    for t in range(j):
        out *= x - t
    return out


def multinomial(x, n: tuple[int, ...]) -> Fraction:
    """C(x, n) = x(x-1)...(x-|n|+1) / n!, zero when an entry of n is negative."""
    if min(n, default=0) < 0:
        return Fraction(0)
    return Fraction(falling(x, sum(n))) / math.prod(math.factorial(e) for e in n)


def exponents(m: int, order: int) -> list[tuple[int, ...]]:
    return [e for e in itertools.product(range(order + 1), repeat=m) if sum(e) <= order]


def v_coefficient(k: tuple[int, ...], z: tuple[int, ...]) -> Fraction:
    """Coefficient of u^k in v: x/(x+k.z) C(x+k.z, k) at x = 1."""
    kz = dot(k, z)
    return Fraction(1, 1 + kz) * multinomial(1 + kz, k)


# ---------------------------------------------------------------------------
# word rendering (the CLI's text format) and word properties
# ---------------------------------------------------------------------------


def render(letters, m: int) -> str:
    names = ["a"] + (["b"] if m == 1 else [f"b{i}" for i in range(1, m + 1)])
    return " ".join(names[c] for c in letters)


def parse(text: str, m: int) -> tuple[int, ...]:
    names = render(range(m + 1), m).split()
    return tuple(names.index(tok) for tok in text.split())


def weight(letters, z) -> int:
    return sum(1 if c == 0 else z[c - 1] + 1 for c in letters)


def counts(letters, m: int) -> tuple[int, ...]:
    return tuple(sum(1 for c in letters if c == i) for i in range(1, m + 1))


def prefix_weights(letters, z) -> list[int]:
    return list(itertools.accumulate((weight((c,), z) for c in letters), initial=0))


# ---------------------------------------------------------------------------
# parameter search: hit a work target from seeded shapes
# ---------------------------------------------------------------------------

# Enumerating a class costs about (length + 8) steps per word: the recursive
# generator passes each word up through one frame per letter, plus a fixed
# per-word cost.  Tiers set targets in these steps, so a class of long words
# and a larger class of short words weigh the same.
_PER_WORD = 8


def _closest(work_of, lo: int, target: int, limit: int = 400) -> tuple[int, int]:
    """The argument t >= lo whose work is nearest target, for work that is
    nondecreasing in t."""
    best = (lo, work_of(lo))
    for t in range(lo, lo + limit):
        work = work_of(t)
        if abs(work - target) < abs(best[1] - target):
            best = (t, work)
        if work > target:
            break
    return best


def _search(draw, target: int, tol: float, tries: int = 60):
    """Draw shapes until one lands within tol of the work target; else the
    closest drawn."""
    best = None
    for _ in range(tries):
        config, work = draw()
        if work > 0 and (best is None or abs(work - target) < abs(best[1] - target)):
            best = (config, work)
        if abs(work - target) <= tol * target:
            break
    if best is None:
        raise RuntimeError(f"no feasible class near work {target}")
    return best[0]


def _grading(rng: random.Random, m: int, lo: int = 0, hi: int = 3) -> list[int]:
    return [rng.randint(lo, hi) for _ in range(m)]


def _split(rng: random.Random, m: int, total: int) -> list[int]:
    """A seeded composition of total letters b into m counts."""
    cuts = sorted(rng.randint(0, total) for _ in range(m - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _work(size: int, length: int) -> int:
    return size * (length + _PER_WORD)


def count_member(rng, m: int, bs: int, target: int, tol: float) -> tuple[dict, dict]:
    def draw():
        z, k = _grading(rng, m), _split(rng, m, bs)
        kz = dot(k, z)
        length, work = _closest(lambda L: _work(n_words(L + kz, tuple(k), tuple(z)), L), bs, target)
        return {"command": "count", "z": z, "p": length + kz, "k": k}, work

    config = _search(draw, target, tol)
    size = n_words(config["p"], tuple(config["k"]), tuple(config["z"]))
    return config, {"exit": 0, "formula": size, "enumerated": size}


def prefix_count_member(rng, m: int, bs: int, target: int, tol: float) -> tuple[dict, dict]:
    def draw():
        z, n = _grading(rng, m), _split(rng, m, bs)
        nz = dot(n, z)
        p = nz + rng.randint(0, 8)
        q, work = _closest(
            lambda q: _work(n_prefixed(p, q, tuple(n), tuple(z)), p + q - nz), nz, target)
        return {"command": "count", "z": z, "p": p, "q": q, "n": n}, work

    c = _search(draw, target, tol)
    size = n_prefixed(c["p"], c["q"], tuple(c["n"]), tuple(c["z"]))
    return c, {"exit": 0, "formula": size, "enumerated": size}


def enumerate_member(rng, m: int, bs: int, target: int, tol: float, prefixed: bool) -> tuple[dict, dict]:
    def size(c):
        k, z, r = tuple(c["k"]), tuple(c["z"]), c.get("r")
        return n_words(c["p"], k, z) if r is None else n_prefixed(r, c["p"] - r, k, z)

    def draw():
        z, k = _grading(rng, m), _split(rng, m, bs)
        kz = dot(k, z)
        if prefixed:
            r = kz + rng.randint(1, 6)
            config = {"command": "enumerate", "z": z, "k": k, "r": r}
            lo = r
        else:
            config = {"command": "enumerate", "z": z, "k": k}
            lo = kz + bs
        p, work = _closest(lambda p: _work(size({**config, "p": p}), p - kz), lo, target)
        return {**config, "p": p}, work

    config = _search(draw, target, tol)
    return config, {"exit": 0, "count": size(config)}


def shift_class_member(rng, m: int, bs: int, target: int, tol: float, r: int) -> tuple[dict, dict]:
    def draw():
        z, n = _grading(rng, m), _split(rng, m, bs)
        nz = dot(n, z)
        p = nz + rng.randint(0, 6)
        q, work = _closest(
            lambda q: _work(n_prefixed(p, q + nz, tuple(n), tuple(z)), p + q), r, target)
        config = {"command": "bijection", "kind": "shift", "z": z, "p": p, "q": q, "n": n}
        if r > 1:
            config["r"] = r
        return config, work

    c = _search(draw, target, tol)
    size = n_prefixed(c["p"], c["q"] + dot(c["n"], c["z"]), tuple(c["n"]), tuple(c["z"]))
    return c, {"exit": 0, "class_size": size}


def raney_class_member(rng, m: int, bs: int, target: int, tol: float) -> tuple[dict, dict]:
    def draw():
        z, n = _grading(rng, m, lo=1), _split(rng, m, bs)
        nz = dot(n, z)
        p = nz + rng.randint(0, 6)
        q, work = _closest(
            lambda q: _work(n_words(p + q + nz, tuple(n), tuple(z)), p + q), 1, target)
        return {"command": "bijection", "kind": "raney", "z": z, "p": p, "q": q, "n": n}, work

    c = _search(draw, target, tol)
    p, q, n, z = c["p"], c["q"], tuple(c["n"]), tuple(c["z"])
    nz = dot(n, z)
    return c, {"exit": 0, "total": n_words(p + q + nz, n, z),
               "prefix_case": n_prefixed(p, q + nz, n, z)}


def _random_word(rng, m: int, length: int) -> tuple[int, ...]:
    return tuple(rng.choice([0, 0] + list(range(1, m + 1))) for _ in range(length))


def shift_word_member(rng, m: int, length: int) -> tuple[dict, dict]:
    while True:
        z = _grading(rng, m)
        word = _random_word(rng, m, length)
        nz = dot(counts(word, m), z)
        total = weight(word, z)
        r = rng.randint(1, 3)
        cuts = [w for w in prefix_weights(word, z) if w >= nz and total - w - nz >= r]
        if cuts:
            config = {"command": "bijection", "kind": "shift", "z": z, "p": rng.choice(cuts),
                      "word": render(word, m)}
            if r > 1:
                config["r"] = r
            return config, {"exit": 0}


def raney_word_member(rng, m: int, length: int) -> tuple[dict, dict]:
    while True:
        z = _grading(rng, m, lo=1)
        word = _random_word(rng, m, length)
        nz = dot(counts(word, m), z)
        top = weight(word, z) - nz - 1
        if top >= nz:
            return ({"command": "bijection", "kind": "raney", "z": z,
                     "p": rng.randint(nz, top), "word": render(word, m)}, {"exit": 0})


# ---------------------------------------------------------------------------
# identity and series members
# ---------------------------------------------------------------------------


def grid_member(rng, identity: str, n: list[int], ranged: bool = False) -> tuple[dict, dict]:
    """A grid check of a catalog identity at multi-index n; the seed draws
    the grading (and i, j where the entry takes them) and the orientation.
    A ranged member draws its candidates from an explicit --grid-range that
    starts at or below zero, so the grid has poles to skip."""
    m = len(n)
    if m > 1 and rng.random() < 0.5:
        n = n[::-1]
    needs_j = identity == "kmpink"
    z = _grading(rng, m, lo=1 if needs_j else 0)
    config = {"command": "verify", "identity": identity,
              ("k" if identity == "absorption" else "n"): list(n), "z": z}
    if identity in ("kmpink", "absorption"):
        config["i"] = rng.randint(1, m)
    if needs_j:
        config["j"] = rng.randint(1, z[config["i"] - 1])
    if ranged:
        lo = rng.randint(-3, 0)
        config["grid_range"] = [lo, lo + 4 * (sum(n) + 2) + 2 * dot(n, z)]
    return config, {"exit": 0, "verdict": "equal"}


def point_member(rng, identity: str, n: list[int]) -> tuple[dict, dict]:
    """An exact point with non-integer coordinates: denominators 2, 3, 5 keep
    it off every pole (each pole is an integer shift of x, y, p, x + y)."""
    config, expect = grid_member(rng, identity, n)
    values = {}
    for var, den in zip(identity_variables(identity), (2, 3, 5)):
        num = rng.choice([v for v in range(-3 * den, 12 * den) if v % den])
        values[var] = f"{num}/{den}"
    config["point"] = values
    return config, expect


def series_member(rng, command: str, z: list[int], order: int) -> tuple[dict, dict]:
    z = rng.sample(z, len(z))
    if command == "series-solve":
        coeffs = {e: v_coefficient(e, tuple(z)) for e in exponents(len(z), order)}
        config = {"command": command, "z": z, "order": order,
                  "expect_coefficients": {",".join(map(str, e)): str(c) for e, c in coeffs.items()}}
        return config, {"exit": 0, "coefficients": {
            ",".join(map(str, e)): str(c) for e, c in sorted(coeffs.items()) if c}}
    config = {"command": command, "x": rng.randint(1, 6), "z": z, "order": order}
    return config, {"exit": 0, "coefficients_compared": math.comb(order + len(z), len(z))}


# ---------------------------------------------------------------------------
# negative controls: members whose correct outcome is a non-zero exit
# ---------------------------------------------------------------------------


def _invalid(config: dict) -> tuple[dict, dict]:
    return config, {"exit": 2}


def wrong_coefficient(rng, z: list[int], order: int) -> tuple[dict, dict]:
    config, _ = series_member(rng, "series-solve", z, order)
    key = rng.choice(sorted(config["expect_coefficients"]))
    config["expect_coefficients"][key] = str(Fraction(config["expect_coefficients"][key]) + 1)
    return config, {"exit": 1, "mismatch_at": [int(e) for e in key.split(",")],
                    "mismatch_expected": config["expect_coefficients"][key]}


def negative_control(rng, kind: str) -> tuple[dict, dict]:
    zz = rng.randint(1, 3)
    if kind == "prefix-below-nz":  # count_prefix_class requires p >= n.z
        return _invalid({"command": "count", "z": [zz], "p": 2 * zz - 1, "q": 9, "n": [2]})
    if kind == "raney-zero-grade":  # the Raney factorization needs every z_i >= 1
        return _invalid({"command": "bijection", "kind": "raney", "z": [0, zz], "p": 4, "q": 3,
                         "n": [1, 1]})
    if kind == "shift-r-above-q":  # the r-fold shift needs q >= r
        return _invalid({"command": "bijection", "kind": "shift", "z": [zz], "p": 3, "q": 2,
                         "n": [1], "r": 3})
    if kind == "point-on-pole":  # x - k.z vanishes at k = 1
        return _invalid({"command": "verify", "identity": "rothe-1", "n": [2], "z": [zz],
                         "point": {"x": str(zz), "y": "7/2"}})
    if kind == "grid-too-narrow":  # degree 4 needs 5 pole-free values
        return _invalid({"command": "verify", "identity": "jensen", "n": [4], "z": [zz],
                         "grid_range": [1, 3]})
    if kind == "kmpink-j-above-z":
        return _invalid({"command": "verify", "identity": "kmpink", "n": [1, 1], "z": [zz, 1],
                         "i": 1, "j": zz + 1})
    if kind == "check2-zero-grade":  # GF2 needs every z_i >= 1
        return _invalid({"command": "series-check2", "x": 2, "z": [0, zz], "order": 3})
    if kind == "wrong-coefficient":
        return wrong_coefficient(rng, [zz], 6)
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# the four workloads
# ---------------------------------------------------------------------------


class _Cases:
    """Collects a workload's cases, redrawing any member already present."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.cases: list[tuple[dict, dict]] = []
        self._seen: set[str] = set()

    def add(self, maker, *args, **kwargs) -> None:
        for _ in range(100):
            case = maker(self.rng, *args, **kwargs)
            key = json.dumps(case[0], sort_keys=True)
            if key not in self._seen:
                self._seen.add(key)
                self.cases.append(case)
                return
        raise RuntimeError(f"could not draw a new member with {maker.__name__}{args}")

    def background(self, *skip: str) -> None:
        """A few small members for the layers a heavy workload leaves idle, so
        every per-layer micro-case has inputs drawn from the workload itself."""
        if "words" not in skip:
            self.add(count_member, 1, 2, 300, 0.25)
            self.add(shift_class_member, 1, 2, 300, 0.25, 1)
            self.add(raney_class_member, 1, 2, 300, 0.25)
        if "identities" not in skip:
            self.add(grid_member, "rothe-1", [2])
        if "series" not in skip:
            self.add(series_member, "series-check1", [2], 4)


def _doubling(first: int, count: int) -> list[int]:
    return [first << i for i in range(count)]


def _words_bijections(d: _Cases) -> None:
    for m in (1, 2):
        for target in _doubling(1_250, 6) + [300_000]:
            d.add(count_member, m, 4, target, 0.1)
        for target in _doubling(1_250, 7):
            d.add(prefix_count_member, m, 4, target, 0.1)
        for i, target in enumerate(_doubling(1_250, 6)):
            d.add(enumerate_member, m, 4, target, 0.1, prefixed=i % 2 == 1)
        for target in _doubling(1_000, 7):
            d.add(shift_class_member, m, 4, target, 0.1, 1)
            d.add(raney_class_member, m, 4, target, 0.1)
        for i, target in enumerate(_doubling(1_250, 5)):
            d.add(shift_class_member, m, 4, target, 0.1, 2 + i % 2)
        for length in (6, 9, 12, 15, 18):
            d.add(shift_word_member, m, length)
            d.add(raney_word_member, m, length)
    for kind in ("prefix-below-nz", "raney-zero-grade", "shift-r-above-q"):
        d.add(negative_control, kind)
    d.background("words")


def _identity_grids(d: _Cases) -> None:
    for identity in CLASSICAL + COHERENCE:
        top = 4 if identity == "gould-mohanty-vs-gould" else 5 if identity == "gould" else 6
        for n in range(1, top + 1):
            d.add(grid_member, identity, [n], ranged=n == 3)
    for identity in MULTI:
        for n in ([2], [5], [1, 1], [2, 1], [2, 2], [3, 2]):
            d.add(grid_member, identity, n, ranged=n == [2, 1])
    for identity in ("rothe-2", "abel-2", "raney-mohanty-2", "gould-mohanty", "kmx", "kmpink",
                     "absorption", "mh-expansion"):
        d.add(point_member, identity, [2] if identity in CLASSICAL else [1, 2])
    for kind in ("point-on-pole", "grid-too-narrow", "kmpink-j-above-z"):
        d.add(negative_control, kind)
    d.background("identities")


_SERIES_TIERS = (
    ([1], (6, 10, 14, 18, 24, 30)),
    ([2], (4, 7, 10, 13)),
    ([3], (4, 6, 8, 10)),
    ([1, 2], (2, 4, 6, 8)),
    ([1, 1], (3, 5)),
    ([1, 3], (3, 4)),
    ([2, 2], (3, 4)),
    ([1, 1, 1], (2, 3)),
    ([1, 2, 3], (2, 3)),
)


def _series_gf(d: _Cases) -> None:
    for z, orders in _SERIES_TIERS:
        for order in orders:
            for command in ("series-solve", "series-check1", "series-check2"):
                d.add(series_member, command, z, order)
    for kind in ("wrong-coefficient", "check2-zero-grade"):
        d.add(negative_control, kind)
    d.background("series")


def _small_checks(d: _Cases) -> None:
    """Tiny members of every command, in roughly the built-in suite's mix."""
    for m in (1, 2):
        for target in (50, 100, 200, 400, 800):
            d.add(count_member, m, m, target, 0.15)
            d.add(prefix_count_member, m, m, target, 0.15)
            d.add(shift_class_member, m, m, target, 0.15, 1)
            d.add(raney_class_member, m, m, target, 0.15)
        for target in (100, 300, 600):
            d.add(enumerate_member, m, m, target, 0.15, prefixed=target == 300)
            d.add(shift_class_member, m, m, target, 0.15, 2)
        for length in (4, 6, 8, 10, 12):
            d.add(shift_word_member, m, length)
            d.add(raney_word_member, m, length)
    for identity in CLASSICAL + COHERENCE:
        d.add(grid_member, identity, [1])
        if identity != "gould-mohanty-vs-gould":
            d.add(grid_member, identity, [2])
        d.add(point_member, identity, [2])
    for identity in MULTI:
        for n in ([1], [2], [1, 0], [1, 1]):
            d.add(grid_member, identity, n)
        d.add(point_member, identity, [1, 1])
    for z, order in (([1], 3), ([1], 5), ([1], 6), ([2], 3), ([2], 4), ([3], 3), ([1, 2], 2),
                     ([1, 1], 2), ([2, 1], 1), ([1, 1, 1], 1)):
        for command in ("series-solve", "series-check1", "series-check2"):
            d.add(series_member, command, z, order)
    for kind in ("prefix-below-nz", "raney-zero-grade", "shift-r-above-q", "point-on-pole",
                 "grid-too-narrow", "kmpink-j-above-z", "check2-zero-grade", "wrong-coefficient"):
        d.add(negative_control, kind)


_GENERATORS = {
    "words-bijections": _words_bijections,
    "identity-grids": _identity_grids,
    "series-gf": _series_gf,
    "small-checks": _small_checks,
}


def build(workload: str, seed: int) -> list[tuple[dict, dict]]:
    """The workload's cases for this seed: distinct members in a seeded order."""
    d = _Cases(random.Random(f"{workload}:{seed}"))
    _GENERATORS[workload](d)
    d.rng.shuffle(d.cases)
    return d.cases


def manifest_bytes(cases: list[tuple[dict, dict]]) -> bytes:
    return (json.dumps([c for c, _ in cases], indent=1) + "\n").encode()


# ---------------------------------------------------------------------------
# checking a suite member's outcome against the expectation
# ---------------------------------------------------------------------------


def _word_problem(config: dict, expect: dict, report: dict) -> Optional[str]:
    z, m = config["z"], len(config["z"])
    if "word" in config:
        word, p = parse(config["word"], m), config["p"]
        d = report["details"]
        if config["kind"] == "shift":
            image = parse(d["image"], m)
            r = config.get("r", 1)
            if weight(image, z) != weight(word, z) or counts(image, m) != counts(word, m):
                return "shift image changed weight or letter counts"
            if p + r not in prefix_weights(image, z):
                return f"shift image has no prefix of weight {p + r}"
            return None
        cut = next(i for i, w in enumerate(prefix_weights(word, z)) if w >= p)
        if prefix_weights(word, z)[cut] == p:
            want = {"case": "prefix", "u": render(word[:cut], m), "v": render(word[cut:], m)}
        else:
            i = word[cut - 1]
            want = {"case": "overshoot", "i": i, "j": prefix_weights(word, z)[cut] - p,
                    "u_prime": render(word[: cut - 1], m), "v": render(word[cut:], m)}
        got = {key: d.get(key) for key in want}
        return None if got == want else f"raney factorization {got} != {want}"
    if config["kind"] == "shift":
        d = report["details"]
        if d != {"class_size": expect["class_size"], "round_trips": expect["class_size"]}:
            return f"shift details {d}, expected class size {expect['class_size']}"
        return None
    d = report["details"]
    if (d["total"], d["prefix_case"], d["overshoot"]) != (
        expect["total"], expect["prefix_case"], expect["total"] - expect["prefix_case"]
    ):
        return f"raney tallies {d['total']}/{d['prefix_case']}, expected {expect['total']}/{expect['prefix_case']}"
    return None


def _enumeration_problem(config: dict, expect: dict, report: dict) -> Optional[str]:
    z, m, r = config["z"], len(config["z"]), config.get("r")
    words = [parse(w, m) for w in report["words"]]
    if report["count"] != expect["count"] or len(words) != expect["count"]:
        return f"enumerated {report['count']} words, expected {expect['count']}"
    if any(a >= b for a, b in zip(words, words[1:])):
        return "words are not strictly increasing in lexicographic order"
    for w in words:
        if weight(w, z) != config["p"] or counts(w, m) != tuple(config["k"]):
            return f"word {render(w, m)!r} is outside the class"
        if r is not None and r not in prefix_weights(w, z):
            return f"word {render(w, m)!r} has no prefix of weight {r}"
    return None


def problem(config: dict, expect: dict, entry: dict) -> Optional[str]:
    """Why a suite member's entry disagrees with the expected outcome, or
    None when it agrees."""
    if entry["exit_code"] != expect["exit"]:
        return f"exit code {entry['exit_code']}, expected {expect['exit']}: {entry.get('error', '')}"
    if expect["exit"] == 2:
        return None if entry.get("error", "").startswith("invalid configuration") else "no error"
    report = entry["report"]
    command = config["command"]
    if expect["exit"] == 1:
        c = report.get("counterexample") or {}
        if report["verdict"] != "mismatch" or c.get("exponent") != expect["mismatch_at"]:
            return f"wrong-coefficient control reported {report['verdict']} at {c.get('exponent')}"
        return None if c.get("expected") == expect["mismatch_expected"] else "wrong expected value"
    if command == "count":
        d = report["details"]
        if report["verdict"] != "equal" or d["formula"] != expect["formula"] or d["enumerated"] != expect["enumerated"]:
            return f"count {d}, expected {expect['formula']}"
        return None
    if command == "enumerate":
        return _enumeration_problem(config, expect, report)
    if report["verdict"] not in ("equal", "pass"):
        return f"verdict {report['verdict']}"
    if command == "bijection":
        return _word_problem(config, expect, report)
    if command == "verify":
        if "point" in config:
            return None if report["left"] == report["right"] else "point sides differ"
        grid = report["grid"]
        return None if grid["points"] == math.prod(map(len, grid["axes"].values())) else "grid size"
    if command == "series-solve":
        d = report["details"]
        if d["coefficients"] != expect["coefficients"] or not d["residual_zero"]:
            return "series coefficients differ from x/(x+k.z) C(x+k.z, k)"
        return None
    compared = report["details"]["coefficients_compared"]
    return None if compared == expect["coefficients_compared"] else f"compared {compared} coefficients"


def suite_exit(cases: list[tuple[dict, dict]]) -> int:
    """The suite's exit code: the first of 1, 2, 3 that some member expects."""
    codes = {e["exit"] for _, e in cases}
    return next((c for c in (1, 2, 3) if c in codes), 0)
