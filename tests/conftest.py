"""Shared test fixtures: an independent brute-force word oracle and
hypothesis strategies for small alphabets and classes.

The oracle deliberately avoids the library's enumeration code: it recurses
over raw letter codes so that agreement between the two is evidence, not
tautology.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import pytest
from hypothesis import strategies as st

from gradedwords import GradedAlphabet, identities, series, words


def brute_force_sequences(z: tuple[int, ...], p: int) -> Iterator[tuple[int, ...]]:
    """All letter-code tuples of total weight p, in lexicographic order.

    Codes are 0 for a and i for b_i, with weights 1 and z_i + 1; the
    recursion tries codes in increasing order, so the stream is lex-sorted.
    """
    weights = (1,) + tuple(e + 1 for e in z)

    def rec(remaining: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for code, w in enumerate(weights):
            if w <= remaining:
                for rest in rec(remaining - w):
                    yield (code,) + rest

    return rec(p)


def brute_force_class(
    z: tuple[int, ...], p: int, k: tuple[int, ...], r: int | None = None
) -> list[tuple[int, ...]]:
    """Filter the brute-force stream down to counts k (and prefix weight r)."""
    weights = (1,) + tuple(e + 1 for e in z)
    out = []
    for seq in brute_force_sequences(z, p):
        counts = tuple(seq.count(i) for i in range(1, len(z) + 1))
        if counts != k:
            continue
        if r is not None:
            acc, seen = 0, {0}
            for code in seq:
                acc += weights[code]
                seen.add(acc)
            if r not in seen:
                continue
        out.append(seq)
    return out


def multi_indices(max_m: int = 2, max_entry: int = 3) -> st.SearchStrategy:
    return st.lists(
        st.integers(min_value=0, max_value=max_entry), min_size=1, max_size=max_m
    ).map(tuple)


# the memos as the modules define them, whatever a test plants in their place
_CACHED = (words._table, identities._table, series._solved)


def empty_every_memo() -> None:
    """Empty each process-wide memo of values a planted fault could change:
    the word tables, the identity terms tables with the rows of C(x, k)
    they hold, and the solved series v."""
    for cached in _CACHED:
        cached.cache_clear()
    identities._ROWS.empty()


@pytest.fixture
def empty_memos():
    """Every process-wide memo emptied before the test and again when it
    ends, so that a value computed before a plant cannot mask it and no
    value the plant made reaches a later test."""
    empty_every_memo()
    yield
    empty_every_memo()


@pytest.fixture
def plant_arrangements(monkeypatch, empty_memos):
    """plant(stand_in) sets words._arrangements to stand_in, with every
    process-wide memo emptied at the plant and again when the test ends."""

    def plant(stand_in) -> None:
        empty_every_memo()
        monkeypatch.setattr(words, "_arrangements", stand_in)

    return plant


@pytest.fixture(scope="session")
def alphabet_z1() -> GradedAlphabet:
    return GradedAlphabet(z=(1,))


@pytest.fixture(scope="session")
def alphabet_z12() -> GradedAlphabet:
    return GradedAlphabet(z=(1, 2))


def small_grid(max_m: int = 2, z_values=(0, 1, 2, 3)):
    """(m, z) pairs for exhaustive desk-scale loops."""
    for m in range(1, max_m + 1):
        for z in itertools.product(z_values, repeat=m):
            yield z
