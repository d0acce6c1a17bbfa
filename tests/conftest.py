"""Shared test fixtures: an independent brute-force word oracle and
hypothesis strategies for small alphabets and classes.

The oracle deliberately avoids the library's enumeration code: it recurses
over raw letter codes so that agreement between the two is evidence, not
tautology.
"""

from __future__ import annotations

import importlib
import itertools
import pkgutil
from typing import Iterator

import pytest
from hypothesis import strategies as st

import gradedwords
from gradedwords import GradedAlphabet, arith, words


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


def count_fills(monkeypatch, memo) -> list:
    """The keys memo fills from now on, in order of filling."""
    keys, fill = [], memo.fill
    monkeypatch.setattr(memo, "fill", lambda key: keys.append(key) or fill(key))
    return keys


def prefix_weights(w) -> tuple[int, ...]:
    """The weights of the nonempty prefixes of the word w, one per length."""
    return tuple(itertools.accumulate(map(w.alphabet.weights.__getitem__, w.letters)))


def multi_indices(max_m: int = 2, max_entry: int = 3) -> st.SearchStrategy:
    return st.lists(
        st.integers(min_value=0, max_value=max_entry), min_size=1, max_size=max_m
    ).map(tuple)


def _module_caps() -> list[arith._Cap]:
    """The _Cap of each _Memo, and each _Cap, in the globals of a module of
    the package, every module imported."""
    caps = {}
    for info in pkgutil.iter_modules(gradedwords.__path__):
        for value in vars(importlib.import_module(f"gradedwords.{info.name}")).values():
            cap = value.cap if isinstance(value, arith._Memo) else value
            if isinstance(cap, arith._Cap):
                caps[id(cap)] = cap
    return list(caps.values())


# the caps as the modules define them, whatever a test plants in their place
_CAPS = _module_caps()


def empty_every_memo() -> None:
    """Empty every process-wide memo, each one a planted fault could change
    among them: every memo of every cap a module holds, directly or through
    one of its memos.  A value such a memo held goes with it, a series
    packing and its two maps say."""
    for cap in _CAPS:
        cap.empty()


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
