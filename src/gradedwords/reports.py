"""Structured results of verification runs.

Every check in the package (identity grids, bijection replays, series
comparisons, class counts) produces an EvalReport.  Reports serialize to JSON
with sorted keys so that a given configuration always produces byte-identical
output.  Exact scalar values appear as decimal strings ("30") or "p/q"
strings ("2/3"); structural tallies (class sizes, point counts) stay plain
integers.

render_json is the package's one JSON report renderer.  Its output is byte
for byte that of json.dumps(obj, indent=2, sort_keys=True), except that it
prints every digit of an int past the interpreter's int-to-str limit where
json.dumps raises ValueError, and it is faster:
CPython 3.11 runs json's C encoder only when indent is None, and with an
indent json.dumps walks the value through pure-Python generators, one step
per value.  render_json makes one call per value and one join per
container, and quotes strings with json's C string encoder.  Reports hold
exact values only (str, int, bool, None, and lists, tuples and str-keyed
dicts of them), so any other type, such as a float, a Fraction or a set,
raises TypeError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Optional

from .arith import _digits, format_scalar

__all__ = [
    "EvalReport",
    "VERDICT_EQUAL",
    "VERDICT_MISMATCH",
    "VERDICT_PASS",
    "VERDICT_FAIL",
    "render_json",
]

VERDICT_EQUAL = "equal"
VERDICT_MISMATCH = "mismatch"
VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"

_OK = {VERDICT_EQUAL, VERDICT_PASS}


@dataclass
class EvalReport:
    """Result of one check.

    check: what was verified (identity id, "shift-bijection", ...).
    params: the exact parameter values the check ran with.
    left/right: formatted side values for single-point evaluations.
    verdict: "equal"/"mismatch" for value comparisons, "pass"/"fail" for
        structural verifications.
    grid: grid metadata for degree-bounded checks (points per variable,
        degree bounds, pole skips).
    counterexample: full context of the first failure, enough to re-run it.
    details: check-specific extras (case tallies, class sizes, notes).
    """

    check: str
    params: dict[str, Any] = field(default_factory=dict)
    verdict: str = VERDICT_PASS
    left: Optional[str] = None
    right: Optional[str] = None
    grid: Optional[dict[str, Any]] = None
    counterexample: Optional[dict[str, Any]] = None
    details: Optional[dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.verdict in _OK

    def to_dict(self) -> dict[str, Any]:
        """The fields that are set; None means absent from the report."""
        return {key: value for key, value in vars(self).items() if value is not None}

    def to_json(self) -> str:
        return render_json(self.to_dict())

    def summary(self) -> str:
        """One-line human rendering."""
        bits = [f"{self.check}: {self.verdict}"]
        if self.params:
            # an int param through format_scalar: every digit, also past str()'s limit
            bits.append(" ".join(
                f"{k}={format_scalar(v) if type(v) is int else v}"
                for k, v in sorted(self.params.items())
            ))
        if not self.ok and self.counterexample:
            bits.append(f"counterexample: {json.dumps(self.counterexample, sort_keys=True)}")
        return "  ".join(bits)


def render_json(value: object) -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for a
    value of str, int, bool and None leaves in lists, tuples and dicts with
    str keys; an int too long for str() prints every digit where json.dumps
    raises, and any other type raises TypeError."""
    return _render(value, "\n")


def _render(value: object, newline: str) -> str:
    """value rendered with newline (a line break and the current indent)
    before each line after its first."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(_quote(key) + ": " + _render(value[key], inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is int:
        try:
            return int.__repr__(value)
        except ValueError:  # past the interpreter's int-to-str digit limit
            return _digits(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_render(v, inner) for v in value]) + newline + "]"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
