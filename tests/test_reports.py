"""The JSON report renderer: json.dumps(indent=2, sort_keys=True) bytes,
exact types only, and the only indented JSON writer in the package."""

from __future__ import annotations

import ast
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedwords import check_generating_function_1
from gradedwords.reports import render_json

# text with the characters JSON escapes or that look like its syntax
_TEXT = st.text(st.one_of(
    st.characters(),
    st.sampled_from('"\\/[]{},: \n\t\r\b\f\x00\x1f\x7f\xe9\xa0\ufeff\u2028\U0001f600'),
))
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**60), 10**60),
    _TEXT,
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=30,
)


@given(tree=_TREES)
@settings(max_examples=200)
def test_render_json_is_json_dumps_with_indent_two_and_sorted_keys(tree):
    assert render_json(tree) == json.dumps(tree, indent=2, sort_keys=True)


def _unlimited_json(value: object) -> str:
    """json.dumps(value, indent=2, sort_keys=True) with no int-to-str digit limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(value, indent=2, sort_keys=True)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("value", [
    10**4300, -(10**4300), {"x": [7 * 10**6000 + 3]}, (10**5000 - 1, "a"),
], ids=["1e4300", "-1e4300", "7e6000+3", "1e5000-1"])
def test_render_json_prints_every_digit_of_an_int_past_the_str_limit(value):
    with pytest.raises(ValueError):
        json.dumps(value, indent=2, sort_keys=True)
    assert render_json(value) == _unlimited_json(value)


def test_a_report_holding_a_huge_param_renders_every_digit():
    # the params' x raised ValueError from str() past 4300 digits
    report = check_generating_function_1(10**5000, (1,), 2)
    assert report.ok
    assert '"x": 1' + "0" * 5000 + ",\n" in report.to_json()


@pytest.mark.parametrize("value, kind", [
    (0.5, "float"),
    (Fraction(1, 2), "Fraction"),
    ({1, 2}, "set"),
    ({"a": [1, {"b": 2.0}]}, "float"),
    ({1: "one"}, "int"),
    ({"a": {2: "two"}}, "int"),
])
def test_a_value_reports_never_hold_raises_type_error_naming_its_type(value, kind):
    with pytest.raises(TypeError, match=rf"\b{kind}\b"):
        render_json(value)


def test_no_other_indented_json_writer_in_the_package():
    # json.dumps with an indent runs the stdlib's pure-Python encoder; every
    # report goes through render_json instead
    root = Path(__file__).resolve().parent.parent / "src" / "gradedwords"
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dump", "dumps")
        and any(keyword.arg == "indent" for keyword in node.keywords)
    ]
    assert calls == []
