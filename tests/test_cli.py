"""Command-line interface: subcommands, exit codes, JSON report shapes,
manifest-driven suites, and determinism."""

from __future__ import annotations

import ast
import collections
import contextlib
import dataclasses
import hashlib
import inspect
import itertools
import json
import os
import pickle
import random
import select
import struct
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradedwords
import gradedwords.cli as cli
from conftest import empty_every_memo
from gradedwords import arith, bijections, series, words
from gradedwords import (
    CATALOG, PreconditionError, TruncatedSeries, default_manifest, main, run_suite,
)
from gradedwords.cli import _COMMANDS, EXIT_CONFIG, EXIT_COUNTEREXAMPLE, EXIT_INTERNAL, EXIT_PASS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# count / enumerate
# ---------------------------------------------------------------------------


def test_count_word_class(capsys):
    code, payload = run_json(capsys, "count", "--z", "1", "--p", "3", "--k", "1")
    assert code == EXIT_PASS
    assert payload["verdict"] == "equal"
    assert payload["details"] == {"formula": 2, "enumerated": 2}


def test_python_dash_m_runs_the_command_line():
    # the package directory's parent goes on the path, as for an installed copy
    src = str(Path(gradedwords.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    # gradedwords.cli used to print runpy's RuntimeWarning that the package
    # had imported it before it ran as __main__
    for module in ("gradedwords", "gradedwords.cli"):
        done = subprocess.run(
            [sys.executable, "-m", module, "count", "--z", "1", "--p", "4", "--k", "2"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == EXIT_PASS, done.stderr
        assert done.stderr == ""
        assert json.loads(done.stdout)["details"] == {"formula": 1, "enumerated": 1}


def test_count_infeasible_class_is_zero(capsys):
    code, payload = run_json(capsys, "count", "--z", "2,3", "--p", "4", "--k", "1,1")
    assert code == EXIT_PASS
    assert payload["details"] == {"formula": 0, "enumerated": 0}


def test_count_prefix_class_form(capsys):
    code, payload = run_json(
        capsys, "count", "--z", "1", "--p", "2", "--q", "2", "--n", "1"
    )
    assert code == EXIT_PASS
    assert payload["check"] == "count-prefix-class"
    assert payload["details"]["formula"] == payload["details"]["enumerated"] == 2


def test_count_requires_k_or_n_with_q(capsys):
    code, out, err = run(capsys, "count", "--z", "1", "--p", "3")
    assert code == EXIT_CONFIG and "invalid configuration" in err
    code, out, err = run(capsys, "count", "--z", "1", "--p", "3", "--n", "1")
    assert code == EXIT_CONFIG and "--q" in err


def test_enumerate_text_and_json(capsys):
    code, out, err = run(
        capsys, "enumerate", "--z", "1", "--p", "3", "--k", "1", "--format", "text"
    )
    assert code == EXIT_PASS
    assert out.splitlines() == ["a b", "b a"]
    code, payload = run_json(capsys, "enumerate", "--z", "1", "--p", "3", "--k", "1")
    assert payload["count"] == 2
    assert payload["words"] == ["a b", "b a"]


def test_enumerate_with_prefix_restriction(capsys):
    code, payload = run_json(
        capsys, "enumerate", "--z", "1", "--p", "4", "--k", "1", "--r", "2"
    )
    assert payload["words"] == ["a a b", "b a a"]


@pytest.mark.parametrize("cap", [1, 5, words._TABLE_CAP])
@pytest.mark.parametrize("z, p, k, r", [
    ((1,), 0, (0,), None),  # the empty word
    ((1,), 0, (0,), 0),
    ((1,), 13, (3,), None),  # more words than the table cap: heads before the tables
    ((1,), 13, (3,), 6),
    ((1,), 13, (3,), 13),  # the weight-r prefix is the whole word: every tail is empty
    ((1, 2), 12, (2, 1), None),
    ((1, 2), 12, (2, 1), 5),
    ((0, 1), 6, (1, 1), 6),
    ((1,), 4, (1,), None),  # one table and an empty head
])
def test_enumerate_renders_every_word_as_str_does(monkeypatch, cap, z, p, k, r):
    monkeypatch.setattr(words, "_TABLE_CAP", cap)
    alphabet = gradedwords.GradedAlphabet(z=z)
    expected = [str(w) for w in gradedwords.enumerate_words(gradedwords.WordClassSpec(p, k, r), alphabet)]
    payload = cli.do_enumerate(z, p, k, r)
    assert payload["words"] == expected and payload["count"] == len(expected) > 0


def _criterion_classes():
    """The (z, p, k, r) classes acceptance criteria 1 and 2 enumerate whole:
    every z in {0..3}^m for m = 1, 2, |k| <= 4 and p <= 14; and, up to
    p = 8, the same classes at each prefix weight r."""
    for m in (1, 2):
        for z in itertools.product(range(4), repeat=m):
            for k in itertools.product(range(5), repeat=m):
                if sum(k) <= 4:
                    for p in range(15):
                        yield z, p, k, None
                        if p <= 8:
                            yield from [(z, p, k, r) for r in range(1, p + 1)]


def test_enumerate_is_unchanged_when_the_memo_keeps_no_table(monkeypatch):
    # do_enumerate renders each table once per class: with every table
    # dropped from the memo as soon as it is listed, the next table can take
    # a freed one's memory, so a rendering must not be found by id
    classes = list(_criterion_classes())
    expected = [json.dumps(cli.do_enumerate(*c)) for c in classes]
    real = words._table

    def keeps_none(counts):
        table = real(counts)
        real.cache_clear()
        return table

    monkeypatch.setattr(words, "_table", keeps_none)
    assert [json.dumps(cli.do_enumerate(*c)) for c in classes] == expected


def test_bad_csv_rejected(capsys):
    code, out, err = run(capsys, "count", "--z", "x", "--p", "3", "--k", "1")
    assert code == EXIT_CONFIG and "--z" in err
    code, out, err = run(capsys, "count", "--z", "-1", "--p", "3", "--k", "1")
    assert code == EXIT_CONFIG


# ---------------------------------------------------------------------------
# bijection
# ---------------------------------------------------------------------------


def test_bijection_shift_word(capsys):
    code, out, err = run(
        capsys, "bijection", "shift", "--z", "1", "--p", "1", "--q", "1",
        "--n", "1", "--word", "a b", "--format", "text",
    )
    assert code == EXIT_PASS
    assert out.strip() == "b a"


def test_bijection_shift_word_json_round_trip(capsys):
    code, payload = run_json(
        capsys, "bijection", "shift", "--z", "1", "--p", "2", "--word", "a a b"
    )
    assert code == EXIT_PASS
    assert payload["details"] == {"word": "a a b", "image": "a b a"}
    assert payload["params"]["r"] == 1
    assert payload["verdict"] == "pass"


def test_bijection_shift_word_r_fold(capsys):
    code, payload = run_json(
        capsys, "bijection", "shift", "--z", "1", "--p", "1", "--r", "2",
        "--word", "a b a",
    )
    assert payload["details"]["image"] == "b a a"


def test_bijection_shift_word_steps_back_as_the_shift_down_chain(capsys):
    alphabet = gradedwords.GradedAlphabet(z=(1, 2))
    p, r = 4, 3
    source = list(gradedwords.enumerate_words(gradedwords.WordClassSpec(11, (1, 1), p), alphabet))
    assert len(source) > 1
    for w in source:
        report = gradedwords.verify_shift_word(w, p, r)
        image = chain = gradedwords.shift_by(w, p, r)
        for step in range(r - 1, -1, -1):
            chain = gradedwords.shift_down(chain, p + step)
        assert report.ok and report.details == {"word": str(w), "image": str(image)}
        assert chain == w
    code, payload = run_json(
        capsys, "bijection", "shift", "--z", "1,2", "--p", "4", "--r", "3",
        "--word", "a b2 a b1 a a a a",
    )
    assert code == EXIT_PASS and payload["verdict"] == "pass"
    assert payload["details"]["image"] == str(
        gradedwords.shift_by(alphabet.parse_word("a b2 a b1 a a a a"), 4, 3)
    )


def test_bijection_word_validation(capsys):
    code, out, err = run(
        capsys, "bijection", "shift", "--z", "1", "--p", "1", "--n", "2",
        "--word", "a b",
    )
    assert code == EXIT_CONFIG and "letter counts" in err
    code, out, err = run(
        capsys, "bijection", "shift", "--z", "1", "--p", "1", "--q", "5",
        "--word", "a b",
    )
    assert code == EXIT_CONFIG and "weight" in err


def test_bijection_raney_word_text(capsys):
    code, out, err = run(
        capsys, "bijection", "raney", "--z", "1", "--p", "1", "--word", "b a",
        "--format", "text",
    )
    assert code == EXIT_PASS
    assert out.strip() == 'overshoot: i = 1, j = 1, u\' = "", v = "a"'
    code, out, err = run(
        capsys, "bijection", "raney", "--z", "1", "--p", "1", "--word", "a b",
        "--format", "text",
    )
    assert out.strip() == 'prefix: u = "a", v = "b"'


def test_bijection_raney_rejects_r(capsys):
    code, out, err = run(
        capsys, "bijection", "raney", "--z", "1", "--p", "1", "--r", "2",
        "--word", "a b",
    )
    assert code == EXIT_CONFIG


def test_bijection_class_modes(capsys):
    code, payload = run_json(
        capsys, "bijection", "shift", "--z", "1", "--p", "2", "--q", "2", "--n", "2"
    )
    assert code == EXIT_PASS and payload["check"] == "shift-bijection"
    code, payload = run_json(
        capsys, "bijection", "raney", "--z", "1,2", "--p", "3", "--q", "2",
        "--n", "1,1",
    )
    assert code == EXIT_PASS and payload["details"]["total"] == 20


def test_bijection_class_requires_q_and_n(capsys):
    code, out, err = run(capsys, "bijection", "shift", "--z", "1", "--p", "2")
    assert code == EXIT_CONFIG and "--q" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_on_grid(capsys):
    code, payload = run_json(
        capsys, "verify", "rothe-2", "--n", "3", "--z", "2",
        "--grid-range", "20..40",
    )
    assert code == EXIT_PASS
    assert payload["verdict"] == "equal"
    assert all(20 <= v <= 40 for v in payload["grid"]["axes"]["x"])


def test_verify_at_point_with_fractions(capsys):
    code, payload = run_json(
        capsys, "verify", "gould", "--n", "2", "--z", "1",
        "--point", "x=3,y=5,eps=3/2",
    )
    assert code == EXIT_PASS
    assert payload["left"] == payload["right"]


@pytest.mark.parametrize("identity, n, point, x, side", [
    ("rothe-1", "2", "x=1E2200,y=1", 10**2200, (10**2200 + 1) * 10**2200 // 2),  # C(x + y, 2)
    ("gould", "1", "x=1E4300,y=1,eps=0", 10**4300, 10**4300),
    ("gould", "1", "x=1e-5000,y=1,eps=0", Fraction(1, 10**5000), Fraction(1, 10**5000)),
], ids=["rothe-1-1E2200", "gould-1E4300", "gould-1e-5000"])
def test_verify_prints_every_digit_past_the_int_str_limit(capsys, identity, n, point, x, side):
    # these exited 3: str() refuses an int of more than 4300 digits
    code, payload = run_json(capsys, "verify", identity, "--n", n, "--z", "1", "--point", point)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected_x, expected_side = str(x), str(side)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == EXIT_PASS
    assert payload["left"] == payload["right"] == expected_side
    assert payload["params"]["point"]["x"] == expected_x


def test_verify_point_on_pole_is_config_error(capsys):
    code, out, err = run(
        capsys, "verify", "rothe-1", "--n", "2", "--z", "1", "--point", "x=1,y=9"
    )
    assert code == EXIT_CONFIG
    assert "denominators vanish" in err


def test_verify_point_naming_a_variable_twice_is_config_error(capsys):
    # y = 2 used to win silently, with exit 0
    code, out, err = run(
        capsys, "verify", "rothe-1", "--n", "2", "--z", "1", "--point", "x=1/2,y=1/3,y=2"
    )
    assert code == EXIT_CONFIG
    assert "--point gives y more than once" in err
    payload, code = run_suite([{"command": "verify", "identity": "rothe-1", "n": [2], "z": [1],
                                "point": "x=1/2, y=1/3, x=1/2"}], 1)
    assert code == EXIT_CONFIG
    assert "--point gives x more than once" in payload["members"][0]["error"]


def test_verify_point_with_a_grid_range_is_config_error(capsys):
    # the range used to be ignored, with exit 0
    code, out, err = run(
        capsys, "verify", "rothe-1", "--n", "2", "--z", "1",
        "--point", "x=1/2,y=7/3", "--grid-range", "20..40",
    )
    assert code == EXIT_CONFIG and out == ""
    assert "--point and --grid-range exclude each other" in err
    payload, code = run_suite([{"command": "verify", "identity": "rothe-1", "n": [2], "z": [1],
                                "point": {"x": "1/2", "y": "7/3"}, "grid_range": [20, 40]}], 1)
    assert code == EXIT_CONFIG
    assert "--point and --grid-range exclude each other" in payload["members"][0]["error"]


def test_verify_absorption_uses_k_flag(capsys):
    code, payload = run_json(
        capsys, "verify", "absorption", "--k", "2,1", "--z", "1,2", "--i", "1"
    )
    assert code == EXIT_PASS


def test_verify_rejects_both_n_and_k(capsys):
    code, out, err = run(
        capsys, "verify", "kmx", "--n", "1", "--k", "1", "--z", "1"
    )
    assert code == EXIT_CONFIG


def test_verify_bad_grid_range_syntax(capsys):
    code, out, err = run(
        capsys, "verify", "rothe-1", "--n", "1", "--z", "1", "--grid-range", "5"
    )
    assert code == EXIT_CONFIG and "A..B" in err


def test_verify_negative_grid_range_is_given_with_an_equals_sign(capsys):
    # argparse reads a separate value starting with "-" as a flag
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "rothe-1", "--n", "2", "--z", "1", "--grid-range", "-3..3"])
    assert exit_info.value.code == EXIT_CONFIG
    assert "--grid-range: expected one argument" in capsys.readouterr().err
    code, payload = run_json(
        capsys, "verify", "rothe-1", "--n", "2", "--z", "1", "--grid-range=-3..3"
    )
    assert code == EXIT_PASS
    # x = 0, 1, 2 are poles of x/(x - kz); y has none
    assert payload["grid"]["axes"] == {"x": [-3, -2, -1], "y": [-3, -2, -1]}


_GOULD_POINT = ["verify", "gould", "--n", "2", "--z", "1", "--point"]


def test_verify_point_ignores_the_order_of_its_variables(capsys, tmp_path):
    code, out, err = run(capsys, *_GOULD_POINT, "x=1/2,y=2,eps=1/3")
    assert code == EXIT_PASS and err == ""
    for shuffled in ("eps=1/3,y=2,x=1/2", "y=2,eps=1/3,x=1/2"):
        assert run(capsys, *_GOULD_POINT, shuffled) == (code, out, err)
    # a manifest member's point object, with its keys in either order
    outputs = []
    for point in ({"x": "1/2", "y": "2", "eps": "1/3"}, {"eps": "1/3", "y": "2", "x": "1/2"}):
        path = tmp_path / "manifest.json"
        member = {"command": "verify", "identity": "gould", "n": [2], "z": [1], "point": point}
        path.write_text(json.dumps([member]))
        outputs.append(run(capsys, "suite", "--manifest", str(path), "--jobs", "1"))
    assert outputs[0] == outputs[1] and outputs[0][0] == EXIT_PASS
    assert json.loads(outputs[0][1])["members"][0]["report"] == json.loads(out)


def test_verify_point_missing_or_extra_variable_whatever_the_order(capsys):
    missing = "invalid configuration: gould needs values for x, y, eps; missing eps\n"
    extra = "invalid configuration: gould takes only x, y, eps; got extra w\n"
    for point, message in (
        ("x=1/2,y=2", missing), ("y=2,x=1/2", missing),
        ("x=1/2,y=2,eps=1/3,w=4", extra), ("w=4,eps=1/3,x=1/2,y=2", extra),
    ):
        assert run(capsys, *_GOULD_POINT, point) == (EXIT_CONFIG, "", message), point


def test_verify_mismatch_exits_one_with_counterexample(capsys, monkeypatch):
    entry = CATALOG["rothe-1"]

    def broken(values, spec, table):
        return [(left, right + 1) for left, right in entry.evaluate(values, spec, table)]

    monkeypatch.setitem(CATALOG, "rothe-1", dataclasses.replace(entry, evaluate=broken))
    code, payload = run_json(capsys, "verify", "rothe-1", "--n", "2", "--z", "1")
    assert code == EXIT_COUNTEREXAMPLE
    assert payload["verdict"] == "mismatch"
    assert "rerun" in payload["counterexample"]


def test_text_output_prints_a_counterexample_once(capsys, monkeypatch):
    entry = CATALOG["rothe-1"]

    def broken(values, spec, table):
        return [(left, right + 1) for left, right in entry.evaluate(values, spec, table)]

    monkeypatch.setitem(CATALOG, "rothe-1", dataclasses.replace(entry, evaluate=broken))
    code, out, err = run(capsys, "verify", "rothe-1", "--n", "2", "--z", "1", "--format", "text")
    assert code == EXIT_COUNTEREXAMPLE and err == ""
    assert out.count("counterexample:") == 1 and "rerun" in out


# ---------------------------------------------------------------------------
# exit-1 branches, each reached through a suite member by a planted fault
# that gets past the process's memos
# ---------------------------------------------------------------------------


def _member_entry(**member) -> dict:
    return cli._run_entry(0, cli._coerced(member))


def test_a_planted_multinomial_fails_verify_point(monkeypatch, empty_memos):
    # at x = 3, y = 0 rothe-1's right side is C(3, 2) = 3; the rows, emptied,
    # fill from the planted multinomial
    real = arith.multinomial
    monkeypatch.setattr(arith, "multinomial", lambda x, k: 16 if (x, k) == (3, (2,)) else real(x, k))
    entry = _member_entry(command="verify", identity="rothe-1", n=[2], z=[1], point="x=3,y=0")
    assert entry["exit_code"] == EXIT_COUNTEREXAMPLE
    assert entry["report"]["verdict"] == "mismatch"
    ce = entry["report"]["counterexample"]
    assert (ce["point"], ce["left"], ce["right"], ce["pair"]) == ({"x": "3", "y": "0"}, "3", "16", 0)


def test_a_wrong_coefficient_in_v_fails_series_solve(monkeypatch, empty_memos):
    # the planted solver fills the emptied memo with v whose u_1 u_2 is
    # raised by one
    real = series._solved.fill

    def raised(key):
        v = real(key)
        return TruncatedSeries._trusted(v.nvars, v.order, {**v.coeffs, (1, 1): v.coeffs[(1, 1)] + 1})

    monkeypatch.setattr(series._solved, "fill", raised)
    entry = _member_entry(command="series-solve", z=[1, 2], order=4)
    assert entry["exit_code"] == EXIT_COUNTEREXAMPLE
    assert entry["report"]["verdict"] == "fail"
    assert entry["report"]["counterexample"] == {
        "residual_zero": False, "natural_coefficients": True,
    }
    monkeypatch.undo()
    empty_every_memo()  # the planted v, kept by the memo
    assert _member_entry(command="series-solve", z=[1, 2], order=4)["exit_code"] == EXIT_PASS


def test_a_class_size_off_by_one_fails_count(monkeypatch, empty_memos):
    real = words._class_size
    monkeypatch.setattr(words, "_class_size", lambda *args: real(*args) + 1)
    entry = _member_entry(command="count", z=[1, 2], p=7, k=[1, 1])
    assert entry["exit_code"] == EXIT_COUNTEREXAMPLE
    assert entry["report"]["verdict"] == "mismatch"
    ce = entry["report"]["counterexample"]
    assert ce["enumerated"] == ce["formula"] + 1 == real(words.GradedAlphabet((1, 2)), 7, (1, 1)) + 1
    assert ce["params"] == {"p": 7, "k": [1, 1], "z": [1, 2]}


def test_a_shift_down_that_does_not_invert_fails_shift_word(monkeypatch, empty_memos):
    # the downward step moves the cut but leaves the letters where they are
    real = bijections._swap_balanced

    def stuck(lw, letters, cut, excess=1):
        return real(lw, letters, cut, excess) if excess == 1 else (letters, cut - 1)

    monkeypatch.setattr(bijections, "_swap_balanced", stuck)
    entry = _member_entry(command="bijection", kind="shift", z=[1], p=1, word="a b")
    assert entry["exit_code"] == EXIT_COUNTEREXAMPLE
    assert entry["report"]["verdict"] == "fail"
    assert entry["report"]["counterexample"] == {"word": "a b", "image": "b a", "back": "b a"}


def test_a_raney_unfactorize_that_returns_another_word_fails_raney_word(
    monkeypatch, empty_memos
):
    real = bijections.raney_unfactorize
    monkeypatch.setattr(bijections, "raney_unfactorize",
                        lambda f, p: words.Word(f.v.alphabet, real(f, p).letters[::-1]))
    entry = _member_entry(command="bijection", kind="raney", z=[1], p=2, word="b a b a")
    assert entry["exit_code"] == EXIT_COUNTEREXAMPLE
    assert entry["report"]["verdict"] == "fail"
    assert entry["report"]["counterexample"] == {"word": "b a b a", "back": "a b a b"}


# class(8, (1, 1)) over z = (1, 2), factorized at p = 3: C(5, (1, 1)) = 20
# words, 12 with a weight-3 prefix and 8 that overshoot it
_RANEY_MEMBER = {"command": "bijection", "kind": "raney", "z": [1, 2], "p": 3, "q": 2, "n": [1, 1]}


def _raney_counterexample() -> dict:
    entry = _member_entry(**_RANEY_MEMBER)
    assert entry["exit_code"] == EXIT_COUNTEREXAMPLE and entry["report"]["verdict"] == "fail"
    return entry["report"]["counterexample"]


def test_a_prefix_class_size_off_by_one_fails_the_raney_prefix_tally(monkeypatch, empty_memos):
    real = bijections._class_size
    monkeypatch.setattr(bijections, "_class_size",
                        lambda alphabet, p, k, r=None: real(alphabet, p, k, r) + (r is not None))
    assert _raney_counterexample() == {
        "reason": "prefix-case tally disagrees", "tally": 12, "enumerated": 13, "formula": "12",
    }


def test_a_cell_count_off_by_one_fails_the_raney_cell_closed_form(monkeypatch, empty_memos):
    # the cell i = 1, j = 1, k = (1, 0) has an empty head u': C(2, (0, 0)) = 1
    real = bijections.count_words
    monkeypatch.setattr(bijections, "count_words",
                        lambda p, k, alphabet: real(p, k, alphabet) + (not any(k)))
    assert _raney_counterexample() == {
        "reason": "overshoot cell tally disagrees with the closed form",
        "i": 1, "j": 1, "k": [1, 0], "tally": 2, "formula": "4",
    }


def test_a_class_size_off_by_one_fails_the_raney_cell_enumeration(monkeypatch, empty_memos):
    real = bijections._class_size
    monkeypatch.setattr(bijections, "_class_size",
                        lambda alphabet, p, k, r=None: real(alphabet, p, k, r) + (r is None))
    assert _raney_counterexample() == {
        "reason": "overshoot cell tally disagrees with enumeration",
        "i": 1, "j": 1, "k": [1, 0], "tally": 2, "enumerated": 6,
    }


def test_a_word_outside_every_cell_fails_the_raney_partition(monkeypatch, empty_memos):
    # b1 b1 b2 a has the class's weight 8 but counts n + e_1 = (2, 1): it
    # overshoots p = 3 by j = 1 through b1, with k = (2, 0) outside every cell
    real = bijections._class_blocks

    def extra(*args):
        yield from real(*args)
        yield 0, (), ((1, 1, 2, 0),)

    monkeypatch.setattr(bijections, "_class_blocks", extra)
    assert _raney_counterexample() == {
        "reason": "cases do not partition the class", "total": 21, "sum_of_cases": 20,
    }


def test_a_multinomial_off_by_one_fails_the_raney_class_size(monkeypatch, empty_memos):
    real = bijections.multinomial
    monkeypatch.setattr(bijections, "multinomial", lambda x, n: real(x, n) + 1)
    assert _raney_counterexample() == {
        "reason": "class size disagrees with C(p+q, n)", "total": 20, "formula": "21",
    }


# Every verdict branch of the library that says fail or mismatch, keyed by
# where it is (module.function) and what it says (its verdict, or the reason
# of its counterexample), and the test that reaches it with exit 1.
_VERDICT_BRANCHES = {
    "words.verify_count: VERDICT_MISMATCH":
        "test_cli.py::test_a_class_size_off_by_one_fails_count",
    "bijections.verify_shift_word: VERDICT_FAIL":
        "test_cli.py::test_a_shift_down_that_does_not_invert_fails_shift_word",
    "bijections.verify_raney_word: VERDICT_FAIL":
        "test_cli.py::test_a_raney_unfactorize_that_returns_another_word_fails_raney_word",
    # _fail, which every reason given to it below goes through
    "bijections._fail: VERDICT_FAIL":
        "test_cli.py::test_a_multinomial_off_by_one_fails_the_raney_class_size",
    "bijections._fail: reason":
        "test_cli.py::test_a_multinomial_off_by_one_fails_the_raney_class_size",
    "bijections.verify_shift_bijection.check: image escapes the target class":
        "test_bijections.py::test_a_faulty_shift_kernel_is_a_counterexample",
    "bijections.verify_shift_bijection.check: inverse does not round-trip":
        "test_bijections.py::test_a_faulty_shift_kernel_is_a_counterexample",
    "bijections.verify_shift_bijection: class sizes differ":
        "test_bijections.py::test_a_target_class_of_another_size_is_a_counterexample",
    "bijections.verify_shift_bijection: class size disagrees with the closed form":
        "test_bijections.py::test_a_shortfall_shared_by_both_classes_is_a_counterexample",
    "bijections.verify_raney_decomposition.check: str(exc)":
        "test_bijections.py::test_a_faulty_raney_join_names_the_first_failing_word",
    "bijections.verify_raney_decomposition.check: factorization does not reassemble":
        "test_bijections.py::test_a_faulty_raney_join_names_the_first_failing_word",
    "bijections.verify_raney_decomposition: prefix-case tally disagrees":
        "test_cli.py::test_a_prefix_class_size_off_by_one_fails_the_raney_prefix_tally",
    "bijections.verify_raney_decomposition: overshoot cell tally disagrees with the closed form":
        "test_cli.py::test_a_cell_count_off_by_one_fails_the_raney_cell_closed_form",
    "bijections.verify_raney_decomposition: overshoot cell tally disagrees with enumeration":
        "test_cli.py::test_a_class_size_off_by_one_fails_the_raney_cell_enumeration",
    "bijections.verify_raney_decomposition: cases do not partition the class":
        "test_cli.py::test_a_word_outside_every_cell_fails_the_raney_partition",
    "bijections.verify_raney_decomposition: class size disagrees with C(p+q, n)":
        "test_cli.py::test_a_multinomial_off_by_one_fails_the_raney_class_size",
    "identities.verify_identity_on_grid: VERDICT_MISMATCH":
        "test_cli.py::test_verify_mismatch_exits_one_with_counterexample",
    "identities.verify_identity_at_point: VERDICT_MISMATCH":
        "test_cli.py::test_a_planted_multinomial_fails_verify_point",
    "series.verify_solution: VERDICT_FAIL":
        "test_cli.py::test_a_wrong_coefficient_in_v_fails_series_solve",
    "series.verify_solution: VERDICT_MISMATCH":
        "test_cli.py::test_suite_isolates_member_failures",
    "series._compare_series: VERDICT_MISMATCH":
        "test_series.py::test_planted_left_side_mismatch_is_named_at_its_first_exponent",
}


def _verdict_branches(path: Path) -> list[str]:
    """The fail and mismatch branches of a module, keyed as in _VERDICT_BRANCHES:
    each assignment of VERDICT_FAIL or VERDICT_MISMATCH to a .verdict, and
    each reason passed to _fail or given as a counterexample's "reason"."""
    found: list[str] = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{where}.{child.name}"
            elif isinstance(child, ast.Assign) and any(
                getattr(target, "attr", None) == "verdict" for target in child.targets
            ):
                found.extend(f"{where}: {name.id}" for name in ast.walk(child.value)
                             if isinstance(name, ast.Name)
                             and name.id in ("VERDICT_FAIL", "VERDICT_MISMATCH"))
            elif isinstance(child, ast.Call) and getattr(child.func, "id", None) == "_fail":
                if len(child.args) > 1:
                    found.append(f"{where}: {ast.literal_eval(child.args[1])}")
            elif isinstance(child, ast.Dict):
                found.extend(
                    f"{where}: {value.value if isinstance(value, ast.Constant) else ast.unparse(value)}"
                    for key, value in zip(child.keys, child.values)
                    if isinstance(key, ast.Constant) and key.value == "reason"
                )
            visit(child, inner)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def test_every_fail_and_mismatch_branch_has_a_named_test_that_reaches_it():
    root = Path(__file__).resolve().parent
    source = root.parent / "src" / "gradedwords"
    found = [key for path in sorted(source.glob("*.py")) for key in _verdict_branches(path)]
    assert len(found) == len(set(found))  # a key names one branch
    assert sorted(found) == sorted(_VERDICT_BRANCHES)
    tests = {
        f"{path.name}::{node.name}"
        for path in root.glob("test_*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
    }
    assert sorted(set(_VERDICT_BRANCHES.values()) - tests) == []
    # the front end decides no verdict: it neither assigns one nor imports one
    tree = ast.parse((source / "cli.py").read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            and any(getattr(target, "attr", None) == "verdict"
                    for target in getattr(node, "targets", [getattr(node, "target", None)]))] == []
    assert [name for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.alias))
            for name in [getattr(node, "id", getattr(node, "name", ""))]
            if name.startswith("VERDICT_")] == []


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def test_series_solve_catalan(capsys):
    code, payload = run_json(capsys, "series", "solve", "--z", "2", "--order", "6")
    assert code == EXIT_PASS
    coeffs = payload["details"]["coefficients"]
    assert [coeffs[str(t)] for t in range(7)] == ["1", "1", "2", "5", "14", "42", "132"]
    assert payload["details"]["residual_zero"] is True
    assert payload["details"]["natural_coefficients"] is True


def test_series_checks(capsys):
    code, payload = run_json(
        capsys, "series", "check1", "--x", "2", "--z", "1,2", "--order", "6"
    )
    assert code == EXIT_PASS and payload["verdict"] == "equal"
    code, payload = run_json(
        capsys, "series", "check2", "--x", "1", "--z", "2", "--order", "8"
    )
    assert code == EXIT_PASS


def test_series_check_requires_x(capsys):
    code, out, err = run(capsys, "series", "check1", "--z", "1", "--order", "4")
    assert code == EXIT_CONFIG and "--x" in err


def test_series_check_invalid_x(capsys):
    code, out, err = run(
        capsys, "series", "check1", "--x", "0", "--z", "1", "--order", "4"
    )
    assert code == EXIT_CONFIG


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def test_default_suite_passes(capsys):
    code, payload = run_json(capsys, "suite")
    assert code == EXIT_PASS
    assert payload["verdict"] == "pass"
    assert payload["failed"] == 0
    assert payload["total"] == len(default_manifest())


# SHA-256 of the standard output of `gradedwords suite --jobs 1`.  Speed-ups
# must leave every report byte of the built-in suite as it is; a change that
# means to move them replaces this digest, in plain view (the grids' axes
# moved to start at 0 and the Abel and absorption grids lost a value per axis
# when every grid took the degree bound |n|)
_SUITE_DIGEST = "6315df5ec65a1700d6b7b0c7fa7a7de7d80e48e9db6ede27f35a16cb3d1e473b"


def test_default_suite_report_bytes_are_frozen(capsys):
    code, out, err = run(capsys, "suite", "--jobs", "1")
    assert (code, err) == (EXIT_PASS, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _SUITE_DIGEST


# Series reports larger than the built-in suite's (orders up to 30, three
# variables, expected coefficients checked and missed), frozen the same way
_SERIES_MANIFEST = [
    {"command": "series-solve", "z": [0, 2], "order": 7, "expect_coefficients":
        {"0,0": "1", "1,0": "1", "2,0": "0", "1,3": "20", "0,7": "429"}},
    {"command": "series-solve", "z": [1, 2], "order": 6,
     "expect_coefficients": {"1,1": "3", "2,2": "1/2"}},
]
_SERIES_DIGESTS = [
    (["series", "solve", "--z", "1,2", "--order", "8"], EXIT_PASS,
     "78e7347b4a053df3556b55c44da222593e51b7745ab5cc208eff593dbb398b64"),
    (["series", "check1", "--x", "5", "--z", "1", "--order", "30"], EXIT_PASS,
     "d6766465e78c0f122c3d8090ae6490c17a7036df8e68b634e22e450ad607b373"),
    (["series", "check2", "--x", "3", "--z", "1,2,3", "--order", "3"], EXIT_PASS,
     "b975e2ff59765396dc17de7baca03e966ca51578a6b89c3774a80957fd8d3e30"),
    (["suite", "--jobs", "1", "--manifest", "MANIFEST"], EXIT_COUNTEREXAMPLE,
     "589b357307b9cf9d681253e2941d94174e6d66bbde2ec4dbd1d510c6b53d1340"),
]


@pytest.mark.parametrize("argv, exit_code, digest", _SERIES_DIGESTS,
                         ids=["solve", "check1", "check2", "manifest"])
def test_series_report_bytes_are_frozen(argv, exit_code, digest, tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(_SERIES_MANIFEST))
    code, out, err = run(capsys, *(str(path) if a == "MANIFEST" else a for a in argv))
    assert (code, err) == (exit_code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_default_manifest_covers_every_identity(capsys):
    verified = {
        member["identity"]
        for member in default_manifest()
        if member["command"] == "verify"
    }
    assert verified == set(CATALOG)


def test_suite_manifest_file(tmp_path, capsys):
    manifest = [
        {"command": "count", "z": [1], "p": 3, "k": [1]},
        {"command": "series-solve", "z": [1], "order": 4,
         "expect_coefficients": {"0": "1", "3": "1"}},
    ]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, payload = run_json(capsys, "suite", "--manifest", str(path))
    assert code == EXIT_PASS
    assert payload["passed"] == 2


def test_suite_isolates_member_failures(tmp_path, capsys):
    manifest = [
        {"command": "count", "z": [1], "p": 3, "k": [1]},
        {"command": "verify", "identity": "rothe-1", "z": [1]},  # missing n
        {"command": "series-solve", "z": [2], "order": 4,
         "expect_coefficients": {"3": "99"}},  # wrong expectation
        {"command": "count", "z": [1], "p": 4, "k": [2]},
    ]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, payload = run_json(capsys, "suite", "--manifest", str(path))
    assert code == EXIT_COUNTEREXAMPLE  # a mismatch outranks a config error
    codes = [member["exit_code"] for member in payload["members"]]
    assert codes == [0, 2, 1, 0]
    assert "invalid configuration" in payload["members"][1]["error"]
    assert payload["members"][2]["report"]["counterexample"]["exponent"] == [3]
    assert payload["passed"] == 2 and payload["failed"] == 2


def test_suite_config_only_failures_exit_two(tmp_path, capsys):
    manifest = [
        {"command": "count", "z": [1], "p": 3, "k": [1]},
        {"command": "nonsense", "z": [1]},
    ]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, payload = run_json(capsys, "suite", "--manifest", str(path))
    assert code == EXIT_CONFIG
    assert "unknown member command" in payload["members"][1]["error"]


def test_suite_rejects_unknown_member_keys(tmp_path, capsys):
    manifest = [{"command": "count", "z": [1], "p": 3, "k": [1], "bogus": True}]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, payload = run_json(capsys, "suite", "--manifest", str(path))
    assert code == EXIT_CONFIG
    assert "bogus" in payload["members"][0]["error"]


def test_suite_empty_manifest_warns(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    code, payload = run_json(capsys, "suite", "--manifest", str(path))
    assert code == EXIT_PASS
    assert "empty manifest" in payload["warning"]


def test_suite_manifest_parse_error_names_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('[\n  {"command": "count"\n]')
    code, out, err = run(capsys, "suite", "--manifest", str(path))
    assert code == EXIT_CONFIG
    assert "line 3" in err


def test_suite_missing_manifest_file(capsys):
    code, out, err = run(capsys, "suite", "--manifest", "/nonexistent/m.json")
    assert code == EXIT_CONFIG and "not found" in err


def test_suite_unreadable_manifest_exits_two(tmp_path, capsys):
    binary = tmp_path / "latin1.json"
    binary.write_bytes(b'[{"label": "caf\xe9"}]')
    for path, message in (
        (tmp_path, f"invalid configuration: cannot read manifest {tmp_path}: Is a directory\n"),
        (binary,
         f"invalid configuration: manifest {binary} is not UTF-8: invalid continuation byte\n"),
    ):
        assert run(capsys, "suite", "--manifest", str(path)) == (EXIT_CONFIG, "", message)


def test_suite_empty_manifest_path_is_refused(capsys):
    # an empty path names no file; it does not select the built-in suite
    code, out, err = run(capsys, "suite", "--manifest", "")
    assert (code, out) == (EXIT_CONFIG, "") and "manifest file not found" in err


# every command, a counterexample (exit 1), a malformed member (exit 2) and a
# member whose handler raises (exit 3, see _mixed_suite), around the built-in
# suite
_MIXED = default_manifest() + [
    {"command": "enumerate", "z": [1], "p": 6, "k": [2], "r": 2},
    {"command": "bijection", "kind": "shift", "z": [1], "p": 2, "word": "a a b a b", "r": 2},
    {"command": "verify", "identity": "rothe-1", "n": [2], "z": [1],
     "point": {"x": "1/2", "y": "7/3"}},
    {"command": "series-solve", "z": [2], "order": 4, "expect_coefficients": {"3": "99"}},
    {"command": "count", "z": [1], "p": 3.5, "k": [1]},
    {"command": "series-check2", "x": 5, "z": [2], "order": 3, "label": "raises"},
]


@pytest.fixture
def mixed_suite(tmp_path, monkeypatch):
    """The _MIXED manifest file, with series-check2 made to raise at x = 5,
    and room for three workers whatever the machine's CPU count."""
    handler, *keys = _COMMANDS["series-check2"]

    def boom(**values):
        if values["x"] == 5:
            raise RuntimeError("handler fault")
        return handler(**values)

    monkeypatch.setitem(_COMMANDS, "series-check2", (boom, *keys))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(_MIXED))
    return str(path)


_FLOOR_S = cli._PARALLEL_FLOOR_S


@pytest.fixture
def forks(monkeypatch):
    """A list that gains an item on every os.fork call; the calls still fork.
    The fork floor is 0, so a suite that may fork does so after its first member."""
    monkeypatch.setattr(cli, "_PARALLEL_FLOOR_S", 0)
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def test_suite_deterministic_across_job_counts(capsys, mixed_suite, forks):
    outputs = [run(capsys, "suite", "--manifest", mixed_suite, "--jobs", str(jobs))
               for jobs in (1, 2, 3)]
    assert len(forks) == 0 + 1 + 2
    assert outputs[0] == outputs[1] == outputs[2]
    code, out, err = outputs[0]
    assert code == EXIT_COUNTEREXAMPLE and err == ""
    codes = [member["exit_code"] for member in json.loads(out)["members"]]
    assert codes == [EXIT_PASS] * (len(_MIXED) - 3) + [EXIT_COUNTEREXAMPLE, EXIT_CONFIG, EXIT_INTERNAL]
    assert run(capsys, "suite", "--jobs", "1") == run(capsys, "suite", "--jobs", "2")


def test_each_member_is_coerced_once_in_the_parent(mixed_suite, forks, monkeypatch):
    expected = run_suite(_MIXED, 1)
    parent, calls, coerce = os.getpid(), [], cli._coerce_member

    def counted(config):
        # a child that coerced would record this as its member's internal error
        assert os.getpid() == parent, "a forked child coerced a member"
        calls.append(config)
        return coerce(config)

    monkeypatch.setattr(cli, "_coerce_member", counted)
    for jobs in (1, 3):
        calls.clear()
        assert run_suite(_MIXED, jobs) == expected
        assert calls == _MIXED
    assert len(forks) == 2


def _die(*_):
    os._exit(1)


def _die_after_one_run(members, queue, fd):
    os.read(queue, 8)
    os._exit(1)


def _truncated(members, queue, fd):
    os.write(fd, pickle.dumps([(index, {}) for index in cli._taken(queue)])[:-3])


def _wrong_share(members, queue, fd):
    # member 0 ran in the parent, before the fork
    os.write(fd, pickle.dumps([(index, {"index": index}) for index in [0, *cli._taken(queue)]]))


_FAILED_CHILDREN = [_die, _die_after_one_run, _truncated, _wrong_share]


@pytest.mark.parametrize("child", _FAILED_CHILDREN)
def test_a_failed_child_share_is_rerun_in_process(capsys, mixed_suite, forks, monkeypatch, child):
    expected = run(capsys, "suite", "--manifest", mixed_suite, "--jobs", "1")
    monkeypatch.setattr(cli, "_serve", child)
    assert run(capsys, "suite", "--manifest", mixed_suite, "--jobs", "3") == expected
    assert len(forks) == 2


@pytest.mark.parametrize("data, filled", [
    (pickle.dumps([(1, {"a": 1}), (3, {"b": 2})]), {1: {"a": 1}, 3: {"b": 2}}),
    (pickle.dumps([]), {}),
    (pickle.dumps([(1, {}), (1, {})]), {}),  # an index twice
    (pickle.dumps([(1, {}), (4, {})]), {}),  # past the last member
    (pickle.dumps([(1, {}), (-1, {})]), {}),  # negative
    (pickle.dumps([(1, {}), (0, {})]), {}),  # already filled in the parent
    (pickle.dumps([(2, {}), (True, {})]), {}),  # not an int
    (pickle.dumps([(1, {}), (2, "entry")]), {}),  # not a dict
    (pickle.dumps([(1, {}, 2)]), {}),  # not a pair
    (pickle.dumps([(1, {}), (2, {})])[:-3], {}),  # truncated
    (b"", {}),
    (b"\x80garbage", {}),
])
def test_accept_fills_nothing_unless_every_pair_is_fresh(data, filled):
    entries = [{"index": 0}, None, None, None]
    cli._accept(data, entries)
    assert entries == [{"index": 0}, *(filled.get(i) for i in range(1, 4))]


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("child", [None, *_FAILED_CHILDREN])
def test_a_forked_suite_leaves_no_fd_open_and_no_child_unreaped(forks, monkeypatch, child):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    if child is not None:
        monkeypatch.setattr(cli, "_serve", child)
    before = _open_fds()
    payload, code = run_suite(default_manifest(), 2)
    assert _open_fds() == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(forks) == 1
    assert (payload, code) == run_suite(default_manifest(), 1)


@pytest.mark.parametrize("start, stop", [(1, 2), (1, 45), (0, 512), (3, 516), (1, 1500), (0, 100000)])
def test_the_queue_lists_each_member_once_in_at_most_pipe_buf_bytes(start, stop):
    data = cli._queue(start, stop)
    assert len(data) <= select.PIPE_BUF
    sizes = [b - a for a, b in struct.iter_unpack("<II", data)]
    assert min(sizes) >= 1
    assert (max(sizes) == 1) == (stop - start <= select.PIPE_BUF // 8)
    read_fd, write_fd = os.pipe()
    try:
        with open(write_fd, "wb", buffering=0) as pipe:
            pipe.write(data)
        assert list(cli._taken(read_fd)) == list(range(start, stop))
    finally:
        os.close(read_fd)


def test_runs_of_several_members_give_the_serial_bytes(capsys, tmp_path, forks, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    manifest = [{"command": "count", "z": [i % 3], "p": 2 + i % 5, "k": [1], "label": f"m{i}"}
                for i in range(1500)]
    path = tmp_path / "many.json"
    path.write_text(json.dumps(manifest))
    serial = run(capsys, "suite", "--manifest", str(path), "--jobs", "1")
    assert forks == []
    assert run(capsys, "suite", "--manifest", str(path), "--jobs", "2") == serial
    assert len(forks) == 1
    assert serial[0] == EXIT_PASS and len(json.loads(serial[1])["members"]) == 1500


def test_small_or_single_worker_suites_do_not_fork(monkeypatch, forks):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(cli, "_PARALLEL_FLOOR_S", _FLOOR_S)
    run_suite([{"command": "count", "z": [1], "p": 3, "k": [1]}] * 3, 4)  # below the floor
    monkeypatch.setattr(cli, "_PARALLEL_FLOOR_S", 0)
    run_suite(_MIXED, 1)
    run_suite(_MIXED[:1], 4)  # one member, one worker
    assert forks == []
    monkeypatch.setattr(cli, "_can_fork", lambda: False)
    run_suite(_MIXED, 4)
    assert forks == []


def test_worker_count_is_capped_by_cpus_and_members():
    assert cli._worker_count(100000, 2, 45) == 2
    assert cli._worker_count(3, 8, 2) == 2
    assert cli._worker_count(4, 8, 45) == 4
    assert cli._worker_count(4, 8, 0) == 1


def test_jobs_far_above_the_cpu_count_forks_at_most_cpus_minus_one(forks):
    payload, code = run_suite(default_manifest(), 100000)
    assert code == EXIT_PASS and payload["passed"] == len(default_manifest())
    assert len(forks) <= cli._usable_cpus() - 1


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exit_two(capsys, jobs):
    code, out, err = run(capsys, "suite", "--jobs", jobs)
    assert code == EXIT_CONFIG and "--jobs" in err and out == ""
    with pytest.raises(PreconditionError, match="--jobs"):
        run_suite([], int(jobs))


def test_run_suite_direct_api():
    payload, code = run_suite([{"command": "count", "z": [1], "p": 3, "k": [1]}], 1)
    assert code == EXIT_PASS
    assert payload["members"][0]["label"] == "count k=1 z=1"


# ---------------------------------------------------------------------------
# one schema for flags and members
# ---------------------------------------------------------------------------


def test_suite_reports_every_member_around_malformed_ones():
    valid = {"command": "count", "z": [1], "p": 3, "k": [1]}
    probes = [
        ({**valid, "p": 3.5}, "--p"),  # a weight no word has: must not read as a mismatch
        ({**valid, "p": True}, "--p"),
        ({"command": "count", "z": [1], "k": [1]}, "--p"),
        ({**valid, "z": 5}, "--z"),
        ({"command": "series-solve", "z": [2], "order": "3"}, "--order"),
        ({"command": "verify", "identity": "rothe-1", "n": [2], "z": [1],
          "point": {"x": "1/0", "y": "7/2"}}, "--point"),
        # coefficients the truncated series cannot hold read as 0: never a mismatch
        ({"command": "series-solve", "z": [2], "order": 3, "expect_coefficients": {"1,0": "1"}},
         "expect_coefficients"),
        ({"command": "series-solve", "z": [2], "order": 3, "expect_coefficients": {"5": "42"}},
         "expect_coefficients"),
    ]
    csv_forms = [
        {"command": "count", "z": "1,2", "p": 4, "k": [1, 1]},
        {"command": "verify", "identity": "rothe-2", "n": [3], "z": [2], "grid_range": "20..40"},
    ]
    payload, code = run_suite([valid] + [m for m, _ in probes] + csv_forms, 1)
    assert code == EXIT_CONFIG
    members = payload["members"]
    assert [m["exit_code"] for m in members] == [0] + [2] * len(probes) + [0, 0]
    for (_, flag), member in zip(probes, members[1:]):
        assert member["error"].startswith("invalid configuration") and flag in member["error"]
    assert members[-2]["label"] == "count k=1,1 z=1,2"


_MALFORMED = st.sampled_from([True, False, 3.5, -1, "abc", "1/0", [["x"]], {"x": [1]}])


@st.composite
def _malformed_members(draw):
    member = dict(draw(st.sampled_from(default_manifest())))
    if draw(st.booleans()):
        del member[draw(st.sampled_from(["command", *_COMMANDS[member["command"]][1]]))]
    else:
        member[draw(st.sampled_from(sorted(member)))] = draw(_MALFORMED)
    return member


@given(member=_malformed_members())
@settings(max_examples=150, deadline=None)
def test_malformed_member_exits_two(member):
    payload, code = run_suite([member], 1)
    assert code == EXIT_CONFIG, payload
    assert payload["members"][0]["error"].startswith("invalid configuration")


# values no key takes, or that no member can run: bools, floats, negatives
# and text that parses as nothing for any key, and per kind of key,
# wrong-length vectors, reversed and non-int ranges, and points at an
# unknown variable or at 1/0
_BAD_VALUES = [True, False, 1.5, -1, "x", "", [[1]], {}]
_BAD_OF_KEY = {
    "z": [[1, 2, 3], [-1], [True], "1,,2"],
    "grid_range": ["3..1", [3, 1], [1, "a"], "..", "1..x"],
    "point": [{"x": "1/0"}, "x=1/0", {"t": 1}, "t=1", "x=1,x=2", {"x": 0.5}],
    "expect_coefficients": [{"1,2,3": 1}, {"x": 1}, {"1": "1/0"}, []],
}
_BAD_OF_KEY["k"] = _BAD_OF_KEY["n"] = _BAD_OF_KEY["z"]


def _small_value(rng, key, m):
    """A small valid value of key's kind, over m letters b_i."""
    if key in ("z", "k", "n"):
        return [rng.randrange(3) for _ in range(m)]
    return {
        "p": lambda: rng.randrange(9), "q": lambda: rng.randrange(6), "r": lambda: rng.randrange(7),
        "i": lambda: rng.randrange(m + 1), "j": lambda: rng.randrange(m + 1),
        "x": lambda: rng.randrange(1, 4), "order": lambda: rng.randrange(6),
        "kind": lambda: rng.choice(["shift", "raney"]),
        "identity": lambda: rng.choice(cli._CATALOG_NAMES),
        "word": lambda: " ".join(rng.choice("a b b1 b2".split()) for _ in range(rng.randrange(6))),
        "grid_range": lambda: rng.choice([[0, 4], "1..5", [-2, 3], "-1..2"]),
        "point": lambda: rng.choice([{"x": 1, "y": 2}, "x=1,y=1/2", {"x": "3", "eps": 1}, "p=2,q=3"]),
        "expect_coefficients": lambda: {",".join("1" * m): rng.choice([1, 2, "1/2"])},
        "label": lambda: "member",
    }[key]()


def test_no_member_exits_three():
    # exit 3 claims a fault of this program: about 500 members drawn over
    # every command and key, small and valid but for a bad value at a fifth
    # of their keys, an unknown key or an unknown command now and then, must
    # each exit 0, 1 or 2
    rng = random.Random(1)
    codes = collections.Counter()
    for index in range(500):
        command = rng.choice(sorted(_COMMANDS)) if rng.random() > 0.03 else rng.choice(["nope", 3])
        _, required, optional = _COMMANDS.get(command, (None, (), ()))
        m, member = rng.randrange(1, 3), {"command": command}
        for key in (*required, *optional, "label"):
            if rng.random() < (0.9 if key in required else 0.4):
                if rng.random() < 0.2:
                    member[key] = rng.choice([*_BAD_VALUES, *_BAD_OF_KEY.get(key, ()) * 2])
                else:
                    member[key] = _small_value(rng, key, m)
        if rng.random() < 0.1:
            member[rng.choice([*cli._KEYS, "bogus"])] = rng.choice([*_BAD_VALUES, 1, [1]])
        entry = cli._run_entry(index, cli._coerced(member))
        assert entry["exit_code"] != EXIT_INTERNAL, (member, entry.get("error"))
        codes[entry["exit_code"]] += 1
    assert codes[EXIT_PASS] > 50 and codes[EXIT_CONFIG] > 100  # the draw reaches the handlers


def _argv(member: dict) -> list[str]:
    """The CLI spelling of a built-in suite member."""
    command = member["command"]
    argv = command.split("-", 1) if command.startswith("series") else [command]
    argv += [member[key] for key in ("kind", "identity") if key in member]
    for key, value in member.items():
        if key not in ("command", "kind", "identity"):
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            argv += [f"--{key}", text]
    return argv


def test_cli_flags_and_suite_members_give_the_same_reports(capsys):
    manifest = default_manifest()
    payload, _ = run_suite(manifest, 1)
    spelled = 0
    for member, entry in zip(manifest, payload["members"]):
        if "expect_coefficients" in member:  # manifest only: no CLI flag
            continue
        code, out, err = run(capsys, *_argv(member))
        assert (code, err) == (entry["exit_code"], "")
        assert out == json.dumps(entry["report"], indent=2, sort_keys=True) + "\n"
        spelled += 1
    assert spelled == len(manifest) - 1


# the schema as it was declared by hand, before it was read from the handlers
_FROZEN_COMMANDS = {
    "count": (("z", "p"), ("k", "q", "n")),
    "enumerate": (("z", "p", "k"), ("r",)),
    "bijection": (("kind", "z", "p"), ("q", "n", "r", "word")),
    "verify": (("identity", "z"), ("n", "k", "i", "j", "grid_range", "point")),
    "series-solve": (("z", "order"), ("expect_coefficients",)),
    "series-check1": (("x", "z", "order"), ()),
    "series-check2": (("x", "z", "order"), ()),
}


def test_commands_are_read_from_the_handler_signatures():
    assert {name: keys for name, (_, *keys) in _COMMANDS.items()} == {
        name: list(keys) for name, keys in _FROZEN_COMMANDS.items()
    }
    for name, check in [("series-check1", gradedwords.check_generating_function_1),
                        ("series-check2", gradedwords.check_generating_function_2)]:
        handler = _COMMANDS[name][0]
        assert inspect.signature(handler) == inspect.signature(check)
        assert handler.__doc__.splitlines()[0] == check.__doc__.splitlines()[0]  # its help
        assert handler(3, (1, 2), 5).to_dict() == check(3, (1, 2), 5).to_dict()
    assert all(key in cli._KEYS for _, req, opt in _COMMANDS.values() for key in req + opt)


def test_a_flag_is_an_int_exactly_where_its_key_is_a_natural():
    parser = cli._build_parser()
    assert cli._build_parser() is parser  # built once per process
    for name, (_, required, optional) in _COMMANDS.items():
        for key in required + optional:
            coerce, flag, _ = cli._KEYS[key]
            if flag.startswith("--"):
                parsed = vars(parser.parse_args([*name.split("-", 1), flag, "3"]))[key]
                assert parsed == (3 if coerce is cli.natural else "3"), (name, flag)


@pytest.mark.parametrize("sub", ["count", "enumerate", "bijection", "verify", "series", "suite"])
def test_help_lists_exactly_the_flags_of_the_subcommands_keys(sub):
    src = str(Path(gradedwords.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="1000")  # one line per option
    done = subprocess.run([sys.executable, "-m", "gradedwords", sub, "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == EXIT_PASS and done.stderr == ""
    listed = {line.split()[0] for line in done.stdout.splitlines() if line.startswith("  --")}
    keys = {key for name, (_, req, opt) in _COMMANDS.items()
            if name.split("-")[0] == sub for key in req + opt}
    flags = {cli._KEYS[key][1] for key in keys} if keys else {"--manifest", "--jobs"}
    assert listed == {"--format", "--output"} | {f for f in flags if f.startswith("--")}
    if sub == "verify":
        assert ", ".join(CATALOG) in done.stdout


_MINIMAL = [
    {"command": "count", "z": [1], "p": 3, "k": [1]},
    {"command": "enumerate", "z": [1], "p": 3, "k": [1]},
    {"command": "bijection", "kind": "shift", "z": [1], "p": 2, "word": "a a b"},
    {"command": "verify", "identity": "rothe-1", "z": [1], "n": [2]},
    {"command": "series-solve", "z": [2], "order": 3},
    {"command": "series-check1", "x": 1, "z": [1], "order": 3},
    {"command": "series-check2", "x": 1, "z": [1], "order": 3},
]


@pytest.mark.parametrize("member", _MINIMAL, ids=[m["command"] for m in _MINIMAL])
def test_a_missing_required_key_gets_the_members_message(capsys, member):
    assert run(capsys, *_argv(member))[0] == EXIT_PASS
    for key in _COMMANDS[member["command"]][1]:
        partial = {k: v for k, v in member.items() if k != key}
        code, out, err = run(capsys, *_argv(partial))  # returns: argparse does not exit
        entry = run_suite([partial], 1)[0]["members"][0]
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == entry["error"] + "\n"
        assert err.endswith(f"{member['command']} needs {cli._KEYS[key][1]}\n")


def test_a_bad_positional_gets_the_members_message(capsys):
    code, out, err = run(capsys, "bijection", "foo", "--z", "1", "--p", "1")
    assert code == EXIT_CONFIG and "kind must be shift or raney, got 'foo'" in err
    code, out, err = run(capsys, "verify", "nonsense", "--n", "1", "--z", "1")
    assert code == EXIT_CONFIG and "unknown identity 'nonsense'" in err


@pytest.mark.parametrize("argv, flag", [
    # --k used to be dropped from the prefix-class count's params, with exit 0
    (["count", "--z", "1", "--p", "2", "--q", "2", "--n", "1", "--k", "5"], "--k only applies"),
    # --k used to be an alias of --n for every identity
    (["verify", "rothe-1", "--k", "2", "--z", "1"], "rothe-1 takes --n, not --k"),
    (["verify", "absorption", "--n", "2,1", "--z", "1,2", "--i", "1"],
     "absorption takes --k, not --n"),
    (["verify", "kmx", "--n", "1", "--k", "1", "--z", "1"], "kmx takes --n, not --k"),
    (["verify", "absorption", "--z", "1,2", "--i", "1"], "absorption needs --k"),
])
def test_each_flag_has_one_meaning(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG and out == "" and flag in err


@pytest.mark.parametrize("text, key", [
    ('[{"command": "count", "z": [1], "p": 3, "k": [1], "p": 4}]', "'p'"),
    ('[{"command": "verify", "identity": "rothe-1", "n": [2], "z": [1],'
     ' "point": {"x": "1/2", "y": "1/3", "y": "2"}}]', "'y'"),
])
def test_a_manifest_repeating_a_key_exits_two(tmp_path, capsys, text, key):
    # json keeps the last value: the point member used to run at y = 2, with exit 0
    path = tmp_path / "repeated.json"
    path.write_text(text)
    code, out, err = run(capsys, "suite", "--manifest", str(path))
    assert code == EXIT_CONFIG and out == ""
    assert f"repeats the key {key}" in err


# ---------------------------------------------------------------------------
# what gets imported
# ---------------------------------------------------------------------------

# run in a new interpreter, with `loaded()` the package's modules it holds
_FRESH = """
import inspect, json, os, sys

def loaded():
    return sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("gradedwords."))

"""


def _fresh(code: str):
    """What code prints as JSON on its last line, run after _FRESH in a new
    interpreter with the package on the path."""
    src = str(Path(gradedwords.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _FRESH + code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# the layer functions among cli's attributes when cli imported every layer at
# its top: the names a tracer finds there and wraps
_LAYER_FUNCTIONS = [
    "_check_dimension", "_class_blocks", "_lookup", "check_generating_function_1",
    "check_generating_function_2", "dot", "natural", "parse_scalar", "render_json",
    "verify_count", "verify_identity_at_point", "verify_identity_on_grid",
    "verify_raney_decomposition", "verify_raney_word", "verify_shift_bijection",
    "verify_shift_word", "verify_solution",
]

_OWN_LAYERS = {"count": ["words"], "enumerate": ["words"], "bijection": ["bijections", "words"],
               "verify": ["identities"], "series-solve": ["series"],
               "series-check1": ["series"], "series-check2": ["series"]}


def test_importing_the_package_loads_none_of_its_modules():
    assert _fresh("import gradedwords\nprint(json.dumps(loaded()))") == []


def test_importing_the_cli_loads_no_layer_and_not_argparse():
    code = "import gradedwords.cli\nprint(json.dumps([loaded(), 'argparse' in sys.modules]))"
    assert _fresh(code) == [["arith", "cli", "errors", "reports"], False]


@pytest.mark.parametrize("member", _MINIMAL, ids=[m["command"] for m in _MINIMAL])
def test_a_command_loads_only_its_own_layer(member):
    code = (f"import gradedwords.cli as cli\nbefore = loaded()\n"
            f"code = cli.main({_argv(member)!r} + ['--output', os.devnull])\n"
            f"print(json.dumps([code, sorted(set(loaded()) - set(before))]))")
    assert _fresh(code) == [EXIT_PASS, _OWN_LAYERS[member["command"]]]


def test_a_forking_suite_binds_every_layer_before_it_forks():
    # without that, each child would compile the layers its members need
    code = """import gradedwords.cli as cli
cli._PARALLEL_FLOOR_S, cli._usable_cpus = 0, lambda: 2
seen, fork = [], os.fork
def spy():
    seen.append(loaded())
    return fork()
os.fork = spy
payload, code = cli.run_suite([{"command": "count", "z": [1], "p": 3, "k": [1]}] * 4, 2)
print(json.dumps([code, seen]))"""
    layers = ["arith", "bijections", "cli", "errors", "identities", "reports", "series", "words"]
    assert _fresh(code) == [EXIT_PASS, [layers]]


def test_cli_holds_the_layer_functions_once_bound_and_never_rebinds_them():
    # a tracer wraps the layer functions it finds among cli's attributes
    # after a first pass; a second pass must call the wrappers
    code = f"""import gradedwords.cli as cli
def layer_functions():
    return sorted(name for name, value in vars(cli).items() if inspect.isfunction(value)
                  and value.__module__ not in (cli.__name__, None)
                  and value.__module__.startswith("gradedwords."))
members, called = {_MINIMAL!r}, set()
for member in members:
    cli.run_member(member)
found = layer_functions()
def traced(name, fn):
    def wrapper(*args, **kwargs):
        called.add(name)
        return fn(*args, **kwargs)
    return wrapper
wrappers = {{name: traced(name, getattr(cli, name)) for name in found}}
for name, wrapper in wrappers.items():
    setattr(cli, name, wrapper)
for member in members:
    cli.run_member(member)
kept = all(getattr(cli, name) is wrapper for name, wrapper in wrappers.items())
print(json.dumps([found, kept, sorted(called)]))"""
    found, kept, called = _fresh(code)
    assert found == _LAYER_FUNCTIONS and kept
    assert {"verify_count", "_class_blocks", "verify_shift_word", "verify_identity_on_grid",
            "verify_solution", "check_generating_function_1",
            "check_generating_function_2"} <= set(called)


def test_the_identity_help_names_the_catalog_in_order():
    assert cli._CATALOG_NAMES == tuple(CATALOG)


# ---------------------------------------------------------------------------
# output handling
# ---------------------------------------------------------------------------


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run(
        capsys, "count", "--z", "1", "--p", "3", "--k", "1", "--output", str(target)
    )
    assert code == EXIT_PASS
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["verdict"] == "equal"


@pytest.mark.parametrize("argv, expected", [
    (["count", "--z", "1", "--p", "3", "--k", "1"], EXIT_PASS),
    (["bijection", "shift", "--z", "1", "--p", "2", "--q", "2", "--n", "2",
      "--word", "b a a b", "--format", "text"], EXIT_PASS),
])
def test_a_stdout_whose_reader_has_gone_keeps_the_verdicts_code(capsys, monkeypatch, argv, expected):
    # a write to a pipe with no reader raises BrokenPipeError: the verdict's
    # exit code stands, nothing goes to stderr, and the rest of the output
    # is dropped, the flush at close included
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stream:
        monkeypatch.setattr(sys, "stdout", stream)
        code = main(argv)
    assert code == expected and capsys.readouterr().err == ""


def test_suite_piped_into_a_reader_that_has_gone_exits_zero():
    # end to end, as in `gradedwords suite --jobs 1 | head -c 1500`: the
    # reader is gone before the first write, and the exit at shutdown
    # flushes nothing onto the closed pipe
    src = str(Path(gradedwords.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "gradedwords", "suite", "--jobs", "1"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (EXIT_PASS, "")


@pytest.mark.parametrize("command", [["count", "--z", "1", "--p", "3", "--k", "1"], ["suite"]])
def test_an_unwritable_output_exits_two(tmp_path, capsys, command):
    # a missing directory, a directory, and an empty path: exit 2, not a traceback
    for target, reason in (
        (tmp_path / "missing" / "x.json", "No such file or directory"),
        (tmp_path, "Is a directory"),
        ("", "No such file or directory"),
    ):
        message = f"invalid configuration: cannot write report to {target}: {reason}\n"
        assert run(capsys, *command, "--output", str(target)) == (EXIT_CONFIG, "", message)


@pytest.mark.parametrize(
    "command", [["count", "--z", "1", "--p", "3", "--k", "1"], ["suite", "--jobs", "1"]]
)
def test_an_unwritable_output_is_refused_before_any_member_runs(
    tmp_path, capsys, monkeypatch, command
):
    calls = []
    monkeypatch.setattr(cli, "_execute", lambda *args: calls.append(args))
    for target in (tmp_path / "missing" / "x.json", tmp_path, ""):
        assert run(capsys, *command, "--output", str(target))[0] == EXIT_CONFIG
    assert calls == []


@pytest.mark.parametrize("command", [
    ["count", "--z", "1", "--p", "3", "--k", "x"],
    ["suite", "--manifest", "missing.json"],
])
def test_a_refused_command_leaves_the_output_path_as_it_was(tmp_path, capsys, command):
    earlier = tmp_path / "report.json"
    earlier.write_bytes(b'{"verdict": "equal"}\n')
    for target in (earlier, tmp_path / "new.json"):
        assert run(capsys, *command, "--output", str(target))[0] == EXIT_CONFIG
    assert earlier.read_bytes() == b'{"verdict": "equal"}\n'
    assert list(tmp_path.iterdir()) == [earlier]


def test_a_report_to_a_fifo_reaches_its_reader(tmp_path):
    # --output is checked before the command runs, but a FIFO is not opened
    # for that: its reader would take the close for the end of the report,
    # and the report's own open would then wait for a reader forever
    fifo = tmp_path / "report"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    src = str(Path(gradedwords.__file__).resolve().parents[1])
    argv = ["count", "--z", "1", "--p", "3", "--k", "1", "--output", str(fifo)]
    try:
        done = subprocess.run([sys.executable, "-m", "gradedwords", *argv], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src), timeout=20)
    finally:
        # let go a reader that still waits for a writer
        with contextlib.suppress(OSError):
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=10)
    assert (done.returncode, done.stderr) == (EXIT_PASS, "")
    assert json.loads(received[0])["details"] == {"formula": 2, "enumerated": 2}


def test_json_keys_are_sorted(capsys):
    code, out, err = run(capsys, "count", "--z", "1", "--p", "3", "--k", "1")
    payload = json.loads(out)
    assert list(payload) == sorted(payload)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
