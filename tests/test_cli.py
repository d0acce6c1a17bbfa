"""Command-line interface: subcommands, exit codes, JSON report shapes,
manifest-driven suites, and determinism."""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradedwords
import gradedwords.cli as cli
from gradedwords import CATALOG, PreconditionError, default_manifest, main, run_suite
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
    done = subprocess.run(
        [sys.executable, "-m", "gradedwords", "count", "--z", "1", "--p", "4", "--k", "2"],
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


def test_verify_point_on_pole_is_config_error(capsys):
    code, out, err = run(
        capsys, "verify", "rothe-1", "--n", "2", "--z", "1", "--point", "x=1,y=9"
    )
    assert code == EXIT_CONFIG
    assert "denominators vanish" in err


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


def test_verify_mismatch_exits_one_with_counterexample(capsys, monkeypatch):
    entry = CATALOG["rothe-1"]

    def broken(point, spec):
        return [(left, right + 1) for left, right in entry.evaluate(point, spec)]

    monkeypatch.setitem(CATALOG, "rothe-1", dataclasses.replace(entry, evaluate=broken))
    code, payload = run_json(capsys, "verify", "rothe-1", "--n", "2", "--z", "1")
    assert code == EXIT_COUNTEREXAMPLE
    assert payload["verdict"] == "mismatch"
    assert "rerun" in payload["counterexample"]


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


def test_default_manifest_covers_every_identity(capsys):
    verified = {
        member["identity"]
        for member in default_manifest()
        if member["command"] == "verify"
    }
    from gradedwords import catalog_names

    assert verified == set(catalog_names())


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


# every command, a counterexample (exit 1), a malformed member (exit 2) and a
# member whose handler raises (exit 3, see _mixed_suite), around the built-in
# suite so that the predicted work is past the fork floor
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


@pytest.fixture
def forks(monkeypatch):
    """A list that gains an item on every os.fork call; the calls still fork."""
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


def _die(*_):
    os._exit(1)


def _truncated(manifest, share, fd):
    os.write(fd, pickle.dumps([(index, {}) for index in share])[:-3])


def _wrong_share(manifest, share, fd):
    os.write(fd, pickle.dumps([(index, {"index": index}) for index in share[1:]]))


@pytest.mark.parametrize("child", [_die, _truncated, _wrong_share])
def test_a_failed_child_share_is_rerun_in_process(capsys, mixed_suite, forks, monkeypatch, child):
    expected = run(capsys, "suite", "--manifest", mixed_suite, "--jobs", "1")
    monkeypatch.setattr(cli, "_serve_share", child)
    assert run(capsys, "suite", "--manifest", mixed_suite, "--jobs", "3") == expected
    assert len(forks) == 2


def test_small_or_single_worker_suites_do_not_fork(monkeypatch, forks):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    run_suite([{"command": "count", "z": [1], "p": 3, "k": [1]}] * 3, 4)  # below the floor
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


@given(work=st.lists(st.integers(0, 100), max_size=8), workers=st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_lpt_shares_partition_the_members_within_four_thirds(work, workers):
    shares = cli._lpt_shares(work, workers)
    assert len(shares) == workers
    assert sorted(i for share in shares for i in share) == list(range(len(work)))
    assert all(shares) or len(work) < workers
    loads = [sum(work[i] for i in share) for share in shares]
    assert loads == sorted(loads)
    optimum = min(
        max(sum(w for w, k in zip(work, owner) if k == worker) for worker in range(workers))
        for owner in itertools.product(range(workers), repeat=len(work))
    )
    assert 3 * loads[-1] <= 4 * optimum  # Graham (1969)


def test_predicted_work_sizes_every_built_in_member():
    for member in default_manifest():
        work = cli._predicted_work(*cli._coerce_member(member))
        assert type(work) is int and work >= cli._DISPATCH_US


@pytest.mark.parametrize("member", [
    {"command": "count", "z": [1], "p": 3, "k": [1, 1]},
    {"command": "count", "z": [2], "p": 1, "q": 1, "n": [3]},
    {"command": "count", "z": [1], "p": 3, "n": [1]},
    {"command": "count", "z": [1], "p": 3},
    {"command": "enumerate", "z": [1, 2], "p": 3, "k": [1]},
    {"command": "bijection", "kind": "shift", "z": [1], "p": 0, "q": 1, "n": [4]},
    {"command": "bijection", "kind": "raney", "z": [1], "p": 3, "n": [1]},
    {"command": "bijection", "kind": "raney", "z": [1, 2], "p": 3, "q": 1, "n": [1]},
    {"command": "verify", "identity": "nonsense", "n": [2], "z": [1]},
    {"command": "verify", "identity": "abel-1", "n": [], "z": []},
    {"command": "verify", "identity": "abel-1", "z": [1]},
    {"command": "verify", "identity": "gould", "n": [1, 2], "z": [1]},
    {"command": "series-solve", "z": [], "order": 0},
])
def test_predicted_work_of_a_refused_member_is_a_number(member):
    work = cli._predicted_work(*cli._coerce_member(member))
    assert type(work) is int and work >= cli._DISPATCH_US


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exit_two(capsys, monkeypatch, jobs):
    code, out, err = run(capsys, "suite", "--jobs", jobs)
    assert code == EXIT_CONFIG and "--jobs" in err and out == ""
    monkeypatch.setenv("GRADEDWORDS_JOBS", jobs)
    code, out, err = run(capsys, "suite")
    assert code == EXIT_CONFIG and "GRADEDWORDS_JOBS" in err and out == ""
    with pytest.raises(PreconditionError, match="--jobs"):
        run_suite([], int(jobs))


def test_suite_jobs_env_var(tmp_path, capsys, monkeypatch):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"command": "count", "z": [1], "p": 3, "k": [1]}]))
    monkeypatch.setenv("GRADEDWORDS_JOBS", "2")
    code, payload = run_json(capsys, "suite", "--manifest", str(path))
    assert code == EXIT_PASS
    monkeypatch.setenv("GRADEDWORDS_JOBS", "zero")
    code, out, err = run(capsys, "suite", "--manifest", str(path))
    assert code == EXIT_CONFIG and "GRADEDWORDS_JOBS" in err


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


@given(member=_malformed_members())
@settings(max_examples=100, deadline=None)
def test_predicted_work_never_raises_past_coercion(member):
    try:
        command, values = cli._coerce_member(member)
    except PreconditionError:
        return  # run_suite predicts 0 for a member that fails coercion
    assert type(cli._predicted_work(command, values)) is int


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


def test_json_keys_are_sorted(capsys):
    code, out, err = run(capsys, "count", "--z", "1", "--p", "3", "--k", "1")
    payload = json.loads(out)
    assert list(payload) == sorted(payload)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
