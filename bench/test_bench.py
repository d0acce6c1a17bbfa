"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from gradedwords.cli import run_suite  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_manifest_is_deterministic_per_seed(workload):
    first = wl.manifest_bytes(wl.build(workload, 3))
    assert first == wl.manifest_bytes(wl.build(workload, 3))
    assert first != wl.manifest_bytes(wl.build(workload, 4))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_members_are_distinct(workload):
    keys = [json.dumps(c, sort_keys=True) for c, _ in wl.build(workload, 11)]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_member_meets_its_expectation(workload):
    cases = wl.build(workload, 5)
    payload, code = run_suite([c for c, _ in cases], 1)
    assert code == wl.suite_exit(cases)
    problems = [wl.problem(c, e, m) for (c, e), m in zip(cases, payload["members"])]
    assert [p for p in problems if p] == []
    negatives = [(e["exit"], m["exit_code"]) for (_, e), m in zip(cases, payload["members"])
                 if e["exit"] != 0]
    assert negatives and all(want == got for want, got in negatives)


def test_checker_rejects_wrong_outcomes():
    cases = wl.build("small-checks", 2)
    payload, _ = run_suite([c for c, _ in cases], 1)
    pairs = list(zip(cases, payload["members"]))
    (count, expect), entry = next(p for p in pairs if p[0][0]["command"] == "count")
    wrong = json.loads(json.dumps(entry))
    wrong["report"]["details"]["enumerated"] += 1
    assert wl.problem(count, expect, wrong)
    (control, expect), entry = next(p for p in pairs if p[0][1]["exit"] == 1)
    assert wl.problem(control, expect, {**entry, "exit_code": 0})
    (control, expect), entry = next(p for p in pairs if p[0][1]["exit"] == 2)
    assert wl.problem(control, expect, {**entry, "exit_code": 0, "report": {}})


def _brute_force(weight: int, z: tuple[int, ...]):
    """Every letter sequence of the given weight, without the oracle's
    formulas."""
    weights = (1,) + tuple(e + 1 for e in z)
    for length in range(weight + 1):
        for word in itertools.product(range(len(weights)), repeat=length):
            if sum(weights[c] for c in word) == weight:
                yield word


@pytest.mark.parametrize("z", [(0,), (2,), (1, 2), (0, 1)])
def test_oracle_counts_match_brute_force(z):
    m = len(z)
    for weight in range(0, 8):
        words = list(_brute_force(weight, z))
        for counts in itertools.product(range(3), repeat=m):
            same = [w for w in words if wl.counts(w, m) == counts]
            assert wl.n_words(weight, counts, z) == len(same)
            for p in range(weight + 1):
                prefixed = sum(1 for w in same if p in wl.prefix_weights(w, z))
                assert wl.n_prefixed(p, weight - p, counts, z) == prefixed


def test_oracle_series_coefficients():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    assert [wl.v_coefficient((t,), (2,)) for t in range(9)] == catalan
    assert all(wl.v_coefficient((t,), (1,)) == 1 for t in range(9))


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-checks", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-checks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
