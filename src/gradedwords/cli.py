"""Batch command-line front end.

Subcommands: count, enumerate, bijection (shift|raney), verify,
series (solve|check1|check2), suite.  Reports are JSON by default
(deterministic: sorted keys, fixed enumeration order); --format text prints
a human summary of the same structure.

Exit codes: 0 all checks passed; 1 a mathematical mismatch (a would-be
counterexample, printed with full reproduction context); 2 invalid
configuration or violated precondition; 3 internal error.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import os
import sys
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Sequence, Union

from .arith import MultiIndex, dot, format_scalar, natural, parse_scalar
from .bijections import (
    Overshoot,
    PrefixCase,
    raney_factorize,
    raney_unfactorize,
    shift_by,
    shift_down,
    verify_raney_decomposition,
    verify_shift_bijection,
)
from .errors import LemmaViolationError, PreconditionError
from .identities import (
    CATALOG,
    IdentitySpec,
    catalog_names,
    verify_identity_at_point,
    verify_identity_on_grid,
)
from .reports import (
    VERDICT_EQUAL,
    VERDICT_FAIL,
    VERDICT_MISMATCH,
    VERDICT_PASS,
    EvalReport,
)
from .series import (
    check_generating_function_1,
    check_generating_function_2,
    functional_equation_residual,
    solve_functional_equation,
)
from .words import (
    GradedAlphabet,
    WordClassSpec,
    count_prefix_class,
    count_words,
    enumerate_words,
    _iter_class,
)

__all__ = ["main", "default_manifest", "run_suite"]

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

Payload = Union[EvalReport, dict]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PreconditionError(message)


def _alphabet(z: MultiIndex) -> GradedAlphabet:
    return GradedAlphabet(z=tuple(z))


# ---------------------------------------------------------------------------
# subcommand handlers (shared by CLI flags and manifest members)
# ---------------------------------------------------------------------------


def do_count(
    z: MultiIndex,
    p: int,
    k: Optional[MultiIndex] = None,
    q: Optional[int] = None,
    n: Optional[MultiIndex] = None,
) -> EvalReport:
    """Closed-form count vs enumeration, for a word class or a prefix class."""
    alphabet = _alphabet(z)
    if n is not None:
        _require(q is not None, "prefix-class count needs --q along with --n")
        formula = count_prefix_class(p, q, n, alphabet)
        enumerated = sum(1 for _ in _iter_class(alphabet.z, p + q, n, p))
        report = EvalReport(
            check="count-prefix-class",
            params={"p": p, "q": q, "n": list(n), "z": list(z)},
        )
    else:
        _require(k is not None, "count needs --k (word class) or --n with --q (prefix class)")
        _require(q is None, "--q only applies to the prefix-class form (with --n)")
        formula = count_words(p, k, alphabet)
        enumerated = sum(1 for _ in _iter_class(alphabet.z, p, k))
        report = EvalReport(check="count", params={"p": p, "k": list(k), "z": list(z)})
    report.details = {"formula": int(formula), "enumerated": enumerated}
    report.verdict = VERDICT_EQUAL if formula == enumerated else VERDICT_MISMATCH
    if not report.ok:
        report.counterexample = {
            "formula": int(formula),
            "enumerated": enumerated,
            "params": report.params,
        }
    return report


def do_enumerate(
    z: MultiIndex, p: int, k: MultiIndex, r: Optional[int] = None
) -> dict:
    """List a word class in lexicographic order."""
    alphabet = _alphabet(z)
    words = [
        str(w) for w in enumerate_words(WordClassSpec(p=p, k=k, r=r), alphabet)
    ]
    params: dict[str, object] = {"p": p, "k": list(k), "z": list(z)}
    if r is not None:
        params["r"] = r
    return {"check": "enumerate", "params": params, "count": len(words), "words": words}


def do_bijection(
    kind: str,
    z: MultiIndex,
    p: int,
    q: Optional[int] = None,
    n: Optional[MultiIndex] = None,
    r: Optional[int] = None,
    word: Optional[str] = None,
) -> EvalReport:
    """Apply a bijection to one word, or verify it over a whole class."""
    alphabet = _alphabet(z)
    if word is not None:
        w = alphabet.parse_word(word)
        if n is not None:
            _require(
                w.counts == tuple(n),
                f"word has letter counts {list(w.counts)}, not the given n = {list(n)}",
            )
        if q is not None:
            expected = p + q + dot(w.counts, alphabet.z)
            _require(
                w.weight == expected,
                f"word has weight {w.weight}, but p + q + n.z = {expected}",
            )
        if kind == "shift":
            steps = 1 if r is None else r
            image = shift_by(w, p, steps)
            back = image
            for step in range(steps - 1, -1, -1):
                back = shift_down(back, p + step)
            report = EvalReport(
                check="shift-word",
                params={"p": p, "z": list(z), "r": steps},
                details={"word": str(w), "image": str(image)},
            )
            report.verdict = VERDICT_PASS if back == w else VERDICT_FAIL
            if not report.ok:
                report.counterexample = {"word": str(w), "image": str(image), "back": str(back)}
            return report
        _require(r is None, "bijection raney does not take --r")
        f = raney_factorize(w, p)
        if isinstance(f, PrefixCase):
            case = {"case": "prefix", "u": str(f.u), "v": str(f.v)}
        else:
            case = {
                "case": "overshoot",
                "i": f.i,
                "j": f.j,
                "u_prime": str(f.u_prime),
                "v": str(f.v),
            }
        back_word = raney_unfactorize(f, p)
        report = EvalReport(
            check="raney-word",
            params={"p": p, "z": list(z)},
            details={"word": str(w), **case},
        )
        report.verdict = VERDICT_PASS if back_word == w else VERDICT_FAIL
        if not report.ok:
            report.counterexample = {"word": str(w), "back": str(back_word)}
        return report
    _require(q is not None and n is not None, f"bijection {kind} over a class needs --q and --n")
    if kind == "shift":
        return verify_shift_bijection(p, q, n, alphabet, r=1 if r is None else r)
    _require(r is None, "bijection raney does not take --r")
    return verify_raney_decomposition(p, q, n, alphabet)


def do_verify(
    identity: str,
    z: MultiIndex,
    n: Optional[MultiIndex] = None,
    k: Optional[MultiIndex] = None,
    i: Optional[int] = None,
    j: Optional[int] = None,
    grid_range: Optional[tuple[int, int]] = None,
    point: Optional[dict[str, Fraction]] = None,
) -> EvalReport:
    """Check one catalog identity on a grid or at a single point."""
    _require(
        not (n is not None and k is not None),
        "give the multi-index as --n or --k, not both",
    )
    slot = n if n is not None else k
    _require(slot is not None, f"verify {identity} needs --n (or --k for absorption)")
    spec = IdentitySpec(
        identity=identity,
        n=tuple(slot),
        z=tuple(z),
        i=i,
        j=j,
        grid_range=grid_range,
    )
    if point is not None:
        return verify_identity_at_point(spec, point)
    return verify_identity_on_grid(spec)


def do_series_solve(
    z: MultiIndex,
    order: int,
    expect_coefficients: Optional[tuple[tuple[MultiIndex, Fraction], ...]] = None,
) -> EvalReport:
    """Solve the functional equation and report the coefficients, checking
    the residual, coefficient naturality, and any expected values."""
    for exponent, _ in expect_coefficients or ():
        _require(
            len(exponent) == len(z) and sum(exponent) <= order,
            f"expect_coefficients exponent {','.join(map(str, exponent))} is not a"
            f" monomial of degree <= {order} in {len(z)} variables",
        )
    v = solve_functional_equation(tuple(z), order)
    residual_zero = functional_equation_residual(v, tuple(z)).is_zero()
    natural = all(c.denominator == 1 and c >= 0 for c in v.coeffs.values())
    report = EvalReport(
        check="series-solve",
        params={"z": list(z), "order": order},
        details={
            "coefficients": {
                ",".join(map(str, e)): format_scalar(c)
                for e, c in sorted(v.coeffs.items())
            },
            "residual_zero": residual_zero,
            "natural_coefficients": natural,
        },
    )
    report.verdict = VERDICT_PASS if residual_zero and natural else VERDICT_FAIL
    if not report.ok:
        report.counterexample = {
            "residual_zero": residual_zero,
            "natural_coefficients": natural,
        }
        return report
    if expect_coefficients:
        for exponent, expected in expect_coefficients:
            actual = v.coefficient(exponent)
            if actual != expected:
                report.verdict = VERDICT_MISMATCH
                report.counterexample = {
                    "exponent": list(exponent),
                    "expected": format_scalar(expected),
                    "actual": format_scalar(actual),
                }
                return report
        report.details["expected_coefficients_checked"] = len(expect_coefficients)
    return report


def do_series_check(which: int, x: int, z: MultiIndex, order: int) -> EvalReport:
    if which == 1:
        return check_generating_function_1(x, tuple(z), order)
    return check_generating_function_2(x, tuple(z), order)


# ---------------------------------------------------------------------------
# member schema (shared by CLI flags and manifest members)
# ---------------------------------------------------------------------------

# Every key has one kind wherever it appears, and each command lists its
# required and optional keys.  Coercion rejects bool and float (a JSON 3.5 or
# true must not pass as a weight) and names the key as its CLI flag in every
# message.


def _nats(value: object, name: str) -> MultiIndex:
    if isinstance(value, str):
        try:
            entries = tuple(int(part) for part in value.split(","))
        except ValueError:
            raise PreconditionError(f"{name} expects comma-separated integers, got {value!r}")
    elif isinstance(value, (list, tuple)) and all(type(e) is int for e in value):
        entries = tuple(value)
    else:
        raise PreconditionError(
            f"{name} expects a list of naturals or comma-separated integers, got {value!r}"
        )
    if any(e < 0 for e in entries):
        raise PreconditionError(f"{name} entries must be >= 0, got {value!r}")
    return entries


def _range(value: object, name: str) -> tuple[int, int]:
    if isinstance(value, str):
        head, sep, tail = value.partition("..")
        if not sep:
            raise PreconditionError(f"{name} expects A..B, got {value!r}")
        try:
            return int(head), int(tail)
        except ValueError:
            raise PreconditionError(f"{name} expects integers A..B, got {value!r}")
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(type(e) is int for e in value):
        return value[0], value[1]
    raise PreconditionError(f"{name} expects A..B or [A, B] with integers A, B, got {value!r}")


def _scalar(value: object, name: str) -> Fraction:
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_scalar(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise PreconditionError(f"{name} value {value!r} is not an exact scalar")


def _point(value: object, name: str) -> dict[str, Fraction]:
    if isinstance(value, str):
        pairs = []
        for piece in value.split(","):
            var, sep, text = piece.partition("=")
            if not sep:
                raise PreconditionError(f"{name} expects var=value pairs, got {piece!r}")
            pairs.append((var.strip(), text))
    elif isinstance(value, dict):
        pairs = list(value.items())
    else:
        raise PreconditionError(f"{name} expects var=value pairs or an object, got {value!r}")
    return {var: _scalar(text, f"{name} {var}") for var, text in pairs}


def _coefficients(value: object, name: str) -> tuple[tuple[MultiIndex, Fraction], ...]:
    if not isinstance(value, dict):
        raise PreconditionError(f"{name} expects an object of exponent: value, got {value!r}")
    return tuple(
        (_nats(key, f"{name} exponent"), _scalar(coeff, f"{name} {key}"))
        for key, coeff in value.items()
    )


def _text(value: object, name: str) -> str:
    if not isinstance(value, str):
        raise PreconditionError(f"{name} must be a string, got {value!r}")
    return value


def _bijection_kind(value: object, name: str) -> str:
    if value not in ("shift", "raney"):
        raise PreconditionError(f"{name} must be shift or raney, got {value!r}")
    return value


# key -> (coercer, the key's name in messages: its CLI flag where it has one)
_KEYS: dict[str, tuple[Callable[[object, str], object], str]] = {
    "z": (_nats, "--z"),
    "k": (_nats, "--k"),
    "n": (_nats, "--n"),
    "p": (natural, "--p"),
    "q": (natural, "--q"),
    "r": (natural, "--r"),
    "i": (natural, "--i"),
    "j": (natural, "--j"),
    "x": (natural, "--x"),
    "order": (natural, "--order"),
    "kind": (_bijection_kind, "kind"),
    "identity": (_text, "identity"),
    "word": (_text, "--word"),
    "grid_range": (_range, "--grid-range"),
    "point": (_point, "--point"),
    "expect_coefficients": (_coefficients, "expect_coefficients"),
    "label": (_text, "label"),
}

# command -> (handler, required keys, optional keys)
_COMMANDS: dict[str, tuple[Callable[..., Payload], tuple[str, ...], tuple[str, ...]]] = {
    "count": (do_count, ("z", "p"), ("k", "q", "n")),
    "enumerate": (do_enumerate, ("z", "p", "k"), ("r",)),
    "bijection": (do_bijection, ("kind", "z", "p"), ("q", "n", "r", "word")),
    "verify": (do_verify, ("identity", "z"), ("n", "k", "i", "j", "grid_range", "point")),
    "series-solve": (do_series_solve, ("z", "order"), ("expect_coefficients",)),
    "series-check1": (partial(do_series_check, 1), ("x", "z", "order"), ()),
    "series-check2": (partial(do_series_check, 2), ("x", "z", "order"), ()),
}


def _coerce_member(config: object) -> tuple[str, dict]:
    """(command, typed values) of a member; a null value counts as absent."""
    if not isinstance(config, dict):
        raise PreconditionError(f"manifest member must be an object, got {type(config).__name__}")
    command = config.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        known = ", ".join(sorted(_COMMANDS))
        raise PreconditionError(f"unknown member command {command!r}; known: {known}")
    _, required, optional = _COMMANDS[command]
    given = {key: value for key, value in config.items() if value is not None}
    extra = sorted(set(given) - {"command", "label", *required, *optional})
    if extra:
        raise PreconditionError(f"member {command!r} has unknown keys: {', '.join(extra)}")
    for key in required:
        if key not in given:
            raise PreconditionError(f"{command} needs {_KEYS[key][1]}")
    del given["command"]
    values = {}
    for key, value in given.items():
        coerce, name = _KEYS[key]
        values[key] = coerce(value, name)
    return command, values


def _member_label(command: str, values: dict) -> str:
    bits = [command]
    extra = values.get("identity") or values.get("kind")
    if extra:
        bits.append(extra)
    for key in ("n", "k", "z"):
        if key in values:
            bits.append(f"{key}={','.join(map(str, values[key]))}")
    return " ".join(bits)


def _execute(command: str, values: dict) -> Payload:
    handler = _COMMANDS[command][0]
    return handler(**{key: value for key, value in values.items() if key != "label"})


def run_member(config: dict) -> Payload:
    """Execute one manifest member; raises PreconditionError on invalid configuration."""
    return _execute(*_coerce_member(config))


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def _payload_exit_code(payload: Payload) -> int:
    if isinstance(payload, EvalReport):
        return EXIT_PASS if payload.ok else EXIT_COUNTEREXAMPLE
    return EXIT_PASS


def _run_entry(index: int, config: object) -> dict:
    """One member's suite entry; the member's failure is recorded, never raised."""
    entry: dict = {"index": index, "label": f"member {index}"}
    try:
        command, values = _coerce_member(config)
        entry["label"] = values.get("label", _member_label(command, values))
        payload = _execute(command, values)
        entry["exit_code"] = _payload_exit_code(payload)
        entry["report"] = payload.to_dict() if isinstance(payload, EvalReport) else payload
    except LemmaViolationError as exc:
        entry["exit_code"] = EXIT_COUNTEREXAMPLE
        entry["error"] = f"counterexample: {exc}"
    except PreconditionError as exc:
        entry["exit_code"] = EXIT_CONFIG
        entry["error"] = f"invalid configuration: {exc}"
    except Exception as exc:  # noqa: BLE001 - member isolation
        entry["exit_code"] = EXIT_INTERNAL
        entry["error"] = f"internal error: {type(exc).__name__}: {exc}"
    return entry


# Predicted member time in microseconds: a dispatch cost plus a per-unit cost
# times a closed-form count of the member's work.  The per-unit costs are
# medians of per-member timings over the benchmark manifests (CPython 3.11,
# 2 vCPUs).  Over 1032 members of those manifests, measured time was 0.45 to
# 1.6 times the prediction between the 10th and 90th percentiles, which is
# all the LPT schedule needs.
_DISPATCH_US = 30


def _predicted_work(command: str, values: dict) -> int:
    """Predicted microseconds for one coerced member: word-class sizes for
    count and enumerate, r x class size for shifts, grid points x
    multi-index terms for identities, and for series the C(order + 2m, 2m)
    term pairs of one truncated product.  A member its handler would refuse
    predicts the dispatch cost or less."""
    get = values.get
    z, p, q, n, r = get("z", ()), get("p"), get("q"), get("n"), get("r") or 1
    units = 0
    try:
        if command in ("count", "enumerate"):
            if n is not None and q is not None:
                units = 2 * int(count_prefix_class(p, q, n, _alphabet(z)))
            elif get("k") is not None:
                size = int(count_words(p, get("k"), _alphabet(z)))
                units = (1 if command == "count" else 4) * size
        elif command == "bijection":
            if get("word") is not None:
                units = 2 * r * len(get("word").split())
            elif q is not None and n is not None:
                total = q + dot(n, z)
                if get("kind") == "shift":
                    units = 9 * r * int(count_prefix_class(p, total, n, _alphabet(z)))
                else:
                    units = 9 * int(count_words(p + total, n, _alphabet(z)))
        elif command == "verify":
            entry = CATALOG.get(get("identity"))
            slot = n if n is not None else get("k")
            if entry is not None and slot:
                terms = math.prod(e + 1 for e in slot)
                if get("point") is not None:
                    units = 80 * terms
                else:
                    degree = entry.degree(IdentitySpec(entry.name, slot, z))
                    units = 9 * (degree + 1) ** len(entry.variables) * terms
        else:
            units = 9 * math.comb(get("order") + 2 * len(z), 2 * len(z))
    except PreconditionError:
        pass
    return _DISPATCH_US + units


# Below this much predicted work the suite runs serially.  Measured with
# CPython 3.11 on 2 vCPUs, in a 20-30 MB process: a fork made a suite of
# 1 ms of work take 3-4 ms (the child's start and the page copies both
# processes make after the fork, its exit and the pickle round trip), and
# two workers broke even at 10-15 ms of predicted work.
_PARALLEL_FLOOR_US = 15000


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(jobs: int, cpus: int, members: int) -> int:
    """Processes a suite runs on: never more than the usable CPUs or the members."""
    return max(1, min(jobs, cpus, members))


def _can_fork() -> bool:
    """Whether forking is available and safe: a fork copies only the calling
    thread, so a lock another thread holds would stay held in the child."""
    threading = sys.modules.get("threading")
    return hasattr(os, "fork") and (threading is None or threading.active_count() == 1)


def _lpt_shares(work: Sequence[int], workers: int) -> list[list[int]]:
    """Member indices per worker by Graham's LPT rule: largest predicted work
    first, each to the least-loaded worker (then the one with fewest
    members), for a makespan within 4/3 of optimal.  The lightest share
    comes first."""
    loads = [(0, 0, worker) for worker in range(workers)]  # (load, members, worker)
    shares: list[list[int]] = [[] for _ in range(workers)]
    for index in sorted(range(len(work)), key=work.__getitem__, reverse=True):
        load, size, worker = heapq.heappop(loads)
        shares[worker].append(index)
        heapq.heappush(loads, (load + work[index], size + 1, worker))
    return [shares[worker] for *_, worker in sorted(loads)]


def _serve_share(manifest: list, share: list[int], fd: int) -> None:
    """A forked child's work: one pickle of [(index, entry), ...] for share, written to fd."""
    import pickle

    pairs = [(index, _run_entry(index, manifest[index])) for index in share]
    with open(fd, "wb") as pipe:
        pickle.dump(pairs, pipe, protocol=pickle.HIGHEST_PROTOCOL)


def _received(data: bytes, share: list[int]) -> Optional[list[dict]]:
    """The entries a child sent, or None unless data unpickles into exactly
    one (index, entry) pair per member of share, in share order."""
    import pickle

    try:
        pairs = pickle.loads(data)
        if [index for index, _ in pairs] == share and all(type(e) is dict for _, e in pairs):
            return [entry for _, entry in pairs]
    except Exception:  # noqa: BLE001 - truncated or garbled bytes from a dying child
        pass
    return None


def _run_forked(manifest: list, shares: list[list[int]]) -> list[dict]:
    """Every member's entry: shares[1:] in forked children, shares[0] here.

    A share whose child cannot be forked, exits nonzero, is killed, or sends
    anything but its own entries is re-run in this process, so a verdict is
    never lost or invented.  Children leave only through os._exit: they never
    return into the caller, flush inherited stdio or run atexit handlers.
    """
    entries: list = [None] * len(manifest)
    local = list(shares[0])
    children: list[tuple[int, int, list[int]]] = []
    reaped = 0
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                local += share
                continue
            if pid == 0:
                code = 1
                try:
                    os.close(read_fd)
                    _serve_share(manifest, share, write_fd)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append((pid, read_fd, share))
        for index in local:
            entries[index] = _run_entry(index, manifest[index])
        for pid, read_fd, share in children:
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            reaped += 1
            got = _received(data, share) if status == 0 else None
            if got is None:
                got = [_run_entry(index, manifest[index]) for index in share]
            for index, entry in zip(share, got):
                entries[index] = entry
    finally:
        for position, (pid, read_fd, _) in enumerate(children):
            os.close(read_fd)
            if position >= reaped:
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return entries


def run_suite(manifest: list, jobs: int) -> tuple[dict, int]:
    """Run every member, isolating failures; verdict pass iff all pass.

    Members are split by predicted work across up to `jobs` forked worker
    processes, and the entries are put back in manifest order, so the
    report does not depend on `jobs`.  The suite runs serially in this
    process when one worker would do, when it cannot fork safely, or when
    the predicted work is too small to pay for a fork.
    """
    if not isinstance(manifest, list):
        raise PreconditionError("manifest must be a JSON list of config objects")
    if type(jobs) is not int or jobs < 1:
        raise PreconditionError(f"--jobs must be a positive integer, got {jobs!r}")
    workers = _worker_count(jobs, _usable_cpus(), len(manifest))
    members = None
    if workers > 1 and _can_fork():
        work = []
        for config in manifest:
            try:
                work.append(_predicted_work(*_coerce_member(config)))
            except PreconditionError:
                work.append(0)
        if sum(work) >= _PARALLEL_FLOOR_US:
            members = _run_forked(manifest, _lpt_shares(work, workers))
    if members is None:
        members = [_run_entry(index, config) for index, config in enumerate(manifest)]
    codes = [m["exit_code"] for m in members]
    suite_code = EXIT_PASS
    for level in (EXIT_COUNTEREXAMPLE, EXIT_CONFIG, EXIT_INTERNAL):
        if level in codes:
            suite_code = level
            break
    payload = {
        "check": "suite",
        "total": len(members),
        "passed": sum(1 for c in codes if c == EXIT_PASS),
        "failed": sum(1 for c in codes if c != EXIT_PASS),
        "verdict": "pass" if suite_code == EXIT_PASS else "fail",
        "members": members,
    }
    if not members:
        payload["warning"] = "empty manifest: zero checks run"
    return payload, suite_code


def default_manifest() -> list[dict]:
    """The shipped suite: at least one member per acceptance concern —
    counting, prefix classes, both bijections (including r-fold shifts),
    every identity in the catalog, the m = 1 coherence checks, and the
    generating-function machinery with frozen Catalan expectations."""
    members: list[dict] = [
        # counting formula vs enumeration
        {"command": "count", "z": [1], "p": 3, "k": [1]},
        {"command": "count", "z": [0], "p": 5, "k": [3]},
        {"command": "count", "z": [2, 3], "p": 4, "k": [1, 1]},
        {"command": "count", "z": [1, 2], "p": 9, "k": [2, 2]},
        # prefix-class counts
        {"command": "count", "z": [1], "p": 2, "q": 2, "n": [1]},
        {"command": "count", "z": [1, 2], "p": 4, "q": 5, "n": [1, 1]},
        # the weight-shift bijection, including r-fold composites
        {"command": "bijection", "kind": "shift", "z": [1], "p": 1, "q": 1, "n": [1]},
        {"command": "bijection", "kind": "shift", "z": [1], "p": 2, "q": 2, "n": [2]},
        {"command": "bijection", "kind": "shift", "z": [1, 2], "p": 4, "q": 2, "n": [1, 1]},
        {"command": "bijection", "kind": "shift", "z": [1], "p": 2, "q": 3, "n": [2], "r": 2},
        {"command": "bijection", "kind": "shift", "z": [2], "p": 3, "q": 3, "n": [1], "r": 3},
        # the overshoot factorization
        {"command": "bijection", "kind": "raney", "z": [1], "p": 1, "q": 1, "n": [1]},
        {"command": "bijection", "kind": "raney", "z": [2], "p": 4, "q": 3, "n": [2]},
        {"command": "bijection", "kind": "raney", "z": [1, 2], "p": 3, "q": 2, "n": [1, 1]},
        # the identity catalog
        {"command": "verify", "identity": "abel-1", "n": [3], "z": [2]},
        {"command": "verify", "identity": "abel-2", "n": [3], "z": [2]},
        {"command": "verify", "identity": "rothe-1", "n": [3], "z": [2]},
        {"command": "verify", "identity": "rothe-1", "n": [3], "z": [0]},
        {"command": "verify", "identity": "rothe-2", "n": [3], "z": [2]},
        {"command": "verify", "identity": "gould", "n": [2], "z": [1]},
        {"command": "verify", "identity": "jensen", "n": [3], "z": [2]},
        {"command": "verify", "identity": "raney-mohanty-1", "n": [3], "z": [2]},
        {"command": "verify", "identity": "raney-mohanty-2", "n": [1, 2], "z": [1, 2]},
        {"command": "verify", "identity": "mohanty-handa", "n": [1, 2], "z": [1, 2]},
        {"command": "verify", "identity": "gould-mohanty", "n": [1, 1], "z": [1, 2]},
        {"command": "verify", "identity": "gmh-special", "n": [1, 1], "z": [1, 2]},
        {"command": "verify", "identity": "kmx", "n": [1, 2], "z": [1, 2]},
        {"command": "verify", "identity": "kmpink", "n": [1, 1], "z": [1, 2], "i": 1, "j": 1},
        {"command": "verify", "identity": "kmpink", "n": [1, 1], "z": [1, 2], "i": 2, "j": 2},
        {"command": "verify", "identity": "pkroth", "n": [1, 2], "z": [1, 2]},
        {"command": "verify", "identity": "absorption", "k": [2, 1], "z": [1, 2], "i": 1},
        {"command": "verify", "identity": "absorption", "k": [2, 1], "z": [1, 2], "i": 2},
        {"command": "verify", "identity": "rm2-decomposition", "n": [1, 2], "z": [1, 2]},
        {"command": "verify", "identity": "mh-expansion", "n": [1, 2], "z": [1, 2]},
        # m = 1 coherence with the classical forms
        {"command": "verify", "identity": "gould-mohanty-vs-gould", "n": [3], "z": [2]},
        {"command": "verify", "identity": "raney-mohanty-1-vs-rothe-1", "n": [3], "z": [2]},
        {"command": "verify", "identity": "mohanty-handa-vs-jensen", "n": [3], "z": [2]},
        # generating functions; Catalan values frozen from the independent
        # recurrence C_0 = 1, C_{t+1} = sum C_s C_{t-s}
        {
            "command": "series-solve",
            "z": [2],
            "order": 8,
            "expect_coefficients": {
                "0": "1",
                "1": "1",
                "2": "2",
                "3": "5",
                "4": "14",
                "5": "42",
                "6": "132",
                "7": "429",
                "8": "1430",
            },
        },
        {"command": "series-solve", "z": [1, 2], "order": 6},
        {"command": "series-check1", "x": 1, "z": [1], "order": 8},
        {"command": "series-check1", "x": 2, "z": [2], "order": 8},
        {"command": "series-check1", "x": 3, "z": [1, 2], "order": 8},
        {"command": "series-check2", "x": 1, "z": [1], "order": 8},
        {"command": "series-check2", "x": 2, "z": [2], "order": 8},
        {"command": "series-check2", "x": 4, "z": [3, 1], "order": 8},
    ]
    return members


# ---------------------------------------------------------------------------
# rendering and entry point
# ---------------------------------------------------------------------------


def _render_json(payload: Payload) -> str:
    if isinstance(payload, EvalReport):
        return payload.to_json()
    return json.dumps(payload, indent=2, sort_keys=True)


def _render_text(payload: Payload) -> str:
    if isinstance(payload, EvalReport):
        if payload.check == "shift-word" and payload.ok:
            return payload.details["image"]
        if payload.check == "raney-word" and payload.ok:
            d = payload.details
            if d["case"] == "prefix":
                return f"prefix: u = \"{d['u']}\", v = \"{d['v']}\""
            return (
                f"overshoot: i = {d['i']}, j = {d['j']}, "
                f"u' = \"{d['u_prime']}\", v = \"{d['v']}\""
            )
        lines = [payload.summary()]
        if payload.check in ("count", "count-prefix-class"):
            lines[0] += (
                f"  formula={payload.details['formula']}"
                f" enumerated={payload.details['enumerated']}"
            )
        if payload.check == "series-solve" and payload.ok:
            lines.extend(
                f"  [{exponent}] {value}"
                for exponent, value in payload.details["coefficients"].items()
            )
        if payload.counterexample is not None:
            lines.append(f"counterexample: {json.dumps(payload.counterexample, sort_keys=True)}")
        return "\n".join(lines)
    if payload.get("check") == "enumerate":
        return "\n".join(payload["words"])
    if payload.get("check") == "suite":
        lines = []
        for member in payload["members"]:
            status = "pass" if member["exit_code"] == EXIT_PASS else f"FAIL({member['exit_code']})"
            note = member.get("error", "")
            lines.append(f"[{member['index']:3d}] {status:8s} {member['label']}" + (f" — {note}" if note else ""))
        lines.append(f"suite: {payload['verdict']} ({payload['passed']}/{payload['total']} passed)")
        return "\n".join(lines)
    return json.dumps(payload, indent=2, sort_keys=True)


def _emit(payload: Payload, args: argparse.Namespace) -> None:
    text = _render_json(payload) if args.format == "json" else _render_text(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _default_jobs() -> int:
    env = os.environ.get("GRADEDWORDS_JOBS")
    if not env:
        return _usable_cpus()
    try:
        jobs = int(env)
    except ValueError:
        raise PreconditionError(f"GRADEDWORDS_JOBS must be an integer, got {env!r}")
    if jobs < 1:
        raise PreconditionError(f"GRADEDWORDS_JOBS must be >= 1, got {env!r}")
    return jobs


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json",
                        help="report rendering (default json)")
    common.add_argument("--output", metavar="PATH", help="write the report to a file")

    parser = argparse.ArgumentParser(
        prog="gradedwords",
        description="Exact verification of graded-word bijections and convolution identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", parents=[common],
                             help="closed-form count vs enumeration")
    p_count.add_argument("--z", required=True, help="grading, comma-separated naturals")
    p_count.add_argument("--p", required=True, type=int, help="word weight")
    p_count.add_argument("--k", help="letter counts (word-class form)")
    p_count.add_argument("--q", type=int, help="suffix weight (prefix-class form)")
    p_count.add_argument("--n", help="letter counts (prefix-class form, with --q)")

    p_enum = sub.add_parser("enumerate", parents=[common], help="list a word class")
    p_enum.add_argument("--z", required=True)
    p_enum.add_argument("--p", required=True, type=int)
    p_enum.add_argument("--k", required=True)
    p_enum.add_argument("--r", type=int, help="require a prefix of this weight")

    p_bij = sub.add_parser("bijection", parents=[common],
                           help="apply or verify a bijection")
    p_bij.add_argument("kind", choices=("shift", "raney"))
    p_bij.add_argument("--z", required=True)
    p_bij.add_argument("--p", required=True, type=int)
    p_bij.add_argument("--q", type=int)
    p_bij.add_argument("--n")
    p_bij.add_argument("--r", type=int, help="shift distance (shift only, default 1)")
    p_bij.add_argument("--word", help="apply to this word instead of the whole class")

    p_verify = sub.add_parser("verify", parents=[common], help="check an identity")
    p_verify.add_argument("identity", metavar="identity",
                          help=f"one of: {', '.join(catalog_names())}")
    p_verify.add_argument("--n")
    p_verify.add_argument("--k", help="multi-index for absorption (alias of --n)")
    p_verify.add_argument("--z", required=True)
    p_verify.add_argument("--i", type=int)
    p_verify.add_argument("--j", type=int)
    p_verify.add_argument("--grid-range", metavar="A..B",
                          help="draw grid candidates from this inclusive range")
    p_verify.add_argument("--point", metavar="VAR=VALUE,...",
                          help="evaluate at one exact point instead of a grid")

    p_series = sub.add_parser("series", parents=[common],
                              help="functional-equation series checks")
    p_series.add_argument("action", choices=("solve", "check1", "check2"))
    p_series.add_argument("--z", required=True)
    p_series.add_argument("--order", required=True, type=int, help="truncation order N")
    p_series.add_argument("--x", type=int, help="exponent for check1/check2")

    p_suite = sub.add_parser("suite", parents=[common], help="run a manifest of checks")
    p_suite.add_argument("--manifest", metavar="PATH",
                         help="JSON list of member configs (default: built-in suite)")
    p_suite.add_argument("--jobs", type=int,
                         help="worker processes (default: GRADEDWORDS_JOBS or the usable CPUs)")

    return parser


def _dispatch(args: argparse.Namespace) -> tuple[Payload, int]:
    if args.command != "suite":
        member = {
            key: value
            for key, value in vars(args).items()
            if key not in ("format", "output", "action")
        }
        if args.command == "series":
            member["command"] = f"series-{args.action}"
        payload = run_member(member)
        return payload, _payload_exit_code(payload)
    if args.manifest:
        try:
            with open(args.manifest, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise PreconditionError(f"manifest file not found: {args.manifest}")
        except json.JSONDecodeError as exc:
            raise PreconditionError(
                f"manifest parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            )
    else:
        manifest = default_manifest()
    jobs = _default_jobs() if args.jobs is None else args.jobs
    return run_suite(manifest, jobs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = _dispatch(args)
    except LemmaViolationError as exc:
        print(f"counterexample: {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    except PreconditionError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - last-resort exit code mapping
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    _emit(payload, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
