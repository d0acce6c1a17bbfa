"""Batch command-line front end.

Subcommands: count, enumerate, bijection (shift|raney), verify,
series (solve|check1|check2), suite.  Reports are JSON by default
(deterministic: sorted keys, fixed enumeration order); --format text prints
a human summary of the same structure.

Each command is declared once, by its handler's signature: the member
schema (_COMMANDS) and the argument parser are derived from it and from the
key table _KEYS, so flags and manifest members share every check and message.

Exit codes: 0 all checks passed; 1 a mathematical mismatch (a would-be
counterexample, printed with full reproduction context); 2 invalid
configuration or violated precondition; 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import heapq
import inspect
import json
import math
import os
import sys
from typing import Callable, Optional, Sequence, Union

from .arith import MultiIndex, Scalar, dot, format_scalar, natural, parse_scalar
from .bijections import (
    Overshoot,
    PrefixCase,
    raney_factorize,
    raney_unfactorize,
    _shift_round_trip,
    verify_raney_decomposition,
    verify_shift_bijection,
)
from .errors import LemmaViolationError, PreconditionError
from .identities import (
    CATALOG,
    IdentitySpec,
    _lookup,
    verify_identity_at_point,
    verify_identity_on_grid,
)
from .reports import (
    VERDICT_EQUAL,
    VERDICT_FAIL,
    VERDICT_MISMATCH,
    VERDICT_PASS,
    EvalReport,
    render_json,
)
from .series import (
    check_generating_function_1,
    check_generating_function_2,
    functional_equation_residual,
    solve_functional_equation,
)
from .words import (
    GradedAlphabet,
    count_prefix_class,
    count_words,
    _check_dimension,
    _class_blocks,
    _class_size,
    _split_count,
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
    alphabet = GradedAlphabet(z)
    if n is not None:
        _require(q is not None, "prefix-class count needs --q along with --n")
        _require(k is None, "--k only applies to the word-class form (without --n)")
        formula = count_prefix_class(p, q, n, alphabet)
        enumerated = _class_size(alphabet, p + q, n, p)
        report = EvalReport(
            check="count-prefix-class",
            params={"p": p, "q": q, "n": list(n), "z": list(z)},
        )
    else:
        _require(k is not None, "count needs --k (word class) or --n with --q (prefix class)")
        _require(q is None, "--q only applies to the prefix-class form (with --n)")
        formula = count_words(p, k, alphabet)
        enumerated = _class_size(alphabet, p, k)
        report = EvalReport(check="count", params={"p": p, "k": list(k), "z": list(z)})
    report.details = {"formula": formula, "enumerated": enumerated}
    report.verdict = VERDICT_EQUAL if formula == enumerated else VERDICT_MISMATCH
    if not report.ok:
        report.counterexample = {
            "formula": formula,
            "enumerated": enumerated,
            "params": report.params,
        }
    return report


def do_enumerate(
    z: MultiIndex, p: int, k: MultiIndex, r: Optional[int] = None
) -> dict:
    """List a word class in lexicographic order."""
    alphabet = GradedAlphabet(z)
    _check_dimension(k, alphabet)
    names = alphabet.names
    words: list[str] = []
    rendered: dict[int, list[str]] = {}  # id(table) -> its tails as text
    for _, head, table in _class_blocks(alphabet, p, k, r):
        tails = rendered.get(id(table))
        if tails is None:
            tails = rendered[id(table)] = [" ".join(map(names.__getitem__, t)) for t in table]
        start = " ".join(map(names.__getitem__, head))
        if start and table[0]:  # a space only between a head and a tail
            start += " "
        words += map(start.__add__, tails)
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
    _require(kind == "shift" or r is None, "bijection raney does not take --r")
    alphabet = GradedAlphabet(z)
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
            image, back = _shift_round_trip(w, p, steps)
            report = EvalReport(
                check="shift-word",
                params={"p": p, "z": list(z), "r": steps},
                details={"word": str(w), "image": str(image)},
            )
            report.verdict = VERDICT_PASS if back == w else VERDICT_FAIL
            if not report.ok:
                report.counterexample = {"word": str(w), "image": str(image), "back": str(back)}
            return report
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
    return verify_raney_decomposition(p, q, n, alphabet)


def do_verify(
    identity: str,
    z: MultiIndex,
    n: Optional[MultiIndex] = None,
    k: Optional[MultiIndex] = None,
    i: Optional[int] = None,
    j: Optional[int] = None,
    grid_range: Optional[tuple[int, int]] = None,
    point: Optional[dict[str, Scalar]] = None,
) -> EvalReport:
    """Check one catalog identity on a grid or at a single point."""
    own = _lookup(identity).param_name  # k for absorption, n for the rest
    other = "n" if own == "k" else "k"
    slots = {"n": n, "k": k}
    _require(slots[other] is None, f"verify {identity} takes --{own}, not --{other}")
    _require(slots[own] is not None, f"verify {identity} needs --{own}")
    _require(point is None or grid_range is None, "--point and --grid-range exclude each other")
    spec = IdentitySpec(
        identity=identity,
        n=slots[own],
        z=z,
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
    expect_coefficients: Optional[tuple[tuple[MultiIndex, Scalar], ...]] = None,
) -> EvalReport:
    """Solve the functional equation, checking residual, naturality and expected values."""
    for exponent, _ in expect_coefficients or ():
        _require(
            len(exponent) == len(z) and sum(exponent) <= order,
            f"expect_coefficients exponent {','.join(map(str, exponent))} is not a"
            f" monomial of degree <= {order} in {len(z)} variables",
        )
    v = solve_functional_equation(tuple(z), order)
    residual_zero = functional_equation_residual(v, tuple(z)).is_zero()
    natural = all(type(c) is int and c >= 0 for c in v.coeffs.values())
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
            actual = v.coeffs.get(exponent, 0)
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


# ---------------------------------------------------------------------------
# member schema (shared by CLI flags and manifest members)
# ---------------------------------------------------------------------------

# Every key has one kind wherever it appears, and each command takes the
# keys its handler's parameters name.  Coercion rejects bool and float (a JSON
# 3.5 or true must not pass as a weight) and names the key as its CLI flag in
# every message.


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


def _scalar(value: object, name: str) -> Scalar:
    if type(value) is int:
        return value
    if isinstance(value, str):
        try:
            return parse_scalar(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise PreconditionError(f"{name} value {value!r} is not an exact scalar")


def _point(value: object, name: str) -> dict[str, Scalar]:
    if isinstance(value, str):
        texts: dict[str, str] = {}
        for piece in value.split(","):
            var, sep, text = piece.partition("=")
            var = var.strip()
            if not sep:
                raise PreconditionError(f"{name} expects var=value pairs, got {piece!r}")
            if var in texts:
                raise PreconditionError(f"{name} gives {var} more than once")
            texts[var] = text
    elif isinstance(value, dict):
        texts = value
    else:
        raise PreconditionError(f"{name} expects var=value pairs or an object, got {value!r}")
    return {var: _scalar(text, f"{name} {var}") for var, text in texts.items()}


def _coefficients(value: object, name: str) -> tuple[tuple[MultiIndex, Scalar], ...]:
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


# key -> (coercer, the key's name in messages: its CLI flag where it has one,
# its help text)
_KEYS: dict[str, tuple[Callable[[object, str], object], str, str]] = {
    "z": (_nats, "--z", "grading, comma-separated naturals"),
    "k": (_nats, "--k", "letter counts of a word class; the multi-index of absorption"),
    "n": (_nats, "--n", "letter counts of a prefix class; an identity's multi-index"),
    "p": (natural, "--p", "word weight (the prefix weight of a prefix class)"),
    "q": (natural, "--q", "suffix weight of a prefix class"),
    "r": (natural, "--r", "required prefix weight (enumerate); shift distance, default 1"),
    "i": (natural, "--i", "letter index i"),
    "j": (natural, "--j", "letter index j"),
    "x": (natural, "--x", "exponent x >= 1 of the generating-function checks"),
    "order": (natural, "--order", "truncation order N"),
    "kind": (_bijection_kind, "kind", "shift or raney"),
    "identity": (_text, "identity", f"one of: {', '.join(CATALOG)}"),
    "word": (_text, "--word", "apply to this word instead of the whole class"),
    "grid_range": (_range, "--grid-range", "draw grid candidates from this range A..B"),
    "point": (_point, "--point", "evaluate at one exact point VAR=VALUE,... instead of a grid"),
    "expect_coefficients": (_coefficients, "expect_coefficients", "manifest only: exponent: value"),
    "label": (_text, "label", "manifest only: the member's label in the suite report"),
}


def _schema(handler: Callable[..., Payload]) -> tuple[Callable[..., Payload], tuple, tuple]:
    """(handler, required keys, optional keys): the handler's parameters
    without and with a default."""
    params = inspect.signature(handler).parameters.values()
    required = tuple(p.name for p in params if p.default is p.empty)
    return handler, required, tuple(p.name for p in params if p.name not in required)


# command -> (handler, required keys, optional keys)
_COMMANDS = {name: _schema(handler) for name, handler in {
    "count": do_count,
    "enumerate": do_enumerate,
    "bijection": do_bijection,
    "verify": do_verify,
    "series-solve": do_series_solve,
    "series-check1": check_generating_function_1,
    "series-check2": check_generating_function_2,
}.items()}


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
        coerce, name, _ = _KEYS[key]
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


def _failure(exc: Exception) -> tuple[int, str]:
    """The exit code and message of a command that raised exc: a
    counterexample, a refused configuration, or a fault of this program."""
    if isinstance(exc, LemmaViolationError):
        return EXIT_COUNTEREXAMPLE, f"counterexample: {exc}"
    if isinstance(exc, PreconditionError):
        return EXIT_CONFIG, f"invalid configuration: {exc}"
    return EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {exc}"


Member = Union[tuple[str, dict], Exception]


def _coerced(config: object) -> Member:
    """A member's (command, typed values), or the exception its coercion raised."""
    try:
        return _coerce_member(config)
    except Exception as exc:  # noqa: BLE001 - member isolation; recorded by _run_entry
        return exc


def _run_entry(index: int, member: Member) -> dict:
    """One coerced member's suite entry; the member's failure is recorded, never raised."""
    entry: dict = {"index": index, "label": f"member {index}"}
    try:
        if isinstance(member, Exception):
            raise member
        command, values = member
        entry["label"] = values.get("label", _member_label(command, values))
        payload = _execute(command, values)
        entry["exit_code"] = _payload_exit_code(payload)
        entry["report"] = payload.to_dict() if isinstance(payload, EvalReport) else payload
    except Exception as exc:  # noqa: BLE001 - member isolation
        entry["exit_code"], entry["error"] = _failure(exc)
    return entry


# Predicted member time in microseconds: a dispatch cost plus a per-unit cost
# times a closed-form count of the member's work.  The per-unit costs are
# medians of per-member timings (CPython 3.11.7, 2 vCPUs) over the members of
# seeds 1-3 of the benchmark manifests and the built-in suite that run to a
# verdict, timed in shuffled order, each cost scaled by the host speed that
# costs left unchanged read in the same run.  They are 4 us per grid point x
# term (an Abel grid point, at about 1.3 us, is priced the same: a price of
# its own left the LPT shares as they were) and 50 us per term at a point;
# 6 us per series term pair; and per word 2 us to enumerate a class by k,
# 1 us to enumerate a weight-r prefix class and 5 us per unit shift (a swap
# that leaves the word as it is costs no new tuple).  Counts and Raney
# classes cost little per word but much per member beyond the dispatch (head
# search, closed forms, the report), so the median member prices their words
# at 3 to 6 times what a large class pays, and that price made the LPT shares
# less even.  Their prices are instead the summed member time less dispatch
# over the summed words: 1/4 us for counts by k, 1/2 us for prefix-class
# counts and 4 us per Raney factorization.  Over those 1551 members,
# measured time was 0.4 to 2.0 times the prediction between the 10th and
# 90th percentiles, which is all the LPT schedule needs.
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
                units = count_prefix_class(p, q, n, GradedAlphabet(z)) // 2
            elif get("k") is not None:
                k, alphabet, prefix = get("k"), GradedAlphabet(z), get("r")
                if prefix is None:
                    size, per_word = count_words(p, k, alphabet), 2
                else:  # split at the weight-r prefix
                    size, per_word = _split_count(alphabet.z, prefix, p - prefix, k), 1
                units = size // 4 if command == "count" else per_word * size
        elif command == "bijection":
            if get("word") is not None:
                units = 2 * r * len(get("word").split())
            elif q is not None and n is not None:
                total = q + dot(n, z)
                if get("kind") == "shift":
                    units = 5 * r * count_prefix_class(p, total, n, GradedAlphabet(z))
                else:
                    units = 4 * count_words(p + total, n, GradedAlphabet(z))
        elif command == "verify":
            entry = CATALOG.get(get("identity"))
            slot = n if n is not None else get("k")
            if entry is not None and slot:
                terms = math.prod(e + 1 for e in slot)
                if get("point") is not None:
                    units = 50 * terms
                else:
                    degree = entry.degree(IdentitySpec(entry.name, slot, z))
                    units = 4 * (degree + 1) ** len(entry.variables) * terms
        else:
            units = 6 * math.comb(get("order") + 2 * len(z), 2 * len(z))
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


def _serve_share(members: list[Member], share: list[int], fd: int) -> None:
    """A forked child's work: one pickle of [(index, entry), ...] for share, written to fd."""
    import pickle

    pairs = [(index, _run_entry(index, members[index])) for index in share]
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


def _run_forked(members: list[Member], shares: list[list[int]]) -> list[dict]:
    """Every member's entry: shares[1:] in forked children, shares[0] here,
    so a single share forks nothing.

    A share whose child cannot be forked, exits nonzero, is killed, or sends
    anything but its own entries is re-run in this process, so a verdict is
    never lost or invented.  Children leave only through os._exit: they never
    return into the caller, flush inherited stdio or run atexit handlers.
    """
    entries: list = [None] * len(members)
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
                    _serve_share(members, share, write_fd)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append((pid, read_fd, share))
        for index in local:
            entries[index] = _run_entry(index, members[index])
        for pid, read_fd, share in children:
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            reaped += 1
            got = _received(data, share) if status == 0 else None
            if got is None:
                got = [_run_entry(index, members[index]) for index in share]
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

    Each member is coerced once, here.  Members are split by predicted
    work across up to `jobs` forked worker processes, and the entries are
    put back in manifest order, so the report does not depend on `jobs`.
    The suite runs serially in this process when one worker would do, when
    it cannot fork safely, or when the predicted work is too small to pay
    for a fork.
    """
    if not isinstance(manifest, list):
        raise PreconditionError("manifest must be a JSON list of config objects")
    if type(jobs) is not int or jobs < 1:
        raise PreconditionError(f"--jobs must be a positive integer, got {jobs!r}")
    coerced = [_coerced(config) for config in manifest]
    workers = _worker_count(jobs, _usable_cpus(), len(coerced))
    shares = [list(range(len(coerced)))]
    if workers > 1 and _can_fork():
        work = [0 if isinstance(m, Exception) else _predicted_work(*m) for m in coerced]
        if sum(work) >= _PARALLEL_FLOOR_US:
            shares = _lpt_shares(work, workers)
    members = _run_forked(coerced, shares)
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
    return render_json(payload)


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
    return render_json(payload)


def _emit(payload: Payload, args: argparse.Namespace) -> None:
    text = _render_json(payload) if args.format == "json" else _render_text(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line, built once per process: a subcommand per command name
    before its first "-", a positional per required key without a flag, and a
    flag per key with one.  The schema, not argparse, refuses a missing or bad key."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json",
                        help="report rendering (default json)")
    common.add_argument("--output", metavar="PATH", help="write the report to a file")

    parser = argparse.ArgumentParser(
        prog="gradedwords",
        description="Exact verification of graded-word bijections and convolution identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups: dict[str, dict[str, tuple]] = {}
    for name, spec in _COMMANDS.items():
        head, _, action = name.partition("-")
        groups.setdefault(head, {})[action] = spec
    for head, actions in groups.items():
        summary = "; ".join(
            (f"{action}: " if action else "") + handler.__doc__.splitlines()[0].rstrip(".")
            for action, (handler, _, _) in actions.items()
        )
        p_sub = sub.add_parser(head, parents=[common], help=summary, description=summary)
        if "" not in actions:
            p_sub.add_argument("action", choices=list(actions))
        required = {key for _, keys, _ in actions.values() for key in keys}
        for key in dict.fromkeys(key for _, req, opt in actions.values() for key in req + opt):
            coerce, name, text = _KEYS[key]
            if name.startswith("--"):
                p_sub.add_argument(name, type=int if coerce is natural else None, help=text)
            elif key in required:
                p_sub.add_argument(key, nargs="?", help=text)

    p_suite = sub.add_parser("suite", parents=[common], help="run a manifest of checks")
    p_suite.add_argument("--manifest", metavar="PATH",
                         help="JSON list of member configs (default: built-in suite)")
    p_suite.add_argument("--jobs", type=int,
                         help="worker processes (default: the usable CPUs)")

    return parser


def _unrepeated(pairs: list[tuple[str, object]]) -> dict:
    """A manifest's JSON object; a repeated key, whose last value json would keep, is refused."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        key = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise PreconditionError(f"manifest repeats the key {key!r} in one object")
    return obj


def _dispatch(args: argparse.Namespace) -> tuple[Payload, int]:
    if args.command != "suite":
        member = {
            key: value
            for key, value in vars(args).items()
            if key not in ("format", "output", "action")
        }
        if "action" in args:
            member["command"] += "-" + args.action
        payload = run_member(member)
        return payload, _payload_exit_code(payload)
    if args.manifest:
        try:
            with open(args.manifest, encoding="utf-8") as handle:
                manifest = json.load(handle, object_pairs_hook=_unrepeated)
        except FileNotFoundError:
            raise PreconditionError(f"manifest file not found: {args.manifest}")
        except json.JSONDecodeError as exc:
            raise PreconditionError(
                f"manifest parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            )
    else:
        manifest = default_manifest()
    jobs = _usable_cpus() if args.jobs is None else args.jobs
    return run_suite(manifest, jobs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = _dispatch(args)
    except Exception as exc:  # noqa: BLE001 - last-resort exit code mapping
        code, message = _failure(exc)
        print(message, file=sys.stderr)
        return code
    _emit(payload, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
