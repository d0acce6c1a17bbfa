"""Batch command-line front end.

Subcommands: count, enumerate, bijection (shift|raney), verify,
series (solve|check1|check2), suite.  Reports are JSON by default
(deterministic: sorted keys, fixed enumeration order); --format text prints
a human summary of the same structure.

Each command is declared once, by its handler's signature: the member
schema (_COMMANDS) and the argument parser are derived from it and from the
key table _KEYS, so flags and manifest members share every check and message.
A handler checks how its arguments combine and makes one call into a layer,
whose verifier makes the verdict: this module keeps the schema, the
dispatch, the suite and the rendering, and decides no verdict itself.

Importing this module loads none of the four layers (words, bijections,
identities, series), nor argparse.  Each handler imports its own layers on
its first call and binds the names the table _LAYERS lists into this
module, so a process compiles only the layers of the commands it runs.  A
suite binds every layer before it forks, so no worker compiles one.

Exit codes: 0 all checks passed; 1 a mathematical mismatch (a would-be
counterexample, printed with full reproduction context); 2 invalid
configuration or violated precondition; 3 internal error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import struct
import sys
import time
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence, Union

from .arith import MultiIndex, Scalar, dot, natural, parse_scalar
from .errors import LemmaViolationError, PreconditionError
from .reports import EvalReport, render_json

if TYPE_CHECKING:
    import argparse

__all__ = ["main", "default_manifest", "run_suite"]

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

Payload = Union[EvalReport, dict]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PreconditionError(message)


# layer -> the names the handlers call from it.  A layer is imported, and
# its names bound into this module's globals, when the first handler that
# needs it runs; a process that never runs one never compiles the layer.
# Each layer is bound once and its names never again, so a value later set
# on one of them (a tracing wrapper, a test's stand-in) stays in place.
_LAYERS = {
    "words": ("GradedAlphabet", "_check_dimension", "_class_blocks", "verify_count"),
    "bijections": (
        "verify_raney_decomposition", "verify_raney_word", "verify_shift_bijection",
        "verify_shift_word",
    ),
    "identities": (
        "IdentitySpec", "_lookup", "verify_identity_at_point", "verify_identity_on_grid",
    ),
    "series": ("check_generating_function_1", "check_generating_function_2", "verify_solution"),
}
_bound: set[str] = set()


def _bind(*layers: str) -> None:
    """Import each of the layers not bound yet and bind its _LAYERS names here."""
    for layer in layers:
        if layer not in _bound:
            module = importlib.import_module(f".{layer}", __package__)
            globals().update((name, getattr(module, name)) for name in _LAYERS[layer])
            _bound.add(layer)


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
    _bind("words")
    if n is None:
        _require(k is not None, "count needs --k (word class) or --n with --q (prefix class)")
        _require(q is None, "--q only applies to the prefix-class form (with --n)")
    else:
        _require(q is not None, "prefix-class count needs --q along with --n")
        _require(k is None, "--k only applies to the word-class form (without --n)")
        k = n  # the prefix class's letter counts
    return verify_count(GradedAlphabet(z), p, k, q)


def do_enumerate(
    z: MultiIndex, p: int, k: MultiIndex, r: Optional[int] = None
) -> dict:
    """List a word class in lexicographic order."""
    _bind("words")
    alphabet = GradedAlphabet(z)
    _check_dimension(k, alphabet)
    names = alphabet.names
    words: list[str] = []
    # a table's tails as text, by its first entry: the leftover letters
    # sorted, which fix the table (an id could be reused once the bounded
    # memo of tables drops one)
    rendered: dict[tuple[int, ...], list[str]] = {}
    for _, head, table in _class_blocks(alphabet, p, k, r):
        tails = rendered.get(table[0])
        if tails is None:
            tails = rendered[table[0]] = [" ".join(map(names.__getitem__, t)) for t in table]
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
    _bind("words", "bijections")
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
            return verify_shift_word(w, p, 1 if r is None else r)
        return verify_raney_word(w, p)
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
    _bind("identities")
    own = _lookup(identity).param_name  # k for absorption, n for the rest
    other = "n" if own == "k" else "k"
    slots = {"n": n, "k": k}
    _require(slots[other] is None, f"verify {identity} takes --{own}, not --{other}")
    _require(slots[own] is not None, f"verify {identity} needs --{own}")
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
    _bind("series")
    return verify_solution(z, order, expect_coefficients or ())


def do_series_check1(x: int, z: MultiIndex, order: int) -> EvalReport:
    """sum_k (x/(x+k.z)) C(x+k.z,k) u^k = v^x, coefficientwise to `order`."""
    _bind("series")
    return check_generating_function_1(x, z, order)


def do_series_check2(x: int, z: MultiIndex, order: int) -> EvalReport:
    """sum_k C(x+k.z,k) u^k = v^x / (1 - sum_i u_i z_i v^(z_i-1))."""
    _bind("series")
    return check_generating_function_2(x, z, order)


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


# the names of identities.CATALOG, in its order, for --identity's help
# without importing the identities layer
_CATALOG_NAMES = (
    "abel-1", "abel-2", "rothe-1", "rothe-2", "gould", "jensen", "raney-mohanty-1",
    "raney-mohanty-2", "mohanty-handa", "gould-mohanty", "gmh-special", "kmx", "kmpink",
    "pkroth", "absorption", "rm2-decomposition", "mh-expansion", "gould-mohanty-vs-gould",
    "raney-mohanty-1-vs-rothe-1", "mohanty-handa-vs-jensen",
)

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
    "identity": (_text, "identity", f"one of: {', '.join(_CATALOG_NAMES)}"),
    "word": (_text, "--word", "apply to this word instead of the whole class"),
    "grid_range": (
        _range, "--grid-range",
        "draw grid candidates from this range A..B; for A < 0 join it with =: --grid-range=-3..3",
    ),
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
    "series-check1": do_series_check1,
    "series-check2": do_series_check2,
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


# Below this much work left, timed on the members run so far, the suite
# stays in this process.  Measured with CPython 3.11 on 2 vCPUs, in a 20-30 MB
# process: a fork made a suite of 1 ms of work take 3-4 ms (the child's start
# and the page copies both processes make after the fork, its exit and the
# pickle round trip), and two workers broke even at 10-15 ms of work.
_PARALLEL_FLOOR_S = 0.015


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


def _queue(start: int, stop: int) -> bytes:
    """Members start..stop-1 as at most PIPE_BUF // 8 runs of contiguous
    indices, each a little-endian (start, stop) pair of 4-byte ints: one
    atomic write to an empty pipe, of which every 8-byte read takes a run."""
    import select

    runs = min(stop - start, select.PIPE_BUF // 8)
    bounds = [start + (stop - start) * j // runs for j in range(runs + 1)]
    return b"".join(struct.pack("<II", a, b) for a, b in zip(bounds, bounds[1:]))


def _taken(queue: int) -> Iterator[int]:
    """The member indices of the runs read off the queue pipe, a run at a
    time as the caller asks for more, until the pipe is drained."""
    while run := os.read(queue, 8):
        yield from range(*struct.unpack("<II", run))


def _serve(members: list[Member], queue: int, fd: int) -> None:
    """A forked child's work: every member of the runs it takes off the
    queue, then one pickle of [(index, entry), ...] written to fd."""
    import pickle

    pairs = [(index, _run_entry(index, members[index])) for index in _taken(queue)]
    with open(fd, "wb") as pipe:
        pickle.dump(pairs, pipe, protocol=pickle.HIGHEST_PROTOCOL)


def _accept(data: bytes, entries: list) -> None:
    """Fill entries from a child's pickle of (index, entry) pairs, but only
    if its indices are distinct, in range and not yet filled and every entry
    is a dict: a child's truncated or garbled data fills nothing."""
    import pickle

    try:
        pairs = pickle.loads(data)
        fresh = {i for i, entry in pairs if type(entry) is dict and type(i) is int
                 and 0 <= i < len(entries) and entries[i] is None}
    except Exception:  # noqa: BLE001 - truncated or garbled bytes from a dying child
        return
    if len(fresh) == len(pairs):
        for index, entry in pairs:
            entries[index] = entry


def _run_forked(members: list[Member], entries: list, start: int, children: int) -> None:
    """Fill the entries from start on, from one queue that this process and
    `children` forked workers take runs of members from as they come free.

    A member whose child is never forked, dies or sends data _accept refuses
    is run here once every child is reaped, so a verdict is never lost or
    invented.  Children leave only through os._exit: they never return into
    the caller, flush inherited stdio or run atexit handlers.
    """
    queue, write_fd = os.pipe()
    forked: list[tuple[int, int]] = []  # (pid, read fd)
    reaped = 0
    try:
        with open(write_fd, "wb", buffering=0) as pipe:
            pipe.write(_queue(start, len(members)))
        for _ in range(children):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                code = 1
                try:
                    os.close(read_fd)
                    _serve(members, queue, write_fd)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            forked.append((pid, read_fd))
        for index in _taken(queue):
            entries[index] = _run_entry(index, members[index])
        for pid, read_fd in forked:
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            reaped += 1
            if status == 0:
                _accept(data, entries)
    finally:
        os.close(queue)
        for position, (pid, read_fd) in enumerate(forked):
            os.close(read_fd)
            if position >= reaped:
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    for index in range(start, len(members)):
        if entries[index] is None:
            entries[index] = _run_entry(index, members[index])


def _run_members(members: list[Member], workers: int) -> list[dict]:
    """Every member's entry, in manifest order.  Members run here, in order,
    until their mean time so far times the members left reaches
    _PARALLEL_FLOOR_S; then up to workers - 1 children fork to share the rest."""
    entries: list = [None] * len(members)
    began = time.perf_counter()
    for index, member in enumerate(members):
        entries[index] = _run_entry(index, member)
        done, left = index + 1, len(members) - index - 1
        children = min(workers, left) - 1
        if children > 0 and (time.perf_counter() - began) / done * left >= _PARALLEL_FLOOR_S:
            _bind(*_LAYERS)  # here, not in each child after the fork
            _run_forked(members, entries, done, children)
            break
    return entries


def run_suite(manifest: list, jobs: int) -> tuple[dict, int]:
    """Run every member, isolating failures; verdict pass iff all pass.

    Each member is coerced once, here.  Members run across up to `jobs`
    processes, this one and forked workers that take them from one queue,
    and the entries are put back in manifest order, so the report does not
    depend on `jobs`.  The suite runs serially in this process when one
    worker would do, when it cannot fork safely, or when the work left,
    timed on the members run so far, is too small to pay for a fork.
    """
    if not isinstance(manifest, list):
        raise PreconditionError("manifest must be a JSON list of config objects")
    if type(jobs) is not int or jobs < 1:
        raise PreconditionError(f"--jobs must be a positive integer, got {jobs!r}")
    coerced = [_coerced(config) for config in manifest]
    workers = _worker_count(jobs, _usable_cpus(), len(coerced)) if _can_fork() else 1
    members = _run_members(coerced, workers)
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


def _write(path: str, text: Optional[str] = None) -> None:
    """Write text to the --output path; without text, only check that it opens
    for writing, truncating no existing file and leaving no new one behind,
    and opening no FIFO or device, whose reader would take that close for EOF."""
    try:
        if text is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        elif not os.path.exists(path):
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
            os.remove(path)
        elif os.path.isfile(path) or os.path.isdir(path):  # a directory fails here
            os.close(os.open(path, os.O_WRONLY))
    except OSError as exc:
        raise PreconditionError(f"cannot write report to {path}: {exc.strerror or exc}")


def _emit(payload: Payload, args: argparse.Namespace) -> None:
    text = _render_json(payload) if args.format == "json" else _render_text(payload)
    if args.output is not None:
        _write(args.output, text)
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader has gone (`gradedwords suite | head`): the verdict stands.
        # What is still buffered goes to devnull, so that the flush at exit
        # raises nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line, built once per process: a subcommand per command name
    before its first "-", a positional per required key without a flag, and a
    flag per key with one.  The schema, not argparse, refuses a missing or bad key."""
    import argparse

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
    p_suite.add_argument("--jobs", type=int, default=1,
                         help="worker processes (default 1)")

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
    if args.manifest is not None:
        try:
            with open(args.manifest, encoding="utf-8") as handle:
                manifest = json.load(handle, object_pairs_hook=_unrepeated)
        except FileNotFoundError:
            raise PreconditionError(f"manifest file not found: {args.manifest}")
        except OSError as exc:
            raise PreconditionError(f"cannot read manifest {args.manifest}: {exc.strerror or exc}")
        except UnicodeDecodeError as exc:
            raise PreconditionError(f"manifest {args.manifest} is not UTF-8: {exc.reason}")
        except json.JSONDecodeError as exc:
            raise PreconditionError(
                f"manifest parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            )
        except PreconditionError:
            raise  # a repeated key, refused by _unrepeated
        except (ValueError, RecursionError) as exc:  # too long an integer, too deep a nesting
            raise PreconditionError(f"manifest {args.manifest} exceeds the JSON decoder: {exc}")
    else:
        manifest = default_manifest()
    return run_suite(manifest, args.jobs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.output is not None:
            _write(args.output)
        payload, code = _dispatch(args)
        _emit(payload, args)
    except Exception as exc:  # noqa: BLE001 - last-resort exit code mapping
        code, message = _failure(exc)
        print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
