"""Spans around the calls the CLI makes into each gradedwords layer.

Tracer.install() replaces, inside the gradedwords.cli module only, every
function the CLI imported from another package module with a wrapper that
records a span; run_member becomes the root span of each check, and the
EvalReport serializers record spans for the reports layer.  Nothing inside
src/ changes, and uninstall() restores the originals.

A span is (id, layer, start, end, parent id, check id).  Spans are kept in
memory and written out by the benchmark when it ends.  A generator (such as
enumerate_words) is one span from its first item to exhaustion, so the
consumer's per-item work is counted with the layer that produced the items.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
from collections import defaultdict
from time import perf_counter

import gradedwords.cli as cli
from gradedwords.reports import EvalReport

LAYERS = ("arith", "words", "bijections", "identities", "series", "reports", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._checks = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, root: bool) -> tuple:
        stack = self._stack()
        parent = stack[-1] if stack else (None, None)
        frame = (next(self._ids), next(self._checks) if root else parent[1], parent[0])
        stack.append(frame[:2])
        return frame

    def _close(self, layer: str, frame: tuple, start: float) -> None:
        end = perf_counter()
        self._stack().remove(frame[:2])
        self.spans.append((frame[0], layer, start, end, frame[2], frame[1]))

    def _wrap(self, layer: str, fn, root: bool = False):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                frame = self._open(root)
                start = perf_counter()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._close(layer, frame, start)

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(root)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(layer, frame, start)

        return traced

    def _replace(self, owner, name: str, layer: str, root: bool = False) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, self._wrap(layer, original, root))

    def install(self) -> None:
        for name, value in list(vars(cli).items()):
            module = getattr(value, "__module__", "") or ""
            if inspect.isfunction(value) and module.startswith("gradedwords.") and module != cli.__name__:
                self._replace(cli, name, module.rsplit(".", 1)[1])
        self._replace(cli, "run_member", "cli", root=True)
        self._replace(EvalReport, "to_dict", "reports")
        self._replace(EvalReport, "to_json", "reports")

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def self_times(self, spans: list[tuple]) -> dict[str, float]:
        """Seconds per layer spent in its spans minus their child spans."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for sid, layer, start, end, _, _ in spans:
            out[layer] += end - start - child_time[sid]
        return out
