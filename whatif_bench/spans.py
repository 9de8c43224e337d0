"""Span recording for the traced run, and the self-time arithmetic over it.

The launcher wraps public functions of each layer in a :class:`SpanRecorder`
inside the server process.  A span is one call of a wrapped function: its
name, its parent (the wrapped call it ran inside, on the same thread), its
start and end on the ``perf_counter`` clock, the thread it ran on and an
optional tag (the request action, or the pairs a forest call traversed).
``perf_counter`` reads ``CLOCK_MONOTONIC`` on Linux, so the client can place
server spans inside its own measurement window.

A span's self time is its duration minus the durations of its direct
children.  Calls on one thread nest strictly, so children never overlap and
that difference is exactly the part of the span no child covers.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int  # 0 for a root span
    name: str
    start: float
    end: float
    thread: int
    tag: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe recorder that wraps functions into spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self, name: str, fn: Callable[..., Any], tag: Callable[..., Any] | None = None
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call; ``tag(*args)`` labels the span."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            span_id = next(self._ids)
            parent_id = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                label = tag(*args) if tag is not None else None
                self.spans.append(
                    Span(span_id, parent_id, name, start, end, threading.get_ident(), label)
                )

        return wrapper

    def dump(self, path: str) -> None:
        rows = [
            [s.span_id, s.parent_id, s.name, s.start, s.end, s.thread, s.tag]
            for s in list(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)


def load_spans(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(*row) for row in json.load(handle)]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus its direct children's."""
    own = {span.span_id: span.duration for span in spans}
    for span in spans:
        if span.parent_id in own:
            own[span.parent_id] -= span.duration
    return own


def roots(spans: list[Span]) -> dict[int, Span]:
    """The outermost ancestor of every span (a root maps to itself)."""
    by_id = {span.span_id: span for span in spans}
    found: dict[int, Span] = {}
    for span in spans:
        chain = [span]
        while chain[-1].parent_id in by_id and chain[-1].span_id not in found:
            chain.append(by_id[chain[-1].parent_id])
        top = found.get(chain[-1].span_id, chain[-1])
        for member in chain:
            found[member.span_id] = top
    return found
