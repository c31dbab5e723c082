"""In-memory span recording for the traced run.

The benchmark wraps public functions of the program at run time (see
:mod:`perfbench.layers`); every wrapped call records a :class:`Span`
with its layer, operation, start, end, parent span and request id.
Spans stay in memory until the run ends. A layer's self time is the
sum, over its spans, of each span's duration minus the part of that
interval its child spans cover, so nested layers (``server.server`` →
``server.ranker_service`` → ``core.ranking`` → ``db.table``) are never
counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

#: The layer of a client request's root span; its op is the request kind.
CLIENT = "client"


@dataclass(slots=True, eq=False)
class Span:
    """One wrapped call: ``[start, end]`` in ``perf_counter`` seconds."""

    layer: str
    op: str
    start: float
    end: float = 0.0
    parent: Span | None = None
    request: int | None = None


@dataclass(frozen=True)
class Target:
    """One function to wrap, looked up as ``owner.attr``.

    ``on_result(recorder, args, result)`` adds counts from a finished
    call. ``span=False`` records counts only.
    """

    owner: Any
    attr: str
    layer: str
    on_result: Callable[["SpanRecorder", tuple, Any], None] | None = None
    span: bool = True


class SpanRecorder:
    """Collects spans and counts from every thread of one traced run.

    Recording is on only while :attr:`enabled` is true, so the runner
    can leave set-up and output checks out of the per-layer numbers.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._request_ids = itertools.count(1)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the count ``name`` (thread-safe)."""
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def _open(self, layer: str, op: str) -> Span:
        stack = self._stack()
        current = Span(
            layer,
            op,
            0.0,
            parent=stack[-1] if stack else None,
            request=getattr(self._local, "request", None),
        )
        stack.append(current)
        current.start = time.perf_counter()
        return current

    def _close(self, current: Span) -> None:
        current.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(current)

    @contextlib.contextmanager
    def span(self, layer: str, op: str) -> Iterator[Span]:
        """Record a span around the ``with`` body."""
        current = self._open(layer, op)
        try:
            yield current
        finally:
            self._close(current)

    @contextlib.contextmanager
    def request(self, kind: str) -> Iterator[None]:
        """A client request: a fresh request id and a root ``client`` span."""
        if not self.enabled:
            yield
            return
        self._local.request = next(self._request_ids)
        try:
            with self.span(CLIENT, kind):
                yield
        finally:
            self._local.request = None

    def wrap(self, target: Target, function: Callable) -> Callable:
        """``function`` instrumented as ``target`` describes."""
        recorder = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return function(*args, **kwargs)
            if target.span:
                current = recorder._open(target.layer, target.attr)
                try:
                    result = function(*args, **kwargs)
                finally:
                    recorder._close(current)
            else:
                result = function(*args, **kwargs)
            if target.on_result is not None:
                target.on_result(recorder, args, result)
            return result

        return traced


def install(recorder: SpanRecorder, targets: Iterable[Target]) -> Callable[[], None]:
    """Wrap every target in place; returns a function that unwraps them.

    The attribute must be defined on the owner itself (not inherited),
    so a rename in the program fails loudly instead of silently
    measuring nothing.
    """
    originals: list[tuple[Any, str, Any]] = []
    for target in targets:
        if target.attr not in vars(target.owner):
            raise AttributeError(
                f"{target.owner!r} defines no {target.attr!r} to trace"
            )
        original = vars(target.owner)[target.attr]
        originals.append((target.owner, target.attr, original))
        setattr(target.owner, target.attr, recorder.wrap(target, original))

    def restore() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return restore


def covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """``id(span)`` → its duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append((span.start, span.end))
    return {
        id(span): (span.end - span.start)
        - covered(children.get(id(span), ()), span.start, span.end)
        for span in spans
    }


@dataclass
class OpSummary:
    """Totals for one ``(layer, op)`` over a set of spans."""

    calls: int = 0
    self_s: float = 0.0
    max_s: float = 0.0


@dataclass
class TraceSummary:
    """Per ``(layer, op)`` totals plus the recorder's counts.

    ``by_kind`` splits the client requests' time: request kind → layer
    → self seconds of that layer's spans inside requests of that kind.
    Its values for one kind add up to those requests' total time.
    """

    ops: dict[tuple[str, str], OpSummary] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    by_kind: dict[str, dict[str, float]] = field(default_factory=dict)

    def calls(self, layer: str, *ops: str) -> int:
        """Calls into ``layer`` (only the named ops, when given)."""
        return sum(
            summary.calls
            for (name, op), summary in self.ops.items()
            if name == layer and (not ops or op in ops)
        )

    def self_ms(self, layer: str, *ops: str) -> float:
        """Self time of ``layer`` in milliseconds (named ops, when given)."""
        return 1000.0 * sum(
            summary.self_s
            for (name, op), summary in self.ops.items()
            if name == layer and (not ops or op in ops)
        )

    def max_ms(self, layer: str, op: str) -> float:
        """The longest single ``layer.op`` span, in milliseconds."""
        summary = self.ops.get((layer, op))
        return 1000.0 * summary.max_s if summary is not None else 0.0


def summarize(spans: list[Span], counts: dict[str, float]) -> TraceSummary:
    """Aggregate spans into per ``(layer, op)`` calls, self time and max."""
    own = self_times(spans)
    summary = TraceSummary(counts=dict(counts))
    kinds = {span.request: span.op for span in spans if span.layer == CLIENT}
    for span in spans:
        entry = summary.ops.setdefault((span.layer, span.op), OpSummary())
        entry.calls += 1
        entry.self_s += own[id(span)]
        entry.max_s = max(entry.max_s, span.end - span.start)
        kind = kinds.get(span.request)
        if kind is not None:
            layers = summary.by_kind.setdefault(kind, {})
            layers[span.layer] = layers.get(span.layer, 0.0) + own[id(span)]
    return summary


def write_spans(path: Path, spans: list[Span]) -> None:
    """Write spans as JSON lines ``[id, layer, op, start, end, parent, request]``."""
    index = {id(span): position for position, span in enumerate(spans)}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for position, span in enumerate(spans):
            parent = index.get(id(span.parent)) if span.parent is not None else None
            handle.write(
                json.dumps(
                    [position, span.layer, span.op, span.start, span.end,
                     parent, span.request]
                )
                + "\n"
            )
