"""Hierarchical tracing spans with JSON-lines and ASCII-tree export.

Usage::

    from repro.obs import span, start_tracing, stop_tracing

    tracer = start_tracing()
    with span("search.run", query="dna repair") as sp:
        with span("search.select"):
            ...
        sp.set(hits=12)
    stop_tracing()
    tracer.write_jsonl("trace.jsonl")
    print(tracer.format_tree())

``span(...)`` also works as a decorator::

    @span("eval.precision.run")
    def run(...): ...

When no tracer is active (the default), ``span`` yields a shared no-op
span whose ``set`` does nothing, so instrumented code pays only an
attribute check -- the "observability disabled" fast path.

Span names follow the same dotted convention as metric names
(``stage.component`` or ``stage.component.detail``); wall time is taken
from the monotonic clock (``time.perf_counter``).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Any, Dict, List, Optional


class Span:
    """One timed, attributed node of the span tree."""

    __slots__ = ("name", "attrs", "children", "_started", "_duration")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.children: List["Span"] = []
        self._started = time.perf_counter()
        self._duration: Optional[float] = None

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on the span."""
        self.attrs.update(attrs)

    def finish(self) -> None:
        if self._duration is None:
            self._duration = time.perf_counter() - self._started

    @property
    def duration(self) -> float:
        """Seconds from start to finish (up to now if still open)."""
        if self._duration is None:
            return time.perf_counter() - self._started
        return self._duration

    # -- (de)serialisation -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "duration_ms": round(self.duration * 1000.0, 3),
            "attrs": self.attrs,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        node = cls(data["name"], data.get("attrs") or {})
        node._duration = float(data.get("duration_ms", 0.0)) / 1000.0
        node.children = [cls.from_dict(c) for c in data.get("children", ())]
        return node


class _NullSpan:
    """The shared do-nothing span handed out while tracing is off."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects span trees; one stack per thread, shared root list."""

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def begin(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> Span:
        node = Span(name, attrs)
        stack = self._stack()
        if stack:
            stack[-1].children.append(node)
        else:
            with self._lock:
                self.roots.append(node)
        stack.append(node)
        return node

    def end(self, node: Span) -> None:
        node.finish()
        stack = self._stack()
        # Pop back to the node even if an inner span leaked (robustness
        # against instrumented code that returns mid-span).
        while stack:
            top = stack.pop()
            if top is node:
                break
            top.finish()

    def discard_root(self, node: Span) -> None:
        """Forget one captured root (bounds memory for long-lived tracers).

        Request-scoped telemetry captures a root span per query and keeps
        the slow ones in its own bounded log; discarding the root here
        keeps an always-on tracer from growing without bound.  No-op when
        ``node`` is not a root (e.g. the request ran under an outer span).
        """
        with self._lock:
            for index in range(len(self.roots) - 1, -1, -1):
                if self.roots[index] is node:
                    del self.roots[index]
                    return

    # -- export --------------------------------------------------------------------

    def to_dicts(self) -> List[Dict[str, Any]]:
        with self._lock:
            roots = list(self.roots)
        return [root.to_dict() for root in roots]

    def write_jsonl(self, path) -> None:
        """One JSON object per *root* span (children nested) per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for root in self.to_dicts():
                handle.write(json.dumps(root, sort_keys=True) + "\n")

    def format_tree(self) -> str:
        from repro.obs.report import render_trace

        return render_trace(self.to_dicts())


def read_trace_jsonl(path) -> List[Dict[str, Any]]:
    """Parse a trace dump written by :meth:`Tracer.write_jsonl`."""
    roots: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                roots.append(json.loads(line))
    return roots


_active_tracer: Optional[Tracer] = None


def start_tracing() -> Tracer:
    """Install (and return) a fresh process-wide tracer."""
    global _active_tracer
    _active_tracer = Tracer()
    return _active_tracer


def stop_tracing() -> Optional[Tracer]:
    """Deactivate tracing; returns the tracer that was active (if any)."""
    global _active_tracer
    tracer, _active_tracer = _active_tracer, None
    return tracer


def current_tracer() -> Optional[Tracer]:
    return _active_tracer


class _SpanHandle:
    """Context manager *and* decorator for one named span."""

    __slots__ = ("name", "attrs", "_node", "_tracer")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self._node: Optional[Span] = None
        self._tracer: Optional[Tracer] = None

    def __enter__(self):
        tracer = _active_tracer
        if tracer is None:
            return NULL_SPAN
        self._tracer = tracer
        self._node = tracer.begin(self.name, self.attrs)
        return self._node

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._node is not None:
            if exc is not None:
                self._node.set(error=f"{exc_type.__name__}: {exc}")
            assert self._tracer is not None
            self._tracer.end(self._node)
            self._node = None
            self._tracer = None
        return False

    def __call__(self, func):
        name, attrs = self.name, self.attrs

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with _SpanHandle(name, attrs):
                return func(*args, **kwargs)

        return wrapper


def span(name: str, **attrs: Any) -> _SpanHandle:
    """Open a named span (context manager) or wrap a function (decorator).

    Attributes passed here are captured at span start; more can be added
    through ``Span.set`` on the yielded span object.
    """
    return _SpanHandle(name, attrs)
