"""Request-scoped telemetry for the query path.

Every ``Pipeline.search`` / ``search_many`` / ``explain`` call runs
inside one *request context*: it gets a process-unique query id, a root
span (``request.<kind>``) under which selection/scoring/cache spans are
parented, and a latency observation into the per-kind histogram
(``search.run.latency`` / ``search.batch.latency`` /
``search.explain.latency``).

Capture policy (head + tail sampling): while telemetry is *enabled*,
every request records its span tree; at completion the record is offered
to the bounded slow-query log when it was **head-sampled** (probability
``sample_rate``), **slow** (duration >= ``slow_ms``), or **errored** --
so the tail is never lost to sampling, and the log keeps only the N
slowest either way.  Each completed request also appends one
:class:`~repro.obs.slo.QueryEvent` to a bounded rolling window and
bumps the ``search.analytics.*`` counters; that window is the one
per-request store ``/slo`` and ``/analytics`` both read.

While telemetry is *disabled* (the default) the request context is a
hair above free: one sentinel check, two monotonic-clock reads, one
histogram observation, one counter increment -- the
"instrumentation-disabled fast path".

The process-wide instance mirrors the metrics registry idiom::

    from repro.obs import configure_telemetry, get_telemetry

    configure_telemetry(enabled=True, sample_rate=0.1, slow_ms=250.0)
    with get_telemetry().request("search", query="dna repair") as req:
        ...
        req.cache(hit=False)
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.obs.metrics import get_registry
from repro.obs.slo import (
    DEFAULT_SLOS,
    QueryEvent,
    SLO,
    evaluate_slos,
)
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import Span, current_tracer, span, start_tracing

__all__ = [
    "QueryRecord",
    "QueryTelemetry",
    "configure_telemetry",
    "get_telemetry",
    "reset_telemetry",
]

#: Per-kind latency histograms (seconds); unknown kinds fall back to the
#: generic request latency.  All four are catalogued in
#: docs/observability.md.
_LATENCY_METRIC = {
    "search": "search.run.latency",
    "search_many": "search.batch.latency",
    "search_grouped": "search.grouped.latency",
    "explain": "search.explain.latency",
}
_FALLBACK_LATENCY_METRIC = "search.request.latency"

#: Queries longer than this are truncated in records (ids stay unique).
_MAX_QUERY_CHARS = 200

#: Hard cap on the rolling event window (deque maxlen) ``/slo`` and
#: ``/analytics`` read.
_MAX_WINDOW_EVENTS = 65536


class QueryRecord:
    """Everything telemetry keeps about one finished request."""

    __slots__ = (
        "query_id", "kind", "query", "attrs", "started_unix", "duration_s",
        "sampled", "slow", "error", "queries", "cache_hits", "cache_lookups",
        "root",
    )

    def __init__(
        self,
        query_id: str,
        kind: str,
        query: str,
        attrs: Dict[str, Any],
        sampled: bool,
        queries: int,
    ) -> None:
        self.query_id = query_id
        self.kind = kind
        self.query = query[:_MAX_QUERY_CHARS]
        self.attrs = attrs
        self.started_unix = time.time()
        self.duration_s = 0.0
        self.sampled = sampled
        self.slow = False
        self.error: Optional[str] = None
        self.queries = queries
        self.cache_hits = 0
        self.cache_lookups = 0
        self.root: Optional[Span] = None

    @property
    def duration_ms(self) -> float:
        return self.duration_s * 1000.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "query_id": self.query_id,
            "kind": self.kind,
            "query": self.query,
            "attrs": dict(self.attrs),
            "started_unix": round(self.started_unix, 3),
            "duration_ms": round(self.duration_ms, 3),
            "sampled": self.sampled,
            "slow": self.slow,
            "error": self.error,
            "queries": self.queries,
            "cache_hits": self.cache_hits,
            "cache_lookups": self.cache_lookups,
            "spans": self.root.to_dict() if self.root is not None else None,
        }


class _ActiveRequest:
    """The handle a request body uses to attribute work to its record."""

    __slots__ = ("record", "_span")

    def __init__(self, record: QueryRecord, span_node) -> None:
        self.record = record
        self._span = span_node

    def set(self, **attrs: Any) -> None:
        """Attach attributes to both the record and its root span."""
        self.record.attrs.update(attrs)
        self._span.set(**attrs)

    def cache(self, hit: bool) -> None:
        """Record one result-cache lookup (hit or miss)."""
        self.record.cache_lookups += 1
        if hit:
            self.record.cache_hits += 1

    def cache_batch(self, hits: int, lookups: int) -> None:
        """Record a batch's aggregate result-cache attribution."""
        self.record.cache_hits += hits
        self.record.cache_lookups += lookups


class _NullRequest:
    """Shared do-nothing handle for the telemetry-disabled fast path."""

    __slots__ = ()
    record = None

    def set(self, **attrs: Any) -> None:
        pass

    def cache(self, hit: bool) -> None:
        pass

    def cache_batch(self, hits: int, lookups: int) -> None:
        pass


_NULL_REQUEST = _NullRequest()


class QueryTelemetry:
    """Per-query request contexts, sampling, slow-query log, event window.

    Thread-safe: id allocation, the sampling RNG and appends to the event
    window share one small lock, and the slow-query log locks
    internally.  The window is a bounded deque; nothing prunes it,
    readers filter by timestamp.  ``dropped_ts`` is the timestamp of the
    newest event the cap evicted (-inf until the window first overflows).
    """

    def __init__(
        self,
        enabled: bool = False,
        sample_rate: float = 0.05,
        slow_ms: float = 100.0,
        slowlog_capacity: int = 32,
        slos: Optional[Sequence[SLO]] = None,
        seed: Optional[int] = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        if slow_ms < 0:
            raise ValueError(f"slow_ms must be >= 0, got {slow_ms}")
        self.enabled = enabled
        self.sample_rate = sample_rate
        self.slow_ms = slow_ms
        self.slowlog = SlowQueryLog(capacity=slowlog_capacity)
        self.slos: List[SLO] = list(DEFAULT_SLOS if slos is None else slos)
        self._ids = itertools.count(1)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=_MAX_WINDOW_EVENTS)
        self.dropped_ts = float("-inf")
        self._owned_tracer = None
        if enabled:
            self._ensure_tracer()

    # -- lifecycle -------------------------------------------------------------------

    def _ensure_tracer(self) -> None:
        """Make sure spans are recorded somewhere while telemetry is on.

        Reuses an externally installed tracer (CLI ``--trace-out``) when
        one is active; otherwise installs one of its own, whose roots are
        discarded per request so an always-on server never accumulates
        span trees outside the bounded slow-query log.
        """
        if current_tracer() is None:
            self._owned_tracer = start_tracing()

    def disable(self) -> None:
        """Turn request capture off and drop a telemetry-owned tracer."""
        from repro.obs.trace import stop_tracing

        self.enabled = False
        if (
            self._owned_tracer is not None
            and current_tracer() is self._owned_tracer
        ):
            stop_tracing()
        self._owned_tracer = None

    # -- the request context ---------------------------------------------------------

    @contextmanager
    def request(
        self, kind: str, query: str = "", queries: int = 1, **attrs: Any
    ) -> Iterator:
        """Wrap one query-path call; yields the request handle.

        ``kind`` selects the latency histogram and names the root span
        ``request.<kind>``; extra ``attrs`` land on both the record and
        the span.  Exceptions are counted, recorded, and re-raised.
        """
        registry = get_registry()
        latency = registry.histogram(
            _LATENCY_METRIC.get(kind, _FALLBACK_LATENCY_METRIC)
        )
        started = time.perf_counter()
        if not self.enabled:
            # Disabled fast path: no ids, no sampling, no span capture
            # beyond whatever tracer the caller installed themselves.
            try:
                yield _NULL_REQUEST
            except BaseException:
                registry.counter("search.request.errors").inc()
                raise
            finally:
                registry.counter("search.request.queries").inc()
                latency.observe(time.perf_counter() - started)
            return

        with self._lock:
            query_id = f"q-{next(self._ids):06d}"
            sampled = self._rng.random() < self.sample_rate
        record = QueryRecord(
            query_id=query_id, kind=kind, query=query,
            attrs=dict(attrs), sampled=sampled, queries=queries,
        )
        tracer = current_tracer()
        if tracer is None:  # an external tracer was stopped mid-flight
            self._ensure_tracer()
            tracer = current_tracer()
        owns_tracer = tracer is self._owned_tracer
        try:
            with span(
                f"request.{kind}", query_id=query_id, query=record.query,
                **attrs,
            ) as root:
                record.root = root
                yield _ActiveRequest(record, root)
        except BaseException as error:
            record.error = f"{type(error).__name__}: {error}"
            registry.counter("search.request.errors").inc()
            raise
        finally:
            record.duration_s = time.perf_counter() - started
            record.slow = record.duration_ms >= self.slow_ms
            registry.counter("search.request.queries").inc()
            latency.observe(record.duration_s)
            if owns_tracer and record.root is not None:
                tracer.discard_root(record.root)
            self._finish(record, registry)

    def _finish(self, record: QueryRecord, registry) -> None:
        if record.sampled:
            registry.counter("telemetry.request.sampled").inc()
        if record.slow:
            registry.counter("telemetry.request.slow").inc()
        if record.sampled or record.slow or record.error is not None:
            if self.slowlog.offer(record):
                registry.counter("telemetry.slowlog.captured").inc()
        attrs = record.attrs
        hits = attrs.get("hits")
        top_score = attrs.get("top_score")
        event = QueryEvent(
            ts=time.monotonic(),
            kind=record.kind,
            duration_s=record.duration_s / max(record.queries, 1),
            queries=record.queries,
            error=record.error is not None,
            cache_hits=record.cache_hits,
            cache_lookups=record.cache_lookups,
            function=attrs.get("function", "unknown"),
            query=record.query,
            hits=hits,
            top_score=top_score,
        )
        with self._lock:  # the eviction check and the append are one step
            if len(self._events) == self._events.maxlen:
                self.dropped_ts = self._events[0].ts
            self._events.append(event)
        registry.counter("search.analytics.queries").inc()
        if hits is not None:
            registry.histogram("search.analytics.results").observe(hits)
            if hits == 0:
                registry.counter("search.analytics.zero_results").inc()
        if top_score is not None:
            registry.histogram("search.analytics.top_score").observe(top_score)

    # -- SLO evaluation --------------------------------------------------------------

    def events(self) -> List[QueryEvent]:
        """A snapshot of the rolling event window (oldest first)."""
        return list(self._events)

    def slo_statuses(self, now: Optional[float] = None) -> List:
        """Every declared SLO evaluated over the current window."""
        if now is None:
            now = time.monotonic()
        return evaluate_slos(self.slos, self.events(), now, self.dropped_ts)

    # -- export ----------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The ``--telemetry-out`` dump shape (JSON-able)."""
        return {
            "enabled": self.enabled,
            "sample_rate": self.sample_rate,
            "slow_ms": self.slow_ms,
            "slowlog_capacity": self.slowlog.capacity,
            "window_events": len(self._events),
            "slowlog": self.slowlog.to_dicts(),
            "slo": [status.to_dict() for status in self.slo_statuses()],
        }

    def dump(self, path) -> None:
        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


_telemetry = QueryTelemetry()
_telemetry_lock = threading.Lock()


def get_telemetry() -> QueryTelemetry:
    """The process-wide telemetry the query path records into."""
    return _telemetry


def configure_telemetry(**kwargs: Any) -> QueryTelemetry:
    """Install (and return) a freshly configured process-wide telemetry.

    Accepts the :class:`QueryTelemetry` constructor arguments; the
    previous instance is disabled first so a tracer it owned does not
    leak.
    """
    global _telemetry
    with _telemetry_lock:
        _telemetry.disable()
        _telemetry = QueryTelemetry(**kwargs)
        return _telemetry


def reset_telemetry() -> QueryTelemetry:
    """Back to the disabled default (test isolation / end of a run)."""
    return configure_telemetry()
