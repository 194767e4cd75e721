"""Online ranking-quality observability: query analytics + shadow scoring.

Two serving-side views of live traffic, both surfaced by the search
service's ``GET /analytics`` endpoint and the ``repro obs analytics`` CLI:

- :func:`summarize_queries` -- a pure function over the request-telemetry
  event window (:meth:`repro.obs.request.QueryTelemetry.events`, the same
  window ``/slo`` reads): query volume per endpoint kind and score
  function, zero-result rate, top query terms, result-count and top-score
  distributions over the last :data:`WINDOW_S` seconds.
  :func:`export_query_gauges` is the scrape-time collector that exports
  the window's volumes as ``search.analytics.*`` gauges; the matching
  counters and histograms are recorded by the telemetry itself.

- :class:`ShadowScorer` -- samples a configurable fraction of live
  ``/search`` traffic and re-scores it *off-thread* under one or more
  non-primary registered score functions, recording the rank agreement
  (Jaccard@k, Kendall tau on the top-k; :mod:`repro.obs.quality`)
  between the primary and each shadow ranking as ``search.shadow.*``
  histograms -- the paper's offline function comparison run continuously
  against production traffic.  Shadow queries go straight to the
  captured :class:`~repro.serving.view.ServingView`'s engines, bypassing
  the pipeline, so they never pollute telemetry, analytics, or the
  result cache, and never recurse into the sampler.

The hot-path cost is bounded by construction: with no shadow functions
configured :meth:`ShadowScorer.offer` is one attribute check, and with
sampling active it is an RNG draw plus a non-blocking queue put (full
queue = drop + count, never block).
"""

from __future__ import annotations

import queue
import random
import re
import threading
import time
from collections import Counter, deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.obs.logs import get_logger
from repro.obs.metrics import get_registry
from repro.obs.quality import compare_rankings
from repro.obs.slo import QueryEvent

__all__ = [
    "ShadowScorer",
    "export_query_gauges",
    "render_analytics",
    "summarize_queries",
]

_log = get_logger("serving.analytics")

#: Seconds of telemetry events ``/analytics`` and its gauges look back.
WINDOW_S = 300.0

#: Most frequent query terms ``/analytics`` reports.
TOP_TERMS = 10

#: Metric name segments allow ``[a-z0-9_]`` only; anything else in a
#: score-function name is flattened (mirrors scores.<function>.* idiom).
_SEGMENT_SUB = re.compile(r"[^a-z0-9_]+")

_TERM_RE = re.compile(r"[a-z0-9]+")

#: Result-count buckets for the windowed distribution ("0" is the
#: zero-result bucket the rate is computed from).
_RESULT_BUCKETS: Tuple[Tuple[str, int, int], ...] = (
    ("0", 0, 0),
    ("1-2", 1, 2),
    ("3-5", 3, 5),
    ("6-10", 6, 10),
    ("11+", 11, 1 << 62),
)


def _metric_segment(name: str) -> str:
    segment = _SEGMENT_SUB.sub("_", str(name).lower()).strip("_")
    if not segment or not segment[0].isalpha():
        segment = f"fn_{segment}" if segment else "unknown"
    return segment


def _windowed(events: Sequence[QueryEvent], now: float) -> List[QueryEvent]:
    cutoff = now - WINDOW_S
    return [event for event in events if event.ts >= cutoff]


def summarize_queries(
    events: Sequence[QueryEvent],
    now: float,
    dropped_ts: float = float("-inf"),
) -> Dict[str, Any]:
    """The ``/analytics`` payload over the events of the last ``WINDOW_S``.

    ``events`` are oldest first, as :meth:`QueryTelemetry.events` returns
    them; ``dropped_ts`` is the timestamp of the newest event the window
    cap evicted, which sets ``truncated`` when it falls in the window.
    """
    entries = _windowed(events, now)
    by_kind: Dict[str, int] = {}
    by_function: Dict[str, int] = {}
    queries: Counter = Counter()
    counted = zero = 0
    result_buckets = {label: 0 for label, _, _ in _RESULT_BUCKETS}
    scores: List[float] = []
    for entry in entries:
        by_kind[entry.kind] = by_kind.get(entry.kind, 0) + 1
        by_function[entry.function] = by_function.get(entry.function, 0) + 1
        queries[entry.query] += 1
        if entry.hits is not None:
            counted += 1
            if entry.hits == 0:
                zero += 1
            for label, low, high in _RESULT_BUCKETS:
                if low <= entry.hits <= high:
                    result_buckets[label] += 1
                    break
        if entry.top_score is not None:
            scores.append(entry.top_score)
    # Terms of each distinct query once, weighted by its repeats: the
    # same counts, in the same first-seen order, as a pass per event.
    terms: Counter = Counter()
    for query, count in queries.items():
        for term in _TERM_RE.findall(query.lower()):
            terms[term] += count
    span_s = (now - entries[0].ts) if entries else 0.0
    scores.sort()

    def _pct(p: float) -> Optional[float]:
        if not scores:
            return None
        rank = max(int(-(-p * len(scores) // 100)), 1)
        return round(scores[rank - 1], 6)

    return {
        "window_s": WINDOW_S,
        "truncated": dropped_ts >= now - WINDOW_S,
        "queries": len(entries),
        "qps": round(len(entries) / span_s, 3) if span_s > 0 else None,
        "by_kind": by_kind,
        "by_function": by_function,
        "zero_result_rate": round(zero / counted, 6) if counted else None,
        "zero_results": zero,
        "counted_results": counted,
        "top_terms": [
            {"term": term, "count": count}
            for term, count in terms.most_common(TOP_TERMS)
        ],
        "result_counts": result_buckets,
        "top_score": {
            "samples": len(scores),
            "p50": _pct(50),
            "p95": _pct(95),
            "min": round(scores[0], 6) if scores else None,
            "max": round(scores[-1], 6) if scores else None,
        },
    }


def export_query_gauges(events: Sequence[QueryEvent], now: float) -> None:
    """Scrape-time collector: the window's volumes as gauges.

    A function that left the window reads 0, and the zero-result rate
    holds no sample (``None``) while no counted request is in it.
    """
    entries = _windowed(events, now)
    registry = get_registry()
    registry.gauge("search.analytics.window_queries").set(len(entries))
    counted = [entry.hits for entry in entries if entry.hits is not None]
    registry.gauge("search.analytics.zero_result_rate").set(
        counted.count(0) / len(counted) if counted else None
    )
    counts = Counter(
        f"search.analytics.{_metric_segment(entry.function)}.queries"
        for entry in entries
    )
    for name in registry.gauge_names():
        if name.startswith("search.analytics.") and name.endswith(".queries"):
            counts.setdefault(name, 0)
    for name, count in counts.items():
        registry.gauge(name).set(count)


class _ShadowTask:
    __slots__ = (
        "query", "function", "paper_set", "strategy", "threshold",
        "primary_ids", "view",
    )

    def __init__(
        self, query, function, paper_set, strategy, threshold, primary_ids,
        view,
    ):
        self.query = query
        self.function = function
        self.paper_set = paper_set
        self.strategy = strategy
        self.threshold = threshold
        self.primary_ids = primary_ids
        self.view = view


class ShadowScorer:
    """Off-thread shadow re-scoring of sampled live search traffic.

    ``functions`` names the registered score functions to shadow under;
    a task's own primary function is skipped (shadowing a ranking
    against itself is vacuous).  Each sampled request captures the
    :class:`ServingView` it was answered from, so a racing reload can
    never make the shadow comparison cross view generations.

    Agreement lands in per-function histograms
    ``search.shadow.<function>.jaccard`` /
    ``search.shadow.<function>.kendall_tau`` plus counters
    ``search.shadow.{sampled,scored,dropped,errors}``, and a bounded
    per-function recent-agreement window feeds :meth:`snapshot` for the
    ``/analytics`` endpoint.
    """

    def __init__(
        self,
        pipeline,
        functions: Sequence[str],
        sample_rate: float = 0.1,
        k: int = 10,
        queue_depth: int = 64,
        recent: int = 512,
        seed: Optional[int] = None,
    ) -> None:
        from repro import scoring

        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        registered = scoring.function_names()
        unknown = [fn for fn in functions if fn not in registered]
        if unknown:
            raise ValueError(
                f"unknown shadow function(s) {unknown}; registered: "
                f"{tuple(registered)}"
            )
        self.pipeline = pipeline
        self.functions: Tuple[str, ...] = tuple(dict.fromkeys(functions))
        self.sample_rate = sample_rate
        self.k = k
        self._queue: "queue.Queue[Optional[_ShadowTask]]" = queue.Queue(
            maxsize=queue_depth
        )
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        self._recent: Dict[str, Deque] = {
            function: deque(maxlen=recent) for function in self.functions
        }
        self._recent_lock = threading.Lock()
        self._pending = 0
        self._pending_cond = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        self._stopping = False

    @property
    def enabled(self) -> bool:
        return bool(self.functions) and self.sample_rate > 0.0

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> "ShadowScorer":
        if self._thread is not None:
            raise RuntimeError("shadow scorer already started")
        self._stopping = False
        self._thread = threading.Thread(
            target=self._worker, name="repro-shadow-scorer", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stopping = True
        self._queue.put(None)  # wake the worker even when idle
        self._thread.join(timeout=10.0)
        self._thread = None

    def drain(self, timeout_s: float = 10.0) -> bool:
        """Block until every offered task is scored (tests/smoke)."""
        deadline = time.monotonic() + timeout_s
        with self._pending_cond:
            while self._pending > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._pending_cond.wait(remaining)
        return True

    # -- the sampled hot-path hook ---------------------------------------------------

    def offer(
        self,
        query: str,
        function: str,
        paper_set: str,
        strategy: str,
        threshold: float,
        primary_ids: Sequence[str],
        view,
    ) -> bool:
        """Maybe enqueue one live request for shadow scoring.

        Returns True when the request was sampled *and* enqueued.  Never
        blocks: a full queue drops the sample (counted) rather than
        adding latency to the live request.
        """
        if not self.functions:
            return False
        if self.sample_rate < 1.0:
            with self._rng_lock:
                sampled = self._rng.random() < self.sample_rate
            if not sampled:
                return False
        registry = get_registry()
        task = _ShadowTask(
            query=query, function=function, paper_set=paper_set,
            strategy=strategy, threshold=threshold,
            primary_ids=tuple(primary_ids), view=view,
        )
        try:
            self._queue.put_nowait(task)
        except queue.Full:
            registry.counter("search.shadow.dropped").inc()
            return False
        with self._pending_cond:
            self._pending += 1
        registry.counter("search.shadow.sampled").inc()
        return True

    # -- the worker ------------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            task = self._queue.get()
            if task is None:
                if self._stopping:
                    return
                continue
            try:
                self._score(task)
            except Exception as error:  # never kill the worker thread
                get_registry().counter("search.shadow.errors").inc()
                _log.warning(
                    "shadow.score_failed", query=task.query, error=str(error)
                )
            finally:
                with self._pending_cond:
                    self._pending -= 1
                    self._pending_cond.notify_all()

    def _score(self, task: _ShadowTask) -> None:
        registry = get_registry()
        for function in self.functions:
            if function == task.function:
                continue
            engine = task.view.engine(
                function, task.paper_set, task.strategy
            )
            shadow_hits = engine.search(
                task.query, threshold=task.threshold, limit=self.k
            )
            agreement = compare_rankings(
                task.primary_ids,
                [hit.paper_id for hit in shadow_hits],
                k=self.k,
            )
            segment = _metric_segment(function)
            registry.histogram(
                f"search.shadow.{segment}.jaccard"
            ).observe(agreement.jaccard)
            if agreement.kendall_tau is not None:
                registry.histogram(
                    f"search.shadow.{segment}.kendall_tau"
                ).observe(agreement.kendall_tau)
            registry.counter("search.shadow.scored").inc()
            with self._recent_lock:
                self._recent[function].append(agreement)

    # -- reporting -------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Shadow config + recent per-function agreement summaries."""
        per_function: Dict[str, Any] = {}
        with self._recent_lock:
            recent = {
                function: list(window)
                for function, window in self._recent.items()
            }
        for function, agreements in recent.items():
            taus = [
                a.kendall_tau for a in agreements
                if a.kendall_tau is not None
            ]
            per_function[function] = {
                "samples": len(agreements),
                "mean_jaccard": (
                    round(
                        sum(a.jaccard for a in agreements) / len(agreements),
                        6,
                    )
                    if agreements else None
                ),
                "mean_kendall_tau": (
                    round(sum(taus) / len(taus), 6) if taus else None
                ),
                "mean_churn": (
                    round(
                        sum(a.churn for a in agreements) / len(agreements),
                        6,
                    )
                    if agreements else None
                ),
            }
        return {
            "functions": list(self.functions),
            "sample_rate": self.sample_rate,
            "k": self.k,
            "queued": self._queue.qsize(),
            "agreement": per_function,
        }


def render_analytics(payload: Dict[str, Any]) -> str:
    """ASCII rendering of a ``/analytics`` payload (repro obs analytics)."""
    analytics = payload.get("analytics") or {}
    shadow = payload.get("shadow")
    drift = payload.get("drift")
    lines: List[str] = ["query analytics", "==============="]
    window = analytics.get("window_s")
    lines.append(
        f"window                 {window:g}s" if window is not None
        else "window                 -"
    )
    if analytics.get("truncated"):
        lines[-1] += " (truncated: the event cap dropped newer events)"
    lines.append(f"queries                {analytics.get('queries', 0)}")
    qps = analytics.get("qps")
    lines.append(
        f"observed qps           {qps:.3f}" if qps is not None
        else "observed qps           -"
    )
    rate = analytics.get("zero_result_rate")
    lines.append(
        f"zero-result rate       {rate * 100.0:.2f}%"
        f" ({analytics.get('zero_results', 0)}"
        f"/{analytics.get('counted_results', 0)})"
        if rate is not None else "zero-result rate       -"
    )
    for label, mapping in (
        ("by kind", analytics.get("by_kind") or {}),
        ("by function", analytics.get("by_function") or {}),
    ):
        if mapping:
            rendered = "  ".join(
                f"{name}={count}" for name, count in sorted(mapping.items())
            )
            lines.append(f"{label:<22} {rendered}")
    top_terms = analytics.get("top_terms") or []
    if top_terms:
        lines.append(
            "top terms              "
            + "  ".join(
                f"{item['term']}({item['count']})" for item in top_terms
            )
        )
    buckets = analytics.get("result_counts") or {}
    if buckets:
        lines.append(
            "result counts          "
            + "  ".join(f"{label}:{count}" for label, count in buckets.items())
        )
    if shadow:
        lines += ["", "shadow scoring", "=============="]
        lines.append(
            f"functions              {', '.join(shadow.get('functions', []))}"
            f"  (sample_rate={shadow.get('sample_rate')}"
            f" k={shadow.get('k')})"
        )
        for function, stats in sorted(
            (shadow.get("agreement") or {}).items()
        ):
            jaccard = stats.get("mean_jaccard")
            tau = stats.get("mean_kendall_tau")
            lines.append(
                f"  {function:<20} samples={stats.get('samples', 0)}"
                f"  jaccard={'-' if jaccard is None else f'{jaccard:.3f}'}"
                f"  tau={'-' if tau is None else f'{tau:.3f}'}"
            )
    if drift:
        lines += ["", "last reload drift", "================="]
        lines.append(
            f"max churn              {drift.get('max_churn')}"
            f"  (k={drift.get('k')})"
        )
        for entry in drift.get("functions", []):
            tau = entry.get("mean_kendall_tau")
            lines.append(
                f"  {entry.get('function', '?'):<20}"
                f" churn={entry.get('churn')}"
                f"  jaccard={entry.get('mean_jaccard')}"
                f"  tau={'-' if tau is None else tau}"
                f"  queries={entry.get('queries')}"
            )
    return "\n".join(lines)
