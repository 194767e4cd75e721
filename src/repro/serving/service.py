"""The HTTP search service: ranking-as-a-service over a ServingView.

:class:`SearchService` mounts the query endpoints on the same listener
as the observability routes it inherits from
:class:`~repro.obs.server.ExpositionServer` (``/metrics``, ``/health``,
``/slo``, ``/slowlog``), so one ``repro serve`` process is scrapeable
and searchable at once:

- ``GET /search``          -- merged context-based rankings
  (``q``, ``score_function``, ``paper_set``, ``top_k``, ``threshold``,
  ``selection_strategy``, repeatable ``context``);
- ``GET /search_grouped``  -- rankings grouped per selected context
  (``q``, ``score_function``, ``paper_set``, ``top_k``,
  ``max_contexts``, ``threshold``);
- ``GET /explain``         -- relevancy decomposition for one
  (``q``, ``paper_id``) pair;
- ``POST /admin/reload``   -- zero-downtime serving-view swap via
  :meth:`~repro.pipeline.Pipeline.refresh`; searches racing the swap
  keep serving from the snapshot they grabbed;
- ``POST /admin/ingest``   -- incremental corpus delta
  (JSON body ``{"add": [...], "remove": [...]}``) applied through
  :meth:`SubstrateStore.apply_delta`, then the same drift-gated view
  swap as a reload (409 + ``?force=1`` on refusal).

Every search endpoint answers through the *pipeline* (result cache,
request telemetry, SLO events included), so an HTTP ranking is
byte-identical to the same :meth:`Pipeline.search` call in process --
the property ``tests/test_serving_service.py`` pins.

**Admission control.**  ``ThreadingHTTPServer`` spawns one thread per
connection; unbounded, a traffic spike turns into unbounded threads all
contending for the GIL and every request slowing down together.  The
:class:`AdmissionController` bounds that: at most ``max_in_flight``
requests execute concurrently, at most ``queue_depth`` more wait their
turn, and everything beyond is shed immediately with ``429`` and a
``Retry-After`` header -- degraded throughput never becomes degraded
latency for the requests that are accepted.  Observability routes are
exempt so a saturated service can still be scraped and health-checked.

Metrics (catalogued in ``docs/observability.md``): per-endpoint latency
histograms ``serving.http.<endpoint>.latency``, counters
``serving.http.{requests,accepted,shed,bad_request}``, gauge
``serving.http.in_flight``.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import scoring
from repro.core.search import (
    ContextResultGroup,
    RankingExplanation,
    SearchHit,
    SELECTION_STRATEGIES,
)
from repro.obs import get_registry, get_telemetry
from repro.obs.quality import DriftExceeded
from repro.obs.server import ExpositionServer, Response, json_response
from repro.serving.analytics import QueryAnalytics, ShadowScorer

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "BadRequest",
    "SearchService",
    "explanation_to_dict",
    "group_to_dict",
    "hit_to_dict",
]


class AdmissionRejected(Exception):
    """Raised inside the service when admission sheds a request."""

    def __init__(self, retry_after_s: float) -> None:
        super().__init__(
            f"server saturated; retry after {retry_after_s:g}s"
        )
        self.retry_after_s = retry_after_s


class BadRequest(Exception):
    """Raised by parameter parsing; becomes a 400 JSON error."""


class AdmissionController:
    """Bounded concurrency: ``max_in_flight`` running + ``queue_depth`` waiting.

    Two semaphores implement the policy without a dispatcher thread:
    ``_slots`` (capacity ``max_in_flight + queue_depth``) is acquired
    *non-blocking* -- failure means the request is shed before any work
    happens; ``_running`` (capacity ``max_in_flight``) is then acquired
    blocking, so the handler threads beyond the in-flight bound *are*
    the queue, and FIFO-ish draining comes from semaphore wakeup order.
    Sheds and accepts are counted (``serving.http.{shed,accepted}``),
    the running count is exported as ``serving.http.in_flight``.
    """

    def __init__(
        self,
        max_in_flight: int = 8,
        queue_depth: int = 16,
        retry_after_s: float = 1.0,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        if queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0, got {queue_depth}")
        if retry_after_s <= 0:
            raise ValueError(
                f"retry_after_s must be positive, got {retry_after_s}"
            )
        self.max_in_flight = max_in_flight
        self.queue_depth = queue_depth
        self.retry_after_s = retry_after_s
        self._slots = threading.Semaphore(max_in_flight + queue_depth)
        self._running = threading.Semaphore(max_in_flight)
        self._in_flight = 0
        self._lock = threading.Lock()

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def _track(self, delta: int) -> None:
        with self._lock:
            self._in_flight += delta
            value = self._in_flight
        get_registry().gauge("serving.http.in_flight").set(value)

    @contextmanager
    def admit(self) -> Iterator[None]:
        """Hold one admission slot; raises :class:`AdmissionRejected` when full."""
        registry = get_registry()
        if not self._slots.acquire(blocking=False):
            registry.counter("serving.http.shed").inc()
            raise AdmissionRejected(self.retry_after_s)
        try:
            with self._running:
                registry.counter("serving.http.accepted").inc()
                self._track(+1)
                try:
                    yield
                finally:
                    self._track(-1)
        finally:
            self._slots.release()


# -- canonical JSON shapes (shared by the service and its parity tests) --------------


def hit_to_dict(hit: SearchHit) -> Dict[str, Any]:
    """One merged search result, byte-stable across service and pipeline."""
    return {
        "paper_id": hit.paper_id,
        "context_id": hit.context_id,
        "relevancy": hit.relevancy,
        "prestige": hit.prestige,
        "matching": hit.matching,
    }


def group_to_dict(group: ContextResultGroup) -> Dict[str, Any]:
    return {
        "context_id": group.context_id,
        "selection_strength": group.selection_strength,
        "hits": [hit_to_dict(hit) for hit in group.hits],
    }


def explanation_to_dict(explanation: RankingExplanation) -> Dict[str, Any]:
    return {
        "query": explanation.query,
        "paper_id": explanation.paper_id,
        "matching": explanation.matching,
        "selected_context_ids": list(explanation.selected_context_ids),
        "in_selected_contexts": [
            {"context_id": cid, "prestige": prestige, "relevancy": relevancy}
            for cid, prestige, relevancy in explanation.in_selected_contexts
        ],
        "best_relevancy": explanation.best_relevancy,
        "retrievable": explanation.retrievable,
    }


# -- query-string parsing ------------------------------------------------------------


def _one(
    params: Dict[str, List[str]], name: str, default: Optional[str] = None
) -> Optional[str]:
    values = params.get(name)
    if not values:
        return default
    if len(values) > 1:
        raise BadRequest(f"parameter {name!r} given {len(values)} times")
    return values[0]


def _required(params: Dict[str, List[str]], name: str) -> str:
    value = _one(params, name)
    if value is None or not value.strip():
        raise BadRequest(f"missing required parameter {name!r}")
    return value


def _choice(
    params: Dict[str, List[str]],
    name: str,
    choices: Sequence[str],
    default: str,
) -> str:
    value = _one(params, name, default)
    if value not in choices:
        raise BadRequest(
            f"parameter {name!r} must be one of {tuple(choices)}, "
            f"got {value!r}"
        )
    return value


def _int(
    params: Dict[str, List[str]], name: str, default: int, minimum: int = 1
) -> int:
    raw = _one(params, name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise BadRequest(
            f"parameter {name!r} must be an integer, got {raw!r}"
        ) from None
    if value < minimum:
        raise BadRequest(
            f"parameter {name!r} must be >= {minimum}, got {value}"
        )
    return value


def _float(
    params: Dict[str, List[str]], name: str, default: float
) -> float:
    raw = _one(params, name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise BadRequest(
            f"parameter {name!r} must be a number, got {raw!r}"
        ) from None
    if not math.isfinite(value):
        # NaN would serialise as invalid JSON and, never equal to itself,
        # add a result-cache entry no later request can hit.
        raise BadRequest(f"parameter {name!r} must be finite, got {raw!r}")
    return value


class SearchService(ExpositionServer):
    """HTTP search endpoints + admission control over one Pipeline.

    The observability routes of the base class stay mounted (and stay
    *outside* admission control, so health probes and scrapes answer
    even under shed-everything load).  Unless overridden, the gauge
    collector exports the current serving view at every scrape and
    ``/health`` reports the view revision/age and corpus size.
    """

    #: (method, path) -> (endpoint label, admission-controlled?).
    #: ``/ready`` and ``/analytics`` are observability routes: exempt
    #: from admission like the inherited scrape endpoints.
    ROUTES: Dict[Tuple[str, str], Tuple[str, bool]] = {
        ("GET", "/search"): ("search", True),
        ("GET", "/search_grouped"): ("search_grouped", True),
        ("GET", "/explain"): ("explain", True),
        ("GET", "/ready"): ("ready", False),
        ("GET", "/analytics"): ("analytics", False),
        ("POST", "/admin/reload"): ("reload", False),
        ("POST", "/admin/ingest"): ("ingest", False),
    }

    #: Endpoints whose handlers receive the request body as a second
    #: positional argument (the rest keep the ``handler(params)`` shape).
    BODY_ENDPOINTS = frozenset({"ingest"})

    def __init__(
        self,
        pipeline,
        host: str = "127.0.0.1",
        port: int = 8977,
        max_in_flight: int = 8,
        queue_depth: int = 16,
        retry_after_s: float = 1.0,
        collectors: Optional[Sequence[Callable[[], Any]]] = None,
        health_info: Optional[Callable[[], Dict[str, Any]]] = None,
        analytics: Optional[QueryAnalytics] = None,
        shadow_functions: Sequence[str] = (),
        shadow_sample_rate: float = 0.1,
        shadow_k: int = 10,
        shadow_seed: Optional[int] = None,
        ready_max_age_s: Optional[float] = None,
    ) -> None:
        self.pipeline = pipeline
        self.admission = AdmissionController(
            max_in_flight=max_in_flight,
            queue_depth=queue_depth,
            retry_after_s=retry_after_s,
        )
        self.analytics = (
            analytics if analytics is not None else QueryAnalytics()
        )
        self.shadow: Optional[ShadowScorer] = (
            ShadowScorer(
                pipeline,
                shadow_functions,
                sample_rate=shadow_sample_rate,
                k=shadow_k,
                seed=shadow_seed,
            )
            if shadow_functions else None
        )
        self.ready_max_age_s = ready_max_age_s
        if collectors is None:
            collectors = [
                lambda: pipeline.serving_view.export_gauges(),
                self.analytics.export_gauges,
            ]
        if health_info is None:
            health_info = self._default_health_info
        super().__init__(
            host=host, port=port, collectors=collectors,
            health_info=health_info,
        )

    def _default_health_info(self) -> Dict[str, Any]:
        view = self.pipeline.serving_view
        return {
            "view_revision": view.revision,
            "view_age_s": round(view.age_seconds, 3),
            "papers": len(self.pipeline.corpus),
            "in_flight": self.admission.in_flight,
        }

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> "SearchService":
        super().start()
        # Feed the analytics window from the telemetry finish hook; the
        # listener is idempotent to add and detached again on stop.
        get_telemetry().add_listener(self.analytics.observe)
        if self.shadow is not None:
            self.shadow.start()
        return self

    def stop(self) -> None:
        get_telemetry().remove_listener(self.analytics.observe)
        if self.shadow is not None:
            self.shadow.stop()
        super().stop()

    # -- routing ---------------------------------------------------------------------

    def dispatch(
        self,
        method: str,
        path: str,
        params: Dict[str, List[str]],
        body: Optional[str] = None,
    ) -> Optional[Response]:
        route = self.ROUTES.get((method, path))
        if route is None:
            return super().dispatch(method, path, params, body)
        endpoint, admitted = route
        registry = get_registry()
        registry.counter("serving.http.requests").inc()
        started = time.perf_counter()
        try:
            handler = getattr(self, f"_handle_{endpoint}")
            args = (params, body) if endpoint in self.BODY_ENDPOINTS else (params,)
            if admitted:
                with self.admission.admit():
                    response = handler(*args)
            else:
                response = handler(*args)
        except AdmissionRejected as rejected:
            response = json_response(
                {
                    "error": str(rejected),
                    "retry_after_s": rejected.retry_after_s,
                },
                status=429,
                Retry_After=f"{max(int(-(-rejected.retry_after_s // 1)), 1)}",
            )
        except BadRequest as bad:
            registry.counter("serving.http.bad_request").inc()
            response = json_response({"error": str(bad)}, status=400)
        finally:
            registry.histogram(
                f"serving.http.{endpoint}.latency"
            ).observe(time.perf_counter() - started)
        return response

    # -- endpoint handlers -----------------------------------------------------------

    def _handle_search(self, params: Dict[str, List[str]]) -> Response:
        query = _required(params, "q")
        function = _choice(
            params, "score_function", scoring.function_names(), "text"
        )
        paper_set = _choice(
            params, "paper_set", scoring.PAPER_SET_NAMES, "text"
        )
        strategy = _choice(
            params, "selection_strategy", SELECTION_STRATEGIES, "probe"
        )
        top_k = _int(params, "top_k", default=10)
        threshold = _float(params, "threshold", default=0.0)
        contexts = params.get("context") or None
        view = self.pipeline.serving_view
        hits = self.pipeline.search(
            query,
            function=function,
            paper_set_name=paper_set,
            limit=top_k,
            threshold=threshold,
            selection_strategy=strategy,
            contexts=contexts,
        )
        if self.shadow is not None and contexts is None:
            # Context-restricted searches are skipped: a shadow ranking
            # over *all* contexts would not be comparing like with like.
            self.shadow.offer(
                query=query,
                function=function,
                paper_set=paper_set,
                strategy=strategy,
                threshold=threshold,
                primary_ids=[hit.paper_id for hit in hits],
                view=view,
            )
        return json_response(
            {
                "query": query,
                "score_function": function,
                "paper_set": paper_set,
                "selection_strategy": strategy,
                "top_k": top_k,
                "threshold": threshold,
                "contexts": list(contexts) if contexts else None,
                "count": len(hits),
                "hits": [hit_to_dict(hit) for hit in hits],
            }
        )

    def _handle_search_grouped(self, params: Dict[str, List[str]]) -> Response:
        query = _required(params, "q")
        function = _choice(
            params, "score_function", scoring.function_names(), "text"
        )
        paper_set = _choice(
            params, "paper_set", scoring.PAPER_SET_NAMES, "text"
        )
        strategy = _choice(
            params, "selection_strategy", SELECTION_STRATEGIES, "probe"
        )
        top_k = _int(params, "top_k", default=10)
        max_contexts = _int(params, "max_contexts", default=5)
        threshold = _float(params, "threshold", default=0.0)
        groups = self.pipeline.search_grouped(
            query,
            function=function,
            paper_set_name=paper_set,
            max_contexts=max_contexts,
            threshold=threshold,
            per_context_limit=top_k,
            selection_strategy=strategy,
        )
        return json_response(
            {
                "query": query,
                "score_function": function,
                "paper_set": paper_set,
                "selection_strategy": strategy,
                "top_k": top_k,
                "max_contexts": max_contexts,
                "threshold": threshold,
                "count": len(groups),
                "groups": [group_to_dict(group) for group in groups],
            }
        )

    def _handle_explain(self, params: Dict[str, List[str]]) -> Response:
        query = _required(params, "q")
        paper_id = _required(params, "paper_id")
        function = _choice(
            params, "score_function", scoring.function_names(), "text"
        )
        paper_set = _choice(
            params, "paper_set", scoring.PAPER_SET_NAMES, "text"
        )
        strategy = _choice(
            params, "selection_strategy", SELECTION_STRATEGIES, "probe"
        )
        max_contexts = _int(params, "max_contexts", default=5)
        if paper_id not in self.pipeline.corpus:
            raise BadRequest(f"unknown paper_id {paper_id!r}")
        explanation = self.pipeline.explain(
            query,
            paper_id,
            function=function,
            paper_set_name=paper_set,
            selection_strategy=strategy,
            max_contexts=max_contexts,
        )
        payload = explanation_to_dict(explanation)
        payload["score_function"] = function
        payload["paper_set"] = paper_set
        return json_response(payload)

    def _handle_ready(self, params: Dict[str, List[str]]) -> Response:
        """Readiness probe: can this process answer searches *right now*?

        Distinct from the inherited ``/health`` liveness route (which
        answers 200 while the process runs): readiness checks that a
        serving view is present and -- when ``ready_max_age_s`` is set
        -- young enough, and reports the substrate revision so a rollout
        can tell a served-but-stale replica (e.g. one pinned by a
        refused drift-gated reload) from a fresh one.  Not ready = 503.
        """
        view = self.pipeline._serving  # raw slot: a probe never triggers builds
        info: Dict[str, Any] = {
            "view_present": view is not None,
            "view_revision": None if view is None else view.revision,
            "view_age_s": (
                None if view is None else round(view.age_seconds, 3)
            ),
            "max_age_s": self.ready_max_age_s,
            "substrate_revision": self.pipeline.substrates.revision,
        }
        ready = view is not None
        if ready and self.ready_max_age_s is not None:
            ready = view.age_seconds <= self.ready_max_age_s
        info["ready"] = ready
        return json_response(info, status=200 if ready else 503)

    def _handle_analytics(self, params: Dict[str, List[str]]) -> Response:
        """Windowed query analytics + shadow agreement + last reload drift."""
        report = self.pipeline.last_drift_report
        return json_response(
            {
                "analytics": self.analytics.snapshot(),
                "shadow": (
                    None if self.shadow is None else self.shadow.snapshot()
                ),
                "drift": None if report is None else report.to_dict(),
            }
        )

    def _handle_ingest(
        self, params: Dict[str, List[str]], body: Optional[str]
    ) -> Response:
        """Apply a corpus delta to the live substrates, then swap the view.

        Body: JSON object ``{"add": [<paper dicts>], "remove": [<ids>]}``
        (either key optional).  The delta goes through the incremental
        :meth:`SubstrateStore.apply_delta` path, then the serving view is
        refreshed behind the same drift gate as ``/admin/reload``: a
        refused swap answers 409 with the drift report, leaves searches
        pinned to the pre-delta view, and ``?force=1`` overrides.
        """
        from repro.corpus.corpus import CorpusError
        from repro.corpus.paper import Paper

        if not body or not body.strip():
            raise BadRequest("missing JSON body")
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as error:
            raise BadRequest(f"invalid JSON body: {error}") from None
        if not isinstance(payload, dict):
            raise BadRequest("body must be a JSON object")
        unknown = set(payload) - {"add", "remove"}
        if unknown:
            raise BadRequest(
                f"unknown body keys {sorted(unknown)}; expected 'add'/'remove'"
            )
        raw_added = payload.get("add", [])
        removed = payload.get("remove", [])
        if not isinstance(raw_added, list) or not all(
            isinstance(item, dict) for item in raw_added
        ):
            raise BadRequest("'add' must be a list of paper objects")
        if not isinstance(removed, list) or not all(
            isinstance(item, str) for item in removed
        ):
            raise BadRequest("'remove' must be a list of paper-id strings")
        try:
            added = [Paper.from_dict(item) for item in raw_added]
        except (KeyError, TypeError, ValueError) as error:
            raise BadRequest(f"bad paper in 'add': {error}") from None
        force = _one(params, "force", "0") in ("1", "true", "yes")
        try:
            report = self.pipeline.substrates.apply_delta(
                added_papers=added, removed_ids=removed
            )
        except CorpusError as error:
            raise BadRequest(str(error)) from None
        if report.is_noop:
            return json_response(
                {"status": "noop", "report": report.to_dict()}
            )
        try:
            view = self.pipeline.refresh(enforce_drift=not force)
        except DriftExceeded as exceeded:
            return json_response(
                {
                    "status": "refused",
                    "error": str(exceeded),
                    "max_drift": exceeded.max_drift,
                    "drift": exceeded.report.to_dict(),
                    "report": report.to_dict(),
                },
                status=409,
            )
        payload_out: Dict[str, Any] = {
            "status": "ingested",
            "view_revision": view.revision,
            "report": report.to_dict(),
        }
        drift = self.pipeline.last_drift_report
        if drift is not None:
            payload_out["drift"] = drift.to_dict()
        return json_response(payload_out)

    def _handle_reload(self, params: Dict[str, List[str]]) -> Response:
        force = _one(params, "force", "0") in ("1", "true", "yes")
        try:
            view = self.pipeline.refresh(enforce_drift=not force)
        except DriftExceeded as exceeded:
            return json_response(
                {
                    "status": "refused",
                    "error": str(exceeded),
                    "max_drift": exceeded.max_drift,
                    "drift": exceeded.report.to_dict(),
                },
                status=409,
            )
        payload: Dict[str, Any] = {
            "status": "reloaded", "view_revision": view.revision,
        }
        report = self.pipeline.last_drift_report
        if report is not None:
            payload["drift"] = report.to_dict()
        return json_response(payload)
