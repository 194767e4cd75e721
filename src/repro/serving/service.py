"""The HTTP search service: ranking-as-a-service over a ServingView.

:class:`SearchService` is the one HTTP server: the query endpoints and
the observability routes share one listener, so one ``repro serve``
process is scrapeable and searchable at once:

- ``GET /search``          -- merged context-based rankings
  (``q``, ``score_function``, ``paper_set``, ``top_k``, ``threshold``,
  ``selection_strategy``, repeatable ``context``);
- ``GET /search_grouped``  -- rankings grouped per selected context
  (``q``, ``score_function``, ``paper_set``, ``top_k``,
  ``max_contexts``, ``threshold``);
- ``GET /explain``         -- relevancy decomposition for one
  (``q``, ``paper_id``) pair;
- ``GET /metrics``         -- Prometheus text exposition of the
  process-wide registry (:mod:`repro.obs.prom`);
- ``GET /health``          -- JSON liveness: status, uptime, serving-view
  revision/age, corpus size, in-flight count;
- ``GET /slo``             -- declared objectives evaluated over the
  rolling window (:mod:`repro.obs.slo`), with error budgets;
- ``GET /slowlog``         -- the slow-query log (slowest first);
- ``GET /ready``, ``GET /analytics`` -- readiness probe and windowed
  query analytics;
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

**Connection threads.**  Every accepted connection gets a thread at
once, so a slow scraper cannot block a health probe: the most recently
parked idle thread when there is one, else a new one.  A warm server
thus starts no thread on the request path, and threads a burst started
retire after :data:`IDLE_THREAD_TIMEOUT_S` idle.  A socket read that
stalls for ``_Handler.timeout`` ends the connection (``408`` when the
body stalls), so a stalled client frees its thread.  The scrape-time
gauges (view age, cache hit rate, query volumes) are exported at the
top of every ``/metrics`` and ``/health`` request, so they stay current
without a background refresher thread.

**Admission control.**  Unbounded, a traffic spike turns into as many
busy connection threads, all contending for the GIL and every request
slowing down together.  The :class:`AdmissionController` bounds that:
at most ``max_in_flight`` requests execute concurrently, at most
``queue_depth`` more wait their turn, and everything beyond is shed
immediately with ``429`` and a ``Retry-After`` header -- degraded
throughput never becomes degraded latency for the requests that are
accepted.  Observability routes are exempt so a saturated service can
still be scraped and health-checked.

Metrics (catalogued in ``docs/observability.md``): per-endpoint latency
histograms ``serving.http.<endpoint>.latency``, counters
``serving.http.{requests,accepted,shed,bad_request,threads_started}``,
gauges ``serving.http.{in_flight,idle_threads}``.
"""

from __future__ import annotations

import json
import math
import queue
import sys
import threading
import time
import traceback
import urllib.parse
from contextlib import contextmanager
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro import scoring
from repro.core.search import (
    ContextResultGroup,
    RankingExplanation,
    SearchHit,
    SELECTION_STRATEGIES,
)
from repro.obs import get_logger, get_registry, get_telemetry, render_prometheus
from repro.obs.quality import DriftExceeded
from repro.serving.analytics import ShadowScorer, export_query_gauges, summarize_queries

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "BadRequest",
    "Response",
    "SearchService",
    "explanation_to_dict",
    "group_to_dict",
    "hit_to_dict",
    "json_response",
]

_log = get_logger("serving.service")


@dataclass(frozen=True)
class Response:
    """One HTTP response as the dispatch layer produces it."""

    status: int
    content_type: str
    body: str
    headers: Dict[str, str] = field(default_factory=dict)


def json_response(
    payload: Dict[str, Any], status: int = 200, **headers: str
) -> Response:
    """A sorted-key JSON response (the service's canonical encoding)."""
    return Response(
        status=status,
        content_type="application/json",
        body=json.dumps(payload, sort_keys=True) + "\n",
        headers={key.replace("_", "-"): value for key, value in headers.items()},
    )


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


def _query_choices(params: Dict[str, List[str]]) -> Tuple[str, str, str]:
    """The query's ``score_function``, ``paper_set`` and ``selection_strategy``."""
    return (
        _choice(params, "score_function", scoring.function_names(), "text"),
        _choice(params, "paper_set", scoring.PAPER_SET_NAMES, "text"),
        _choice(params, "selection_strategy", SELECTION_STRATEGIES, "probe"),
    )


def _force(params: Dict[str, List[str]]) -> bool:
    """Whether ``?force=1`` asks to swap the view past the drift gate."""
    return _one(params, "force", "0") in ("1", "true", "yes")


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


def _bad_request(error: BadRequest) -> Response:
    """The 400 JSON answer to a malformed request, counted."""
    get_registry().counter("serving.http.bad_request").inc()
    return json_response({"error": str(error)}, status=400)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-obs/1"

    #: Seconds one socket read or write may wait.  A stalled request line
    #: closes the connection; a stalled body answers 408.  Either way the
    #: thread is free for the next connection.
    timeout = 30.0

    def _read_body(self) -> Optional[str]:
        """The decoded request body, or None when there is none.

        Raises :class:`BadRequest` for a malformed ``Content-Length`` or a
        body that is short or not UTF-8, ``TimeoutError`` for a stall.
        """
        declared = self.headers.get("Content-Length")
        if not declared:
            return None
        try:
            length = int(declared)
        except ValueError:
            raise BadRequest(
                f"Content-Length must be an integer, got {declared!r}"
            ) from None
        if length < 0:
            raise BadRequest(f"Content-Length must be >= 0, got {length}")
        if length == 0:
            return None
        raw = self.rfile.read(length)
        if len(raw) < length:
            raise BadRequest(
                f"body ended after {len(raw)} of {length} bytes"
            )
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as error:
            raise BadRequest(f"body is not UTF-8: {error}") from None

    def _handle(self, method: str) -> None:
        service = self.server.service  # type: ignore[attr-defined]
        parsed = urllib.parse.urlsplit(self.path)
        path = parsed.path.rstrip("/") or "/"
        params = urllib.parse.parse_qs(parsed.query)
        try:
            body = self._read_body()
        except BadRequest as bad:
            response = _bad_request(bad)
        except TimeoutError:
            self.close_connection = True
            response = json_response(
                {"error": f"request body not received within {self.timeout:g}s"},
                status=408,
            )
        else:
            try:
                response = service.dispatch(method, path, params, body)
                if response is None:
                    response = json_response(
                        {"error": f"no route {method} {path!r}"}, status=404
                    )
            except Exception as error:  # surface handler bugs to the client
                response = json_response(
                    {"error": f"{type(error).__name__}: {error}"}, status=500
                )
        self._respond(response)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._handle("POST")

    def _respond(self, response: Response) -> None:
        payload = response.body.encode("utf-8")
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args: Any) -> None:
        _log.debug("http.request", detail=format % args)


#: Seconds a parked connection thread waits for its next connection
#: before it exits, so the threads a burst started retire when it ends.
IDLE_THREAD_TIMEOUT_S = 30.0

#: Seconds ``stop()`` waits, in total, for busy connection threads.
_STOP_JOIN_S = 5.0


class _ThreadReusingHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` that hands connections to idle threads.

    Every accepted connection gets a thread at once: the most recently
    parked idle one when there is one, else a new ``repro-http-worker``.
    So no connection waits for a worker and a stalled client holds only
    its own thread, as with a thread per connection, but a warm server
    starts no thread on the request path.  A worker serves one
    connection, parks its inbox on the idle stack and exits when nothing
    arrives within :data:`IDLE_THREAD_TIMEOUT_S`.  ``server_close`` wakes
    and ends every idle worker and waits for the busy ones.
    """

    allow_reuse_address = True  # before bind(): see SearchService

    def __init__(self, address: Tuple[str, int], service: "SearchService") -> None:
        self.service = service
        self._lock = threading.Lock()
        self._idle: List["queue.SimpleQueue"] = []  # parked inboxes, a stack
        self._workers: Set[threading.Thread] = set()
        self._closed = False
        super().__init__(address, _Handler)

    def _export_idle(self) -> None:
        """Set the idle-thread gauge (called holding ``_lock``)."""
        get_registry().gauge("serving.http.idle_threads").set(len(self._idle))

    def process_request(self, request, client_address) -> None:
        with self._lock:
            if self._idle:
                inbox = self._idle.pop()
                self._export_idle()
            else:
                inbox = None
                worker = threading.Thread(
                    target=self._work,
                    args=(request, client_address),
                    name="repro-http-worker",
                    daemon=True,
                )
                self._workers.add(worker)
        if inbox is not None:
            inbox.put((request, client_address))
            return
        try:
            worker.start()
        except RuntimeError:  # no thread to be had; the caller logs it
            with self._lock:
                self._workers.discard(worker)
            raise

    def _work(self, request, client_address) -> None:
        """Serve connections until idle for the timeout or closed.

        Like ``process_request_thread``, but the worker parks *before*
        it closes the finished connection, so a client that reads its
        answer to the end always finds a warm worker for its next one.
        """
        get_registry().counter("serving.http.threads_started").inc()
        inbox: "queue.SimpleQueue" = queue.SimpleQueue()
        job: Optional[Tuple[Any, Any]] = (request, client_address)
        try:
            while job is not None:
                request, client_address = job
                try:
                    self.finish_request(request, client_address)
                except Exception:
                    self.handle_error(request, client_address)
                with self._lock:
                    parked = not self._closed
                    if parked:
                        self._idle.append(inbox)
                        self._export_idle()
                try:
                    self.shutdown_request(request)
                except OSError:  # parked already: this thread must live on
                    self.handle_error(request, client_address)
                job = self._next_job(inbox) if parked else None
        finally:
            with self._lock:
                self._workers.discard(threading.current_thread())

    def _next_job(self, inbox: "queue.SimpleQueue") -> Optional[Tuple[Any, Any]]:
        """The parked worker's next connection; None to exit."""
        try:
            return inbox.get(timeout=IDLE_THREAD_TIMEOUT_S)
        except queue.Empty:
            with self._lock:
                if inbox in self._idle:
                    self._idle.remove(inbox)
                    self._export_idle()
                    return None
            # Popped between the timeout and the lock: a connection (or
            # the close's None) is on its way to this inbox.
            return inbox.get()

    def handle_error(self, request, client_address) -> None:
        """Log a connection's uncaught error instead of printing it."""
        error = sys.exc_info()[1]
        client = f"{client_address[0]}:{client_address[1]}"
        if isinstance(error, ConnectionError):
            _log.info("http.client_disconnected", client=client, error=repr(error))
        else:
            _log.error(
                "http.connection_error",
                client=client,
                error=repr(error),
                traceback=traceback.format_exc(),
            )

    def server_close(self) -> None:
        super().server_close()
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
            self._export_idle()
            workers = list(self._workers)
        for inbox in idle:
            inbox.put(None)
        deadline = time.monotonic() + _STOP_JOIN_S
        for worker in workers:
            worker.join(timeout=max(deadline - time.monotonic(), 0.0))


class SearchService:
    """The HTTP server: search endpoints + admission control over one Pipeline.

    The observability routes stay *outside* admission control, so health
    probes and scrapes answer even under shed-everything load.

    ``port=0`` binds an ephemeral port (tests); the socket is bound in
    the constructor, so :attr:`port` reflects the *actual* bound port
    from construction on -- never the ``0`` that was asked for.
    ``allow_reuse_address`` is set before the bind, so a stop/start
    cycle on the same port cannot intermittently fail with
    ``EADDRINUSE`` while the old socket lingers in ``TIME_WAIT``.
    """

    #: (method, path) -> (endpoint label, admission-controlled?).
    #: The observability routes (``/ready`` through ``/slowlog``) are
    #: exempt from admission.
    ROUTES: Dict[Tuple[str, str], Tuple[str, bool]] = {
        ("GET", "/search"): ("search", True),
        ("GET", "/search_grouped"): ("search_grouped", True),
        ("GET", "/explain"): ("explain", True),
        ("GET", "/ready"): ("ready", False),
        ("GET", "/analytics"): ("analytics", False),
        ("GET", "/metrics"): ("metrics", False),
        ("GET", "/health"): ("health", False),
        ("GET", "/slo"): ("slo", False),
        ("GET", "/slowlog"): ("slowlog", False),
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
        self.started_at = time.monotonic()
        self._httpd = _ThreadReusingHTTPServer((host, port), self)
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The actually-bound port (resolved even when asked for 0)."""
        return self._httpd.server_address[1]

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> "SearchService":
        """Serve in a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("search service already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-http",
            daemon=True,
        )
        self._thread.start()
        _log.info("serving", host=self.host, port=self.port)
        if self.shadow is not None:
            self.shadow.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the port (safe before ``start`` too).

        Every idle connection thread ends; busy ones finish their request
        first (waited for up to 5 s in all).  ``shutdown()`` blocks until ``serve_forever`` acknowledges, so it
        must only run when the serve thread exists -- the socket is bound
        at construction, and a constructed-but-never-started service
        still needs ``stop()`` to release it.
        """
        if self.shadow is not None:
            self.shadow.stop()
        if self._thread is not None:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "SearchService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- routing ---------------------------------------------------------------------

    def dispatch(
        self,
        method: str,
        path: str,
        params: Dict[str, List[str]],
        body: Optional[str] = None,
    ) -> Optional[Response]:
        """Map one request to a :class:`Response`; None means 404.

        ``body`` carries the decoded request body of a POST (None when
        absent); only :attr:`BODY_ENDPOINTS` read it.
        """
        route = self.ROUTES.get((method, path))
        if route is None:
            return None
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
            response = _bad_request(bad)
        finally:
            registry.histogram(
                f"serving.http.{endpoint}.latency"
            ).observe(time.perf_counter() - started)
        return response

    # -- endpoint handlers -----------------------------------------------------------

    def _handle_search(self, params: Dict[str, List[str]]) -> Response:
        query = _required(params, "q")
        function, paper_set, strategy = _query_choices(params)
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
        function, paper_set, strategy = _query_choices(params)
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
        function, paper_set, strategy = _query_choices(params)
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

    def _collect(self) -> None:
        """Export the scrape-time gauges; a failing collector is logged, not raised."""
        collectors = (
            ("view_gauges", lambda: self.pipeline.serving_view.export_gauges()),
            (
                "query_gauges",
                lambda: export_query_gauges(
                    get_telemetry().events(), time.monotonic()
                ),
            ),
        )
        for name, collect in collectors:
            try:
                collect()
            except Exception as error:
                _log.warning("collector.failed", collector=name, error=str(error))

    def _health_info(self) -> Dict[str, Any]:
        view = self.pipeline.serving_view
        return {
            "view_revision": view.revision,
            "view_age_s": round(view.age_seconds, 3),
            "papers": len(self.pipeline.corpus),
            "in_flight": self.admission.in_flight,
        }

    def _handle_metrics(self, params: Dict[str, List[str]]) -> Response:
        self._collect()
        return Response(
            status=200,
            content_type="text/plain; version=0.0.4; charset=utf-8",
            body=render_prometheus(get_registry().snapshot()),
        )

    def _handle_health(self, params: Dict[str, List[str]]) -> Response:
        """Liveness: answers 200 while the process runs, ``degraded`` on a
        failed view lookup."""
        self._collect()
        info: Dict[str, Any] = {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self.started_at, 3),
        }
        try:
            info.update(self._health_info())
        except Exception as error:
            info["status"] = "degraded"
            info["error"] = f"{type(error).__name__}: {error}"
        return json_response(info)

    def _handle_slo(self, params: Dict[str, List[str]]) -> Response:
        statuses = [status.to_dict() for status in get_telemetry().slo_statuses()]
        return json_response({"slo": statuses})

    def _handle_slowlog(self, params: Dict[str, List[str]]) -> Response:
        return json_response({"slowlog": get_telemetry().slowlog.to_dicts()})

    def _handle_ready(self, params: Dict[str, List[str]]) -> Response:
        """Readiness probe: can this process answer searches *right now*?

        Distinct from the ``/health`` liveness route (which
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
        telemetry = get_telemetry()
        return json_response(
            {
                "analytics": summarize_queries(
                    telemetry.events(), time.monotonic(), telemetry.dropped_ts
                ),
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
        force = _force(params)
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
        return self._swap_view(force, "ingested", report=report.to_dict())

    def _handle_reload(self, params: Dict[str, List[str]]) -> Response:
        return self._swap_view(_force(params), "reloaded")

    def _swap_view(self, force: bool, status: str, **fields: Any) -> Response:
        """Refresh the serving view behind the drift gate (``force`` skips it).

        A refused swap answers 409 ``refused`` with the drift report and
        ``max_drift``; a swap answers ``status`` with the new view
        revision and the drift report when one was measured.  Both carry
        ``fields``.
        """
        try:
            view = self.pipeline.refresh(enforce_drift=not force)
        except DriftExceeded as exceeded:
            return json_response(
                {
                    "status": "refused",
                    "error": str(exceeded),
                    "max_drift": exceeded.max_drift,
                    "drift": exceeded.report.to_dict(),
                    **fields,
                },
                status=409,
            )
        payload: Dict[str, Any] = {
            "status": status, "view_revision": view.revision, **fields,
        }
        drift = self.pipeline.last_drift_report
        if drift is not None:
            payload["drift"] = drift.to_dict()
        return json_response(payload)
