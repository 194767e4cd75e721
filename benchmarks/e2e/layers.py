"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps the calls into each layer of the program -- the
service, telemetry, pipeline, serving view, index, context search,
workspace, substrate store and context assignment -- and records one
span per call: name, start, end, and the time its child spans on the
same thread cover, so that a span's *self time* is its duration minus
its children.  Spans stay in memory until the run ends; the ``repro
serve`` child of ``search_hot`` writes its spans to a file at exit.

:func:`summarise` attributes spans to the benchmark's operation windows
(a span belongs to the window its start falls in; client and server
share the system monotonic clock), converts them to reference
milliseconds with the window's calibration factor, and derives the
per-layer metrics declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import functools
import json
import os
import statistics
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Workspace artifacts, in build order (per-artifact load/build metrics).
ARTIFACTS = (
    "index", "tokens", "vectors", "citation_graph", "text_paper_set",
    "pattern_paper_set", "representatives", "scores_text_text",
    "scores_citation_text", "scores_citation_pattern",
    "scores_pattern_pattern", "scores_combined_text",
)
#: Score functions that own an evaluation arm.
FUNCTIONS = ("text", "citation", "pattern", "combined")
STRATEGIES = ("probe", "name", "representative")


class Span:
    __slots__ = ("name", "start", "end", "child_s", "parent", "counts")

    def __init__(self, name: str, start: float, parent: Optional["Span"]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.parent = parent
        self.counts: Dict[str, float] = {}

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def to_row(self) -> list:
        return [self.name, self.start, self.end, self.child_s, self.counts]

    @classmethod
    def from_row(cls, row: Sequence) -> "Span":
        span = cls(row[0], row[1], None)
        span.end, span.child_s, span.counts = row[2], row[3], dict(row[4])
        return span


@dataclasses.dataclass(frozen=True)
class Window:
    """One timed operation of the benchmark: spans starting in it are its own."""

    kind: str  # "setup" | "op" | "delta" | "read"
    start: float
    end: float
    factor: float  # K_REF / K_now over the window

    @property
    def ref_ms(self) -> float:
        return (self.end - self.start) * 1000.0 * self.factor


class Tracer:
    """Records spans from wrappers installed around the program's layer calls."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start
        self.spans.append(span)

    def leaf(self, name: str, start: float, end: float) -> None:
        stack = self._stack()
        span = Span(name, start, stack[-1] if stack else None)
        span.end = end
        if span.parent is not None:
            span.parent.child_s += end - start
        self.spans.append(span)

    def count(self, key: str, amount: float = 1) -> None:
        """Add to a count on the innermost open span of this thread."""
        stack = self._stack()
        if stack:
            counts = stack[-1].counts
            counts[key] = counts.get(key, 0) + amount

    # -- wrapping ----------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, replacement)

    def traced(self, name: "str | Callable[..., str]", fn: Callable,
               on_result: Optional[Callable] = None) -> Callable:
        """``fn``, recording a span around every call.

        ``name`` may be a function of the call's arguments;
        ``on_result(span, args, result)`` may add counts to the span.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name if isinstance(name, str) else name(*args))
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(span, args, result)
                return result
            finally:
                tracer.end(span)

        return wrapper

    def wrap(self, owner, attr: str, name: "str | Callable[..., str]",
             on_result: Optional[Callable] = None) -> None:
        """Record a span around every call of ``owner.attr``."""
        self._patch(owner, attr, self.traced(name, getattr(owner, attr), on_result))

    def wrap_context(self, owner, attr: str, name: str, on_exit: bool) -> None:
        """Record the enter (and optionally exit) of a context-manager method."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        @contextlib.contextmanager
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            manager = original(*args, **kwargs)
            value = manager.__enter__()
            tracer.leaf(name, started, time.perf_counter())
            try:
                yield value
            except BaseException:
                if not manager.__exit__(*sys.exc_info()):
                    raise
            else:
                started = time.perf_counter()
                manager.__exit__(None, None, None)
                if on_exit:
                    tracer.leaf(name, started, time.perf_counter())

        self._patch(owner, attr, wrapper)

    def install(self) -> "Tracer":
        """Wrap every layer boundary the per-layer metrics read."""
        from repro import pipeline, workspace
        from repro.core import assignment, search
        from repro.index import search as index_search
        from repro.obs import request
        from repro.serving import service, substrate, view
        from repro.workspace import artifact, builder

        self.wrap(
            service.SearchService, "dispatch",
            lambda self_, method, path, *rest: (
                "service.dispatch" if path == "/search" else "service.other"
            ),
        )
        self.wrap_context(
            service.AdmissionController, "admit", "service.admission", False
        )
        self.wrap(service, "json_response", "service.json")
        self.wrap_context(request.QueryTelemetry, "request", "obs.telemetry", True)
        self.wrap(pipeline.Pipeline, "search", "pipeline.search")
        self.wrap(pipeline.Pipeline, "search_many", "pipeline.search_many")
        self.wrap(view.ServingView, "engine", "view.engine")
        self.wrap(view.SearchResultCache, "get", "view.cache_get", _count_lookup)
        self.wrap(
            index_search.KeywordSearchEngine, "evaluate", "index.evaluate",
            _count_evaluation,
        )
        self.wrap(
            search.ContextSearchEngine, "_select_contexts",
            lambda engine, *rest: f"search.select.{engine.selection_strategy}",
        )
        self.wrap(search.ContextSearchEngine, "search", "search.run")
        self.wrap(search.ContextSearchEngine, "search_many", "search.batch")
        matches = search.ContextSearchEngine._context_matches
        tracer = self

        def counted_matches(context, match_scores):
            for pair in matches(context, match_scores):
                tracer.count("scored")
                yield pair

        self._patch(
            search.ContextSearchEngine, "_context_matches",
            staticmethod(counted_matches),
        )
        self.wrap(
            builder, "_load_artifact",
            lambda pipeline_, directory, name: f"workspace.load.{name}",
        )
        self.wrap(workspace, "ingest_delta", "workspace.ingest")
        self.wrap(builder.WorkspaceBuilder, "build", "workspace.builder")
        derive = artifact._derive_artifacts

        def traced_artifacts():
            return {
                name: dataclasses.replace(
                    node,
                    build=self.traced(f"workspace.build.{name}", node.build),
                    save=self.traced(
                        f"workspace.build.{name}", node.save, _count_bytes
                    ),
                )
                for name, node in derive().items()
            }

        self._patch(artifact, "_derive_artifacts", traced_artifacts)
        artifact.ARTIFACTS._cached_revision = None
        self.wrap(substrate.SubstrateStore, "apply_delta", "substrate.apply_delta")
        self.wrap(
            substrate.SubstrateStore, "_compute_prestige",
            lambda store, function, *rest: f"substrate.prestige.{function}",
        )
        self.wrap(
            assignment.PatternContextAssigner, "build", "assignment.pattern_build"
        )
        self.wrap(assignment.TextContextAssigner, "build", "assignment.text_build")
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute (most recent first)."""
        from repro.workspace import artifact

        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        artifact.ARTIFACTS._cached_revision = None

    # -- persistence (the serve child) --------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.to_row() for span in self.spans], handle)

    @staticmethod
    def load(path: str) -> List[Span]:
        with open(path, "r", encoding="utf-8") as handle:
            return [Span.from_row(row) for row in json.load(handle)]


def _count_lookup(span: Span, args, result) -> None:
    cache = args[0]
    if cache.enabled:
        span.counts["lookups"] = 1
        span.counts["hits"] = 1 if result is not None else 0


def _count_bytes(span: Span, args, result) -> None:
    span.counts["bytes"] = os.path.getsize(args[1])


def _count_evaluation(span: Span, args, result) -> None:
    span.counts["postings"] = result.postings_scanned
    span.counts["matches"] = len(result.scores)


# -- summary ------------------------------------------------------------------------


class _Attribution:
    """Spans grouped by the window their start falls in."""

    def __init__(self, spans: Iterable[Span], windows: Sequence[Window]) -> None:
        self.windows = sorted(windows, key=lambda w: w.start)
        starts = [w.start for w in self.windows]
        self.by_window: List[List[Span]] = [[] for _ in self.windows]
        for span in spans:
            index = bisect.bisect_right(starts, span.start) - 1
            if index >= 0 and span.start < self.windows[index].end:
                self.by_window[index].append(span)

    def of_kind(self, kinds: Tuple[str, ...]):
        for window, spans in zip(self.windows, self.by_window):
            if window.kind in kinds:
                yield window, spans

    def per_window_ms(self, kinds, match: Callable[[str], bool],
                      present: bool = False) -> List[float]:
        """Reference ms of self time in matching spans, per window.

        ``present``: only windows holding a matching span (a request on
        another selection strategy says nothing about this one).
        """
        return [
            sum(s.self_s for s in spans if match(s.name)) * 1000.0 * window.factor
            for window, spans in self.of_kind(kinds)
            if not present or any(match(s.name) for s in spans)
        ]

    def share(self, kinds, match: Callable[[str], bool]) -> float:
        total = sum(window.ref_ms for window, _ in self.of_kind(kinds))
        if not total:
            return 0.0
        return sum(self.per_window_ms(kinds, match)) / total

    def counts(self, kinds, name: str, key: str) -> float:
        return sum(
            s.counts.get(key, 0)
            for _, spans in self.of_kind(kinds)
            for s in spans
            if s.name == name
        )

    def calls(self, kinds, name: str) -> int:
        return sum(
            1 for _, spans in self.of_kind(kinds) for s in spans if s.name == name
        )


def _p50(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def summarise(
    spans: Iterable[Span],
    windows: Sequence[Window],
    trace_overhead: float,
    over_http: bool,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics plus the layer-attribution checks of the run.

    ``over_http``: requests crossed a socket, so the part of a request's
    latency outside the server's dispatch is transport.
    """
    attribution = _Attribution(spans, windows)
    query = ("op", "read")
    delta = ("delta",)
    setup = ("setup",)
    metrics: Dict[str, float] = {}

    def p50_ms(kinds, match) -> float:
        return _p50(attribution.per_window_ms(kinds, match, present=True))

    def timing(metric: str, kinds, match) -> None:
        metrics[f"{metric}_ms"] = p50_ms(kinds, match)
        metrics[f"{metric}_share"] = attribution.share(kinds, match)

    exact = lambda *names: (lambda name: name in names)  # noqa: E731
    prefix = lambda start: (lambda name: name.startswith(start))  # noqa: E731

    timing("service.dispatch_self", query, exact("service.dispatch"))
    timing("service.admission_wait", query, exact("service.admission"))
    timing("service.json", query, exact("service.json"))
    transport = [
        window.ref_ms
        - sum(s.duration_s for s in spans if s.name == "service.dispatch")
        * 1000.0 * window.factor
        for window, spans in attribution.of_kind(query)
        if over_http
    ]
    metrics["http.transport_ms"] = _p50(transport)
    query_ref = sum(window.ref_ms for window, _ in attribution.of_kind(query))
    metrics["http.transport_share"] = sum(transport) / query_ref if query_ref else 0.0
    timing("obs.telemetry", query, exact("obs.telemetry"))
    timing(
        "pipeline.search_self", query,
        exact("pipeline.search", "pipeline.search_many"),
    )
    lookups = attribution.counts(query, "view.cache_get", "lookups")
    hits = attribution.counts(query, "view.cache_get", "hits")
    metrics["view.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["view.cache_lookups"] = lookups
    metrics["view.engine_build_ms"] = p50_ms(setup, exact("view.engine"))
    timing("index.evaluate", query, exact("index.evaluate"))
    calls = attribution.calls(query, "index.evaluate")
    metrics["index.evaluate_calls"] = calls
    metrics["index.postings_per_query"] = (
        attribution.counts(query, "index.evaluate", "postings") / calls if calls else 0.0
    )
    metrics["index.matches_per_query"] = (
        attribution.counts(query, "index.evaluate", "matches") / calls if calls else 0.0
    )
    for strategy in STRATEGIES:
        metrics[f"search.select_ms.{strategy}"] = p50_ms(
            query, exact(f"search.select.{strategy}")
        )
    metrics["search.select_share"] = attribution.share(query, prefix("search.select."))
    timing("search.score_merge", query, exact("search.run"))
    runs = attribution.calls(query, "search.run")
    metrics["search.papers_scored_per_query"] = (
        attribution.counts(query, "search.run", "scored") / runs if runs else 0.0
    )
    batch_s = sum(
        s.duration_s for _, spans in attribution.of_kind(query)
        for s in spans if s.name == "search.batch"
    )
    run_s = sum(
        s.duration_s for _, spans in attribution.of_kind(query)
        for s in spans if s.name == "search.run"
    )
    metrics["batch.concurrency"] = run_s / batch_s if batch_s else 0.0
    for name in ARTIFACTS:
        metrics[f"workspace.load.{name}_ms"] = p50_ms(
            setup, exact(f"workspace.load.{name}")
        )
    metrics["workspace.load_share"] = attribution.share(setup, prefix("workspace.load."))
    timing("workspace.ingest", delta, exact("workspace.ingest", "workspace.builder"))
    for name in ARTIFACTS:
        metrics[f"workspace.build.{name}_ms"] = p50_ms(
            delta, exact(f"workspace.build.{name}")
        )
    metrics["workspace.build_share"] = attribution.share(
        delta, prefix("workspace.build.")
    )
    metrics["workspace.bytes_written"] = _p50([
        sum(s.counts.get("bytes", 0) for s in spans)
        for _, spans in attribution.of_kind(delta)
    ])
    timing("substrate.apply_delta", delta, exact("substrate.apply_delta"))
    for function in FUNCTIONS:
        metrics[f"substrate.prestige_ms.{function}"] = p50_ms(
            delta, exact(f"substrate.prestige.{function}")
        )
    metrics["substrate.prestige_share"] = attribution.share(
        delta, prefix("substrate.prestige.")
    )
    timing("assignment.pattern_build", delta, exact("assignment.pattern_build"))
    timing("assignment.text_build", delta, exact("assignment.text_build"))
    metrics["bench.trace_overhead"] = trace_overhead

    # Which layers do the work: index + context search against request
    # latency, assignment + substrate + workspace against time to searchable.
    search_layers = lambda name: (  # noqa: E731
        name in ("index.evaluate", "search.run") or name.startswith("search.select.")
    )
    delta_layers = prefix(("assignment.", "substrate.", "workspace."))
    requests = [window.ref_ms for window, _ in attribution.of_kind(query)]
    checks = {
        "index_search_p50_over_request_p50": (
            _p50(attribution.per_window_ms(query, search_layers)) / _p50(requests)
            if requests else 0.0
        ),
        "delta_layers_share_of_tts": attribution.share(delta, delta_layers),
    }
    return metrics, checks
