"""The HTTP search service: schemas, admission, parity, reload races.

Everything here runs against a live :class:`SearchService` on an
ephemeral port, hit with urllib -- the same client surface an external
caller sees.  The load-bearing properties:

- every search endpoint's JSON is produced by the same serializers the
  tests use to encode ``Pipeline`` results, so an HTTP ranking is
  byte-identical to the in-process call;
- bad parameters are 400s with the offending parameter named, never
  500s;
- a saturated admission controller sheds with 429 + ``Retry-After``
  while the observability routes keep answering;
- ``GET /search`` racing ``POST /admin/reload`` never observes a torn
  view (the PR-7 swap-race property, extended over HTTP);
- a batch does the same search work and records the same telemetry as
  its queries' single searches, and batch cache entries are the entries
  single-query search looks up.
"""

import json
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import (
    configure_telemetry,
    get_registry,
    reset_registry,
    start_tracing,
    stop_tracing,
)
from repro.pipeline import build_demo_pipeline
from repro.serving.service import (
    AdmissionController,
    AdmissionRejected,
    SearchService,
    explanation_to_dict,
    group_to_dict,
    hit_to_dict,
)

QUERIES = (
    "gene expression regulation",
    "protein binding activity",
    "cell membrane transport",
    "dna repair mechanism",
)


@pytest.fixture(scope="module")
def pipeline():
    return build_demo_pipeline(seed=7, n_papers=120, n_terms=30)


@pytest.fixture
def service(pipeline):
    live = SearchService(pipeline, port=0).start()
    yield live
    live.stop()


def _request(service, path, method="GET", **params):
    """(status, headers, body text); HTTP errors are returned, not raised."""
    url = f"http://{service.host}:{service.port}{path}"
    if params:
        url += "?" + urllib.parse.urlencode(params, doseq=True)
    request = urllib.request.Request(url, method=method)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.headers, response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.headers, error.read().decode()


class TestSearchEndpoint:
    def test_search_matches_pipeline_byte_for_byte(self, pipeline, service):
        for query in QUERIES:
            status, headers, body = _request(
                service, "/search", q=query, top_k=5, score_function="text"
            )
            assert status == 200
            assert headers["Content-Type"] == "application/json"
            payload = json.loads(body)
            expected = [
                hit_to_dict(hit)
                for hit in pipeline.search(query, function="text", limit=5)
            ]
            assert payload["hits"] == expected
            assert payload["count"] == len(expected)
            # Canonical encoding: sorted keys, one trailing newline --
            # re-serializing the parsed payload reproduces the body.
            assert body == json.dumps(payload, sort_keys=True) + "\n"

    def test_search_response_schema(self, service):
        _, _, body = _request(service, "/search", q=QUERIES[0])
        payload = json.loads(body)
        assert set(payload) == {
            "query", "score_function", "paper_set", "selection_strategy",
            "top_k", "threshold", "contexts", "count", "hits",
        }
        for hit in payload["hits"]:
            assert set(hit) == {
                "paper_id", "context_id", "relevancy", "prestige", "matching",
            }

    def test_context_restriction_param(self, pipeline, service):
        hits = pipeline.search(QUERIES[0], limit=10)
        context_id = hits[0].context_id
        expected = [
            hit_to_dict(hit)
            for hit in pipeline.search(
                QUERIES[0], limit=10, contexts=[context_id]
            )
        ]
        _, _, body = _request(
            service, "/search", q=QUERIES[0], top_k=10, context=context_id
        )
        payload = json.loads(body)
        assert payload["contexts"] == [context_id]
        assert payload["hits"] == expected
        assert all(hit["context_id"] == context_id for hit in payload["hits"])

    def test_nondefault_ranking_params_passed_through(self, pipeline, service):
        _, _, body = _request(
            service, "/search", q=QUERIES[1], score_function="citation",
            paper_set="pattern", selection_strategy="name", top_k=3,
            threshold=0.01,
        )
        payload = json.loads(body)
        expected = [
            hit_to_dict(hit)
            for hit in pipeline.search(
                QUERIES[1], function="citation", paper_set_name="pattern",
                selection_strategy="name", limit=3, threshold=0.01,
            )
        ]
        assert payload["hits"] == expected


class TestGroupedAndExplain:
    def test_search_grouped_matches_pipeline(self, pipeline, service):
        status, _, body = _request(
            service, "/search_grouped", q=QUERIES[0], top_k=4, max_contexts=3
        )
        assert status == 200
        payload = json.loads(body)
        expected = [
            group_to_dict(group)
            for group in pipeline.search_grouped(
                QUERIES[0], per_context_limit=4, max_contexts=3
            )
        ]
        assert payload["groups"] == expected
        assert payload["count"] == len(expected)
        for group in payload["groups"]:
            assert set(group) == {"context_id", "selection_strength", "hits"}

    def test_explain_matches_pipeline(self, pipeline, service):
        paper_id = pipeline.search(QUERIES[0], limit=1)[0].paper_id
        status, _, body = _request(
            service, "/explain", q=QUERIES[0], paper_id=paper_id
        )
        assert status == 200
        payload = json.loads(body)
        expected = explanation_to_dict(
            pipeline.explain(QUERIES[0], paper_id)
        )
        expected["score_function"] = "text"
        expected["paper_set"] = "text"
        assert payload == expected
        assert payload["retrievable"] is True


class TestBadRequests:
    @pytest.mark.parametrize(
        "path, params, fragment",
        [
            ("/search", {}, "'q'"),
            ("/search", {"q": "x", "score_function": "nope"}, "score_function"),
            ("/search", {"q": "x", "paper_set": "nope"}, "paper_set"),
            ("/search", {"q": "x", "selection_strategy": "nope"},
             "selection_strategy"),
            ("/search", {"q": "x", "top_k": "many"}, "top_k"),
            ("/search", {"q": "x", "top_k": "0"}, "top_k"),
            ("/search", {"q": "x", "threshold": "high"}, "threshold"),
            ("/search", {"q": ["a", "b"]}, "2 times"),
            ("/search_grouped", {"q": "x", "max_contexts": "-1"},
             "max_contexts"),
            ("/explain", {"q": "x"}, "paper_id"),
            ("/explain", {"q": "x", "paper_id": "NOPE-404"}, "NOPE-404"),
        ],
    )
    def test_bad_params_are_400s(self, service, path, params, fragment):
        status, _, body = _request(service, path, **params)
        assert status == 400
        payload = json.loads(body)
        assert fragment in payload["error"]

    @pytest.mark.parametrize("path", ["/search", "/search_grouped"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_is_400(self, pipeline, service, path, value):
        cache = pipeline.serving_view.result_cache
        entries = len(cache)
        status, _, body = _request(service, path, q=QUERIES[0], threshold=value)
        assert status == 400
        assert "threshold" in json.loads(body)["error"]
        assert len(cache) == entries

    def test_bad_request_counter_increments(self, service):
        before = get_registry().counter("serving.http.bad_request").value
        _request(service, "/search")
        assert (
            get_registry().counter("serving.http.bad_request").value
            == before + 1
        )

    def test_unknown_route_is_404(self, service):
        status, _, body = _request(service, "/rank")
        assert status == 404
        assert "no route" in json.loads(body)["error"]

    def test_post_to_search_is_404(self, service):
        status, _, _ = _request(service, "/search", method="POST", q="x")
        assert status == 404


class TestAdmission:
    def test_saturated_service_sheds_with_429(self, pipeline, monkeypatch):
        service = SearchService(
            pipeline, port=0, max_in_flight=1, queue_depth=0,
            retry_after_s=2.0,
        ).start()
        entered = threading.Event()
        release = threading.Event()

        def slow_search(query, **kwargs):
            entered.set()
            assert release.wait(timeout=10)
            return []

        monkeypatch.setattr(pipeline, "search", slow_search)
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                occupier = pool.submit(
                    _request, service, "/search", q="slow one"
                )
                assert entered.wait(timeout=10)
                # The only in-flight slot is held and the queue is zero
                # deep: the next search must shed immediately.
                status, headers, body = _request(service, "/search", q="shed me")
                assert status == 429
                assert headers["Retry-After"] == "2"
                payload = json.loads(body)
                assert payload["retry_after_s"] == 2.0
                assert "saturated" in payload["error"]
                # Observability routes stay exempt under saturation.
                health_status, _, health_body = _request(service, "/health")
                assert health_status == 200
                assert json.loads(health_body)["in_flight"] == 1
                shed = get_registry().counter("serving.http.shed").value
                assert shed == 1
                release.set()
                status, _, _ = occupier.result(timeout=10)
                assert status == 200
        finally:
            release.set()
            service.stop()
        assert service.admission.in_flight == 0

    def test_queue_absorbs_burst_without_shedding(self, pipeline):
        service = SearchService(
            pipeline, port=0, max_in_flight=2, queue_depth=8
        ).start()
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                statuses = list(
                    pool.map(
                        lambda q: _request(service, "/search", q=q)[0],
                        [QUERIES[i % len(QUERIES)] for i in range(12)],
                    )
                )
            assert statuses == [200] * 12
            assert get_registry().counter("serving.http.shed").value == 0
        finally:
            service.stop()

    def test_admission_controller_validation(self):
        with pytest.raises(ValueError, match="max_in_flight"):
            AdmissionController(max_in_flight=0)
        with pytest.raises(ValueError, match="queue_depth"):
            AdmissionController(queue_depth=-1)
        with pytest.raises(ValueError, match="retry_after_s"):
            AdmissionController(retry_after_s=0.0)

    def test_admission_controller_counts(self):
        admission = AdmissionController(max_in_flight=1, queue_depth=0)
        with admission.admit():
            assert admission.in_flight == 1
            with pytest.raises(AdmissionRejected):
                with admission.admit():
                    pass
        assert admission.in_flight == 0
        # The shed released nothing it did not hold: a new admit works.
        with admission.admit():
            pass
        registry = get_registry()
        assert registry.counter("serving.http.accepted").value == 2
        assert registry.counter("serving.http.shed").value == 1


class TestReload:
    def test_reload_swaps_the_view(self, pipeline, service):
        view_before = pipeline.serving_view
        status, _, body = _request(service, "/admin/reload", method="POST")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "reloaded"
        assert payload["view_revision"] == pipeline.serving_view.revision
        assert pipeline.serving_view is not view_before

    def test_reload_via_get_is_404(self, service):
        status, _, _ = _request(service, "/admin/reload")
        assert status == 404

    def test_search_racing_reload_stays_byte_identical(
        self, pipeline, service
    ):
        baseline = {
            query: [
                hit_to_dict(hit)
                for hit in pipeline.search(query, limit=10)
            ]
            for query in QUERIES
        }
        stop = threading.Event()
        reloads = 0

        def reloader():
            nonlocal reloads
            while not stop.is_set():
                status, _, _ = _request(
                    service, "/admin/reload", method="POST"
                )
                assert status == 200
                reloads += 1

        def searcher(worker: int):
            mismatches = []
            for i in range(10):
                query = QUERIES[(worker + i) % len(QUERIES)]
                status, _, body = _request(
                    service, "/search", q=query, top_k=10
                )
                if status != 200:
                    mismatches.append((query, status))
                    continue
                if json.loads(body)["hits"] != baseline[query]:
                    mismatches.append((query, "torn ranking"))
            return mismatches

        reload_thread = threading.Thread(target=reloader, daemon=True)
        reload_thread.start()
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                all_mismatches = list(pool.map(searcher, range(4)))
        finally:
            stop.set()
            reload_thread.join(timeout=10)
        assert all(not m for m in all_mismatches), all_mismatches
        assert reloads > 0  # the reloader actually raced the searchers


class TestReadiness:
    def test_ready_reports_live_view(self, pipeline, service):
        status, _, body = _request(service, "/ready")
        payload = json.loads(body)
        assert status == 200
        assert payload["ready"] is True
        assert payload["view_present"] is True
        assert payload["view_revision"] == pipeline.serving_view.revision
        assert payload["substrate_revision"] == pipeline.substrates.revision
        assert payload["max_age_s"] is None
        assert payload["view_age_s"] >= 0.0

    def test_stale_view_fails_readiness(self, pipeline):
        live = SearchService(pipeline, port=0, ready_max_age_s=0.0).start()
        try:
            time.sleep(0.05)  # any nonzero age exceeds a 0.0 budget
            status, _, body = _request(live, "/ready")
        finally:
            live.stop()
        payload = json.loads(body)
        assert status == 503
        assert payload["ready"] is False
        assert payload["view_present"] is True

    def test_fresh_view_passes_generous_age_budget(self, pipeline):
        pipeline.refresh()
        live = SearchService(pipeline, port=0, ready_max_age_s=3600.0).start()
        try:
            status, _, body = _request(live, "/ready")
        finally:
            live.stop()
        assert status == 200
        assert json.loads(body)["max_age_s"] == 3600.0


class TestAnalyticsEndpoint:
    def test_analytics_reports_live_traffic_and_shadow_agreement(
        self, pipeline
    ):
        # Telemetry must be on before start(): the analytics listener
        # registers against the telemetry instance live at start time.
        configure_telemetry(enabled=True, sample_rate=0.0, seed=3)
        live = SearchService(
            pipeline, port=0,
            shadow_functions=["citation"], shadow_sample_rate=1.0,
            shadow_seed=3,
        ).start()
        try:
            assert _request(live, "/search", q=QUERIES[0])[0] == 200
            assert _request(live, "/search", q="zzzz qqqq vvvv")[0] == 200
            assert live.shadow.drain(timeout_s=30.0)
            status, _, body = _request(live, "/analytics")
        finally:
            live.stop()
        payload = json.loads(body)
        assert status == 200
        analytics = payload["analytics"]
        assert analytics["queries"] == 2
        assert analytics["zero_results"] == 1
        assert analytics["zero_result_rate"] == 0.5
        agreement = payload["shadow"]["agreement"]["citation"]
        assert agreement["samples"] >= 1
        assert 0.0 <= agreement["mean_jaccard"] <= 1.0
        assert payload["drift"] is None  # drift never configured here

    def test_analytics_without_shadow_or_traffic(self, service):
        status, _, body = _request(service, "/analytics")
        payload = json.loads(body)
        assert status == 200
        assert payload["shadow"] is None
        assert payload["analytics"]["queries"] == 0


class TestDriftGatedReload:
    PROBES = (QUERIES[0], QUERIES[3])

    @staticmethod
    def _invert_text_scores(target, query):
        from repro.core.scores import PrestigeScores

        store = target._store
        engine = target.serving_view.engine("text", "text", "probe")
        top_ids = {hit.paper_id for hit in engine.search(query, limit=5)}
        old = store.scores["text/text"]
        perturbed = {
            ctx: {
                pid: (0.001 if pid in top_ids else value + 10.0)
                for pid, value in old.of(ctx).items()
            }
            for ctx in old.context_ids()
        }
        store.install_scores("text/text", PrestigeScores("text", perturbed))

    def test_reload_without_drift_config_has_no_drift_key(self, service):
        status, _, body = _request(service, "/admin/reload", method="POST")
        assert status == 200
        assert "drift" not in json.loads(body)

    def test_drift_gated_reload_flow_over_http(self):
        # Own pipeline: this test mutates the substrate store.
        target = build_demo_pipeline(seed=7, n_papers=120, n_terms=30)
        live = SearchService(target, port=0).start()
        try:
            target.configure_drift(
                self.PROBES, functions=["text"], max_drift=0.2
            )

            # Identical substrate: reload swaps and reports zero drift.
            status, _, body = _request(live, "/admin/reload", method="POST")
            payload = json.loads(body)
            assert status == 200
            assert payload["status"] == "reloaded"
            assert payload["drift"]["max_churn"] == 0.0

            # Injected ranking regression: refused with the report.
            self._invert_text_scores(target, self.PROBES[0])
            view_before = target._serving
            status, _, body = _request(live, "/admin/reload", method="POST")
            payload = json.loads(body)
            assert status == 409
            assert payload["status"] == "refused"
            assert payload["max_drift"] == 0.2
            assert payload["drift"]["max_churn"] > 0.2
            assert target._serving is view_before

            # The pinned old view keeps serving searches.
            status, _, _ = _request(live, "/search", q=self.PROBES[0])
            assert status == 200
            assert target._serving is view_before

            # force=1 pushes the swap through.
            status, _, body = _request(
                live, "/admin/reload", method="POST", force=1
            )
            payload = json.loads(body)
            assert status == 200
            assert payload["status"] == "reloaded"
            assert target._serving is not view_before
        finally:
            live.stop()


class TestMetricsExposition:
    def test_fresh_view_scrape_skips_unobserved_hit_rate(
        self, pipeline, service
    ):
        pipeline.refresh()  # fresh result cache: zero lookups so far
        _, _, body = _request(service, "/metrics")
        # The hit-rate gauge has no meaningful sample before the first
        # lookup; a fresh scrape must omit it rather than export NaN.
        assert "search_cache_hit_rate" not in body
        assert "serving_view_revision" in body
        _request(service, "/search", q=QUERIES[0])  # miss
        _request(service, "/search", q=QUERIES[0])  # hit
        _, _, body = _request(service, "/metrics")
        assert "search_cache_hit_rate 0.5" in body

    def test_endpoint_latency_and_request_counters(self, service):
        _request(service, "/search", q=QUERIES[0])
        _request(service, "/search_grouped", q=QUERIES[0])
        _request(service, "/explain", q=QUERIES[0])  # 400: missing paper_id
        registry = get_registry()
        assert registry.counter("serving.http.requests").value == 3
        for endpoint in ("search", "search_grouped", "explain"):
            assert (
                registry.histogram(f"serving.http.{endpoint}.latency").count
                == 1
            )

    def test_health_reports_view_and_admission_state(self, pipeline, service):
        _, _, body = _request(service, "/health")
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["view_revision"] == pipeline.serving_view.revision
        assert payload["papers"] == len(pipeline.corpus)
        assert payload["in_flight"] == 0


class TestBatchParity:
    """A batch is its queries' single searches plus one request's bookkeeping."""

    def _observe(self, pipeline, run):
        reset_registry()
        telemetry = configure_telemetry(enabled=True, sample_rate=0.0)
        pipeline.refresh()  # fresh view: no lazy state carried between runs
        results = run()
        snapshot = get_registry().snapshot()
        events = [
            (e.kind, e.queries, e.error, e.cache_hits, e.cache_lookups)
            for e in telemetry.events()
        ]
        histogram_counts = {
            name: summary["count"]
            for name, summary in snapshot["histograms"].items()
        }
        return results, dict(snapshot["counters"]), events, histogram_counts

    def test_batch_equals_single_searches(self, pipeline):
        queries = list(QUERIES)
        n = len(queries)
        # Build prestige and paper sets first, so neither run pays for them.
        pipeline.search_many(queries, limit=10, use_cache=False)
        tracer = start_tracing()
        try:
            batch = self._observe(
                pipeline,
                lambda: pipeline.search_many(queries, limit=10, use_cache=False),
            )
        finally:
            stop_tracing()
        single = self._observe(
            pipeline,
            lambda: [
                pipeline.search(q, limit=10, use_cache=False) for q in queries
            ],
        )
        assert batch[0] == single[0]  # rankings

        # Counters: identical search work; the request count differs by
        # shape (one batch request against n single ones).
        batch_counters, single_counters = dict(batch[1]), dict(single[1])
        assert batch_counters.pop("search.batch.queries") == n
        assert batch_counters.pop("search.request.queries") == 1
        assert single_counters.pop("search.request.queries") == n
        assert batch_counters == single_counters

        # SLO events: one batch event carrying all n queries.
        assert batch[2] == [("search_many", n, False, 0, 0)]
        assert single[2] == [("search", 1, False, 0, 0)] * n

        # Histograms: the per-kind latency and the batch timer aside,
        # every observation count matches.
        batch_histograms, single_histograms = dict(batch[3]), dict(single[3])
        assert batch_histograms.pop("search.batch.latency") == 1
        assert batch_histograms.pop("search.batch.seconds") == 1
        assert single_histograms.pop("search.run.latency") == n
        assert batch_histograms == single_histograms

        # Spans: every query's search.run hangs under the batch span.
        parents = []

        def walk(node):
            for child in node.children:
                if child.name == "search.run":
                    parents.append(node.name)
                walk(child)

        for root in tracer.roots:
            walk(root)
        assert parents == ["search.batch.run"] * n

    def test_batch_cache_entries_served_to_single_query_search(
        self, pipeline
    ):
        """search_many and search share one cache-key shape."""
        pipeline.refresh()
        registry = get_registry()
        pipeline.search_many(list(QUERIES), limit=10)
        hits_before = registry.counter("search.cache.hit").value
        misses_before = registry.counter("search.cache.miss").value
        batch_results = pipeline.search_many(list(QUERIES), limit=10)
        single_results = [
            pipeline.search(query, limit=10) for query in QUERIES
        ]
        assert single_results == batch_results
        assert (
            registry.counter("search.cache.hit").value
            == hits_before + 2 * len(QUERIES)
        )
        assert registry.counter("search.cache.miss").value == misses_before
