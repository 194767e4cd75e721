"""Query analytics, shadow scoring, and reload drift (`repro.serving.analytics`).

Three layers:

- ``summarize_queries`` reports volumes / zero-result rate / term and
  score distributions over the request-telemetry event window (the one
  ``/slo`` reads), and ``export_query_gauges`` exports its volumes as
  scrape-time gauges;
- ``ShadowScorer`` samples live requests onto a worker thread and
  records rank agreement between the primary ranking and every other
  registered score function, without touching the hot path's caches;
- ``Pipeline.configure_drift`` pins probe-query rankings and gates
  ``refresh()`` on the churn of the candidate view against them.
"""

import dataclasses
import json
import math
import queue
import re
import time
from collections import Counter

import numpy as np
import pytest

import repro.obs.request as request_module
from repro.obs import configure_telemetry, get_registry
from repro.obs.prom import render_prometheus
from repro.obs.quality import DriftExceeded
from repro.obs.slo import QueryEvent, SLO, evaluate_slo, format_slo_report
from repro.pipeline import build_demo_pipeline
from repro.scoring import PrestigeScores
from repro.serving.analytics import (
    WINDOW_S,
    ShadowScorer,
    export_query_gauges,
    render_analytics,
    summarize_queries,
)
from repro.serving.service import SearchService

QUERY = "gene expression regulation"

NOW = 1000.0


def _event(kind="search", query="", ts=NOW, **fields):
    """A hand-made telemetry event, as ``QueryTelemetry`` appends them."""
    return QueryEvent(ts=ts, kind=kind, duration_s=0.001, query=query, **fields)


def _live_summary(telemetry):
    return summarize_queries(
        telemetry.events(), time.monotonic(), telemetry.dropped_ts
    )


def _fill_window(monkeypatch, requests, cap=4):
    """Telemetry with a ``cap``-event window after ``requests`` searches."""
    monkeypatch.setattr(request_module, "_MAX_WINDOW_EVENTS", cap)
    telemetry = configure_telemetry(enabled=True, sample_rate=0.0)
    for index in range(requests):
        with telemetry.request("search", query=f"q{index}") as request:
            request.set(hits=1)
    return telemetry


def _recount(events, now):
    """Brute-force reference for ``summarize_queries`` (no dropped events)."""
    window = [event for event in events if event.ts >= now - WINDOW_S]
    counted = [event.hits for event in window if event.hits is not None]
    scores = sorted(
        event.top_score for event in window if event.top_score is not None
    )
    terms = Counter(
        term
        for event in window
        for term in re.findall(r"[a-z0-9]+", event.query.lower())
    )
    span_s = now - min(event.ts for event in window) if window else 0.0

    def nearest_rank(p):
        if not scores:
            return None
        return round(scores[max(math.ceil(p * len(scores) / 100), 1) - 1], 6)

    return {
        "window_s": WINDOW_S,
        "truncated": False,
        "queries": len(window),
        "qps": round(len(window) / span_s, 3) if span_s > 0 else None,
        "by_kind": dict(Counter(event.kind for event in window)),
        "by_function": dict(Counter(event.function for event in window)),
        "zero_result_rate": (
            round(counted.count(0) / len(counted), 6) if counted else None
        ),
        "zero_results": counted.count(0),
        "counted_results": len(counted),
        "top_terms": [
            {"term": term, "count": count}
            for term, count in terms.most_common(10)
        ],
        "result_counts": {
            "0": counted.count(0),
            "1-2": sum(1 <= hits <= 2 for hits in counted),
            "3-5": sum(3 <= hits <= 5 for hits in counted),
            "6-10": sum(6 <= hits <= 10 for hits in counted),
            "11+": sum(hits >= 11 for hits in counted),
        },
        "top_score": {
            "samples": len(scores),
            "p50": nearest_rank(50),
            "p95": nearest_rank(95),
            "min": round(scores[0], 6) if scores else None,
            "max": round(scores[-1], 6) if scores else None,
        },
    }


@pytest.fixture(scope="module")
def pipeline():
    return build_demo_pipeline(seed=7, n_papers=120, n_terms=30)


@pytest.fixture
def fresh_pipeline():
    """Function-scoped: drift tests mutate the substrate store."""
    return build_demo_pipeline(seed=7, n_papers=120, n_terms=30)


def _invert_text_scores(pipeline, query, top_n=5):
    """Install perturbed text scores that demote the current top hits."""
    store = pipeline._store
    engine = pipeline.serving_view.engine("text", "text", "probe")
    top_ids = {hit.paper_id for hit in engine.search(query, limit=top_n)}
    scores = store.scores["text/text"]
    rows = scores.scores
    demoted = np.isin(rows.rows, scores.paper_rows.rows(top_ids))
    perturbed = dataclasses.replace(
        rows, values=np.where(demoted, 0.001, rows.values + 10.0)
    )
    store.install_scores("text/text", PrestigeScores("text", scores.paper_rows, perturbed))


class TestQueryAnalytics:
    def test_snapshot_aggregates_the_window(self):
        snap = summarize_queries(
            [
                _event("search", "gene expression", hits=7, top_score=0.9,
                       function="text"),
                _event("search", "gene therapy", hits=0, function="citation"),
                _event("explain", "dna", function="text"),
            ],
            NOW,
        )
        assert snap["window_s"] == WINDOW_S
        assert snap["truncated"] is False
        assert snap["queries"] == 3
        assert snap["by_kind"] == {"search": 2, "explain": 1}
        assert snap["by_function"] == {"text": 2, "citation": 1}
        assert snap["counted_results"] == 2
        assert snap["zero_results"] == 1
        assert snap["zero_result_rate"] == 0.5
        assert snap["result_counts"]["0"] == 1
        assert snap["result_counts"]["6-10"] == 1
        assert {"term": "gene", "count": 2} in snap["top_terms"]
        assert snap["top_score"]["samples"] == 1
        assert snap["top_score"]["max"] == 0.9

    def test_zero_result_rate_none_without_counted_results(self):
        snap = summarize_queries([_event("explain", "dna")], NOW)
        assert snap["zero_result_rate"] is None

    def test_window_prunes_old_entries(self):
        events = [
            _event("search", "old", hits=1, ts=NOW - WINDOW_S - 1.0),
            _event("search", "new", hits=1, ts=NOW - WINDOW_S),
        ]
        snap = summarize_queries(events, NOW)
        assert snap["queries"] == 1
        assert snap["top_terms"] == [{"term": "new", "count": 1}]
        assert summarize_queries(events, NOW + 1.0)["queries"] == 0

    def test_bounded_event_buffer(self, monkeypatch):
        # The cap /slo and /analytics share is the telemetry window's.
        snap = _live_summary(_fill_window(monkeypatch, 10))
        assert snap["queries"] == 4
        assert [item["term"] for item in snap["top_terms"]] == [
            "q6", "q7", "q8", "q9",
        ]

    def test_counters_and_histograms_recorded(self):
        telemetry = configure_telemetry(enabled=True, sample_rate=0.0)
        with telemetry.request("search", query="a") as request:
            request.set(hits=0)
        with telemetry.request("search", query="b") as request:
            request.set(hits=3, top_score=0.5)
        with telemetry.request("explain", query="c"):
            pass
        snapshot = get_registry().snapshot()
        assert snapshot["counters"]["search.analytics.queries"] == 3
        assert snapshot["counters"]["search.analytics.zero_results"] == 1
        assert snapshot["histograms"]["search.analytics.results"]["count"] == 2
        assert snapshot["histograms"]["search.analytics.top_score"]["count"] == 1

    def test_export_gauges(self):
        export_query_gauges(
            [
                _event("search", "old", hits=5, function="text",
                       ts=NOW - WINDOW_S - 1.0),
                _event("search", "a", hits=0, function="text"),
                _event("search", "b", hits=2, function="Weird Fn!"),
            ],
            NOW,
        )
        gauges = get_registry().snapshot()["gauges"]
        assert gauges["search.analytics.window_queries"] == 2
        assert gauges["search.analytics.zero_result_rate"] == 0.5
        assert gauges["search.analytics.text.queries"] == 1
        # Function names are sanitised into metric segments.
        assert gauges["search.analytics.weird_fn.queries"] == 1

    def test_zero_result_gauge_absent_without_counted(self):
        export_query_gauges([_event("explain", "dna")], NOW)
        snapshot = get_registry().snapshot()
        assert snapshot["gauges"]["search.analytics.zero_result_rate"] is None
        assert "zero_result_rate" not in render_prometheus(snapshot)

    def test_gauges_of_events_that_left_the_window_reset(self):
        events = [
            _event("search", "a", hits=0, function="text"),
            _event("search", "b", hits=2, function="citation"),
        ]
        export_query_gauges(events, NOW)
        export_query_gauges(events[1:], NOW)
        gauges = get_registry().snapshot()["gauges"]
        assert gauges["search.analytics.window_queries"] == 1
        assert gauges["search.analytics.text.queries"] == 0
        assert gauges["search.analytics.citation.queries"] == 1
        assert gauges["search.analytics.zero_result_rate"] == 0.0
        export_query_gauges(events, NOW + WINDOW_S + 1.0)
        snapshot = get_registry().snapshot()
        gauges = snapshot["gauges"]
        assert gauges["search.analytics.window_queries"] == 0
        assert gauges["search.analytics.text.queries"] == 0
        assert gauges["search.analytics.citation.queries"] == 0
        assert gauges["search.analytics.zero_result_rate"] is None
        exposition = render_prometheus(snapshot)
        assert "search_analytics_citation_queries 0" in exposition
        assert "zero_result_rate" not in exposition


class TestAnalyticsOverTelemetry:
    def test_cache_hits_reach_analytics(self, pipeline):
        configure_telemetry(enabled=True, sample_rate=0.0, seed=3)
        pipeline.search(QUERY, limit=5)
        pipeline.search(QUERY, limit=5)  # result-cache hit
        service = SearchService(pipeline, port=0).start()
        try:
            response = service.dispatch("GET", "/analytics", {})
        finally:
            service.stop()
        snap = json.loads(response.body)["analytics"]
        assert snap["queries"] == 2
        assert snap["counted_results"] == 2
        assert snap["zero_result_rate"] == 0.0

    def test_summary_equals_a_recount_of_mixed_traffic(self, fresh_pipeline):
        telemetry = configure_telemetry(enabled=True, sample_rate=0.0, seed=3)
        hits = fresh_pipeline.search(QUERY, limit=5)  # miss
        fresh_pipeline.search(QUERY, limit=5)  # result-cache hit
        assert fresh_pipeline.search("zzzz qqqq vvvv", limit=5) == []
        fresh_pipeline.explain(QUERY, hits[0].paper_id)
        fresh_pipeline.search_many([QUERY, "dna repair mechanism"], limit=5)
        with pytest.raises(ValueError):
            fresh_pipeline.search(QUERY, function="no-such-function")
        events = telemetry.events()
        assert [event.kind for event in events] == [
            "search", "search", "search", "explain", "search_many", "search",
        ]
        assert events[-1].error and events[-1].hits is None
        now = time.monotonic()
        assert summarize_queries(events, now) == _recount(events, now)
        assert _live_summary(telemetry)["queries"] == len(events)


class TestWindowTruncation:
    @pytest.mark.parametrize("requests", [3, 4])
    def test_full_but_undropped_window_is_not_truncated(
        self, monkeypatch, requests
    ):
        telemetry = _fill_window(monkeypatch, requests)
        assert telemetry.dropped_ts == float("-inf")
        assert _live_summary(telemetry)["truncated"] is False
        assert not any(status.truncated for status in telemetry.slo_statuses())

    def test_cap_inside_the_window_flags_slo_and_analytics(self, monkeypatch):
        telemetry = _fill_window(monkeypatch, 10)
        assert telemetry.dropped_ts > float("-inf")
        payload = {"analytics": _live_summary(telemetry)}
        assert payload["analytics"]["truncated"] is True
        statuses = [status.to_dict() for status in telemetry.slo_statuses()]
        assert statuses and all(status["truncated"] for status in statuses)
        assert "truncated" in render_analytics(payload)
        assert "(truncated)" in format_slo_report(statuses)

    def test_eviction_before_the_window_start_is_not_truncation(self):
        events = [_event("search", "q", hits=1)]
        slo = SLO("errors", "error_rate", target=0.99, window_s=60.0)
        before = NOW - WINDOW_S - 1.0
        assert not summarize_queries(events, NOW, dropped_ts=before)["truncated"]
        assert summarize_queries(events, NOW, dropped_ts=NOW - 1.0)["truncated"]
        assert not evaluate_slo(slo, events, NOW, dropped_ts=NOW - 61.0).truncated
        assert evaluate_slo(slo, events, NOW, dropped_ts=NOW - 60.0).truncated


class TestShadowScorer:
    def test_unknown_function_rejected(self, pipeline):
        with pytest.raises(ValueError, match="no-such-fn"):
            ShadowScorer(pipeline, ["no-such-fn"])

    def test_sample_rate_validated(self, pipeline):
        with pytest.raises(ValueError, match="sample_rate"):
            ShadowScorer(pipeline, ["citation"], sample_rate=1.5)

    def test_sampled_request_records_agreement(self, pipeline):
        scorer = ShadowScorer(
            pipeline, ["citation"], sample_rate=1.0, k=10, seed=5
        ).start()
        try:
            view = pipeline.serving_view
            hits = pipeline.search(QUERY, limit=10, use_cache=False)
            accepted = scorer.offer(
                query=QUERY, function="text", paper_set="text",
                strategy="probe", threshold=0.0,
                primary_ids=[hit.paper_id for hit in hits], view=view,
            )
            assert accepted
            assert scorer.drain(timeout_s=30.0)
        finally:
            scorer.stop()
        snap = scorer.snapshot()
        agreement = snap["agreement"]["citation"]
        assert agreement["samples"] == 1
        assert 0.0 <= agreement["mean_jaccard"] <= 1.0
        counters = get_registry().snapshot()["counters"]
        assert counters["search.shadow.sampled"] == 1
        assert counters["search.shadow.scored"] == 1
        histograms = get_registry().snapshot()["histograms"]
        assert "search.shadow.citation.jaccard" in histograms

    def test_primary_function_not_rescored_against_itself(self, pipeline):
        scorer = ShadowScorer(
            pipeline, ["text"], sample_rate=1.0, seed=5
        ).start()
        try:
            view = pipeline.serving_view
            hits = pipeline.search(QUERY, limit=10, use_cache=False)
            scorer.offer(
                query=QUERY, function="text", paper_set="text",
                strategy="probe", threshold=0.0,
                primary_ids=[hit.paper_id for hit in hits], view=view,
            )
            assert scorer.drain(timeout_s=30.0)
        finally:
            scorer.stop()
        counters = get_registry().snapshot()["counters"]
        assert counters.get("search.shadow.scored", 0) == 0

    def test_zero_sample_rate_never_enqueues(self, pipeline):
        scorer = ShadowScorer(pipeline, ["citation"], sample_rate=0.0, seed=5)
        view = pipeline.serving_view
        for _ in range(20):
            assert not scorer.offer(
                query=QUERY, function="text", paper_set="text",
                strategy="probe", threshold=0.0, primary_ids=[], view=view,
            )
        assert scorer.snapshot()["queued"] == 0

    def test_full_queue_drops_instead_of_blocking(self, pipeline):
        # Never started: the queue only fills.
        scorer = ShadowScorer(
            pipeline, ["citation"], sample_rate=1.0, queue_depth=2, seed=5
        )
        view = pipeline.serving_view
        offers = [
            scorer.offer(
                query=QUERY, function="text", paper_set="text",
                strategy="probe", threshold=0.0, primary_ids=["P1"],
                view=view,
            )
            for _ in range(4)
        ]
        assert offers == [True, True, False, False]
        counters = get_registry().snapshot()["counters"]
        assert counters["search.shadow.dropped"] == 2
        # Drain the unstarted queue so stop() has nothing to wait on.
        while True:
            try:
                scorer._queue.get_nowait()
            except queue.Empty:
                break


class TestReloadDrift:
    PROBES = [QUERY, "dna repair mechanism"]

    def test_configure_drift_validation(self, fresh_pipeline):
        with pytest.raises(ValueError, match="probe"):
            fresh_pipeline.configure_drift([])
        with pytest.raises(ValueError, match="unknown"):
            fresh_pipeline.configure_drift(self.PROBES, functions=["nope"])
        with pytest.raises(ValueError, match="k"):
            fresh_pipeline.configure_drift(self.PROBES, k=0)
        with pytest.raises(ValueError, match="max_drift"):
            fresh_pipeline.configure_drift(self.PROBES, max_drift=2.0)

    def test_configure_returns_zero_drift_self_report(self, fresh_pipeline):
        report = fresh_pipeline.configure_drift(self.PROBES)
        assert report.max_churn == 0.0
        assert fresh_pipeline.last_drift_report is report

    def test_identical_refresh_reports_zero_drift(self, fresh_pipeline):
        fresh_pipeline.configure_drift(self.PROBES, max_drift=0.2)
        fresh_pipeline.refresh(enforce_drift=True)
        assert fresh_pipeline.last_drift_report.max_churn == 0.0
        snapshot = get_registry().snapshot()
        assert snapshot["counters"]["serving.reload.drift.checks"] >= 1
        assert snapshot["gauges"]["serving.reload.drift.max_churn"] == 0.0

    def test_regression_is_refused_and_old_view_pinned(self, fresh_pipeline):
        fresh_pipeline.configure_drift(
            self.PROBES, functions=["text"], max_drift=0.2
        )
        view_before = fresh_pipeline.serving_view
        _invert_text_scores(fresh_pipeline, QUERY)
        with pytest.raises(DriftExceeded) as exc_info:
            fresh_pipeline.refresh(enforce_drift=True)
        assert exc_info.value.report.max_churn > 0.2
        # The hold pins the old view across automatic staleness refreshes.
        assert fresh_pipeline.serving_view is view_before
        counters = get_registry().snapshot()["counters"]
        assert counters["serving.reload.drift.refused"] >= 1

    def test_auto_refresh_honors_the_armed_gate(self, fresh_pipeline):
        fresh_pipeline.configure_drift(
            self.PROBES, functions=["text"], max_drift=0.2
        )
        view_before = fresh_pipeline.serving_view
        _invert_text_scores(fresh_pipeline, QUERY)
        # Property access (the auto-refresh path), not an explicit reload.
        assert fresh_pipeline.serving_view is view_before
        assert fresh_pipeline.last_drift_report.max_churn > 0.2

    def test_forced_refresh_swaps_and_rebaselines(self, fresh_pipeline):
        fresh_pipeline.configure_drift(
            self.PROBES, functions=["text"], max_drift=0.2
        )
        view_before = fresh_pipeline.serving_view
        _invert_text_scores(fresh_pipeline, QUERY)
        with pytest.raises(DriftExceeded):
            fresh_pipeline.refresh(enforce_drift=True)
        forced = fresh_pipeline.refresh(enforce_drift=False)
        assert forced is not view_before
        assert fresh_pipeline.serving_view is forced
        # The forced candidate became the new baseline: re-checking the
        # unchanged substrate is zero drift again.
        fresh_pipeline.refresh(enforce_drift=True)
        assert fresh_pipeline.last_drift_report.max_churn == 0.0

    def test_report_only_mode_swaps_but_records_drift(self, fresh_pipeline):
        fresh_pipeline.configure_drift(self.PROBES, functions=["text"])
        view_before = fresh_pipeline.serving_view
        _invert_text_scores(fresh_pipeline, QUERY)
        view = fresh_pipeline.refresh(enforce_drift=True)  # max_drift unset
        assert view is not view_before
        assert fresh_pipeline.last_drift_report.max_churn > 0.0

    def test_substrate_change_clears_the_hold(self, fresh_pipeline):
        fresh_pipeline.configure_drift(
            self.PROBES, functions=["text"], max_drift=0.2
        )
        _invert_text_scores(fresh_pipeline, QUERY)
        with pytest.raises(DriftExceeded):
            fresh_pipeline.refresh(enforce_drift=True)
        held = fresh_pipeline.serving_view
        # Another substrate mutation moves the revision past the hold;
        # this candidate drifts just as far, so the gate refuses again
        # (fresh evaluation, not a stale pin).
        _invert_text_scores(fresh_pipeline, "dna repair mechanism")
        assert fresh_pipeline.serving_view is held
        assert (
            get_registry().snapshot()["counters"][
                "serving.reload.drift.refused"
            ]
            >= 2
        )
