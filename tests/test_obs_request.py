"""Request-scoped telemetry: contexts, sampling, capture policy, wiring.

Unit-level coverage of :mod:`repro.obs.request` (the disabled fast
path, head + tail sampling, error capture, tracer ownership, the SLO
event window) plus the integration contract: ``Pipeline.search`` /
``search_many`` / ``explain`` run inside request contexts, and a
``search_many`` batch's per-query ``search.run`` spans are parented
under the batch root.

The conftest autouse fixture resets the registry and telemetry around
every test, so each starts from the disabled default.
"""

import pytest

from repro.obs import (
    configure_telemetry,
    get_registry,
    get_telemetry,
    reset_telemetry,
    span,
    start_tracing,
    stop_tracing,
)
from repro.obs.request import QueryTelemetry
from repro.obs.trace import current_tracer
from repro.pipeline import build_demo_pipeline


class TestDisabledFastPath:
    def test_yields_shared_null_handle(self):
        telemetry = get_telemetry()
        assert telemetry.enabled is False
        with telemetry.request("search", query="glucose") as first:
            first.set(hits=3)
            first.cache(hit=True)
            first.cache_batch(hits=1, lookups=2)
        with telemetry.request("search") as second:
            pass
        assert first is second  # one shared do-nothing handle
        assert first.record is None

    def test_still_observes_latency_and_counts(self):
        telemetry = get_telemetry()
        with telemetry.request("search"):
            pass
        with telemetry.request("search_many", queries=3):
            pass
        registry = get_registry()
        assert registry.counter("search.request.queries").value == 2
        assert registry.histogram("search.run.latency").count == 1
        assert registry.histogram("search.batch.latency").count == 1

    def test_counts_errors_and_reraises(self):
        telemetry = get_telemetry()
        with pytest.raises(RuntimeError, match="boom"):
            with telemetry.request("search"):
                raise RuntimeError("boom")
        assert get_registry().counter("search.request.errors").value == 1
        assert len(telemetry.slowlog) == 0  # disabled: nothing captured

    def test_no_ids_no_events_no_tracer(self):
        telemetry = get_telemetry()
        with telemetry.request("search"):
            pass
        assert telemetry.events() == []
        assert current_tracer() is None


class TestEnabledCapture:
    def test_query_ids_are_unique_and_sequential(self):
        telemetry = configure_telemetry(enabled=True, sample_rate=1.0)
        ids = []
        for _ in range(3):
            with telemetry.request("search") as request:
                ids.append(request.record.query_id)
        assert ids == ["q-000001", "q-000002", "q-000003"]

    def test_head_sampling_is_seeded_and_probabilistic(self):
        telemetry = configure_telemetry(
            enabled=True, sample_rate=0.5, slow_ms=1e12, seed=42
        )
        flags = []
        for _ in range(200):
            with telemetry.request("search") as request:
                flags.append(request.record.sampled)
        expected = [x < 0.5 for x in _seeded_draws(42, 200)]
        assert flags == expected
        assert 0 < sum(flags) < 200
        sampled = get_registry().counter("telemetry.request.sampled").value
        assert sampled == sum(flags)

    def test_sample_rate_zero_and_one(self):
        telemetry = configure_telemetry(
            enabled=True, sample_rate=0.0, slow_ms=1e12
        )
        with telemetry.request("search") as request:
            assert request.record.sampled is False
        assert len(telemetry.slowlog) == 0
        telemetry = configure_telemetry(enabled=True, sample_rate=1.0)
        with telemetry.request("search") as request:
            assert request.record.sampled is True
        assert len(telemetry.slowlog) == 1

    def test_tail_capture_slow_requests_bypass_sampling(self):
        telemetry = configure_telemetry(
            enabled=True, sample_rate=0.0, slow_ms=0.0
        )
        with telemetry.request("search", query="slow one"):
            pass
        (record,) = telemetry.slowlog.records()
        assert record.slow is True and record.sampled is False
        registry = get_registry()
        assert registry.counter("telemetry.request.slow").value == 1
        assert registry.counter("telemetry.slowlog.captured").value == 1

    def test_tail_capture_errors_bypass_sampling(self):
        telemetry = configure_telemetry(
            enabled=True, sample_rate=0.0, slow_ms=1e12
        )
        with pytest.raises(ValueError):
            with telemetry.request("search", query="broken"):
                raise ValueError("no such function")
        (record,) = telemetry.slowlog.records()
        assert record.error == "ValueError: no such function"
        assert record.root.attrs["error"] == "ValueError: no such function"

    def test_unsampled_fast_healthy_requests_are_not_logged(self):
        telemetry = configure_telemetry(
            enabled=True, sample_rate=0.0, slow_ms=1e12
        )
        with telemetry.request("search"):
            pass
        assert len(telemetry.slowlog) == 0
        assert len(telemetry.events()) == 1  # SLO window still fed

    def test_record_captures_span_tree_and_attrs(self):
        telemetry = configure_telemetry(enabled=True, sample_rate=1.0)
        with telemetry.request(
            "search", query="dna repair", function="text"
        ) as request:
            with span("search.run"):
                pass
            request.set(hits=7)
            request.cache(hit=False)
            request.cache(hit=True)
        record = request.record
        assert record.kind == "search"
        assert record.attrs["function"] == "text"
        assert record.attrs["hits"] == 7
        assert record.cache_hits == 1 and record.cache_lookups == 2
        assert record.root.name == "request.search"
        assert [child.name for child in record.root.children] == ["search.run"]
        entry = record.to_dict()
        assert entry["spans"]["name"] == "request.search"
        assert entry["duration_ms"] == pytest.approx(
            record.duration_ms, abs=0.001
        )

    def test_long_queries_truncated_in_record(self):
        telemetry = configure_telemetry(enabled=True, sample_rate=1.0)
        with telemetry.request("search", query="x" * 500) as request:
            pass
        assert len(request.record.query) == 200

    def test_events_window_normalises_batch_latency(self):
        telemetry = configure_telemetry(enabled=True, sample_rate=0.0)
        with telemetry.request("search_many", queries=4):
            pass
        (event,) = telemetry.events()
        assert event.kind == "search_many"
        assert event.queries == 4
        assert event.duration_s <= 1.0  # per-query share of the batch


class TestTracerOwnership:
    def test_installs_and_discards_owned_tracer(self):
        telemetry = configure_telemetry(enabled=True, sample_rate=1.0)
        tracer = current_tracer()
        assert tracer is not None
        for _ in range(5):
            with telemetry.request("search"):
                pass
        # Roots are discarded per request: an always-on server must not
        # accumulate span trees outside the bounded slowlog.
        assert tracer.roots == []
        assert len(telemetry.slowlog) == 5

    def test_reuses_external_tracer_and_keeps_its_roots(self):
        tracer = start_tracing()
        telemetry = configure_telemetry(enabled=True, sample_rate=1.0)
        assert current_tracer() is tracer
        with telemetry.request("search"):
            pass
        assert [root.name for root in tracer.roots] == ["request.search"]
        stop_tracing()

    def test_reset_drops_owned_tracer(self):
        configure_telemetry(enabled=True)
        assert current_tracer() is not None
        reset_telemetry()
        assert current_tracer() is None

    def test_reset_leaves_external_tracer_installed(self):
        tracer = start_tracing()
        configure_telemetry(enabled=True)
        reset_telemetry()
        assert current_tracer() is tracer
        stop_tracing()


class TestValidation:
    def test_sample_rate_bounds(self):
        with pytest.raises(ValueError, match="sample_rate"):
            QueryTelemetry(sample_rate=1.5)
        with pytest.raises(ValueError, match="sample_rate"):
            QueryTelemetry(sample_rate=-0.1)

    def test_slow_ms_nonnegative(self):
        with pytest.raises(ValueError, match="slow_ms"):
            QueryTelemetry(slow_ms=-1.0)

    def test_to_dict_shape(self):
        telemetry = configure_telemetry(enabled=True, sample_rate=1.0)
        with telemetry.request("search", query="q"):
            pass
        dump = telemetry.to_dict()
        assert dump["enabled"] is True
        assert dump["window_events"] == 1
        assert len(dump["slowlog"]) == 1
        assert {status["name"] for status in dump["slo"]} == {
            "search-latency-p95", "search-errors", "result-cache-hits",
        }


class TestPipelineIntegration:
    @pytest.fixture(scope="class")
    def pipeline(self):
        return build_demo_pipeline(seed=11, n_papers=150, n_terms=30)

    def test_search_records_request_and_cache_attribution(self, pipeline):
        telemetry = configure_telemetry(enabled=True, sample_rate=1.0)
        pipeline.search("gene expression regulation", limit=5)
        pipeline.search("gene expression regulation", limit=5)  # cache hit
        records = {
            record.query_id: record for record in telemetry.slowlog.records()
        }
        assert len(records) == 2
        by_order = sorted(records.values(), key=lambda r: r.query_id)
        assert by_order[0].cache_lookups == 1 and by_order[0].cache_hits == 0
        assert by_order[1].cache_lookups == 1 and by_order[1].cache_hits == 1
        assert by_order[0].attrs["hits"] > 0
        assert get_registry().histogram("search.run.latency").count == 2

    def test_search_many_workers_parent_under_batch_root(self, pipeline):
        telemetry = configure_telemetry(enabled=True, sample_rate=1.0)
        queries = ["protein folding", "cell cycle", "dna repair"]
        pipeline.search_many(queries, limit=5, use_cache=False)
        (record,) = [
            r for r in telemetry.slowlog.records() if r.kind == "search_many"
        ]
        assert record.queries == 3
        root = record.root
        assert root.name == "request.search_many"
        (pipeline_span,) = root.children
        assert pipeline_span.name == "pipeline.search_many"
        (batch,) = pipeline_span.children
        assert batch.name == "search.batch.run"
        runs = [child for child in batch.children if child.name == "search.run"]
        assert len(runs) == 3

    def test_explain_runs_inside_request_context(self, pipeline):
        telemetry = configure_telemetry(enabled=True, sample_rate=1.0)
        query = "gene expression regulation"
        hits = pipeline.search(query, limit=1, use_cache=False)
        explanation = pipeline.explain(query, hits[0].paper_id)
        assert explanation.paper_id == hits[0].paper_id
        kinds = {record.kind for record in telemetry.slowlog.records()}
        assert "explain" in kinds
        assert get_registry().histogram("search.explain.latency").count == 1


def _seeded_draws(seed, n):
    import random

    rng = random.Random(seed)
    return [rng.random() for _ in range(n)]
