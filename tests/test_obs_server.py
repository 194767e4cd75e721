"""Exposition routes: Prometheus text rendering and the scrape endpoints.

Unit coverage of :mod:`repro.obs.prom` (name flattening, the text
format) plus a live :class:`~repro.serving.service.SearchService` bound
to an ephemeral port and scraped with urllib -- no third-party client,
the same way Prometheus itself would hit it.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import configure_telemetry, get_registry, prom_name, render_prometheus
from repro.pipeline import build_demo_pipeline
from repro.serving import service as service_module
from repro.serving.service import SearchService
from repro.serving.view import ServingView


class TestPromName:
    def test_dots_become_underscores(self):
        assert prom_name("search.run.latency") == "search_run_latency"

    def test_dashes_become_underscores(self):
        assert prom_name("search-p95.latency.x") == "search_p95_latency_x"

    def test_invalid_leading_char_handled(self):
        name = prom_name("1weird.name")
        assert name[0] not in "0123456789"


class TestRenderPrometheus:
    def test_counters_get_total_suffix(self):
        registry = get_registry()
        registry.counter("search.request.queries").inc(3)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE search_request_queries_total counter" in text
        assert "search_request_queries_total 3" in text
        assert "search.request.queries" in text  # dotted original in HELP

    def test_gauges_rendered_plain(self):
        get_registry().gauge("serving.view.revision").set(7)
        text = render_prometheus(get_registry().snapshot())
        assert "# TYPE serving_view_revision gauge" in text
        assert "serving_view_revision 7" in text

    def test_histograms_rendered_as_summaries_with_quantiles(self):
        histogram = get_registry().histogram("search.run.latency")
        for value in (0.1, 0.2, 0.3):
            histogram.observe(value)
        text = render_prometheus(get_registry().snapshot())
        assert "# TYPE search_run_latency summary" in text
        for quantile in ("0.5", "0.95", "0.99"):
            assert f'search_run_latency{{quantile="{quantile}"}}' in text
        assert "search_run_latency_count 3" in text
        assert "search_run_latency_sum" in text

    def test_empty_histogram_emits_no_quantiles(self):
        get_registry().histogram("search.run.latency")
        text = render_prometheus(get_registry().snapshot())
        assert "quantile=" not in text
        assert "search_run_latency_count 0" in text

    def test_render_under_concurrent_metric_updates(self):
        """Scraping while writers race must neither raise nor emit
        malformed 0.0.4 text (every sample line parses as name value)."""
        import re
        import threading

        registry = get_registry()
        stop = threading.Event()
        failures = []

        def writer(index):
            function = f"fn{index}"
            counter = registry.counter("search.request.queries")
            gauge = registry.gauge("serving.view.revision")
            histogram = registry.histogram(
                f"search.shadow.{function}.jaccard"
            )
            value = 0
            while not stop.is_set():
                counter.inc()
                gauge.set(value)
                histogram.observe((value % 100) / 100.0)
                value += 1

        sample_re = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9eE.+-]+$"
        )
        writers = [
            threading.Thread(target=writer, args=(i,), daemon=True)
            for i in range(4)
        ]
        for thread in writers:
            thread.start()
        try:
            for _ in range(50):
                try:
                    text = render_prometheus(registry.snapshot())
                except Exception as error:  # noqa: BLE001 - the assertion
                    failures.append(f"render raised: {error!r}")
                    break
                for line in text.splitlines():
                    if not line or line.startswith("#"):
                        continue
                    if not sample_re.match(line):
                        failures.append(f"malformed sample line: {line!r}")
        finally:
            stop.set()
            for thread in writers:
                thread.join(timeout=5)
        assert not failures, failures[:5]


def _get(server, path):
    url = f"http://{server.host}:{server.port}{path}"
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read().decode()


@pytest.fixture(scope="module")
def pipeline():
    return build_demo_pipeline(seed=7, n_papers=120, n_terms=30)


@pytest.fixture
def server(pipeline):
    with SearchService(pipeline, port=0) as live:
        yield live


class TestRoutes:
    def test_metrics_route_serves_prometheus_text(self, server):
        get_registry().counter("search.request.queries").inc()
        status, headers, body = _get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        assert "search_request_queries_total 1" in body

    def test_health_route(self, server):
        status, headers, body = _get(server, "/health")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["uptime_s"] >= 0.0

    def test_slo_route_reflects_live_telemetry(self, server):
        telemetry = configure_telemetry(enabled=True, sample_rate=0.0)
        with telemetry.request("search", query="q"):
            pass
        _, _, body = _get(server, "/slo")
        statuses = {s["name"]: s for s in json.loads(body)["slo"]}
        assert statuses["search-errors"]["total"] == 1
        assert statuses["search-errors"]["met"] is True

    def test_slowlog_route(self, server):
        telemetry = configure_telemetry(enabled=True, sample_rate=1.0)
        with telemetry.request("search", query="captured"):
            pass
        _, _, body = _get(server, "/slowlog")
        (entry,) = json.loads(body)["slowlog"]
        assert entry["query"] == "captured"
        assert entry["spans"]["name"] == "request.search"

    def test_unknown_route_404s(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/nope")
        assert excinfo.value.code == 404
        assert "no route" in json.loads(excinfo.value.read().decode())["error"]

    def test_trailing_slash_and_query_string_normalised(self, server):
        status, _, _ = _get(server, "/health/?verbose=1")
        assert status == 200


class TestCollectorsAndHealthInfo:
    def test_collectors_run_on_every_scrape(self, server, monkeypatch):
        calls = []
        export = service_module.export_query_gauges

        def collector(events, now):
            calls.append(True)
            get_registry().gauge("test.collector.calls").set(len(calls))
            return export(events, now)

        monkeypatch.setattr(service_module, "export_query_gauges", collector)
        _, _, body = _get(server, "/metrics")
        _get(server, "/health")
        assert len(calls) == 2
        assert "test_collector_calls 1" in body
        assert "serving_view_revision" in body

    def test_failing_collector_does_not_break_scrapes(self, server, monkeypatch):
        def bad(view):
            raise RuntimeError("collector exploded")

        monkeypatch.setattr(ServingView, "export_gauges", bad)
        status, _, body = _get(server, "/metrics")
        assert status == 200
        # The other collector still ran.
        assert "search_analytics" in body

    def test_health_info_merged_and_degraded_on_failure(
        self, pipeline, server, monkeypatch
    ):
        payload = json.loads(_get(server, "/health")[2])
        assert payload["papers"] == len(pipeline.corpus)
        assert payload["status"] == "ok"

        def broken(service):
            raise KeyError("view gone")

        monkeypatch.setattr(SearchService, "_health_info", broken)
        payload = json.loads(_get(server, "/health")[2])
        assert payload["status"] == "degraded"
        assert "KeyError" in payload["error"]


class TestLifecycle:
    def test_ephemeral_port_bound_and_stop_releases(self, pipeline):
        server = SearchService(pipeline, port=0).start()
        port = server.port
        assert port != 0
        server.stop()
        # The port is released: a fresh server can bind it immediately.
        rebound = SearchService(pipeline, port=port).start()
        assert rebound.port == port
        rebound.stop()

    def test_double_start_rejected(self, server):
        with pytest.raises(RuntimeError, match="already started"):
            server.start()

    def test_stop_start_cycles_on_a_fixed_port_never_eaddrinuse(self, pipeline):
        """Repeated restarts on one port must not trip over the previous
        listener's TIME_WAIT socket -- allow_reuse_address is applied
        before bind (regression: a restart used to be able to fail with
        EADDRINUSE depending on close timing)."""
        first = SearchService(pipeline, port=0).start()
        port = first.port
        first.stop()
        for _ in range(5):
            server = SearchService(pipeline, port=port).start()
            try:
                status, _, _ = _get(server, "/health")
                assert status == 200
                assert server.port == port
            finally:
                server.stop()

    def test_port_zero_resolved_before_start(self, pipeline):
        """The bound port is readable from construction on -- callers
        (CLI banner, tests) never see the literal 0 they asked for."""
        server = SearchService(pipeline, port=0)
        try:
            assert server.port != 0
            assert server.host == "127.0.0.1"
        finally:
            server.stop()

    def test_bind_failure_raises_and_releases(self, pipeline, server):
        # The same (host, port) with SO_REUSEADDR still refuses a
        # second *live* listener; construction must raise OSError
        # (not hang or half-bind) and close its socket.
        with pytest.raises(OSError):
            SearchService(pipeline, port=server.port)
        status, _, _ = _get(server, "/health")
        assert status == 200  # the original listener is unharmed
