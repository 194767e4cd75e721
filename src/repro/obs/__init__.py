"""Observability: metrics registry, tracing spans, structured logging.

The cross-cutting layer every stage of the pipeline records into:

- :mod:`repro.obs.metrics` -- process-wide :class:`MetricsRegistry` with
  counters, gauges, histograms (p50/p95/p99), and monotonic timers;
- :mod:`repro.obs.trace` -- hierarchical ``span()`` trees with JSON-lines
  and ASCII-tree export, no-op while tracing is inactive;
- :mod:`repro.obs.logs` -- structured loggers emitting plain text or JSON
  lines (``REPRO_LOG_FORMAT=json`` / ``repro ... --log-json``);
- :mod:`repro.obs.report` -- renders saved dumps (``repro obs report``);
- :mod:`repro.obs.request` -- request-scoped query telemetry: query ids,
  head + tail sampling, the rolling SLO event window;
- :mod:`repro.obs.slowlog` -- bounded ring of the N slowest queries with
  full span trees (``repro obs slowlog``);
- :mod:`repro.obs.slo` -- SLO declarations, rolling-window evaluation,
  error budgets (``repro obs slo``);
- :mod:`repro.obs.prom` -- Prometheus text exposition rendering
  (``GET /metrics`` on ``repro serve``).

Stdlib only, no hard dependencies; disabled-by-default tracing keeps the
instrumented hot paths at their uninstrumented speed.  Metric and span
names follow the ``stage.component.metric`` convention documented in
``docs/observability.md`` and linted by ``tools/check_metric_names.py``.
"""

from repro.obs.logs import ObsLogger, configure_logging, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    METRIC_NAME_RE,
    MetricsRegistry,
    get_registry,
    reset_registry,
    validate_metric_name,
)
from repro.obs.prom import prom_name, render_prometheus
from repro.obs.report import render_metrics, render_report, render_trace
from repro.obs.request import (
    QueryRecord,
    QueryTelemetry,
    configure_telemetry,
    get_telemetry,
    reset_telemetry,
)
from repro.obs.slo import (
    DEFAULT_SLOS,
    QueryEvent,
    SLO,
    SLOStatus,
    evaluate_slo,
    evaluate_slos,
    format_slo_report,
    parse_slo,
)
from repro.obs.slowlog import SlowQueryLog, render_slowlog
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    current_tracer,
    read_trace_jsonl,
    span,
    start_tracing,
    stop_tracing,
)

__all__ = [
    "Counter",
    "DEFAULT_SLOS",
    "Gauge",
    "Histogram",
    "METRIC_NAME_RE",
    "MetricsRegistry",
    "NULL_SPAN",
    "ObsLogger",
    "QueryEvent",
    "QueryRecord",
    "QueryTelemetry",
    "SLO",
    "SLOStatus",
    "SlowQueryLog",
    "Span",
    "Tracer",
    "configure_logging",
    "configure_telemetry",
    "current_tracer",
    "evaluate_slo",
    "evaluate_slos",
    "format_slo_report",
    "get_logger",
    "get_registry",
    "get_telemetry",
    "parse_slo",
    "prom_name",
    "read_trace_jsonl",
    "render_metrics",
    "render_prometheus",
    "render_report",
    "render_slowlog",
    "render_trace",
    "reset_registry",
    "reset_telemetry",
    "span",
    "start_tracing",
    "stop_tracing",
    "validate_metric_name",
]
