"""Prometheus text exposition (version 0.0.4) over a metrics snapshot.

Pure rendering: :func:`render_prometheus` turns the plain-dict snapshot
from :meth:`repro.obs.metrics.MetricsRegistry.snapshot` into the text
format a Prometheus scraper ingests, so the ``/metrics`` route of
:class:`repro.serving.service.SearchService` and the tests share one
code path.

Mapping choices, documented in ``docs/observability.md``:

- dotted names become underscore names (``search.run.latency`` ->
  ``search_run_latency``); the original dotted name is preserved in the
  ``# HELP`` line so the docs catalog stays searchable from a scrape;
- counters are exported with the conventional ``_total`` suffix;
- histograms are exported as Prometheus *summaries*: ``quantile`` labels
  for p50/p95/p99 (nearest-rank over the bounded sample ring) plus exact
  ``_sum`` and ``_count`` -- percentiles are computed process-side, so
  no bucket boundaries need declaring up front.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List

__all__ = ["prom_name", "render_prometheus"]

_NAME_OK_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def prom_name(name: str) -> str:
    """Dotted metric name -> valid Prometheus metric name."""
    flat = name.replace(".", "_").replace("-", "_")
    if not _NAME_OK_RE.match(flat):
        flat = re.sub(r"[^a-zA-Z0-9_:]", "_", flat)
        if not flat or not _NAME_OK_RE.match(flat):
            flat = f"_{flat}"
    return flat


def _format_value(value: Any) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(snapshot: Dict[str, Dict]) -> str:
    """Render a registry snapshot as Prometheus 0.0.4 text exposition."""
    lines: List[str] = []
    for name, value in snapshot.get("counters", {}).items():
        flat = prom_name(name)
        lines.append(f"# HELP {flat}_total counter {name}")
        lines.append(f"# TYPE {flat}_total counter")
        lines.append(f"{flat}_total {_format_value(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        if value is None:
            # A gauge with nothing observed yet (e.g. a result-cache
            # hit rate before the first lookup) has no meaningful
            # sample; exporting NaN trips strict scrapers, so skip it.
            continue
        flat = prom_name(name)
        lines.append(f"# HELP {flat} gauge {name}")
        lines.append(f"# TYPE {flat} gauge")
        lines.append(f"{flat} {_format_value(value)}")
    for name, summary in snapshot.get("histograms", {}).items():
        flat = prom_name(name)
        lines.append(f"# HELP {flat} summary {name}")
        lines.append(f"# TYPE {flat} summary")
        count = summary.get("count") or 0
        if count:
            for quantile, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
                lines.append(
                    f'{flat}{{quantile="{quantile}"}} '
                    f"{_format_value(summary.get(key))}"
                )
        lines.append(f"{flat}_sum {_format_value(summary.get('sum', 0.0))}")
        lines.append(f"{flat}_count {count}")
    return "\n".join(lines) + ("\n" if lines else "")
