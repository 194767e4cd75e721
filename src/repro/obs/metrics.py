"""Metrics registry: counters, gauges, histograms, and monotonic timers.

Every instrumented module grabs the process-wide registry via
:func:`get_registry` and records against dotted metric names following the
``stage.component.metric`` convention (at least three lowercase segments,
e.g. ``citations.pagerank.iterations``).  Names are validated at metric
creation so a typo fails fast; ``tools/check_metric_names.py`` lints the
same convention statically.

Design constraints:

- **zero hard dependencies** -- stdlib only;
- **cheap on the hot path** -- metric objects are memoised per name, each
  update is one short critical section, and instrumented code aggregates
  inner-loop counts locally before recording once per call;
- **thread-safe** -- the registry and each metric guard their state with a
  lock (search traffic is expected to fan out across threads).

Histograms keep a bounded ring buffer of observations for percentile
queries (p50/p95/p99 via the nearest-rank method) while count/sum/min/max
stay exact over the full stream.
"""

from __future__ import annotations

import re
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: ``stage.component.metric`` -- three or more dot-separated lowercase
#: segments.  The documented catalog lives in docs/observability.md.
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*){2,}$")


def validate_metric_name(name: str) -> str:
    """Return ``name`` if it follows the convention; raise otherwise."""
    if not METRIC_NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} does not follow the "
            "'stage.component.metric' convention (>= 3 lowercase "
            "dot-separated segments)"
        )
    return name


class Counter:
    """A monotonically growing count (increments may be > 1)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value (last write wins); ``None`` is "no sample"."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: Optional[float] = 0.0
        self._lock = threading.Lock()

    def set(self, value: Optional[float]) -> None:
        with self._lock:
            self._value = None if value is None else float(value)

    @property
    def value(self) -> Optional[float]:
        with self._lock:
            return self._value


class Histogram:
    """A stream of observations with exact aggregates + sampled percentiles.

    ``count``/``sum``/``min``/``max`` are exact over every observation;
    percentiles are computed over a ring buffer of the most recent
    ``max_samples`` observations (nearest-rank method), which bounds
    memory for long-running processes without losing the recent shape.
    """

    def __init__(self, name: str, max_samples: int = 8192) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.name = name
        self.max_samples = max_samples
        self._samples: List[float] = []
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            if len(self._samples) < self.max_samples:
                self._samples.append(value)
            else:  # ring buffer: overwrite the oldest slot
                self._samples[self._count % self.max_samples] = value
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def min(self) -> Optional[float]:
        with self._lock:
            return self._min

    @property
    def max(self) -> Optional[float]:
        with self._lock:
            return self._max

    @property
    def mean(self) -> Optional[float]:
        with self._lock:
            return self._sum / self._count if self._count else None

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile over the sampled observations.

        ``p`` is in (0, 100]; returns None when nothing was observed.
        """
        if not 0.0 < p <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        with self._lock:
            if not self._samples:
                return None
            ordered = sorted(self._samples)
        rank = max(int(-(-p * len(ordered) // 100)), 1)  # ceil(p/100 * n)
        return ordered[rank - 1]

    def summary(self) -> Dict[str, Optional[float]]:
        """The aggregate view exported by snapshots and reports."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Named metrics, memoised per name, with a JSON-able snapshot."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # -- metric accessors (create on first use) ------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                self._check_unused(name, self._counters)
                metric = Counter(validate_metric_name(name))
                self._counters[name] = metric
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                self._check_unused(name, self._gauges)
                metric = Gauge(validate_metric_name(name))
                self._gauges[name] = metric
            return metric

    def gauge_names(self) -> List[str]:
        """Names of the gauges created so far."""
        with self._lock:
            return list(self._gauges)

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                self._check_unused(name, self._histograms)
                metric = Histogram(validate_metric_name(name))
                self._histograms[name] = metric
            return metric

    def _check_unused(self, name: str, own: Dict) -> None:
        """One name, one metric type -- catch cross-type reuse early."""
        for family in (self._counters, self._gauges, self._histograms):
            if family is not own and name in family:
                raise ValueError(
                    f"metric name {name!r} already registered as a "
                    "different type"
                )

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Record a monotonic-clock duration (seconds) into a histogram."""
        histogram = self.histogram(name)
        started = time.perf_counter()
        try:
            yield
        finally:
            histogram.observe(time.perf_counter() - started)

    # -- export --------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict]:
        """A plain-dict view of every metric, safe to json.dump."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "gauges": {name: g.value for name, g in sorted(gauges.items())},
            "histograms": {
                name: h.summary() for name, h in sorted(histograms.items())
            },
        }

    def format_table(self) -> str:
        """Human-readable ASCII rendering of the current snapshot."""
        from repro.obs.report import render_metrics

        return render_metrics(self.snapshot())

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_registry = MetricsRegistry()
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented module records into."""
    return _registry


def reset_registry() -> MetricsRegistry:
    """Install and return a fresh registry (test isolation / new run)."""
    global _registry
    with _registry_lock:
        _registry = MetricsRegistry()
        return _registry
