"""SLO declarations, rolling-window evaluation, error-budget arithmetic.

Every objective is expressed the same way: *a target fraction of good
events over a rolling window*.  That uniform shape covers the three
indicator kinds the query path cares about:

- ``latency`` -- an event is good when its per-query latency is at or
  under ``threshold_s``.  "p95 search latency <= 250ms" is exactly
  ``target=0.95, threshold_s=0.25``;
- ``error_rate`` -- an event is good when the request did not raise;
- ``cache_hit_rate`` -- goods are result-cache hits, totals are lookups.

Events come from the request-scoped telemetry layer
(:mod:`repro.obs.request`); evaluation is a pure function over them, so
``repro obs slo`` can re-render a dump and the ``/slo`` endpoint can
evaluate live with the same code.

Error budget: over a window with ``total`` events, the objective allows
``(1 - target) * total`` bad ones.  ``budget_remaining`` is the unspent
fraction of that allowance (clamped at 0 when overdrawn) -- the number
an operator pages on.

Declaration syntax (CLI ``--slo`` and the docs catalog)::

    <name>:latency:<threshold>(ms|s):<target>%[:<window>s]
    <name>:error_rate:<target>%[:<window>s]
    <name>:cache_hit_rate:<target>%[:<window>s]

e.g. ``search-p95:latency:250ms:95%:300s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "DEFAULT_SLOS",
    "QueryEvent",
    "SLO",
    "SLOStatus",
    "evaluate_slo",
    "evaluate_slos",
    "format_slo_report",
    "parse_slo",
]

SLO_KINDS = ("latency", "error_rate", "cache_hit_rate")


@dataclass(frozen=True)
class QueryEvent:
    """One telemetry event: what ``/slo`` and ``/analytics`` read of a request.

    ``duration_s`` is per-query latency; a ``search_many`` batch records
    one event with ``queries`` > 1 and the batch's average per-query
    latency (individual worker timings live in the slow-query log's span
    trees).  ``ts`` is monotonic-clock seconds.  ``function`` is the
    score function the request ran under and ``query`` its (truncated)
    text; ``hits`` and ``top_score`` are the result count and top-hit
    relevancy of a ``search`` request (None where the request set none).
    """

    ts: float
    kind: str
    duration_s: float
    queries: int = 1
    error: bool = False
    cache_hits: int = 0
    cache_lookups: int = 0
    function: str = "unknown"
    query: str = ""
    hits: Optional[int] = None
    top_score: Optional[float] = None


@dataclass(frozen=True)
class SLO:
    """One declared objective over the rolling event window."""

    name: str
    kind: str  # one of SLO_KINDS
    target: float  # required fraction of good events, in (0, 1]
    threshold_s: Optional[float] = None  # latency kind only
    window_s: float = 300.0

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ValueError(
                f"SLO kind must be one of {SLO_KINDS}, got {self.kind!r}"
            )
        if not 0.0 < self.target <= 1.0:
            raise ValueError(f"SLO target must be in (0, 1], got {self.target}")
        if self.kind == "latency" and (
            self.threshold_s is None or self.threshold_s <= 0
        ):
            raise ValueError("latency SLOs need a positive threshold_s")
        if self.window_s <= 0:
            raise ValueError(f"SLO window must be positive, got {self.window_s}")

    def spec(self) -> str:
        """The declaration string that parses back to this SLO."""
        target = f"{self.target * 100.0:g}%"
        window = f"{self.window_s:g}s"
        if self.kind == "latency":
            return (
                f"{self.name}:latency:{self.threshold_s * 1000.0:g}ms:"
                f"{target}:{window}"
            )
        return f"{self.name}:{self.kind}:{target}:{window}"


#: The objectives telemetry tracks when none are declared.
DEFAULT_SLOS = (
    SLO("search-latency-p95", "latency", target=0.95, threshold_s=0.5),
    SLO("search-errors", "error_rate", target=0.999),
    SLO("result-cache-hits", "cache_hit_rate", target=0.25),
)


def _parse_target(token: str, spec: str) -> float:
    if not token.endswith("%"):
        raise ValueError(
            f"bad SLO spec {spec!r}: target {token!r} must end in '%'"
        )
    try:
        value = float(token[:-1])
    except ValueError:
        raise ValueError(f"bad SLO spec {spec!r}: target {token!r}") from None
    return value / 100.0


def _parse_window(token: str, spec: str) -> float:
    if not token.endswith("s"):
        raise ValueError(
            f"bad SLO spec {spec!r}: window {token!r} must end in 's'"
        )
    try:
        return float(token[:-1])
    except ValueError:
        raise ValueError(f"bad SLO spec {spec!r}: window {token!r}") from None


def parse_slo(spec: str) -> SLO:
    """Parse one ``--slo`` declaration string (syntax in module docs)."""
    tokens = [token.strip() for token in spec.split(":")]
    if len(tokens) < 3:
        raise ValueError(
            f"bad SLO spec {spec!r}: expected "
            "'<name>:<kind>[:<threshold>]:<target>%[:<window>s]'"
        )
    name, kind = tokens[0], tokens[1]
    if not name:
        raise ValueError(f"bad SLO spec {spec!r}: empty name")
    if kind == "latency":
        if len(tokens) < 4:
            raise ValueError(
                f"bad SLO spec {spec!r}: latency needs "
                "'<name>:latency:<threshold>(ms|s):<target>%[:<window>s]'"
            )
        threshold_token = tokens[2]
        try:
            if threshold_token.endswith("ms"):
                threshold_s = float(threshold_token[:-2]) / 1000.0
            elif threshold_token.endswith("s"):
                threshold_s = float(threshold_token[:-1])
            else:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"bad SLO spec {spec!r}: threshold {threshold_token!r} "
                "must be '<number>ms' or '<number>s'"
            ) from None
        rest = tokens[3:]
    else:
        threshold_s = None
        rest = tokens[2:]
    target = _parse_target(rest[0], spec)
    window_s = _parse_window(rest[1], spec) if len(rest) > 1 else 300.0
    if len(rest) > 2:
        raise ValueError(
            f"bad SLO spec {spec!r}: trailing tokens {rest[2:]}; expected "
            "'<name>:<kind>[:<threshold>]:<target>%[:<window>s]'"
        )
    try:
        return SLO(
            name=name, kind=kind, target=target,
            threshold_s=threshold_s, window_s=window_s,
        )
    except ValueError as error:
        # Constructor invariants (unknown kind, target outside (0, 1],
        # non-positive window) re-raised with the offending spec attached.
        raise ValueError(f"bad SLO spec {spec!r}: {error}") from None


@dataclass(frozen=True)
class SLOStatus:
    """One objective evaluated over its window at a point in time."""

    slo: SLO
    total: int
    good: int
    bad: int
    #: Achieved fraction of good events (None with no data).
    sli: Optional[float]
    #: None with no data, else whether the objective currently holds.
    met: Optional[bool]
    #: Bad events the target allows over this window's totals.
    allowed_bad: float
    #: Unspent fraction of the error budget, clamped to [0, 1].
    budget_remaining: float
    #: True when the event cap evicted events inside the window.
    truncated: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.slo.name,
            "kind": self.slo.kind,
            "spec": self.slo.spec(),
            "target": self.slo.target,
            "threshold_s": self.slo.threshold_s,
            "window_s": self.slo.window_s,
            "total": self.total,
            "good": self.good,
            "bad": self.bad,
            "sli": self.sli,
            "met": self.met,
            "allowed_bad": self.allowed_bad,
            "budget_remaining": self.budget_remaining,
            "truncated": self.truncated,
        }


def _tally(slo: SLO, events: Sequence[QueryEvent]) -> tuple:
    good = total = 0
    for event in events:
        if slo.kind == "cache_hit_rate":
            total += event.cache_lookups
            good += event.cache_hits
            continue
        total += event.queries
        if slo.kind == "error_rate":
            good += 0 if event.error else event.queries
        else:  # latency
            if not event.error and event.duration_s <= slo.threshold_s:
                good += event.queries
    return good, total


def evaluate_slo(
    slo: SLO,
    events: Sequence[QueryEvent],
    now: float,
    dropped_ts: float = float("-inf"),
) -> SLOStatus:
    """Evaluate one objective over the events inside its window.

    ``dropped_ts`` is the timestamp of the newest event the window cap
    evicted; at or after the window start, the status is ``truncated``.
    """
    cutoff = now - slo.window_s
    windowed = [event for event in events if event.ts >= cutoff]
    good, total = _tally(slo, windowed)
    bad = total - good
    allowed_bad = (1.0 - slo.target) * total
    if total == 0:
        sli: Optional[float] = None
        met: Optional[bool] = None
        budget_remaining = 1.0
    else:
        sli = good / total
        met = sli >= slo.target
        if allowed_bad > 0.0:
            budget_remaining = max(0.0, 1.0 - bad / allowed_bad)
        else:  # target == 1.0: any bad event empties the budget
            budget_remaining = 1.0 if bad == 0 else 0.0
    return SLOStatus(
        slo=slo, total=total, good=good, bad=bad, sli=sli, met=met,
        allowed_bad=allowed_bad, budget_remaining=budget_remaining,
        truncated=dropped_ts >= cutoff,
    )


def evaluate_slos(
    slos: Sequence[SLO],
    events: Sequence[QueryEvent],
    now: float,
    dropped_ts: float = float("-inf"),
) -> List[SLOStatus]:
    return [evaluate_slo(slo, events, now, dropped_ts) for slo in slos]


def format_slo_report(statuses: Sequence[Dict[str, Any]]) -> str:
    """ASCII table over status dicts (live or loaded from a dump)."""
    if not statuses:
        return "(no SLOs declared)"
    header = (
        f"{'slo':<22} {'kind':<15} {'window':>8} {'target':>8} "
        f"{'sli':>8} {'events':>7} {'bad':>6} {'budget':>7}  state"
    )
    lines = [header, "-" * len(header)]
    for status in statuses:
        sli = status.get("sli")
        met = status.get("met")
        state = "no data" if met is None else ("OK" if met else "VIOLATED")
        if status.get("truncated"):
            state += " (truncated)"
        lines.append(
            f"{status.get('name', '?'):<22} "
            f"{status.get('kind', '?'):<15} "
            f"{status.get('window_s', 0):>7g}s "
            f"{status.get('target', 0) * 100.0:>7.2f}% "
            f"{('-' if sli is None else f'{sli * 100.0:.2f}%'):>8} "
            f"{status.get('total', 0):>7} "
            f"{status.get('bad', 0):>6} "
            f"{status.get('budget_remaining', 0) * 100.0:>6.1f}%  {state}"
        )
    return "\n".join(lines)
