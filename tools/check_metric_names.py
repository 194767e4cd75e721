#!/usr/bin/env python3
"""Lint metric and span name literals against the dotted conventions.

Scans every Python file under src/, benchmarks/, and tests/ for registry
calls -- ``counter("...")``, ``gauge("...")``, ``histogram("...")``,
``timer("...")`` -- and checks the name literal has at least three
dot-separated lowercase segments (``^[a-z][a-z0-9_]*(\\.[a-z][a-z0-9_]*){2,}$``).
An f-string placeholder (``scores.{self.name}.seconds``) counts as one
wildcard segment, so dynamic families stay lintable.

``span("...")`` literals are linted the same way against the span
convention -- ``stage.component`` or ``stage.component.detail`` (two or
three segments).

Additionally, every metric and span name emitted from ``src/`` must
appear in the catalogs of ``docs/observability.md`` (``<function>``-style
placeholders in the docs match any segment) -- adding a name without
documenting it fails CI.

Exit status 1 when any violation is found; intended for tools/ci.sh.
The runtime enforces the same metric rule
(repro.obs.metrics.validate_metric_name) -- this lint just fails
earlier, without executing the code path; span names have no runtime
check at all, so this lint is their only guard.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCAN_DIRS = ("src", "benchmarks", "tests")

#: counter("name") / gauge(f"...") / histogram('...') / timer("...")
CALL_RE = re.compile(
    r"\b(?:counter|gauge|histogram|timer)\(\s*(f?)([\"'])((?:[^\"'\\]|\\.)*?)\2"
)
#: span("name") literals; the lookbehind keeps ``*_span`` helpers and
#: ``obj.span(...)`` calls out of the match.
SPAN_CALL_RE = re.compile(
    r"(?<![\w.])span\(\s*(f?)([\"'])((?:[^\"'\\]|\\.)*?)\2"
)
#: One literal segment of a metric name.
SEGMENT_RE = re.compile(r"^[a-z][a-z0-9_]*$")
#: An f-string placeholder (may itself contain dots: ``{self.name}``).
PLACEHOLDER_RE = re.compile(r"\{[^{}]+\}")
_WILDCARD = "\x00"

#: Files whose *test fixtures* intentionally contain invalid names.
EXEMPT = {"tests/test_obs_metrics.py", "tests/test_obs_trace.py"}


def _segments(name: str, is_fstring: bool):
    """Dot-split with each f-string ``{expr}`` collapsed to a wildcard.

    Collapsing before splitting keeps a dotted expression inside the
    braces (``{self.name}``) from creating fake segments.  Returns None
    when a literal segment breaks the lowercase shape.
    """
    if is_fstring:
        name = PLACEHOLDER_RE.sub(_WILDCARD, name)
    segments = name.split(".")
    for segment in segments:
        if is_fstring and segment == _WILDCARD:
            continue
        if not SEGMENT_RE.match(segment):
            return None
    return segments


def check_name(name: str, is_fstring: bool) -> bool:
    """True when a metric name follows the convention (>= 3 segments)."""
    segments = _segments(name, is_fstring)
    return segments is not None and len(segments) >= 3


def check_span_name(name: str, is_fstring: bool) -> bool:
    """True when a span name is ``stage.component[.detail]`` (2-3 segments)."""
    segments = _segments(name, is_fstring)
    return segments is not None and 2 <= len(segments) <= 3


#: The human-maintained name catalogs every src/ name must appear in.
CATALOG_PATH = "docs/observability.md"
#: Backticked names in the catalog: segments are lowercase literals or
#: ``<placeholder>`` wildcards.  Metric entries need >= 3 segments; span
#: entries >= 2 (the span-name convention allows two).
CATALOG_NAME_RE = re.compile(
    r"`((?:[a-z][a-z0-9_]*|<[a-z_]+>)(?:\.(?:[a-z][a-z0-9_]*|<[a-z_]+>)){2,})`"
)
SPAN_CATALOG_NAME_RE = re.compile(
    r"`((?:[a-z][a-z0-9_]*|<[a-z_]+>)(?:\.(?:[a-z][a-z0-9_]*|<[a-z_]+>)){1,2})`"
)


def catalog_names(pattern=CATALOG_NAME_RE) -> list:
    """Documented names as segment tuples (wildcards = None)."""
    text = (REPO_ROOT / CATALOG_PATH).read_text(encoding="utf-8")
    names = []
    for match in pattern.finditer(text):
        segments = tuple(
            None if segment.startswith("<") else segment
            for segment in match.group(1).split(".")
        )
        names.append(segments)
    return names


def in_catalog(name: str, is_fstring: bool, catalog: list) -> bool:
    """True when a src/ name matches a documented entry."""
    if is_fstring:
        name = PLACEHOLDER_RE.sub(_WILDCARD, name)
    segments = name.split(".")
    for documented in catalog:
        if len(documented) != len(segments):
            continue
        if all(
            doc is None or src == _WILDCARD or doc == src
            for doc, src in zip(documented, segments)
        ):
            return True
    return False


def scan_file(path: Path, catalog=None, span_catalog=None) -> list:
    violations = []
    text = path.read_text(encoding="utf-8")
    for match in CALL_RE.finditer(text):
        is_fstring, name = bool(match.group(1)), match.group(3)
        line = text.count("\n", 0, match.start()) + 1
        if not check_name(name, is_fstring):
            violations.append((path, line, name, "bad metric segment shape"))
        elif catalog is not None and not in_catalog(name, is_fstring, catalog):
            violations.append(
                (path, line, name, f"not documented in {CATALOG_PATH}")
            )
    for match in SPAN_CALL_RE.finditer(text):
        is_fstring, name = bool(match.group(1)), match.group(3)
        line = text.count("\n", 0, match.start()) + 1
        if not check_span_name(name, is_fstring):
            violations.append(
                (path, line, name, "bad span segment shape (want 2-3 segments)")
            )
        elif span_catalog is not None and not in_catalog(
            name, is_fstring, span_catalog
        ):
            violations.append(
                (path, line, name, f"span not documented in {CATALOG_PATH}")
            )
    return violations


def main() -> int:
    violations = []
    catalog = catalog_names()
    span_catalog = catalog_names(SPAN_CATALOG_NAME_RE)
    for directory in SCAN_DIRS:
        root = REPO_ROOT / directory
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*.py")):
            if str(path.relative_to(REPO_ROOT)) in EXEMPT:
                continue
            # Only src/ names must be catalogued; tests and benches may
            # mint throwaway names, which still must follow the shape.
            in_src = directory == "src"
            violations.extend(
                scan_file(
                    path,
                    catalog if in_src else None,
                    span_catalog if in_src else None,
                )
            )
    if violations:
        print("metric/span name violations:")
        for path, line, name, reason in violations:
            print(f"  {path.relative_to(REPO_ROOT)}:{line}: {name!r} ({reason})")
        return 1
    print(
        "check_metric_names: all metric names follow stage.component.metric, "
        "span names follow stage.component[.detail], and src/ names are "
        "catalogued"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
