#!/usr/bin/env python
"""Generate docs/api.md and the score-function table of docs/architecture.md.

Walks every ``repro`` package's ``__all__``, pulls the first docstring
paragraph of each public item, and renders a compact markdown reference.
Then rewrites the table under "Registered score functions:" in
docs/architecture.md from the scoring registry.  Re-run after changing
public APIs or registering a score function:

    PYTHONPATH=src python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

PACKAGES = [
    "repro",
    "repro.text",
    "repro.ontology",
    "repro.corpus",
    "repro.citations",
    "repro.index",
    "repro.datagen",
    "repro.baselines",
    "repro.ingest",
    "repro.core",
    "repro.core.scores",
    "repro.eval",
]


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return "(undocumented)"
    paragraph = doc.split("\n\n", 1)[0]
    return " ".join(line.strip() for line in paragraph.splitlines())


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def render_package(name: str) -> list:
    module = importlib.import_module(name)
    lines = [f"## `{name}`", ""]
    summary = first_paragraph(module)
    lines.append(summary)
    lines.append("")
    exported = getattr(module, "__all__", None)
    if not exported:
        return lines
    for item_name in exported:
        item = getattr(module, item_name)
        kind = (
            "class"
            if inspect.isclass(item)
            else "function"
            if callable(item)
            else "constant"
        )
        suffix = signature_of(item) if kind in ("class", "function") else ""
        lines.append(f"### `{item_name}{suffix}`")
        lines.append("")
        lines.append(f"*{kind}* — {first_paragraph(item)}")
        lines.append("")
    return lines


DOCS = Path(__file__).resolve().parent.parent / "docs"
#: The line introducing the generated table in docs/architecture.md.
SCORE_TABLE_HEADING = "Registered score functions:"


def score_function_table() -> list:
    """Markdown rows describing every registered score function."""
    from repro import scoring

    lines = [
        "| function | substrates | paper sets (arms) | description |",
        "|---|---|---|---|",
    ]
    for spec in scoring.specs():
        substrates = ", ".join(spec.substrates) or "—"
        paper_sets = ", ".join(spec.paper_sets) or "—"
        lines.append(
            f"| `{spec.name}` | {substrates} | {paper_sets} | {spec.description} |"
        )
    return lines


def with_score_function_table(text: str) -> str:
    """``text`` with the table after :data:`SCORE_TABLE_HEADING` regenerated."""
    lines = text.split("\n")
    start = lines.index(SCORE_TABLE_HEADING) + 2  # the heading, a blank line
    end = start
    while end < len(lines) and lines[end].startswith("|"):
        end += 1
    return "\n".join(lines[:start] + score_function_table() + lines[end:])


def main() -> int:
    out_path = DOCS / "api.md"
    lines = [
        "# API reference",
        "",
        "Generated by `tools/gen_api_docs.py` — do not edit by hand.",
        "Full signatures and parameter docs live in the docstrings",
        "(`help(repro.core.ContextSearchEngine)` etc.).",
        "",
    ]
    for package in PACKAGES:
        lines.extend(render_package(package))
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out_path} ({len(lines)} lines)")
    architecture = DOCS / "architecture.md"
    text = architecture.read_text(encoding="utf-8")
    architecture.write_text(with_score_function_table(text), encoding="utf-8")
    print(f"wrote the score-function table of {architecture}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
