#!/usr/bin/env python3
"""Lint the index-backend registry against its derived surfaces.

The registry in ``src/repro/index/backends/`` is the single source of
truth for index storage engines.  This lint (modeled on
``check_score_registry.py``) fails CI when any derived surface drifts:

1. the CLI ``--index-backend`` choice lists (``repro search`` /
   ``repro build`` / ``repro workspace status``)
   must equal the registered names, with the registry default as the
   argparse default;
2. every spec must carry a callable ``build``/``save``/``load`` and a
   unique ``format_tag`` (the workspace load path dispatches on it),
   and the workspace ``index`` artifact must declare ``index_backend``
   among its config keys so switching backends marks it stale;
3. the "Registered index backends" table of ``docs/architecture.md``
   must list exactly the registered names;
4. no concrete index class (``InvertedIndex``, ``PositionalIndex``,
   ``OndiskPostingsBackend``) may be referenced in ``src/`` outside
   ``src/repro/index/`` -- every other layer talks to the
   ``SearchBackend`` protocol via the registry.

Exit status 1 on any violation; intended for tools/ci.sh.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

DOCS_PATH = "docs/architecture.md"
#: The index package itself is where the concrete classes belong.
EXEMPT_PREFIX = "src/repro/index/"
#: Subcommands required to expose --index-backend.
REQUIRED_SUBCOMMANDS = {"search", "build"}


def check_cli_choices(backends) -> list:
    """CLI --index-backend choices/default must come from the registry."""
    from repro.cli import build_parser

    problems = []
    names = tuple(backends.backend_names())
    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    seen = set()

    def scan(subcommand, parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for nested_name, nested in action.choices.items():
                    scan(f"{subcommand} {nested_name}", nested)
                continue
            if "--index-backend" not in action.option_strings:
                continue
            seen.add(subcommand.split()[0])
            if tuple(action.choices or ()) != names:
                problems.append(
                    f"cli: `{subcommand} --index-backend` choices "
                    f"{tuple(action.choices or ())} != registry {names}"
                )
            if action.default != backends.DEFAULT_BACKEND:
                problems.append(
                    f"cli: `{subcommand} --index-backend` default "
                    f"{action.default!r} != registry default "
                    f"{backends.DEFAULT_BACKEND!r}"
                )

    for subcommand, parser in subparsers.choices.items():
        scan(subcommand, parser)
    missing = REQUIRED_SUBCOMMANDS - seen
    for subcommand in sorted(missing):
        problems.append(f"cli: `{subcommand}` has no --index-backend flag")
    return problems


def check_registry_and_workspace(backends) -> list:
    """Spec shape, unique format tags, workspace config-key coupling."""
    from repro.workspace import ARTIFACTS

    problems = []
    tags = {}
    for spec in backends.specs():
        for role in ("build", "save", "load"):
            if not callable(getattr(spec, role, None)):
                problems.append(f"registry: backend {spec.name!r} {role} not callable")
        if spec.format_tag in tags:
            problems.append(
                f"registry: backends {tags[spec.format_tag]!r} and "
                f"{spec.name!r} share format tag {spec.format_tag!r}"
            )
        tags[spec.format_tag] = spec.name
    if backends.DEFAULT_BACKEND not in backends.backend_names():
        problems.append(
            f"registry: default backend {backends.DEFAULT_BACKEND!r} "
            f"is not registered"
        )
    index_artifact = ARTIFACTS.get("index")
    if index_artifact is None:
        problems.append("workspace: no 'index' artifact registered")
    elif "index_backend" not in index_artifact.config_keys:
        problems.append(
            "workspace: the index artifact must list 'index_backend' in "
            "config_keys (backend switches must fingerprint as stale)"
        )
    return problems


#: First cell of a "Registered index backends" table row.
DOCS_ROW_RE = re.compile(r"^\|\s*`([a-z][a-z0-9_]*)`\s*\|")


def docs_table_names() -> list:
    """Backend names listed in the architecture docs table, in order."""
    text = (REPO_ROOT / DOCS_PATH).read_text(encoding="utf-8")
    names = []
    in_section = False
    for line in text.splitlines():
        if line.strip() == "Registered index backends:":
            in_section = True
            continue
        if in_section:
            row = DOCS_ROW_RE.match(line)
            if row:
                names.append(row.group(1))
            elif names:
                break  # table ended
    return names


def check_docs(backends) -> list:
    documented = docs_table_names()
    registered = list(backends.backend_names())
    problems = []
    if not documented:
        problems.append(
            f"docs: no 'Registered index backends' table found in {DOCS_PATH}"
        )
        return problems
    for name in registered:
        if name not in documented:
            problems.append(
                f"docs: registered backend {name!r} missing from the "
                f"{DOCS_PATH} table"
            )
    for name in documented:
        if name not in registered:
            problems.append(
                f"docs: {DOCS_PATH} table lists unregistered backend {name!r}"
            )
    return problems


#: Concrete index classes that must stay inside src/repro/index/.
CONCRETE_RE = re.compile(
    r"\b(InvertedIndex|PositionalIndex|OndiskPostingsBackend)\b"
)
COMMENT_RE = re.compile(r"#.*$")


def scan_for_concrete_references() -> list:
    """No concrete index types outside the index package itself."""
    problems = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        relative = str(path.relative_to(REPO_ROOT))
        if relative.startswith(EXEMPT_PREFIX):
            continue
        for lineno, raw in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = COMMENT_RE.sub("", raw)
            match = CONCRETE_RE.search(line)
            if match:
                problems.append(
                    f"src: {relative}:{lineno}: concrete index type "
                    f"{match.group(1)} (talk to the SearchBackend protocol "
                    f"via repro.index.backends instead)"
                )
    return problems


def main() -> int:
    from repro.index import backends

    problems = []
    problems.extend(check_cli_choices(backends))
    problems.extend(check_registry_and_workspace(backends))
    problems.extend(check_docs(backends))
    problems.extend(scan_for_concrete_references())
    if problems:
        print("index-backend violations:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(
        f"check_index_backends: {len(backends.backend_names())} backends "
        f"({', '.join(backends.backend_names())}) -- CLI, workspace, and "
        f"docs agree with the registry"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
