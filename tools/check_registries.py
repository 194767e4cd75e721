#!/usr/bin/env python3
"""Lint the score-function and index-backend registries against the
surfaces derived from them.

The registry in ``src/repro/scoring/`` is the single source of truth for
prestige score functions, the one in ``src/repro/index/backends/`` for
index storage engines.  This lint (modeled on ``check_metric_names.py``)
fails CI when any derived surface drifts:

1. CLI: every ``--function`` choice list (``repro search`` / ``repro
   tune``) equals the registered function names, every ``--paper-set``
   equals ``scoring.PAPER_SET_NAMES``, and every ``--index-backend``
   (``repro search`` / ``repro build`` / ``repro workspace status`` ...)
   equals the registered backends with ``DEFAULT_BACKEND`` as its
   argparse default;
2. workspace: exactly one ``scores_<function>_<paper_set>`` artifact per
   evaluation arm, with the dependency chain ``(<paper_set>_paper_set,)
   + spec.substrates``, and an ``index`` artifact that lists
   ``index_backend`` among its config keys so switching backends marks
   it stale;
3. backend specs: callable ``build``/``save``/``load``, a unique
   ``format_tag`` each (the workspace load path dispatches on it), and a
   registered default;
4. docs: the "Registered score functions" and "Registered index
   backends" tables of ``docs/architecture.md`` list exactly the
   registered names;
5. ``src/``: no literal function-name dispatch ladder
   (``function == "citation"``) or hand-rolled choices tuple of function
   names outside ``src/repro/scoring/``, and no concrete index class
   (``InvertedIndex``, ``PositionalIndex``, ``OndiskPostingsBackend``)
   outside ``src/repro/index/`` -- derive from the registries instead.

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
#: The registry packages themselves are where literal names belong.
SCORING_PREFIX = "src/repro/scoring/"
INDEX_PREFIX = "src/repro/index/"
#: Subcommands each registry-derived flag must appear on.
REQUIRED_SUBCOMMANDS = {
    "--function": {"search", "tune"},
    "--index-backend": {"search", "build"},
}


def cli_flags(parser: argparse.ArgumentParser, flag: str) -> list:
    """``(subcommand, action)`` for every ``flag`` option, nested included."""
    found = []

    def walk(prefix: str, parser: argparse.ArgumentParser) -> None:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, nested in action.choices.items():
                    walk(f"{prefix} {name}".strip(), nested)
            elif flag in action.option_strings:
                found.append((prefix, action))

    walk("", parser)
    return found


def check_cli(scoring, backends) -> list:
    """CLI choices (and the backend default) must come from the registries."""
    from repro.cli import build_parser

    parser = build_parser()
    problems = []
    expected = {
        "--function": tuple(scoring.function_names()),
        "--paper-set": scoring.PAPER_SET_NAMES,
        "--index-backend": tuple(backends.backend_names()),
    }
    for flag, names in expected.items():
        flags = cli_flags(parser, flag)
        for subcommand, action in flags:
            choices = tuple(action.choices or ())
            if choices != names:
                problems.append(
                    f"cli: `{subcommand} {flag}` choices {choices} != "
                    f"registry {names}"
                )
            if flag == "--index-backend" and action.default != backends.DEFAULT_BACKEND:
                problems.append(
                    f"cli: `{subcommand} {flag}` default {action.default!r} != "
                    f"registry default {backends.DEFAULT_BACKEND!r}"
                )
        seen = {subcommand.split()[0] for subcommand, _ in flags}
        for subcommand in sorted(REQUIRED_SUBCOMMANDS.get(flag, set()) - seen):
            problems.append(f"cli: `{subcommand}` has no {flag} flag")
    return problems


def check_workspace(scoring) -> list:
    """One score artifact per arm with spec deps; index keyed on its backend."""
    from repro.workspace import ARTIFACTS

    problems = []
    expected = {
        f"scores_{fn}_{ps}": (f"{ps}_paper_set",) + scoring.get(fn).substrates
        for fn, ps in scoring.evaluation_arms()
    }
    actual = {
        name: artifact.deps
        for name, artifact in ARTIFACTS.items()
        if name.startswith("scores_")
    }
    for name in sorted(set(expected) - set(actual)):
        problems.append(f"workspace: arm artifact {name} missing from ARTIFACTS")
    for name in sorted(set(actual) - set(expected)):
        problems.append(f"workspace: score artifact {name} has no registry arm")
    for name in sorted(set(expected) & set(actual)):
        if expected[name] != actual[name]:
            problems.append(
                f"workspace: {name} deps {actual[name]} != spec-derived "
                f"{expected[name]}"
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


def check_backend_specs(backends) -> list:
    """Spec shape, unique format tags, registered default."""
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
    return problems


#: First cell of a registry table row.
DOCS_ROW_RE = re.compile(r"^\|\s*`([a-z][a-z0-9_]*)`\s*\|")


def docs_table_names(heading: str) -> list:
    """Names listed in the docs table introduced by ``heading``, in order."""
    text = (REPO_ROOT / DOCS_PATH).read_text(encoding="utf-8")
    names = []
    in_section = False
    for line in text.splitlines():
        if line.strip() == heading:
            in_section = True
            continue
        if in_section:
            row = DOCS_ROW_RE.match(line)
            if row:
                names.append(row.group(1))
            elif names:
                break  # table ended
    return names


def check_docs(heading: str, kind: str, registered) -> list:
    """The docs table under ``heading`` lists exactly ``registered``."""
    documented = docs_table_names(heading)
    if not documented:
        return [f"docs: no '{heading.rstrip(':')}' table found in {DOCS_PATH}"]
    problems = []
    for name in registered:
        if name not in documented:
            problems.append(
                f"docs: registered {kind} {name!r} missing from the "
                f"{DOCS_PATH} table"
            )
    for name in documented:
        if name not in registered:
            problems.append(
                f"docs: {DOCS_PATH} table lists unregistered {kind} {name!r}"
            )
    return problems


#: ``function == "..."`` / ``function_name == '...'`` dispatch ladders.
DISPATCH_RE = re.compile(r"\bfunction(?:_name)?\s*==\s*[\"'][a-z0-9_]+[\"']")
#: A run of two or more adjacent string literals (a choices tuple body).
LITERAL_RUN_RE = re.compile(
    r"[\"']([a-z][a-z0-9_]*)[\"'](?:\s*,\s*[\"']([a-z][a-z0-9_]*)[\"'])+"
)
#: Concrete index classes that must stay inside src/repro/index/.
CONCRETE_RE = re.compile(
    r"\b(InvertedIndex|PositionalIndex|OndiskPostingsBackend)\b"
)
COMMENT_RE = re.compile(r"#.*$")


def scan_src(scoring) -> list:
    """No literal function dispatch and no concrete index types in src/."""
    names = set(scoring.function_names())
    paper_sets = set(scoring.PAPER_SET_NAMES)
    problems = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        relative = str(path.relative_to(REPO_ROOT))
        for lineno, raw in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = COMMENT_RE.sub("", raw)
            where = f"src: {relative}:{lineno}:"
            if not relative.startswith(SCORING_PREFIX):
                if DISPATCH_RE.search(line):
                    problems.append(
                        f"{where} literal function dispatch "
                        f"(derive from repro.scoring instead)"
                    )
                for match in LITERAL_RUN_RE.finditer(line):
                    literals = re.findall(
                        r"[\"']([a-z][a-z0-9_]*)[\"']", match.group(0)
                    )
                    # A hand-rolled choices tuple: every literal is a
                    # registered function name and at least one is
                    # unambiguously a function (the text/pattern paper-set
                    # pair stays legal).
                    if set(literals) <= names and not set(literals) <= paper_sets:
                        problems.append(
                            f"{where} literal function-name tuple "
                            f"{tuple(literals)} (use scoring.function_names())"
                        )
            if not relative.startswith(INDEX_PREFIX):
                match = CONCRETE_RE.search(line)
                if match:
                    problems.append(
                        f"{where} concrete index type {match.group(1)} (talk "
                        f"to the SearchBackend protocol via "
                        f"repro.index.backends instead)"
                    )
    return problems


def main() -> int:
    from repro import scoring
    from repro.index import backends

    problems = [
        *check_cli(scoring, backends),
        *check_workspace(scoring),
        *check_backend_specs(backends),
        *check_docs(
            "Registered score functions:", "function", scoring.function_names()
        ),
        *check_docs(
            "Registered index backends:", "backend", backends.backend_names()
        ),
        *scan_src(scoring),
    ]
    if problems:
        print("registry violations:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(
        f"check_registries: {len(scoring.function_names())} functions "
        f"({len(scoring.evaluation_arms())} arms), "
        f"{len(backends.backend_names())} backends "
        f"({', '.join(backends.backend_names())}) -- CLI, workspace, docs "
        f"and src agree with the registries"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
