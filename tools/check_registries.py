#!/usr/bin/env python3
"""Lint the score-function registry and the index protocol boundary.

The registry in ``src/repro/scoring/`` is the single source of truth for
prestige score functions.  This lint (modeled on
``check_metric_names.py``) fails CI when a derived surface drifts:

1. CLI: every ``--function`` choice list (``repro search`` / ``repro
   tune``) equals the registered function names, and every
   ``--paper-set`` equals ``scoring.PAPER_SET_NAMES``;
2. workspace: exactly one ``scores_<function>_<paper_set>`` artifact per
   evaluation arm, with the dependency chain ``(<paper_set>_paper_set,)
   + spec.substrates``;
3. ``src/``: no literal function-name dispatch ladder
   (``function == "citation"``) or hand-rolled choices tuple of function
   names outside ``src/repro/scoring/``, and no concrete index class
   (``InvertedIndex``, ``PositionalIndex``, ``PackedIndex``) outside
   ``src/repro/index/`` -- talk to the ``SearchBackend`` protocol.

The "Registered score functions" table of ``docs/architecture.md`` is
not linted: ``tools/gen_api_docs.py`` writes it from the registry.

Exit status 1 on any violation; intended for tools/ci.sh.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: The registry package itself is where literal names belong.
SCORING_PREFIX = "src/repro/scoring/"
INDEX_PREFIX = "src/repro/index/"
#: Subcommands each registry-derived flag must appear on.
REQUIRED_SUBCOMMANDS = {"--function": {"search", "tune"}}


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


def check_cli(scoring) -> list:
    """CLI choices must come from the registry."""
    from repro.cli import build_parser

    parser = build_parser()
    problems = []
    expected = {
        "--function": tuple(scoring.function_names()),
        "--paper-set": scoring.PAPER_SET_NAMES,
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
        seen = {subcommand.split()[0] for subcommand, _ in flags}
        for subcommand in sorted(REQUIRED_SUBCOMMANDS.get(flag, set()) - seen):
            problems.append(f"cli: `{subcommand}` has no {flag} flag")
    return problems


def check_workspace(scoring) -> list:
    """One score artifact per arm with spec-derived deps."""
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
    return problems


#: ``function == "..."`` / ``function_name == '...'`` dispatch ladders.
DISPATCH_RE = re.compile(r"\bfunction(?:_name)?\s*==\s*[\"'][a-z0-9_]+[\"']")
#: A run of two or more adjacent string literals (a choices tuple body).
LITERAL_RUN_RE = re.compile(
    r"[\"']([a-z][a-z0-9_]*)[\"'](?:\s*,\s*[\"']([a-z][a-z0-9_]*)[\"'])+"
)
#: Concrete index classes that must stay inside src/repro/index/.
CONCRETE_RE = re.compile(r"\b(InvertedIndex|PositionalIndex|PackedIndex)\b")
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
                        f"to the SearchBackend protocol instead)"
                    )
    return problems


def main() -> int:
    from repro import scoring

    problems = [*check_cli(scoring), *check_workspace(scoring), *scan_src(scoring)]
    if problems:
        print("registry violations:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(
        f"check_registries: {len(scoring.function_names())} functions "
        f"({len(scoring.evaluation_arms())} arms) -- CLI, workspace and src "
        f"agree with the registry"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
