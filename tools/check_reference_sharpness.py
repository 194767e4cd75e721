#!/usr/bin/env python3
"""Check that the differential tests catch a list of one-line mutations.

Each mutation names a file under ``src/``, an exact fragment that must
occur there once, its replacement, and the differential tests that must
catch it.  The script copies ``src/`` to a temporary directory, runs
every mapped test against the unmutated copy, then for each mutation
applies it to a fresh copy and runs its tests with that copy first on
``PYTHONPATH``.  Tests run with a fixed hypothesis seed and no
shrinking (the ``no-shrink`` profile of ``tests/conftest.py``), no
example database, pytest cache or bytecode, and a temporary working
directory, so the checkout is never written to.

Exit status 1 if the unmutated copy fails a test, a fragment is not
found exactly once, or a mutant passes all of its tests (or fails for
another reason than a failing test)::

    python tools/check_reference_sharpness.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent


class Mutation(NamedTuple):
    name: str
    path: str  # under src/
    old: str
    new: str
    tests: Tuple[str, ...]  # pytest node ids, relative to the repo root


PRESTIGE = "tests/test_prestige_rows_reference.py"
BUILDER = "tests/test_pattern_builder_reference.py::TestBuild"
KERNEL = "tests/test_context_kernel_reference.py"
MERGE = "tests/test_search_merge_reference.py"
SELECTION = "tests/test_context_selection_reference.py"
QUERY = (
    "tests/test_query_evaluation_reference.py"
    "::test_in_memory_and_packed_evaluations_equal_reference"
)
TEXT = "tests/test_text_kernel_reference.py"
ASSIGNMENT = "tests/test_pattern_assignment_reference.py"
GRAPH = "tests/test_citations_graph.py::TestOrders"

MUTATIONS = (
    Mutation(
        "scores-decay", "repro/scoring/base.py",
        "values = values * np.repeat(decay, np.diff(raw.indptr))",
        "values = values",
        (PRESTIGE,),
    ),
    Mutation(
        "patterns-window", "repro/core/patterns.py",
        "n_left = np.minimum(local_start, window)",
        "n_left = np.minimum(local_start, window - 1)",
        (BUILDER,),
    ),
    Mutation(
        "search-threshold", "repro/core/search.py",
        "kept = np.flatnonzero(matched & ~(relevancy < threshold))",
        "kept = np.flatnonzero(matched & ~(relevancy <= threshold))",
        (KERNEL,),
    ),
    Mutation(
        "search-id-tie-break", "repro/core/search.py",
        "ranked = best[np.lexsort((rank[papers[best]], -relevancy[best]))]",
        "ranked = best[np.lexsort((papers[best], -relevancy[best]))]",
        (KERNEL,),
    ),
    Mutation(
        "search-merge-cut", "repro/core/search.py",
        "kept = np.flatnonzero(self.relevancy >= cut)",
        "kept = np.flatnonzero(self.relevancy > cut)",
        (MERGE,),
    ),
    Mutation(
        "search-merge-fmax", "repro/core/search.py",
        "np.fmax.at(paper_best, self.papers, self.relevancy)",
        "np.maximum.at(paper_best, self.papers, self.relevancy)",
        (MERGE,),
    ),
    Mutation(
        "search-probe-size", "repro/core/search.py",
        "strengths = totals[touched] / columns.sqrt_sizes[touched]",
        "strengths = totals[touched]",
        (KERNEL,),
    ),
    Mutation(
        "search-select-tie-break", "repro/core/search.py",
        "ranked = np.lexsort((self._columns.id_rank[rows], -strengths))",
        "ranked = np.lexsort((-strengths,))",
        (SELECTION,),
    ),
    Mutation(
        "search-select-cut", "repro/core/search.py",
        "chosen = strengths >= cut",
        "chosen = strengths > cut",
        (SELECTION,),
    ),
    Mutation(
        "query-idf", "repro/index/search.py",
        "math.log((1.0 + self.index.n_papers) / (1.0 + df))",
        "math.log(self.index.n_papers / (1.0 + df))",
        (QUERY,),
    ),
    Mutation(
        "cosine-threshold", "repro/core/cosine.py",
        "kept = np.flatnonzero(values >= threshold)",
        "kept = np.flatnonzero(values > threshold)",
        (f"{TEXT}::test_assigner_equals_per_pair_reference",
         f"{TEXT}::test_threshold_equal_to_an_exact_cosine"),
    ),
    Mutation(
        "assignment-cut", "repro/core/assignment.py",
        "builder.coverage_count(middle) > max_candidates",
        "builder.coverage_count(middle) >= max_candidates",
        (ASSIGNMENT,),
    ),
    Mutation(
        "assignment-ancestor", "repro/core/assignment.py",
        "key=lambda tid: (-self.ontology.level(tid), tid)",
        "key=lambda tid: (self.ontology.level(tid), tid)",
        (ASSIGNMENT,),
    ),
    Mutation(
        "assignment-rollup", "repro/core/assignment.py",
        "papers.update(own_matches[descendant])",
        "papers.update(own_matches[term_id])",
        (ASSIGNMENT,),
    ),
    Mutation(
        "graph-in-list-order", "repro/citations/graph.py",
        'self.in_sources = sources[np.argsort(targets, kind="stable")]',
        "self.in_sources = sources[np.lexsort((sources, targets))]",
        (GRAPH,),
    ),
    Mutation(
        "graph-keep-first", "repro/citations/graph.py",
        "first = np.sort(np.unique(sources * n + targets, return_index=True)[1])",
        "first = np.sort(len(sources) - 1"
        " - np.unique((sources * n + targets)[::-1], return_index=True)[1])",
        (GRAPH,),
    ),
)


def copy_src(root: Path) -> Path:
    target = root / "src"
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    shutil.copytree(REPO_ROOT / "src", target, ignore=ignore)
    return target


def apply(src: Path, mutation: Mutation) -> None:
    path = src / mutation.path
    text = path.read_text(encoding="utf-8")
    count = text.count(mutation.old)
    if count != 1:
        raise SystemExit(
            f"{mutation.name}: {mutation.old!r} occurs {count} times in "
            f"src/{mutation.path}, expected once"
        )
    path.write_text(text.replace(mutation.old, mutation.new), encoding="utf-8")


def run_tests(src: Path, tests: Sequence[str], stop_early: bool) -> int:
    """pytest's exit status for ``tests`` against the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", "--hypothesis-profile=no-shrink",
        "--rootdir", str(REPO_ROOT),
        *(["-x"] if stop_early else []),
        *(str(REPO_ROOT / test) for test in tests),
    ]
    with tempfile.TemporaryDirectory(prefix="sharpness-run-") as cwd:
        done = subprocess.run(
            command, cwd=cwd, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
    if done.returncode not in (0, 1):
        print(done.stdout[-3000:])
    return done.returncode


def main() -> int:
    started = time.perf_counter()
    failures = 0
    with tempfile.TemporaryDirectory(prefix="sharpness-") as directory:
        root = Path(directory)
        clean = copy_src(root / "clean")
        for mutation in MUTATIONS:  # every fragment is checked before any run
            apply(copy_src(root / mutation.name), mutation)
        tests = list(dict.fromkeys(t for m in MUTATIONS for t in m.tests))
        tick = time.perf_counter()
        status = run_tests(clean, tests, stop_early=False)
        print(f"{'unmutated':22} {'passes' if status == 0 else 'FAILS':8} "
              f"{time.perf_counter() - tick:6.1f}s  ({len(tests)} test targets)")
        failures += status != 0
        for mutation in MUTATIONS:
            tick = time.perf_counter()
            mutant = root / mutation.name / "src"
            status = run_tests(mutant, mutation.tests, stop_early=True)
            verdict = {0: "SURVIVES", 1: "caught"}.get(status, f"ERROR {status}")
            print(f"{mutation.name:22} {verdict:8} {time.perf_counter() - tick:6.1f}s  "
                  f"src/{mutation.path}")
            failures += status != 1
    print(f"{len(MUTATIONS)} mutations, {failures} problem(s), "
          f"{time.perf_counter() - started:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
