#!/usr/bin/env python3
"""Regenerate the ranking-parity and pattern-set golden files.

Runs the demo pipeline over every registered score function x paper set
x selection strategy and records the full ``search`` / ``search_grouped``
/ ``explain`` output to ``tests/data/golden_rankings.json``.  The file is
the parity contract of ``tests/test_ranking_parity.py``: refactors of the
dispatch/serving layers must reproduce these rankings bit for bit.

On the same pipeline it also pins every mined pattern: a sha256 per
context over each pattern's ``(left, middle, right, kind, score.hex())``
for the simplified and the extended builder, plus the pattern paper
set's members, ``inherited_from`` and ``decay``, written to
``tests/data/golden_pattern_sets.json`` (checked by
``tests/test_pattern_builder_reference.py::TestGoldenPatternSets``).

Only regenerate when the *ranking semantics* intentionally change --
never to paper over an unexplained diff:

    PYTHONPATH=src python tools/gen_golden_rankings.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

GOLDEN_PATH = REPO_ROOT / "tests" / "data" / "golden_rankings.json"
PATTERN_GOLDEN_PATH = REPO_ROOT / "tests" / "data" / "golden_pattern_sets.json"

#: Demo-pipeline shape: small enough to score every arm quickly, big
#: enough that rankings have real structure.
SEED, N_PAPERS, N_TERMS = 7, 120, 30
QUERIES = (
    "gene expression regulation",
    "protein binding activity",
    "cell membrane transport",
)
STRATEGIES = ("probe", "name", "representative")


def hit_row(hit):
    return [hit.paper_id, hit.context_id, hit.relevancy, hit.prestige, hit.matching]


def pattern_digest(pattern_set) -> str:
    """sha256 over every pattern of a set, in order, scores bit-exact."""
    digest = hashlib.sha256()
    for p in pattern_set.patterns:
        row = [list(p.left), list(p.middle), list(p.right), p.kind.value]
        digest.update(json.dumps(row + [p.score.hex()]).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def golden_pattern_sets(pipeline):
    """Per-context pattern digests of both builders plus the paper set."""
    from repro.core.patterns import PatternSetBuilder

    paper_set = pipeline.pattern_paper_set
    simplified = pipeline.pattern_assigner.pattern_sets
    extended = PatternSetBuilder(
        pipeline.ontology,
        pipeline.index,
        pipeline.tokens,
        build_extended=True,
    )
    corpus = pipeline.corpus
    extended_digests = {}
    for term_id in pipeline.ontology.term_ids():
        training = [
            pid for pid in pipeline.training_papers.get(term_id, ()) if pid in corpus
        ]
        extended_digests[term_id] = pattern_digest(extended.build(term_id, training))
    return {
        "simplified": {tid: pattern_digest(s) for tid, s in simplified.items()},
        "extended": extended_digests,
        "pattern_paper_set": {
            context.term_id: {
                "paper_ids": list(context.paper_ids),
                "inherited_from": context.inherited_from,
                "decay": context.decay,
            }
            for context in paper_set
        },
    }


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main() -> int:
    from repro import scoring
    from repro.pipeline import build_demo_pipeline

    pipeline = build_demo_pipeline(seed=SEED, n_papers=N_PAPERS, n_terms=N_TERMS)
    demo = {"seed": SEED, "n_papers": N_PAPERS, "n_terms": N_TERMS}
    combos = {}
    # Every registered function on every paper set: searchability is
    # universal even when a function's evaluation arms are narrower.
    for function in sorted(scoring.function_names()):
        for paper_set in scoring.PAPER_SET_NAMES:
            for strategy in STRATEGIES:
                engine = pipeline.search_engine(function, paper_set, strategy)
                per_query = {}
                for query in QUERIES:
                    hits = engine.search(query, limit=10)
                    groups = engine.search_grouped(query, per_context_limit=5)
                    explain_rows = []
                    if hits:
                        explanation = engine.explain(query, hits[0].paper_id)
                        explain_rows = [
                            explanation.matching,
                            list(explanation.selected_context_ids),
                            [list(row) for row in explanation.in_selected_contexts],
                            explanation.best_relevancy,
                        ]
                    per_query[query] = {
                        "search": [hit_row(h) for h in hits],
                        "grouped": [
                            [
                                group.context_id,
                                group.selection_strength,
                                [hit_row(h) for h in group.hits],
                            ]
                            for group in groups
                        ],
                        "explain": explain_rows,
                    }
                combos[f"{function}/{paper_set}/{strategy}"] = per_query
    write_json(
        GOLDEN_PATH,
        {
            "format": "repro/golden-rankings/v1",
            "demo": demo,
            "queries": list(QUERIES),
            "combos": combos,
        },
    )
    print(f"wrote {len(combos)} combos x {len(QUERIES)} queries -> {GOLDEN_PATH}")
    pattern_sets = golden_pattern_sets(pipeline)
    write_json(
        PATTERN_GOLDEN_PATH,
        {"format": "repro/golden-pattern-sets/v1", "demo": demo, **pattern_sets},
    )
    print(
        f"wrote {len(pattern_sets['extended'])} contexts' pattern digests"
        f" -> {PATTERN_GOLDEN_PATH}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
