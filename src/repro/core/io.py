"""Persistence for expensive pipeline artefacts.

Context paper sets and prestige scores take minutes to build on large
corpora; these helpers serialise them to JSON so a deployment computes
them once (the paper's "query independent pre-processing steps") and
serves searches from disk thereafter.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from typing import Dict, Optional

from repro.citations.graph import CitationGraph
from repro.core.context import Context, ContextPaperSet
from repro.core.patterns import AnalyzedPaperCache
from repro.core.scores.base import PrestigeScores
from repro.core.vectors import PaperVectorStore
from repro.corpus.corpus import Corpus
from repro.ontology.ontology import Ontology
from repro.text.analyze import Analyzer

PathLike = Union[str, Path]

_PAPER_SET_FORMAT = "repro/context-paper-set/v1"
_SCORES_FORMAT = "repro/prestige-scores/v1"
_VECTORS_FORMAT = "repro/vector-store/v1"
_TOKENS_FORMAT = "repro/token-cache/v1"
_GRAPH_FORMAT = "repro/citation-graph/v1"
_REPRESENTATIVES_FORMAT = "repro/representatives/v1"


def write_tagged_json(payload: dict, path: PathLike, format_tag: str) -> None:
    """Write ``payload`` with a ``format`` tag for load-time validation."""
    payload = {"format": format_tag, **payload}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def read_tagged_json(path: PathLike, format_tag: str) -> dict:
    """Read a JSON artefact, refusing mismatched or corrupt files.

    Both failure modes raise ``ValueError`` naming the offending path, so
    a broken workspace points at the file to rebuild.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}: corrupt JSON ({error})") from error
    if not isinstance(payload, dict) or payload.get("format") != format_tag:
        found = payload.get("format") if isinstance(payload, dict) else None
        raise ValueError(
            f"{path}: expected format {format_tag!r}, found {found!r}"
        )
    return payload


def write_context_paper_set(paper_set: ContextPaperSet, path: PathLike) -> None:
    """Serialise a context paper set (ontology is *not* embedded)."""
    payload = {
        "format": _PAPER_SET_FORMAT,
        "contexts": [
            {
                "term_id": context.term_id,
                "paper_ids": list(context.paper_ids),
                "training_paper_ids": list(context.training_paper_ids),
                "inherited_from": context.inherited_from,
                "decay": context.decay,
            }
            for context in paper_set
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def read_context_paper_set(path: PathLike, ontology: Ontology) -> ContextPaperSet:
    """Load a context paper set against the ontology it was built on.

    Terms missing from ``ontology`` raise (a paper set only makes sense
    with its ontology; silently dropping contexts would skew experiments).
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != _PAPER_SET_FORMAT:
        raise ValueError(
            f"{path}: not a context paper set file "
            f"(format={payload.get('format')!r})"
        )
    contexts = [
        Context(
            term_id=raw["term_id"],
            paper_ids=tuple(raw["paper_ids"]),
            training_paper_ids=tuple(raw.get("training_paper_ids", ())),
            inherited_from=raw.get("inherited_from"),
            decay=float(raw.get("decay", 1.0)),
        )
        for raw in payload["contexts"]
    ]
    return ContextPaperSet(ontology, contexts)


def write_prestige_scores(scores: PrestigeScores, path: PathLike) -> None:
    """Serialise prestige scores (function name + per-context maps).

    ``pre_propagation`` rides along when the scores carry it, so a
    workspace-hydrated pipeline keeps the incremental per-context patch
    path that in-memory scores get (see ``PrestigeScores``).  Files
    written before the field existed load with ``pre_propagation=None``
    and fall back to full lazy recompute on delta.
    """
    payload = {
        "format": _SCORES_FORMAT,
        "function": scores.function_name,
        "by_context": {
            context_id: scores.of(context_id)
            for context_id in scores.context_ids()
        },
    }
    if scores.pre_propagation is not None:
        payload["pre_propagation"] = {
            context_id: dict(context_scores)
            for context_id, context_scores in scores.pre_propagation.items()
        }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def read_prestige_scores(path: PathLike) -> PrestigeScores:
    """Load prestige scores written by :func:`write_prestige_scores`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != _SCORES_FORMAT:
        raise ValueError(
            f"{path}: not a prestige-scores file "
            f"(format={payload.get('format')!r})"
        )
    by_context = {
        context_id: {pid: float(v) for pid, v in scores.items()}
        for context_id, scores in payload["by_context"].items()
    }
    pre_propagation = None
    if "pre_propagation" in payload:
        pre_propagation = {
            context_id: {pid: float(v) for pid, v in scores.items()}
            for context_id, scores in payload["pre_propagation"].items()
        }
    return PrestigeScores(
        payload["function"], by_context, pre_propagation=pre_propagation
    )


# -- workspace substrate codecs ---------------------------------------------------
#
# Each heavy pipeline substrate gets a symmetric (write_*, read_*) pair
# over its in-place ``to_payload``/``from_payload`` snapshot.  Readers
# take the live objects the artefact cannot embed (corpus, analyzer) --
# the same convention as :func:`read_context_paper_set`'s ontology.


def write_vector_store(vectors: PaperVectorStore, path: PathLike) -> None:
    write_tagged_json(vectors.to_payload(), path, _VECTORS_FORMAT)


def read_vector_store(
    path: PathLike, corpus: Corpus, analyzer: Optional[Analyzer] = None
) -> PaperVectorStore:
    payload = read_tagged_json(path, _VECTORS_FORMAT)
    return PaperVectorStore.from_payload(payload, corpus, analyzer=analyzer)


def write_token_cache(tokens: AnalyzedPaperCache, path: PathLike) -> None:
    write_tagged_json(tokens.to_payload(), path, _TOKENS_FORMAT)


def read_token_cache(
    path: PathLike, corpus: Corpus, analyzer: Optional[Analyzer] = None
) -> AnalyzedPaperCache:
    payload = read_tagged_json(path, _TOKENS_FORMAT)
    return AnalyzedPaperCache.from_payload(payload, corpus, analyzer=analyzer)


def write_citation_graph(graph: CitationGraph, path: PathLike) -> None:
    write_tagged_json(graph.to_payload(), path, _GRAPH_FORMAT)


def read_citation_graph(path: PathLike) -> CitationGraph:
    payload = read_tagged_json(path, _GRAPH_FORMAT)
    return CitationGraph.from_payload(payload)


def write_representatives(representatives: Dict[str, str], path: PathLike) -> None:
    write_tagged_json({"by_context": dict(representatives)}, path,
                      _REPRESENTATIVES_FORMAT)


def read_representatives(path: PathLike) -> Dict[str, str]:
    payload = read_tagged_json(path, _REPRESENTATIVES_FORMAT)
    return dict(payload["by_context"])
