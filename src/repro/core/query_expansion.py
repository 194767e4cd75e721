"""Query expansion from context vocabulary.

The related-work section discusses contextual web search that builds
"augmented queries ... from the selected context words" (references
[16, 18]).  In the context-based paradigm the selected *ontology
contexts* provide exactly that vocabulary, so expansion falls out
naturally:

- :class:`ContextQueryExpander` -- append the strongest TF-IDF terms of
  the selected contexts' representative papers;
- :class:`PseudoRelevanceExpander` -- classic Rocchio-style feedback:
  append the strongest centroid terms of the top keyword results.

Both return a new query string, leaving the original untouched, and both
cap how many terms they add -- expansion helps recall but each added term
dilutes precision, so the knob is explicit.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.vectors import PaperVectorStore
from repro.index.search import KeywordSearchEngine
from repro.text.vectorize import SparseVector, centroid


def _strongest_new_terms(
    vector: SparseVector,
    vectors: PaperVectorStore,
    existing: Sequence[str],
    max_terms: int,
) -> List[str]:
    """Top-weighted vocabulary terms of ``vector`` not already in the query."""
    existing_set = set(existing)
    vocabulary = vectors.full_model.vocabulary
    added: List[str] = []
    for term_id, _weight in vector.top_terms(max_terms + len(existing_set) + 5):
        term = vocabulary.term_of(term_id)
        if term in existing_set or term in added:
            continue
        added.append(term)
        if len(added) >= max_terms:
            break
    return added


class ContextQueryExpander:
    """Expand queries with the selected contexts' representative vocabulary."""

    def __init__(
        self,
        vectors: PaperVectorStore,
        representatives: Mapping[str, str],
        max_added_terms: int = 3,
    ) -> None:
        if max_added_terms < 0:
            raise ValueError(f"max_added_terms must be >= 0, got {max_added_terms}")
        self.vectors = vectors
        self.representatives = dict(representatives)
        self.max_added_terms = max_added_terms

    def expand(self, query: str, context_ids: Sequence[str]) -> str:
        """Return ``query`` plus the contexts' strongest shared vocabulary.

        The expansion vector is the centroid of the selected contexts'
        representative papers, so terms common to the selected contexts
        dominate terms idiosyncratic to one representative.
        """
        if self.max_added_terms == 0:
            return query
        representative_ids = [
            self.representatives[cid]
            for cid in context_ids
            if cid in self.representatives
        ]
        if not representative_ids:
            return query
        expansion_vector = centroid(
            self.vectors.full_vector(pid) for pid in representative_ids
        )
        query_terms = self.vectors.tokens.analyzer.analyze(query)
        added = _strongest_new_terms(
            expansion_vector, self.vectors, query_terms, self.max_added_terms
        )
        if not added:
            return query
        return f"{query} {' '.join(added)}"


class PseudoRelevanceExpander:
    """Rocchio-style pseudo-relevance feedback over keyword results."""

    def __init__(
        self,
        keyword_engine: KeywordSearchEngine,
        vectors: PaperVectorStore,
        feedback_depth: int = 10,
        max_added_terms: int = 3,
    ) -> None:
        if feedback_depth < 1:
            raise ValueError(f"feedback_depth must be >= 1, got {feedback_depth}")
        if max_added_terms < 0:
            raise ValueError(f"max_added_terms must be >= 0, got {max_added_terms}")
        self.keyword_engine = keyword_engine
        self.vectors = vectors
        self.feedback_depth = feedback_depth
        self.max_added_terms = max_added_terms

    def expand(self, query: str) -> str:
        """Return ``query`` plus the top results' strongest centroid terms.

        No results, or nothing new to add, returns the query unchanged.
        """
        if self.max_added_terms == 0:
            return query
        hits = self.keyword_engine.search(query, limit=self.feedback_depth)
        if not hits:
            return query
        feedback_vector = centroid(
            self.vectors.full_vector(hit.paper_id) for hit in hits
        )
        query_terms = self.vectors.tokens.analyzer.analyze(query)
        added = _strongest_new_terms(
            feedback_vector, self.vectors, query_terms, self.max_added_terms
        )
        if not added:
            return query
        return f"{query} {' '.join(added)}"
