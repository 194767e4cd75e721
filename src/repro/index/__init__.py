"""Keyword-search substrate: inverted index + TF-IDF search engine.

This is the PubMed-style baseline the paper compares against, and the
first stage of AC-answer-set construction ("a standard keyword-based
search with a high threshold", section 2).

- :mod:`repro.index.inverted` -- the immutable, columnar inverted index
  with per-section postings: :func:`build_index` builds it from the
  token cache, :func:`save_index` writes it to one file and
  :func:`open_index` maps that file read-only.
- :mod:`repro.index.search` -- the :class:`KeywordSearchEngine` with
  TF-IDF ranking, threshold retrieval, and PubMed-style unranked listing.
"""

from repro.index.inverted import (
    InvertedIndex,
    build_index,
    open_index,
    save_index,
)
from repro.index.search import KeywordHit, KeywordSearchEngine, QueryEvaluation
from repro.index.snippets import Snippet, best_snippet

__all__ = [
    "InvertedIndex",
    "build_index",
    "open_index",
    "save_index",
    "KeywordSearchEngine",
    "KeywordHit",
    "QueryEvaluation",
    "best_snippet",
    "Snippet",
]
