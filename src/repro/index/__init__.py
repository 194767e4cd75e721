"""Keyword-search substrate: inverted index + TF-IDF search engine.

This is the PubMed-style baseline the paper compares against, and the
first stage of AC-answer-set construction ("a standard keyword-based
search with a high threshold", section 2).

- :mod:`repro.index.inverted` -- the in-memory inverted index with
  per-section postings (:func:`build_index`); the build and mutation
  form.
- :mod:`repro.index.packed` -- the persisted form: :func:`save_index`
  packs postings into one file, :func:`open_index` maps it read-only.
- :mod:`repro.index.backend` -- the :class:`SearchBackend` protocol both
  forms serve, and the only index type other layers talk to.
- :mod:`repro.index.search` -- the :class:`KeywordSearchEngine` with
  TF-IDF ranking, threshold retrieval, and PubMed-style unranked listing.
"""

from repro.index.backend import SearchBackend
from repro.index.inverted import InvertedIndex, Posting, build_index
from repro.index.packed import PackedIndex, open_index, save_index
from repro.index.positional import PositionalIndex
from repro.index.search import KeywordHit, KeywordSearchEngine, QueryEvaluation
from repro.index.snippets import Snippet, best_snippet

__all__ = [
    "InvertedIndex",
    "PackedIndex",
    "PositionalIndex",
    "Posting",
    "SearchBackend",
    "build_index",
    "open_index",
    "save_index",
    "KeywordSearchEngine",
    "KeywordHit",
    "QueryEvaluation",
    "best_snippet",
    "Snippet",
]
