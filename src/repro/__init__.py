"""Context-based literature search with prestige ranking.

Reproduction of *"Evaluating Different Ranking Functions for Context-Based
Literature Search"* (Ratprasartporn, Bani-Ahmad, Cakmak, Po, Ozsoyoglu,
ICDE 2007).

The package is organised as a set of substrates plus the paper's core
contribution:

- :mod:`repro.text` -- tokenisation, stemming, TF-IDF, similarity, phrases.
- :mod:`repro.ontology` -- GO-like ontology DAG, information content, OBO IO.
- :mod:`repro.corpus` -- papers (title/abstract/body/index terms/authors/
  references) and corpus containers with persistence.
- :mod:`repro.citations` -- citation graphs, PageRank, HITS, bibliographic
  coupling, co-citation.
- :mod:`repro.index` -- inverted index and keyword search engine (the
  PubMed-style baseline).
- :mod:`repro.datagen` -- seeded synthetic corpus/ontology/workload
  generation standing in for the 72k-paper PubMed testbed.
- :mod:`repro.core` -- contexts, context paper sets, representative papers,
  the three prestige score functions, and the context-based search engine.
- :mod:`repro.eval` -- AC-answer sets, precision, top-k% overlap,
  separability, and the per-figure experiment runners.

Quickstart::

    from repro import build_demo_pipeline

    pipeline = build_demo_pipeline(seed=7, n_papers=800)
    results = pipeline.search("dna repair pathway", limit=10)
    for hit in results:
        print(hit.relevancy, hit.paper_id, hit.context_id)
"""

from repro.corpus import Corpus, Paper
from repro.ontology import Ontology, Term
from repro.citations import CitationGraph, hits_scores, pagerank

from repro.core import (
    Context,
    ContextPaperSet,
    ContextSearchEngine,
    SearchHit,
)
from repro.scoring import CitationPrestige, PatternPrestige, TextPrestige
from repro.pipeline import Pipeline, build_demo_pipeline

__version__ = "1.0.0"

__all__ = [
    "Corpus",
    "Paper",
    "Ontology",
    "Term",
    "CitationGraph",
    "pagerank",
    "hits_scores",
    "Context",
    "ContextPaperSet",
    "ContextSearchEngine",
    "CitationPrestige",
    "TextPrestige",
    "PatternPrestige",
    "SearchHit",
    "Pipeline",
    "build_demo_pipeline",
    "__version__",
]
