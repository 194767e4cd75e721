"""The paper's core contribution: context-based prestige ranking and search.

- :mod:`repro.core.context` -- contexts and context paper sets.
- :mod:`repro.core.vectors` -- per-section TF-IDF vector store shared by
  the text machinery.
- :mod:`repro.core.cosine` -- CSR vector rows and the batch cosine
  kernel over them.
- :mod:`repro.core.representative` -- representative-paper selection.
- :mod:`repro.core.patterns` -- pattern construction/scoring (section 3.3).
- :mod:`repro.core.assignment` -- the two context-paper-set builders of
  section 4 (text-based and simplified pattern-based).
- :mod:`repro.core.search` -- the context-based search engine (tasks 3-5
  of the paradigm).
- :mod:`repro.core.extensions` -- the section-7 future-work extension
  (weighted cross-context relationships).

The prestige score functions of section 3 live in :mod:`repro.scoring`.
"""

from repro.core.assignment import PatternContextAssigner, TextContextAssigner
from repro.core.context import Context, ContextPaperSet
from repro.core.patterns import Pattern, PatternKind, PatternSet, PatternSetBuilder
from repro.core.query_expansion import ContextQueryExpander, PseudoRelevanceExpander
from repro.core.recommend import RelatedWorkRecommender
from repro.core.search import (
    ContextResultGroup,
    ContextSearchEngine,
    RankingExplanation,
    SearchHit,
)
from repro.core.tuning import RelevancyTuner, TuningResult
from repro.core.vectors import PaperVectorStore

__all__ = [
    "Context",
    "ContextPaperSet",
    "PaperVectorStore",
    "Pattern",
    "PatternKind",
    "PatternSet",
    "PatternSetBuilder",
    "TextContextAssigner",
    "PatternContextAssigner",
    "ContextSearchEngine",
    "SearchHit",
    "ContextResultGroup",
    "RankingExplanation",
    "ContextQueryExpander",
    "PseudoRelevanceExpander",
    "RelevancyTuner",
    "TuningResult",
    "RelatedWorkRecommender",
]
