"""Citation-analysis substrate.

- :mod:`repro.citations.graph` -- the :class:`CitationGraph` and
  per-context subgraph extraction.
- :mod:`repro.citations.pagerank` -- the paper's PageRank variant
  (``P_{i+1} = (1-d) M^T P_i + E`` with teleport options E1/E2).
- :mod:`repro.citations.hits` -- Kleinberg's HITS (authorities/hubs),
  used by the correlation ablation.

Bibliographic coupling and co-citation, the text-based score's reference
facet, are counted for many pairs at once in :mod:`repro.scoring.text`.
"""

from repro.citations.graph import CitationGraph
from repro.citations.hits import HitsResult, hits_scores
from repro.citations.pagerank import PageRankResult, TeleportKind, pagerank

__all__ = [
    "CitationGraph",
    "pagerank",
    "PageRankResult",
    "TeleportKind",
    "hits_scores",
    "HitsResult",
]
