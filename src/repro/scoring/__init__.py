"""The prestige score functions of section 3 and their table.

- :mod:`repro.scoring.base` -- the common interface, score tables as
  rows, per-context normalisation and hierarchy max-propagation.
- :mod:`repro.scoring.citation` -- per-context PageRank (section 3.1).
- :mod:`repro.scoring.hits_prestige` -- per-context HITS authority, the
  section-3.1 alternative.
- :mod:`repro.scoring.text` -- representative-paper multi-facet
  similarity (section 3.2).
- :mod:`repro.scoring.pattern` -- pattern matching scores (section 3.3).
- :mod:`repro.scoring.spec` -- :class:`ScoreFunctionSpec` and the
  checks a table of specs passes (see ``docs/architecture.md``).
- :mod:`repro.scoring.functions` -- the table: ``text``, ``citation``,
  ``pattern``, ``hits`` and the ``combined`` rank fusion, and its
  readers.

Everything downstream -- prestige dispatch, CLI choices, workspace
score artifacts, evaluation sweeps -- derives its function lists from
that table.
"""

from repro.scoring.base import (
    NORMALIZERS,
    PrestigeScoreFunction,
    PrestigeScores,
    ScoreRows,
    propagate_max,
)
from repro.scoring.citation import CitationPrestige
from repro.scoring.hits_prestige import HitsPrestige
from repro.scoring.pattern import PatternPrestige
from repro.scoring.text import FacetWeights, TextPrestige
from repro.scoring.spec import PAPER_SET_NAMES, ScoreFunctionSpec
from repro.scoring.functions import (
    evaluation_arms,
    function_names,
    get,
    overlap_pairs,
    specs,
)

__all__ = [
    "PrestigeScoreFunction",
    "PrestigeScores",
    "ScoreRows",
    "NORMALIZERS",
    "propagate_max",
    "CitationPrestige",
    "HitsPrestige",
    "TextPrestige",
    "FacetWeights",
    "PatternPrestige",
    "PAPER_SET_NAMES",
    "ScoreFunctionSpec",
    "evaluation_arms",
    "function_names",
    "get",
    "overlap_pairs",
    "specs",
]
