"""Pattern-based prestige (section 3.3).

    Score(P) = sum over pt in Ptr(P) of Score(pt) * M(P, pt)

where Ptr(P) is the set of the context's patterns matching paper P,
Score(pt) the pattern's own score, and M(P, pt) the matching strength
(section weight x surround similarity).

The function consumes pre-built :class:`PatternSet` objects -- typically
the ones the :class:`~repro.core.assignment.PatternContextAssigner`
constructed, so patterns are built exactly once per context.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.core.context import Context
from repro.core.patterns import (
    AnalyzedPaperCache,
    PatternSet,
    score_papers_against_patterns,
)
from repro.scoring.base import PrestigeScoreFunction


class PatternPrestige(PrestigeScoreFunction):
    """Pattern-matching prestige over pre-built pattern sets.

    Parameters
    ----------
    pattern_sets:
        ``term_id -> PatternSet`` (contexts without an entry score empty).
    token_cache:
        The shared analysed-token cache.
    middle_only:
        Use the simplified matching of section 4 (middle tuples only,
        matching strength = section weight).  Full matching also weighs
        surround similarity.
    """

    name = "pattern"
    #: Pattern sums are unbounded above but have a true zero (no pattern
    #: matched), so normalisation divides by the context max -- preserving
    #: "matched nothing" as prestige 0.
    normalization = "max"

    def __init__(
        self,
        pattern_sets: Mapping[str, PatternSet],
        token_cache: AnalyzedPaperCache,
        middle_only: bool = False,
    ) -> None:
        self.pattern_sets = dict(pattern_sets)
        self.tokens = token_cache
        self.middle_only = middle_only

    def score_context(self, context: Context) -> Dict[str, float]:
        """Score each paper against the context's pattern set.

        Inherited contexts (ancestor fallback) score against the pattern
        set of the *ancestor* whose papers they borrowed -- their own
        training set produced no patterns, which is why they inherited.
        The RateOfDecay discount is applied afterwards by
        :meth:`PrestigeScoreFunction.score_all` via ``context.decay``.
        """
        source_term = context.inherited_from or context.term_id
        pattern_set = self.pattern_sets.get(source_term)
        if pattern_set is None or not pattern_set.patterns:
            return {}
        return score_papers_against_patterns(
            pattern_set, self.tokens, context.paper_ids, middle_only=self.middle_only
        )
