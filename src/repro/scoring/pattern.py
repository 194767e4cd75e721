"""Pattern-based prestige (section 3.3).

    Score(P) = sum over pt in Ptr(P) of Score(pt) * M(P, pt)

where Ptr(P) is the set of the context's patterns matching paper P,
Score(pt) the pattern's own score, and M(P, pt) the matching strength
(section weight x surround similarity).

The function consumes pre-built :class:`PatternSet` objects -- typically
the ones the :class:`~repro.core.assignment.PatternContextAssigner`
constructed, so patterns are built exactly once per context -- and
scores them with the builder that made them, whose memo keeps where each
middle occurs in the corpus.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.core.context import Context
from repro.core.patterns import PatternSet, PatternSetBuilder
from repro.scoring.base import PrestigeScoreFunction


class PatternPrestige(PrestigeScoreFunction):
    """Pattern-matching prestige over pre-built pattern sets.

    Parameters
    ----------
    pattern_sets:
        ``term_id -> PatternSet`` (contexts without an entry score empty).
    builder:
        The :class:`PatternSetBuilder` whose :meth:`score_papers` matches
        papers (its memo's middle hits, its token cache).
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
        builder: PatternSetBuilder,
        middle_only: bool = False,
    ) -> None:
        self.pattern_sets = dict(pattern_sets)
        self.builder = builder
        self.middle_only = middle_only

    def _pattern_set(self, context: Context) -> Optional[PatternSet]:
        """The pattern set ``context`` scores against, if it has patterns.

        Inherited contexts (ancestor fallback) score against the pattern
        set of the *ancestor* whose papers they borrowed -- their own
        training set produced no patterns, which is why they inherited.
        """
        pattern_set = self.pattern_sets.get(context.inherited_from or context.term_id)
        return pattern_set if pattern_set is not None and pattern_set.patterns else None

    def score_context(self, context: Context) -> Dict[str, float]:
        """Score each paper against the context's pattern set.

        The RateOfDecay discount of an inherited context is applied
        afterwards by :meth:`PrestigeScoreFunction.score_all` via
        ``context.decay``.
        """
        pattern_set = self._pattern_set(context)
        if pattern_set is None:
            return {}
        return self.builder.score_papers(
            pattern_set, context.paper_ids, middle_only=self.middle_only
        )

    def score_batch(self, contexts: Iterable[Context]) -> List[Dict[str, float]]:
        """:meth:`score_context` of each context, after one search for every
        middle of the batch that the builder's memo does not hold yet."""
        contexts = list(contexts)
        self.builder.middle_hits(
            {
                pattern.middle
                for pattern_set in map(self._pattern_set, contexts)
                if pattern_set is not None
                for pattern in pattern_set.patterns
            }
        )
        return [self.score_context(context) for context in contexts]
