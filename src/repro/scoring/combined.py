"""The ``combined`` rank-fusion score function -- the plugin seam, proven.

A weighted blend of citation and text prestige, in the spirit of the
related citation-context ranking work (C-Rank, Doslu & Bingol): citation
links carry endorsement, text similarity carries topicality, and a
convex combination hedges each one's failure mode (sparse in-context
subgraphs for citation, representative drift for text).  Like those
methods it combines evidence that is already computed: the spec declares
``components`` and the build layer derives the blend from the memoised
``citation`` and ``text`` scores (each normalised by its own function)
instead of scoring any paper again.

This module is deliberately *only* a registration: it builds entirely on
the public plugin API (:class:`~repro.scoring.registry.ScoreFunctionSpec`
+ :func:`~repro.scoring.registry.register`) and touches no core module.
Deleting the registration below removes the function from the CLI, the
workspace, and every evaluation sweep -- which is the proof that adding
a ranking function is a one-file change.
"""

from repro.scoring.registry import ScoreFunctionSpec, register

#: The blend weights: citation endorsement vs text topicality.
CITATION_WEIGHT = 0.5
TEXT_WEIGHT = 0.5

register(
    ScoreFunctionSpec(
        name="combined",
        # Substrates: the union of the citation and text chains,
        # ("citation_graph", "vectors", "representatives").
        components=(("citation", CITATION_WEIGHT), ("text", TEXT_WEIGHT)),
        paper_sets=("text",),
        description="rank fusion: convex blend of citation and text prestige",
    )
)
