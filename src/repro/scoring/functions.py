"""The score functions, declared once in CLI and evaluation-arm order.

The table below holds every function: ``text``, ``citation``,
``pattern``, ``hits`` and ``combined``; it is built and checked once, at
import.  The readers (:func:`get`, :func:`specs`,
:func:`function_names`, :func:`evaluation_arms`, :func:`overlap_pairs`)
are how every other layer sees it.  Each factory receives the
pipeline's :class:`~repro.serving.substrate.SubstrateStore` and returns
a ready :class:`~repro.scoring.base.PrestigeScoreFunction`; the
``substrates`` tuples name the workspace artifacts the computed scores
depend on, which is exactly the fingerprint chain each persisted
``scores_<function>_<paper_set>.npz`` artifact declares.

The declared ``paper_sets`` reproduce the paper's experiment arms:

- ``text`` scores on the text-based paper set (3.2 needs the
  representatives only its contexts carry);
- ``citation`` scores on both paper sets (3.1 is set-agnostic);
- ``pattern`` scores on the pattern-based paper set (3.3 needs the
  mined pattern sets);
- ``hits`` is the section-3.1 road-not-taken: declared so it stays
  searchable and tunable, but with no arms -- it joins no sweep and is
  not persisted, matching the paper's choice of PageRank;
- ``combined`` is a rank-fusion blend of citation and text prestige, in
  the spirit of C-Rank (Doslu & Bingol): citation links carry
  endorsement, text similarity carries topicality.  It declares
  ``components`` instead of a factory, so the build layer derives the
  blend from the memoised ``citation`` and ``text`` scores and scores no
  paper again.  It is one entry of the table: deleting it removes it
  from the CLI, the workspace and every evaluation sweep.
"""

from __future__ import annotations

import itertools
from typing import List, Tuple

from repro.scoring.citation import CitationPrestige
from repro.scoring.hits_prestige import HitsPrestige
from repro.scoring.pattern import PatternPrestige
from repro.scoring.spec import ScoreFunctionSpec, check_specs
from repro.scoring.text import TextPrestige

#: The ``combined`` blend weights: citation endorsement vs text topicality.
CITATION_WEIGHT = 0.5
TEXT_WEIGHT = 0.5


def _citation_factory(substrates) -> CitationPrestige:
    return CitationPrestige(substrates.citation_graph)


def _hits_factory(substrates) -> HitsPrestige:
    return HitsPrestige(substrates.citation_graph)


def _text_factory(substrates) -> TextPrestige:
    return TextPrestige(
        substrates.corpus,
        substrates.vectors,
        substrates.citation_graph,
        substrates.representatives,
    )


def _pattern_factory(substrates) -> PatternPrestige:
    assigner = substrates.pattern_assigner
    return PatternPrestige(
        assigner.pattern_sets, assigner.pattern_builder, middle_only=True
    )


#: Every score function, keyed by name in declaration order.
_TABLE = check_specs((
    ScoreFunctionSpec(
        name="text",
        factory=_text_factory,
        substrates=("vectors",),
        paper_sets=("text",),
        description="multi-facet similarity to the context representative (3.2)",
        in_overlap=True,
    ),
    ScoreFunctionSpec(
        name="citation",
        factory=_citation_factory,
        paper_sets=("text", "pattern"),
        description="per-context PageRank over the induced citation subgraph (3.1)",
        in_overlap=True,
        # PageRank runs on the subgraph induced by the context's own
        # paper ids: a delta that leaves a context's paper set unchanged
        # leaves its induced subgraph -- and its scores -- unchanged.
        delta_scope="contexts",
    ),
    ScoreFunctionSpec(
        name="pattern",
        factory=_pattern_factory,
        paper_sets=("pattern",),
        description="pattern-matching prestige over mined patterns (3.3)",
        in_overlap=True,
    ),
    ScoreFunctionSpec(
        name="hits",
        factory=_hits_factory,
        paper_sets=(),
        description="per-context HITS authority (3.1 alternative; searchable only)",
        # Like citation: HITS sees only the context-induced subgraph.
        delta_scope="contexts",
    ),
    ScoreFunctionSpec(
        name="combined",
        # Substrates: the union of the citation and text chains,
        # ("vectors",).
        components=(("citation", CITATION_WEIGHT), ("text", TEXT_WEIGHT)),
        paper_sets=("text",),
        description="rank fusion: convex blend of citation and text prestige",
    ),
))

def get(name: str) -> ScoreFunctionSpec:
    """The spec declared under ``name``.

    Raises ``ValueError`` naming the declared specs -- the one "unknown
    prestige function" error every layer shares.
    """
    spec = _TABLE.get(name)
    if spec is None:
        known = ", ".join(sorted(_TABLE))
        raise ValueError(f"unknown prestige function {name!r}; registered: {known}")
    return spec


def specs() -> List[ScoreFunctionSpec]:
    """Every declared spec, in declaration order."""
    return list(_TABLE.values())


def function_names() -> Tuple[str, ...]:
    """Declared function names in declaration order (CLI choices)."""
    return tuple(_TABLE)


def evaluation_arms() -> Tuple[Tuple[str, str], ...]:
    """Every (function, paper_set) experiment arm, in declaration order.

    This single list drives the workspace score artifacts, the
    ``repro evaluate`` sweep, and the report sections -- one place to
    look when asking "what gets compared?".
    """
    return tuple(arm for spec in _TABLE.values() for arm in spec.arms())


def overlap_pairs() -> Tuple[Tuple[str, str], ...]:
    """Pairs for the figure-5.3 overlap grid (functions opted in)."""
    names = [spec.name for spec in _TABLE.values() if spec.in_overlap]
    return tuple(itertools.combinations(names, 2))
