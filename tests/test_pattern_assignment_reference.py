"""Differential test: pattern-based assignment against :mod:`reference.patterns`.

``PatternContextAssigner`` finds each middle's candidates through the
index and cuts middles by its memo's coverage counts, rolls descendants'
papers up and lets an empty context inherit its closest non-empty
ancestor's papers.  Hypothesis draws micro corpora, DAG ontologies named
from the corpus's words and training maps; each is assigned at every
``max_middle_coverage`` of :data:`COVERAGES`, which often put the cut on
a whole number of papers, so some middles sit exactly on it.  Every
context -- papers, training ids, ancestor and decay -- must equal the
reference's with ``==``.
"""

from hypothesis import given, settings

from reference.patterns import reference_pattern_contexts
from reference.strategies import micro_corpora
from repro.core.assignment import PatternContextAssigner
from repro.index import build_index
from repro.text.analyze import AnalyzedPaperCache

COVERAGES = (0.0, 0.08, 0.25, 0.5, 0.75, 1.0)


@settings(max_examples=150, deadline=None)
@given(micro_corpora())
def test_pattern_contexts_equal_reference(micro):
    corpus = micro.corpus()
    tokens = AnalyzedPaperCache(corpus)
    index = build_index(tokens)
    for max_middle_coverage in COVERAGES:
        assigner = PatternContextAssigner(
            corpus, micro.ontology, index, tokens,
            max_middle_coverage=max_middle_coverage,
        )
        paper_set = assigner.build(micro.training)
        patterns = {tid: ps.patterns for tid, ps in assigner.pattern_sets.items()}
        assert [
            (c.term_id, c.paper_ids, c.training_paper_ids, c.inherited_from, c.decay)
            for c in paper_set
        ] == reference_pattern_contexts(
            micro.ontology, tokens, corpus.paper_ids(), patterns, micro.training,
            max_middle_coverage,
        ), max_middle_coverage
