"""Related-work comparator -- the GoPubMed-style categoriser (section 6).

The paper positions GoPubMed as the only other context-hierarchy search
system and names two weaknesses: categorisation relies on GO term words
appearing in *abstracts* (only ~78% of PubMed abstracts contain any), and
results carry no ranking or importance scores.

This bench measures, on the synthetic corpus with known ground truth:

- **coverage** -- the fraction of papers GoPubMed can classify at all
  (the 78% phenomenon);
- **classification consistency** -- among classified papers, how often a
  GoPubMed category is hierarchically consistent with the paper's true
  generating context, compared against the pattern-based context
  assignment on the same criterion.
"""

from conftest import write_result

from repro.baselines.gopubmed import GoPubMedClassifier


def _consistent(ontology, assigned_terms, true_terms):
    """Some assigned term equals / is an ancestor of a true context."""
    for assigned in assigned_terms:
        for true_term in true_terms:
            if assigned == true_term or ontology.is_ancestor(assigned, true_term):
                return True
    return False


def test_baseline_gopubmed(benchmark, pipeline, dataset, results_dir):
    classifier = GoPubMedClassifier(
        pipeline.tokens, pipeline.ontology, pipeline.keyword_engine
    )

    def run():
        sample = [paper.paper_id for paper in pipeline.corpus][:400]
        classified = 0
        consistent = 0
        for paper_id in sample:
            terms = classifier.classify_paper(paper_id)
            if not terms:
                continue
            classified += 1
            true_terms = dataset.corpus.paper(paper_id).true_context_ids
            if _consistent(pipeline.ontology, terms, true_terms):
                consistent += 1
        # Context-based comparison: pattern paper-set membership on the
        # same sample and criterion.
        pattern_set = pipeline.pattern_paper_set
        member_consistent = 0
        member_classified = 0
        for paper_id in sample:
            contexts = pattern_set.contexts_of_paper(paper_id)
            if not contexts:
                continue
            member_classified += 1
            true_terms = dataset.corpus.paper(paper_id).true_context_ids
            if _consistent(pipeline.ontology, contexts, true_terms):
                member_consistent += 1
        return sample, classified, consistent, member_classified, member_consistent

    sample, classified, consistent, member_classified, member_consistent = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )

    coverage = classified / len(sample)
    gopubmed_rate = consistent / classified if classified else float("nan")
    context_coverage = member_classified / len(sample)
    context_rate = (
        member_consistent / member_classified if member_classified else float("nan")
    )
    lines = [
        f"papers sampled:                       {len(sample)}",
        f"GoPubMed coverage (classifiable):     {coverage:.1%}  "
        "(PubMed-scale figure in the paper: 78%)",
        f"GoPubMed classification consistency:  {gopubmed_rate:.1%}",
        f"context-assignment coverage:          {context_coverage:.1%}",
        f"context-assignment consistency:       {context_rate:.1%}",
    ]
    write_result(results_dir, "baseline_gopubmed", "\n".join(lines))

    # GoPubMed must miss a nontrivial share of papers (its blind spot)...
    assert coverage < 1.0
    # ...while the context assignment covers at least as many.
    assert context_coverage >= coverage - 0.05
