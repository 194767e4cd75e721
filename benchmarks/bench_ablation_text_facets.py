"""Ablation A3 -- which facets carry the text-based score function?

Section 3.2's Sim combines six facets.  This bench re-runs figure 5.1's
precision with facet groups removed (content-only, no-authors,
no-references, title-only) and reports the deltas, quantifying how much
the social facets (authors, references) add on top of content cosine.
"""

from conftest import write_result

from repro.core.search import ContextSearchEngine
from repro.eval.metrics import precision
from repro.scoring.text import FacetWeights, TextPrestige

VARIANTS = {
    "full": FacetWeights(),
    "content-only": FacetWeights(authors=0.0, references=0.0),
    "no-authors": FacetWeights(authors=0.0),
    "no-references": FacetWeights(references=0.0),
    "title-only": FacetWeights(
        title=1.0, abstract=0.0, body=0.0, index_terms=0.0, authors=0.0,
        references=0.0,
    ),
}

THRESHOLD = 0.3


def test_ablation_text_facets(
    benchmark, pipeline, queries, precision_experiment, results_dir
):
    paper_set = pipeline.experiment_paper_set("text")

    def run():
        results = {}
        for name, weights in VARIANTS.items():
            scorer = TextPrestige(
                pipeline.corpus,
                pipeline.vectors,
                pipeline.citation_graph,
                pipeline.representatives,
                weights=weights,
            )
            scores = scorer.score_all(pipeline.text_paper_set)
            engine = ContextSearchEngine(
                pipeline.ontology,
                pipeline.text_paper_set,
                scores,
                pipeline.keyword_engine,
                w_prestige=pipeline.w_prestige,
                w_matching=pipeline.w_matching,
            )
            values = []
            for query in queries:
                answers = precision_experiment.answer_set(query)
                hits = engine.search(query)
                surviving = [
                    h.paper_id for h in hits if h.relevancy >= THRESHOLD
                ]
                value = precision(surviving, answers)
                values.append(0.0 if value is None else value)
            results[name] = sum(values) / len(values)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [f"average precision at relevancy threshold {THRESHOLD}:"]
    for name, value in results.items():
        delta = value - results["full"]
        lines.append(f"  {name:<14} {value:.3f}  (delta {delta:+.3f})")
    write_result(results_dir, "ablation_text_facets", "\n".join(lines))

    # Content facets are the backbone: title alone must not beat the full mix.
    assert results["title-only"] <= results["full"] + 0.05
    # Every variant stays a functioning ranking (sanity bound).
    for name, value in results.items():
        assert 0.0 <= value <= 1.0, name
