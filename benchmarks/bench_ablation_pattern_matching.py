"""Ablation A8 -- simplified vs full pattern machinery.

Section 4 builds the pattern-based context paper set with a *simplified*
technique: "only middle tuples of patterns were considered during
pattern matching, extended patterns were not used".  The full machinery
of section 3.3 (extended side/middle-joined patterns, surround-aware
matching strength) exists in this library; this bench measures what the
simplification costs or saves:

- patterns built per context (regular vs with extended joins);
- separability of the resulting prestige scores;
- scoring time ratio.
"""

import time

from conftest import write_result

from repro.core.patterns import PatternSetBuilder
from repro.eval.experiments import SeparabilityExperiment
from repro.scoring import PatternPrestige


def test_ablation_pattern_matching(benchmark, pipeline, dataset, results_dir):
    paper_set = pipeline.experiment_paper_set("pattern")
    # Sample contexts for the expensive full variant.
    sample_contexts = [c for c in paper_set if c.training_paper_ids][:40]

    def run():
        full_builder = PatternSetBuilder(
            pipeline.ontology,
            pipeline.index,
            pipeline.tokens,
            build_extended=True,
        )
        simple_sets = pipeline.pattern_assigner.pattern_sets
        full_sets = {}
        for context in sample_contexts:
            full_sets[context.term_id] = full_builder.build(
                context.term_id, context.training_paper_ids
            )
        n_simple = [
            len(simple_sets[c.term_id])
            for c in sample_contexts
            if c.term_id in simple_sets
        ]
        n_full = [len(full_sets[c.term_id]) for c in sample_contexts]

        sampled_ids = {c.term_id for c in sample_contexts}
        sampled_view = type(paper_set)(
            paper_set.ontology,
            [c for c in paper_set if c.term_id in sampled_ids],
        )
        timings = {}
        separability = {}
        simple_builder = pipeline.pattern_assigner.pattern_builder
        for label, middle_only, sets, builder in (
            ("simplified", True, simple_sets, simple_builder),
            ("full", False, full_sets, full_builder),
        ):
            scorer = PatternPrestige(sets, builder, middle_only=middle_only)
            started = time.perf_counter()
            scores = scorer.score_all(sampled_view)
            timings[label] = time.perf_counter() - started
            result = SeparabilityExperiment(sampled_view).run(scores)
            separability[label] = result.mean_sd()
        return n_simple, n_full, separability, timings

    n_simple, n_full, separability, timings = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    mean_simple = sum(n_simple) / max(len(n_simple), 1)
    mean_full = sum(n_full) / max(len(n_full), 1)
    lines = [
        f"contexts sampled:                  {len(n_full)}",
        f"patterns/context (simplified):     {mean_simple:.1f}",
        f"patterns/context (with extended):  {mean_full:.1f}",
        f"mean SD (simplified matching):     {separability['simplified']:.2f}",
        f"mean SD (full matching):           {separability['full']:.2f}",
        f"scoring time simplified:           {timings['simplified']:.2f}s",
        f"scoring time full:                 {timings['full']:.2f}s",
    ]
    write_result(results_dir, "ablation_pattern_matching", "\n".join(lines))

    # Extended joins add patterns, never remove them.
    assert mean_full >= mean_simple
    # Both variants remain valid score distributions.
    for value in separability.values():
        assert 0.0 <= value <= 30.0 + 1e-9