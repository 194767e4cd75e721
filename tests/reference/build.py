"""Every artifact of a whole build, as plain values to compare with ``==``.

:func:`reference_build` chains this package's naive stages over a
pipeline's corpus, ontology and training map, with the thresholds and
weights the pipeline is configured with.  It shares with the package
the TF-IDF fit, the phrase miner and the pattern builder's scalar
helpers over a fresh token cache, PageRank on a subgraph
(``pagerank_arrays``, which ``CitationPrestige`` runs too) and the
context containers, but none of the delta paths.
:func:`pipeline_artifacts` reads the same values off a pipeline.
"""

from functools import partial
from types import SimpleNamespace

from reference.index import ReferenceIndex, postings
from reference.patterns import (
    reference_extract,
    reference_pattern_contexts,
    reference_patterns,
    reference_score,
)
from reference.prestige import blend, pre_maps, propagate_max_over_descendants, score_each
from reference.text import (
    ReferenceVectors,
    reference_similarity,
    reference_text_contexts,
)
from repro import scoring
from repro.citations.graph import CitationGraph
from repro.citations.pagerank import pagerank
from repro.core.context import Context, ContextPaperSet
from repro.core.patterns import PatternSetBuilder
from repro.core.vectors import MODEL_NAMES, PaperVectorStore
from repro.corpus.corpus import Corpus
from repro.corpus.paper import TEXT_SECTIONS
from repro.text.analyze import AnalyzedPaperCache

#: Each vector model's section (None: the whole paper).
MODEL_SECTIONS = dict(zip(MODEL_NAMES, [None, *TEXT_SECTIONS]))


def artifacts(index, postings_of, store, vector, paper_sets, patterns, extractions, scores):
    """The artifact map both builds are compared in: ``postings_of(term)``
    and ``vector(paper id, section)`` read the build's index and vectors,
    whose term ids are read back in the vocabularies of ``store``."""
    def terms(pid, section):
        model = store.full_model if section is None else store.section_model(section)
        return tuple(
            (model.vocabulary.term_of(t), w) for t, w in vector(pid, section).weights.items()
        )

    return {
        "n_papers": index.n_papers,
        "postings": {term: postings_of(term) for term in index.vocabulary()},
        "document_frequency": {
            term: index.document_frequency(term) for term in index.vocabulary()
        },
        "vectors": {
            (pid, model): terms(pid, section)
            for pid in store.corpus.paper_ids()
            for model, section in MODEL_SECTIONS.items()
        },
        "contexts": {
            name: [
                (c.term_id, c.paper_ids, c.training_paper_ids, c.representative,
                 c.inherited_from, c.decay)
                for c in paper_set
            ]
            for name, paper_set in paper_sets.items()
        },
        "pattern_sets": {
            term_id: [(p.key(), p.kind, p.score) for p in own]
            for term_id, own in patterns.items()
        },
        "pattern_extractions": extractions,
        "scores": scores,
    }


def pipeline_artifacts(pipeline):
    """The pipeline's artifacts, in :func:`artifacts`' shape."""
    scores = {}
    for arm in scoring.evaluation_arms():
        table = pipeline.prestige(*arm)
        scores[arm] = {cid: table.of(cid) for cid in table.context_ids()}, pre_maps(table)
    store = pipeline.substrates.vectors
    assigner = pipeline.pattern_assigner
    return artifacts(
        pipeline.index, partial(postings, pipeline.index), store,
        lambda pid, section: (
            store.full_vector(pid) if section is None
            else store.section_vector(pid, section)
        ),
        {name: pipeline.paper_set(name) for name in scoring.PAPER_SET_NAMES},
        {term_id: s.patterns for term_id, s in assigner.pattern_sets.items()},
        {
            term_id: (training, {
                extraction.key(row): int(n) for row, n in enumerate(extraction.count)
            })
            for term_id, (training, extraction)
            in assigner.pattern_builder.memo.extractions.items()
        },
        scores,
    )


def _table(paper_set, normalization, score):
    """``(scores, pre)`` maps of ``score``: normalised and decayed per
    context, then propagated."""
    scorer = SimpleNamespace(
        normalization=normalization, score_batch=lambda contexts: map(score, contexts)
    )
    pre = score_each(scorer, paper_set)
    return propagate_max_over_descendants(paper_set, pre), pre


def reference_build(pipeline):
    """A fresh build of ``pipeline``'s inputs: postings, document
    frequencies, vectors, both paper sets, pattern sets and extraction
    counts, and each evaluation arm's score maps."""
    substrates = pipeline.substrates
    citation_prestige = scoring.get("citation").factory(substrates)
    ontology, training = pipeline.ontology, pipeline.training_papers
    corpus = Corpus(list(pipeline.corpus))
    tokens = AnalyzedPaperCache(corpus)
    index = ReferenceIndex.of(tokens)
    store = PaperVectorStore(tokens)
    vectors = ReferenceVectors(store)
    kept = {
        term_id: [pid for pid in training.get(term_id, ()) if pid in corpus]
        for term_id in ontology.term_ids()
    }
    text_set = ContextPaperSet(ontology, [
        Context(term_id, papers, training_ids, representative=representative)
        for term_id, papers, training_ids, representative in reference_text_contexts(
            vectors, corpus, ontology, training, substrates.text_similarity_threshold
        )
    ], corpus.paper_rows)

    builder = PatternSetBuilder(ontology, index, tokens, build_extended=False)
    patterns, extractions = {}, {}
    for term_id, papers in kept.items():
        streams = [tokens.all_tokens(pid) for pid in papers]
        words = builder._context_term_words(term_id)
        raw = reference_extract(
            streams, builder._significant_terms(words, streams), builder.window
        )
        patterns[term_id] = reference_patterns(builder, term_id, papers, raw)
        extractions[term_id] = (tuple(papers), {k: e["occ"] for k, e in raw.items()})
    pattern_set = ContextPaperSet(ontology, [
        Context(*fields) for fields in reference_pattern_contexts(
            ontology, tokens, corpus.paper_ids(), patterns, kept,
            pipeline.pattern_assigner.max_middle_coverage,
        )
    ], corpus.paper_rows)

    graph = CitationGraph.from_corpus(corpus)
    facets = SimpleNamespace(
        corpus=corpus, weights=scoring.get("text").factory(substrates).weights, graph=graph
    )

    def text(context):
        return {
            pid: reference_similarity(vectors, facets, pid, context.representative)
            for pid in context.paper_ids
        }

    def citation(context):
        if not context.paper_ids:
            return {}
        return pagerank(
            graph.subgraph(context.paper_ids), teleport=citation_prestige.teleport,
            d=citation_prestige.d, max_iterations=citation_prestige.max_iterations,
        ).scores

    def pattern(context):
        own = patterns[context.inherited_from or context.term_id]
        if not own:
            return {}
        return reference_score(
            SimpleNamespace(patterns=own), tokens, context.paper_ids, middle_only=True
        )

    sets = {"text": text_set, "pattern": pattern_set}
    scores = {
        ("text", "text"): _table(text_set, "none", text),
        ("citation", "text"): _table(text_set, "max", citation),
        ("citation", "pattern"): _table(pattern_set, "max", citation),
        ("pattern", "pattern"): _table(pattern_set, "max", pattern),
    }
    for spec in scoring.specs():
        for name in spec.paper_sets if spec.components else ():
            pre = blend(sets[name], [
                (scores[(component, name)][1], weight)
                for component, weight in spec.components
            ])
            scores[(spec.name, name)] = (
                propagate_max_over_descendants(sets[name], pre), pre
            )

    return artifacts(
        index, index.postings, store, vectors, sets, patterns, extractions, scores
    )
