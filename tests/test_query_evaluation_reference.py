"""Differential test: columnar query evaluation against :mod:`reference.index`.

Hypothesis draws micro corpora (identical papers, so scores tie; terms
repeated within a section, so tf > 1), queries with duplicate and
out-of-vocabulary terms (and empty ones), and remove/replace/add deltas,
applied in place to the reference index and as a rebuild of the changed
corpus to the index, while an engine over the old index stays warm.
Every answer of the engine -- on the built index and on the same index
saved and reopened -- must equal the dict loop's by paper id with
``==``: scores, matched-term counts, ``postings_scanned``,
``max_score`` and ``hits``, including ties that straddle the cut.

The concurrency tests run cold engines (the term cache and the context
engine's row gather fill on first use) from eight threads.
"""

import sys
import tempfile
import threading
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from reference.index import ReferenceIndex, reference_evaluate, reference_hits
from reference.strategies import OUTSIDE_WORDS, WORDS, deltas, micro_corpora
from repro.core.search import ContextSearchEngine
from repro.corpus.corpus import Corpus
from repro.index import build_index, open_index, save_index
from repro.index.search import KeywordSearchEngine
from repro.pipeline import Pipeline, build_demo_pipeline
from repro.text.analyze import AnalyzedPaperCache


def by_paper(evaluation):
    ids = evaluation.table.ids
    papers = evaluation.papers.tolist()
    return (
        {ids[row]: score for row, score in zip(papers, evaluation.scores.tolist())},
        {ids[row]: n for row, n in zip(papers, evaluation.matched_terms.tolist())},
    )


def assert_matches_reference(engine, reference_index, query, paper_ids, limits):
    evaluation = engine.evaluate(query)
    reference = reference_evaluate(reference_index, query)
    assert list(evaluation.papers) == sorted(evaluation.papers)
    assert by_paper(evaluation) == reference[:2]
    assert evaluation.max_score == reference[2]
    assert evaluation.postings_scanned == reference[3]
    for paper_id in list(paper_ids) + ["NOT-A-PAPER"]:
        assert evaluation.score(paper_id) == reference[0].get(paper_id, 0.0)
    n_terms = len(evaluation.terms)
    for limit in limits:
        for threshold in (0.0, 0.3, 1.0):
            for require_all_terms in (False, True):
                assert evaluation.hits(
                    limit, threshold, require_all_terms
                ) == reference_hits(
                    reference, n_terms, limit, threshold, require_all_terms
                )


QUERIES = st.lists(st.sampled_from(WORDS + OUTSIDE_WORDS), max_size=5).map(" ".join)
LIMITS = st.lists(st.one_of(st.none(), st.integers(-1, 10)), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(micro_corpora(), st.lists(QUERIES, min_size=1, max_size=4), LIMITS)
def test_in_memory_and_packed_evaluations_equal_reference(micro, queries, limits):
    tokens = AnalyzedPaperCache(micro.corpus())
    index, reference = build_index(tokens), ReferenceIndex.of(tokens)
    paper_ids = [paper.paper_id for paper in micro.papers]
    engine = KeywordSearchEngine(index)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "index.bin"
        save_index(index, path)
        packed = open_index(path, index.paper_rows)
        try:
            packed_engine = KeywordSearchEngine(packed)
            for query in queries + queries:  # the second pass reads the cache
                for each in (engine, packed_engine):
                    assert_matches_reference(each, reference, query, paper_ids, limits)
        finally:
            packed.close()


@settings(max_examples=100, deadline=None)
@given(micro_corpora(), st.data(), st.lists(QUERIES, min_size=1, max_size=3), LIMITS)
def test_deltas_on_a_warm_engine_equal_reference(micro, data, queries, limits):
    """Each delta's rebuilt index answers like the reference mutated in
    place; the warm engine over the index before it answers as before."""
    corpus = micro.corpus()
    tokens = AnalyzedPaperCache(corpus)
    reference = ReferenceIndex.of(tokens)
    engine = KeywordSearchEngine(build_index(tokens))
    for paper_id, paper in data.draw(deltas(micro.papers)):
        before = [engine.evaluate(query).hits() for query in queries]  # warm
        if paper_id in corpus:
            reference.remove_paper(paper_id)
            corpus.remove(paper_id)
            tokens.evict_paper(paper_id)
        if paper is not None:
            corpus.add(paper)
            reference.index_paper(paper_id)
        old, engine = engine, KeywordSearchEngine(build_index(tokens))
        for query, hits in zip(queries, before):
            assert_matches_reference(
                engine, reference, query, corpus.paper_ids(), limits
            )
            assert old.evaluate(query).hits() == hits


def _in_threads(call, items, n_threads=8):
    """``call(item)`` for every item from each of ``n_threads`` threads at once."""
    results = [None] * n_threads
    barrier = threading.Barrier(n_threads)

    def work(slot):
        barrier.wait()
        results[slot] = [call(item) for item in items]

    threads = [threading.Thread(target=work, args=(slot,)) for slot in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results


def _hits_of(engine):
    return lambda query: engine.evaluate(query).hits()


class TestConcurrentColdEngines:
    """Eight threads fill one cold engine's caches; answers equal a serial run."""

    def setup_method(self):
        self.pipeline = build_demo_pipeline(seed=5, n_papers=120, n_terms=30)
        index = self.pipeline.index
        self.queries = [
            " ".join(index.vocabulary()[i : i + 3]) for i in range(0, 60, 3)
        ]

    def context_engine(self, keyword_engine, pipeline=None):
        pipeline = pipeline or self.pipeline
        return ContextSearchEngine(
            pipeline.ontology,
            pipeline.text_paper_set,
            pipeline.substrates.prestige("text", "text"),
            keyword_engine,
        )

    def test_cold_keyword_and_context_engines(self):
        index = self.pipeline.index
        serial_keyword = [_hits_of(KeywordSearchEngine(index))(q) for q in self.queries]
        serial_context = [
            self.context_engine(KeywordSearchEngine(index)).search(q)
            for q in self.queries
        ]
        keyword = KeywordSearchEngine(index)
        for answers in _in_threads(_hits_of(keyword), self.queries):
            assert answers == serial_keyword
        context = self.context_engine(KeywordSearchEngine(index))
        for answers in _in_threads(context.search, self.queries):
            assert answers == serial_context

    def test_revision_bump_under_a_warm_old_engine(self):
        """A delta's new index, paper set and scores serve beside the warm
        engines over the old ones: from eight threads, each answers for
        its own corpus revision."""
        source = self.pipeline
        pipeline = Pipeline(
            Corpus(list(source.corpus)), source.ontology, source.training_papers
        )
        keyword = KeywordSearchEngine(pipeline.index)
        context = self.context_engine(keyword, pipeline)
        old_keyword = [_hits_of(keyword)(q) for q in self.queries]
        old_context = [context.search(q) for q in self.queries]  # warm
        removed = pipeline.corpus.paper_ids()[:5]
        pipeline.substrates.apply_delta(removed_ids=removed)
        new_keyword = KeywordSearchEngine(pipeline.index)
        new_context = self.context_engine(new_keyword, pipeline)
        fresh = Pipeline(
            Corpus(list(pipeline.corpus)), source.ontology, source.training_papers
        )
        serial_keyword = [
            _hits_of(KeywordSearchEngine(fresh.index))(q) for q in self.queries
        ]
        serial_context = [
            self.context_engine(KeywordSearchEngine(fresh.index), fresh).search(q)
            for q in self.queries
        ]
        assert not any(
            hit.paper_id in removed for hits in serial_context for hit in hits
        )
        for engine, expected in (
            (_hits_of(keyword), old_keyword),
            (context.search, old_context),
            (_hits_of(new_keyword), serial_keyword),
            (new_context.search, serial_context),
        ):
            for answers in _in_threads(engine, self.queries):
                assert answers == expected
