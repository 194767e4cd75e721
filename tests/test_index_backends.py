"""Tests for the two index forms behind the ``SearchBackend`` protocol.

Covers the packed index's equivalence with the in-memory index over
every read API and engine ranking (the reference check for the persisted
format), its bounded term cache, its framing checks, and the in-memory
index's postings-view and vocabulary-snapshot contracts.
"""

import tracemalloc

import pytest

from repro.index import open_index, save_index
from repro.index.inverted import InvertedIndex
from repro.index.search import KeywordSearchEngine
from repro.obs import get_registry, reset_registry
from repro.pipeline import build_demo_pipeline

QUERIES = (
    "gene expression regulation",
    "protein binding activity",
    "cell membrane transport",
)


@pytest.fixture(autouse=True)
def fresh_registry():
    reset_registry()
    yield
    reset_registry()


@pytest.fixture(scope="module")
def pipeline():
    return build_demo_pipeline(seed=11, n_papers=60, n_terms=20)


@pytest.fixture(scope="module")
def packed_path(pipeline, tmp_path_factory):
    path = tmp_path_factory.mktemp("packed") / "index.bin"
    save_index(pipeline.index, path)
    return path


@pytest.fixture()
def packed_index(packed_path):
    index = open_index(packed_path)
    yield index
    index.close()


class TestOndiskEquivalence:
    """The packed index answers every read exactly as the in-memory index
    it was saved from."""

    def test_every_read_api_matches_memory(self, pipeline, packed_index):
        source = pipeline.index
        assert packed_index.n_papers == source.n_papers
        assert packed_index.n_terms == source.n_terms
        assert tuple(packed_index.vocabulary()) == tuple(source.vocabulary())
        papers = [p.paper_id for p in pipeline.corpus][:10]
        for term in source.vocabulary():
            assert tuple(packed_index.postings(term)) == tuple(
                source.postings(term)
            ), term
            assert packed_index.document_frequency(
                term
            ) == source.document_frequency(term)
            assert packed_index.papers_containing(
                term
            ) == source.papers_containing(term)
            assert (term in packed_index) == (term in source)
        probe_terms = list(source.vocabulary())[:5]
        from repro.corpus.paper import Section

        for paper_id in papers:
            for term in probe_terms:
                assert packed_index.term_frequency(
                    paper_id, term
                ) == source.term_frequency(paper_id, term)
            for section in Section:
                assert dict(
                    packed_index.paper_section_terms(paper_id, section)
                ) == dict(source.paper_section_terms(paper_id, section))
        assert packed_index.to_payload() == source.to_payload()

    @pytest.mark.parametrize("scoring", ["tfidf", "bm25"])
    def test_engine_rankings_identical(self, pipeline, packed_index, scoring):
        memory_engine = KeywordSearchEngine(pipeline.index, scoring=scoring)
        packed_engine = KeywordSearchEngine(packed_index, scoring=scoring)
        for query in QUERIES:
            assert packed_engine.search(query, limit=10) == memory_engine.search(
                query, limit=10
            )

    def test_out_of_vocabulary_term(self, packed_index):
        assert packed_index.postings("zzz_not_a_term") == ()
        assert packed_index.document_frequency("zzz_not_a_term") == 0
        assert packed_index.papers_containing("zzz_not_a_term") == []
        assert "zzz_not_a_term" not in packed_index

    def test_read_only(self, pipeline, packed_index):
        paper = next(iter(pipeline.corpus))
        with pytest.raises(TypeError, match="read-only"):
            packed_index.index_corpus(pipeline.corpus)
        with pytest.raises(TypeError, match="read-only"):
            packed_index.index_paper(paper)
        with pytest.raises(TypeError, match="read-only"):
            packed_index.remove_paper(paper.paper_id)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "index.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ValueError, match="bad magic"):
            open_index(path)

    def test_truncated_data_rejected(self, packed_path, tmp_path):
        path = tmp_path / "index.bin"
        path.write_bytes(packed_path.read_bytes()[:-1])
        with pytest.raises(ValueError, match="truncated packed index"):
            open_index(path)


class TestTermCache:
    def test_warm_postings_are_the_cached_tuple(self, packed_index):
        term = packed_index.vocabulary()[0]
        first = packed_index.postings(term)
        assert isinstance(first, tuple)
        assert packed_index.postings(term) is first

    def test_load_and_hit_counters(self, packed_index):
        term = packed_index.vocabulary()[0]
        loads = get_registry().counter("index.backend.term_loads")
        hits = get_registry().counter("index.backend.cache_hit")
        before_loads, before_hits = loads.value, hits.value
        packed_index.postings(term)
        assert loads.value == before_loads + 1
        packed_index.postings(term)
        assert hits.value == before_hits + 1
        assert loads.value == before_loads + 1

    def test_lru_eviction_is_bounded(self, packed_path):
        index = open_index(packed_path)
        index._term_cache_size = 2
        terms = list(index.vocabulary())[:3]
        try:
            for term in terms:
                index.postings(term)
            assert len(index._term_cache) == 2
            assert get_registry().counter("index.backend.cache_evict").value == 1
            # The evicted (oldest) term decodes again, equal to the source.
            again = index.postings(terms[0])
            assert tuple(again) == tuple(
                open_index(packed_path).postings(terms[0])
            )
        finally:
            index.close()

    def test_backend_stats_and_resident_bytes(self, pipeline, packed_index):
        stats = packed_index.backend_stats()
        assert stats["mapped_bytes"] > 0
        assert stats["cached_terms"] == 0
        assert packed_index.resident_postings_bytes() == 0
        packed_index.postings(packed_index.vocabulary()[0])
        assert packed_index.backend_stats()["cached_terms"] == 1
        assert packed_index.resident_postings_bytes() > 0
        # Lazy decode holds only the touched slice, never the whole index.
        assert (
            packed_index.resident_postings_bytes()
            < pipeline.index.resident_postings_bytes()
        )


class TestFormatDispatch:
    """Opening a file that is not a packed index fails loudly."""

    def test_open_unreadable_file_raises(self, tmp_path):
        garbage = tmp_path / "garbage.bin"
        garbage.write_text("{}", encoding="utf-8")
        with pytest.raises(ValueError, match="not a packed index"):
            open_index(garbage)
        with pytest.raises(FileNotFoundError):
            open_index(tmp_path / "missing.bin")


class TestMemoryViewSatellites:
    """The postings-tuple cache and vocabulary-snapshot satellites."""

    def _two_papers(self, pipeline):
        papers = iter(pipeline.corpus)
        return next(papers), next(papers)

    def test_postings_view_is_cached_and_immutable(self, pipeline):
        first_paper, second_paper = self._two_papers(pipeline)
        index = InvertedIndex()
        index.index_paper(first_paper)
        term = index.vocabulary()[0]
        view = index.postings(term)
        assert isinstance(view, tuple)
        assert index.postings(term) is view
        with pytest.raises(AttributeError):
            view.append  # tuples expose no mutators
        # Warm calls hand out the cached tuple: no per-call allocation.
        tracemalloc.start()
        for _ in range(50):
            index.postings(term)
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak_bytes < 16 * 1024

    def test_postings_view_invalidated_by_mutation(self, pipeline):
        first_paper, second_paper = self._two_papers(pipeline)
        index = InvertedIndex()
        index.index_paper(first_paper)
        term = index.vocabulary()[0]
        before = index.postings(term)
        index.index_paper(second_paper)
        after = index.postings(term)
        assert after is not before  # stale view dropped, not mutated
        assert tuple(before) == tuple(after)[: len(before)]
        index.remove_paper(second_paper.paper_id)
        assert tuple(index.postings(term)) == tuple(before)

    def test_vocabulary_is_a_stable_snapshot(self, pipeline):
        first_paper, second_paper = self._two_papers(pipeline)
        index = InvertedIndex()
        index.index_paper(first_paper)
        snapshot = index.vocabulary()
        assert isinstance(snapshot, tuple)
        # Mutating mid-iteration must not raise or change the snapshot.
        seen = []
        for i, term in enumerate(snapshot):
            if i == 0:
                index.index_paper(second_paper)
            seen.append(term)
        assert tuple(seen) == snapshot
        fresh = index.vocabulary()
        assert set(fresh) >= set(snapshot)
