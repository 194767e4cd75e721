"""Tests for the pluggable index-backend registry and its backends.

Covers the registry contract (registration, format-tag uniqueness,
temporary registration), the ondisk backend's equivalence with the
memory backend over every read API, the bounded term cache, format
sniffing/dispatch, and the refactor's acceptance criterion: a toy
third backend registered through the public API alone reaches the
pipeline and the CLI with zero edits under ``repro/core/`` or
``repro/serving/``.
"""

import json

import pytest

from repro.index import backends
from repro.index.backends import memory as memory_backend
from repro.index.backends import ondisk as ondisk_backend
from repro.index.backends.registry import SearchBackendSpec
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
def ondisk_path(pipeline, tmp_path_factory):
    path = tmp_path_factory.mktemp("backends") / "index.json"
    backends.get("ondisk").save(pipeline.index, path)
    return path


@pytest.fixture()
def ondisk_index(ondisk_path):
    index = backends.get("ondisk").load(ondisk_path)
    yield index
    index.close()


def _toy_spec(format_tag="repro/toy-index/v1", name="toy"):
    """A third backend built purely from public API: the memory codec
    under its own name and format tag."""

    def build(corpus, analyzer=None):
        index = memory_backend.build_memory_index(corpus, analyzer=analyzer)
        index.backend_name = name
        return index

    def save(index, path):
        from repro.core.io import write_tagged_json

        write_tagged_json(index.to_payload(), path, format_tag)

    def load(path, analyzer=None):
        from repro.core.io import read_tagged_json

        index = InvertedIndex.from_payload(
            read_tagged_json(path, format_tag), analyzer=analyzer
        )
        index.backend_name = name
        return index

    return SearchBackendSpec(
        name=name,
        build=build,
        save=save,
        load=load,
        format_tag=format_tag,
        description="toy third backend (memory codec, own tag)",
    )


class TestRegistry:
    def test_builtins_registered(self):
        assert backends.DEFAULT_BACKEND == "memory"
        assert set(backends.backend_names()) >= {"memory", "ondisk"}
        assert backends.is_registered("memory")
        assert backends.is_registered("ondisk")

    def test_unknown_backend_names_the_known_ones(self):
        with pytest.raises(ValueError, match="unknown index backend 'nope'"):
            backends.get("nope")
        with pytest.raises(ValueError, match="memory"):
            backends.get("nope")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            backends.register(_toy_spec(name="memory"))

    def test_duplicate_format_tag_rejected(self):
        spec = _toy_spec(format_tag=memory_backend.MEMORY_FORMAT)
        with pytest.raises(ValueError, match="format tag"):
            backends.register(spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="must match"):
            _toy_spec(name="Not-Valid")
        with pytest.raises(ValueError, match="format_tag"):
            _toy_spec(format_tag="no-slash")

    def test_temporary_registration_restores(self):
        revision = backends.registry_revision()
        with backends.temporary_registration(_toy_spec()):
            assert backends.is_registered("toy")
            assert backends.registry_revision() > revision
        assert not backends.is_registered("toy")

    def test_temporary_shadowing_restores_the_shadowed_spec(self):
        original = backends.get("memory")
        shadow = _toy_spec(name="memory", format_tag="repro/toy-index/v9")
        with pytest.raises(ValueError, match="already registered"):
            with backends.temporary_registration(shadow):
                pass  # pragma: no cover
        with backends.temporary_registration(shadow, replace=True):
            assert backends.get("memory") is shadow
        assert backends.get("memory") is original

    def test_spec_for_format(self):
        assert (
            backends.spec_for_format(memory_backend.MEMORY_FORMAT).name
            == "memory"
        )
        assert (
            backends.spec_for_format(ondisk_backend.ONDISK_FORMAT).name
            == "ondisk"
        )
        with pytest.raises(ValueError, match="no index backend claims"):
            backends.spec_for_format("repro/unknown/v1")


class TestOndiskEquivalence:
    def test_every_read_api_matches_memory(self, pipeline, ondisk_index):
        source = pipeline.index
        assert ondisk_index.n_papers == source.n_papers
        assert ondisk_index.n_terms == source.n_terms
        assert tuple(ondisk_index.vocabulary()) == tuple(source.vocabulary())
        papers = [p.paper_id for p in pipeline.corpus][:10]
        for term in source.vocabulary():
            assert tuple(ondisk_index.postings(term)) == tuple(
                source.postings(term)
            ), term
            assert ondisk_index.document_frequency(
                term
            ) == source.document_frequency(term)
            assert ondisk_index.papers_containing(
                term
            ) == source.papers_containing(term)
            assert (term in ondisk_index) == (term in source)
        probe_terms = list(source.vocabulary())[:5]
        from repro.corpus.paper import Section

        for paper_id in papers:
            for term in probe_terms:
                assert ondisk_index.term_frequency(
                    paper_id, term
                ) == source.term_frequency(paper_id, term)
            for section in Section:
                assert dict(
                    ondisk_index.paper_section_terms(paper_id, section)
                ) == dict(source.paper_section_terms(paper_id, section))
        assert ondisk_index.to_payload() == source.to_payload()

    @pytest.mark.parametrize("scoring", ["tfidf", "bm25"])
    def test_engine_rankings_identical(self, pipeline, ondisk_index, scoring):
        memory_engine = KeywordSearchEngine(pipeline.index, scoring=scoring)
        ondisk_engine = KeywordSearchEngine(ondisk_index, scoring=scoring)
        for query in QUERIES:
            assert ondisk_engine.search(query, limit=10) == memory_engine.search(
                query, limit=10
            )

    def test_out_of_vocabulary_term(self, ondisk_index):
        assert ondisk_index.postings("zzz_not_a_term") == ()
        assert ondisk_index.document_frequency("zzz_not_a_term") == 0
        assert ondisk_index.papers_containing("zzz_not_a_term") == []
        assert "zzz_not_a_term" not in ondisk_index

    def test_read_only(self, pipeline, ondisk_index):
        paper = next(iter(pipeline.corpus))
        with pytest.raises(TypeError, match="read-only"):
            ondisk_index.index_corpus(pipeline.corpus)
        with pytest.raises(TypeError, match="read-only"):
            ondisk_index.index_paper(paper)
        with pytest.raises(TypeError, match="read-only"):
            ondisk_index.remove_paper(paper.paper_id)

    def test_bad_magic_rejected(self, tmp_path):
        descriptor = tmp_path / "index.json"
        sidecar = tmp_path / "index.bin"
        sidecar.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        descriptor.write_text(
            json.dumps(
                {
                    "format": ondisk_backend.ONDISK_FORMAT,
                    "backend": "ondisk",
                    "data_file": "index.bin",
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="bad magic"):
            backends.get("ondisk").load(descriptor)


class TestTermCache:
    def test_warm_postings_are_the_cached_tuple(self, ondisk_index):
        term = ondisk_index.vocabulary()[0]
        first = ondisk_index.postings(term)
        assert isinstance(first, tuple)
        assert ondisk_index.postings(term) is first

    def test_load_and_hit_counters(self, ondisk_index):
        term = ondisk_index.vocabulary()[0]
        loads = get_registry().counter("index.backend.term_loads")
        hits = get_registry().counter("index.backend.cache_hit")
        before_loads, before_hits = loads.value, hits.value
        ondisk_index.postings(term)
        assert loads.value == before_loads + 1
        ondisk_index.postings(term)
        assert hits.value == before_hits + 1
        assert loads.value == before_loads + 1

    def test_lru_eviction_is_bounded(self, ondisk_path):
        index = backends.get("ondisk").load(ondisk_path)
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
                backends.get("ondisk").load(ondisk_path).postings(terms[0])
            )
        finally:
            index.close()

    def test_backend_stats_and_resident_bytes(self, ondisk_index):
        stats = ondisk_index.backend_stats()
        assert stats["mapped_bytes"] > 0
        assert stats["cached_terms"] == 0
        assert ondisk_index.resident_postings_bytes() == 0
        ondisk_index.postings(ondisk_index.vocabulary()[0])
        assert ondisk_index.backend_stats()["cached_terms"] == 1
        assert ondisk_index.resident_postings_bytes() > 0


class TestFormatDispatch:
    def test_sniff_and_open_both_formats(self, pipeline, ondisk_path, tmp_path):
        memory_path = tmp_path / "index_memory.json"
        backends.get("memory").save(pipeline.index, memory_path)
        assert backends.sniff_format(memory_path) == memory_backend.MEMORY_FORMAT
        assert backends.sniff_backend(memory_path) == "memory"
        assert backends.sniff_format(ondisk_path) == ondisk_backend.ONDISK_FORMAT
        assert backends.sniff_backend(ondisk_path) == "ondisk"

        opened_memory = backends.open_index(memory_path)
        assert opened_memory.backend_name == "memory"
        opened_ondisk = backends.open_index(ondisk_path)
        try:
            assert opened_ondisk.backend_name == "ondisk"
            term = pipeline.index.vocabulary()[0]
            assert tuple(opened_ondisk.postings(term)) == tuple(
                opened_memory.postings(term)
            )
        finally:
            opened_ondisk.close()

    def test_open_unreadable_file_raises(self, tmp_path):
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{}", encoding="utf-8")
        with pytest.raises(ValueError, match="cannot determine index format"):
            backends.open_index(garbage)
        with pytest.raises(ValueError, match="cannot determine index format"):
            backends.open_index(tmp_path / "missing.json")
        assert backends.sniff_backend(garbage) is None

    def test_save_index_dispatches_on_backend_stamp(self, pipeline, tmp_path):
        index = pipeline.index
        path = tmp_path / "stamped.json"
        original = index.backend_name
        try:
            index.backend_name = "ondisk"
            backends.save_index(index, path)
        finally:
            index.backend_name = original
        assert backends.sniff_backend(path) == "ondisk"
        assert ondisk_backend._sidecar_path(path).exists()


class TestToyThirdBackend:
    """Acceptance criterion: a third backend registers through the public
    API and works end to end with zero edits under ``repro/core/`` or
    ``repro/serving/``."""

    def test_toy_backend_reaches_pipeline_and_cli(self, tmp_path):
        with backends.temporary_registration(_toy_spec()):
            # Pipeline: the substrate builds through the toy spec.
            pipeline = build_demo_pipeline(
                seed=11, n_papers=40, n_terms=15, index_backend="toy"
            )
            assert pipeline.index_backend == "toy"
            assert pipeline.index.backend_name == "toy"
            assert pipeline.search(QUERIES[0], limit=5) is not None

            # Codec: save_index round-trips through the toy format tag.
            path = tmp_path / "index.json"
            backends.save_index(pipeline.index, path)
            assert backends.sniff_backend(path) == "toy"
            reopened = backends.open_index(path)
            assert reopened.backend_name == "toy"
            assert reopened.to_payload() == pipeline.index.to_payload()

            # CLI: a freshly built parser offers the new backend.
            from repro.cli import build_parser

            args = build_parser().parse_args(
                ["search", "--query", "q", "--index-backend", "toy"]
            )
            assert args.index_backend == "toy"
        assert not backends.is_registered("toy")

    def test_unknown_backend_fails_fast_at_pipeline_construction(self):
        with pytest.raises(ValueError, match="unknown index backend"):
            build_demo_pipeline(
                seed=11, n_papers=40, n_terms=15, index_backend="toy"
            )


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
