"""Tests for the two index forms behind the ``SearchBackend`` protocol.

Covers the packed index's equivalence with the in-memory index it was
saved from -- fresh or mutated by paper removals, replacements and
additions -- over every read API (postings and their columnar runs) and
engine score (the reference check for the one writer), its on-demand
run decode, its framing and
term-directory checks, the ``index.backend.*`` gauges across a delta,
and the in-memory index's postings-view and vocabulary-snapshot
contracts.
"""

import dataclasses
import json

import pytest

from repro.corpus.corpus import Corpus
from repro.corpus.paper import Paper
from repro.index import build_index, open_index, save_index
from repro.index.inverted import InvertedIndex, Posting
from repro.index.packed import _LEN, _MAGIC, _PREAMBLE, PackedIndex
from repro.index.search import KeywordSearchEngine
from repro.obs import get_registry, reset_registry
from repro.pipeline import build_demo_pipeline
from repro.text.analyze import AnalyzedPaperCache
from repro.workspace import ingest_delta, open_workspace

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


def _mutated(pipeline):
    """An index mutated in place, and the corpus it ends up indexing.

    Removes the first paper (so some surviving terms lose their first
    posting), replaces the second with different text under the same
    id, and adds a new paper and a text-less one.
    """
    papers = list(pipeline.corpus)
    corpus = Corpus(papers)
    tokens = AnalyzedPaperCache(corpus)
    index = build_index(tokens)
    first, second, donor = papers[0], papers[1], papers[-1]
    replacement = dataclasses.replace(
        second, title=donor.title, abstract=first.abstract, body=""
    )
    added = [
        dataclasses.replace(first, paper_id="NEW-1"),
        Paper(paper_id="NEW-TEXTLESS", title=""),
    ]
    for paper_id in (first.paper_id, second.paper_id):
        index.remove_paper(paper_id)
        corpus.remove(paper_id)
        tokens.evict_paper(paper_id)
    for paper in [replacement, *added]:
        corpus.add(paper)
        index.index_paper(paper.paper_id)
    moved = [
        term
        for term in index.vocabulary()
        if pipeline.index.postings(term)[0].paper_id == first.paper_id
        and index.postings(term)[0].paper_id != "NEW-1"
    ]
    assert moved, "no term lost its first posting paper"
    return index, corpus


@pytest.fixture(scope="module", params=["fresh", "mutated"])
def saved(request, pipeline, tmp_path_factory):
    """``(source index, corpus it indexes, packed file saved from it)``."""
    if request.param == "fresh":
        source, corpus = pipeline.index, pipeline.corpus
    else:
        source, corpus = _mutated(pipeline)
    path = tmp_path_factory.mktemp(f"saved-{request.param}") / "index.bin"
    save_index(source, path)
    return source, corpus, path


def _run_postings(index, term):
    """``index.term_run(term)`` mapped back to postings through its tables."""
    run = index.term_run(term)
    paper_ids = index.paper_table().ids
    return tuple(
        Posting(paper_ids[row], run.section_table[section], tf)
        for row, section, tf in zip(
            run.rows.tolist(), run.sections.tolist(), run.term_frequency.tolist()
        )
    )


class TestOndiskEquivalence:
    """The packed index answers every read exactly as the in-memory index
    it was saved from, fresh or mutated."""

    def test_every_read_api_matches_memory(self, saved):
        source, _, path = saved
        packed_index = open_index(path)
        try:
            assert packed_index.n_papers == source.n_papers
            assert tuple(packed_index.vocabulary()) == tuple(source.vocabulary())
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
                assert _run_postings(packed_index, term) == tuple(
                    source.postings(term)
                ), term
                assert _run_postings(source, term) == tuple(source.postings(term))
                assert term in packed_index
        finally:
            packed_index.close()

    def test_engine_rankings_identical(self, saved):
        """Scores off the file ``==`` a fresh build of the final corpus."""
        source, corpus, path = saved
        packed_index = open_index(path)
        fresh_engine = KeywordSearchEngine(build_index(AnalyzedPaperCache(corpus)))
        packed_engine = KeywordSearchEngine(packed_index)
        queries = list(QUERIES) + [paper.title for paper in list(corpus)[::5]]
        try:
            for query in queries:
                # Every matched paper, its score and its matched-term count.
                assert (
                    packed_engine.evaluate(query).hits()
                    == fresh_engine.evaluate(query).hits()
                ), query
                assert packed_engine.search(query, limit=10) == KeywordSearchEngine(
                    source
                ).search(query, limit=10)
        finally:
            packed_index.close()

    def test_out_of_vocabulary_term(self, packed_index):
        assert packed_index.postings("zzz_not_a_term") == ()
        assert packed_index.document_frequency("zzz_not_a_term") == 0
        assert packed_index.papers_containing("zzz_not_a_term") == []
        assert "zzz_not_a_term" not in packed_index

    def test_read_only(self, pipeline, packed_index):
        paper = next(iter(pipeline.corpus))
        with pytest.raises(TypeError, match="read-only"):
            packed_index.index_paper(paper.paper_id)
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

    def test_parent_format_rejected(self, packed_path, tmp_path):
        """A file of the earlier layout (with a forward region) fails on
        its magic rather than being read as postings."""
        path = tmp_path / "index.bin"
        path.write_bytes(b"RPROIDX1" + packed_path.read_bytes()[len(_MAGIC):])
        with pytest.raises(ValueError, match="bad magic"):
            open_index(path)


def _rewrite_header(source, target, edit):
    """Copy a packed file, applying ``edit`` to its header JSON; the
    header keeps its length so the framing stays valid."""
    raw = source.read_bytes()
    (header_len,) = _LEN.unpack_from(raw, len(_MAGIC))
    header = json.loads(raw[_PREAMBLE : _PREAMBLE + header_len])
    edit(header)
    encoded = json.dumps(header).encode("utf-8")
    assert len(encoded) == header_len
    target.write_bytes(raw[:_PREAMBLE] + encoded + raw[_PREAMBLE + header_len :])


class TestTermDirectoryCheck:
    """Opening rejects a term directory whose runs do not tile the data."""

    def _term_with_count(self, header, low, high):
        for position, (_, _, _, count) in enumerate(header["terms"][:-1]):
            if low <= count <= high:
                return position
        raise AssertionError("no term with a suitable run count")

    def test_overrunning_run_count_rejected(self, packed_path, tmp_path):
        path = tmp_path / "index.bin"

        def grow_one_run(header):
            position = self._term_with_count(header, 1, 8)
            header["terms"][position][3] += 1

        _rewrite_header(packed_path, path, grow_one_run)
        with pytest.raises(ValueError, match="corrupt term directory"):
            open_index(path)

    def test_df_above_run_count_rejected(self, packed_path, tmp_path):
        path = tmp_path / "index.bin"

        def raise_one_df(header):
            position = self._term_with_count(header, 1, 8)
            header["terms"][position][1] = header["terms"][position][3] + 1

        _rewrite_header(packed_path, path, raise_one_df)
        with pytest.raises(ValueError, match="corrupt term directory"):
            open_index(path)


class TestRunDecode:
    """The packed index decodes runs on demand and keeps nothing mapped."""

    def test_decoded_runs_outlive_close(self, packed_path):
        index = open_index(packed_path)
        term = index.vocabulary()[0]
        run = index.term_run(term)
        expected = _run_postings(index, term)
        # No decoded array is a view of the mapping, so closing succeeds.
        index.close()
        assert len(run.rows) == len(expected)
        assert run.rows.tolist() == [
            index.paper_table().row_of[posting.paper_id] for posting in expected
        ]

    def test_backend_stats_report_mapped_bytes(self, packed_path):
        index = open_index(packed_path)
        index.postings(index.vocabulary()[0])
        assert index.backend_stats() == {
            "mapped_bytes": float(packed_path.stat().st_size)
        }
        index.close()
        assert index.backend_stats() == {"mapped_bytes": 0.0}


class TestBackendGauges:
    def test_delta_zeroes_the_packed_index_gauges(self, tmp_path):
        """Once a delta swaps the opened file for an in-memory index,
        ``/metrics`` must stop reporting the closed file's figures."""
        build_demo_pipeline(seed=11, n_papers=40, n_terms=10).build_workspace(
            tmp_path
        )
        pipeline = build_demo_pipeline(seed=11, n_papers=40, n_terms=10)
        open_workspace(pipeline, tmp_path)
        pipeline.search("gene expression regulation")
        def mapped():
            pipeline.serving_view.export_gauges()
            return get_registry().snapshot()["gauges"]["index.backend.mapped_bytes"]

        assert isinstance(pipeline.substrates._index, PackedIndex)
        size = (tmp_path / "index.bin").stat().st_size
        assert mapped() == size

        paper_id = next(iter(pipeline.corpus)).paper_id
        ingest_delta(pipeline, tmp_path, removed_ids=[paper_id])
        assert isinstance(pipeline.substrates._index, InvertedIndex)
        assert mapped() == 0.0


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
    """Postings and vocabulary are immutable snapshots."""

    def _two_papers(self, pipeline):
        papers = iter(pipeline.corpus)
        return next(papers), next(papers)

    def test_postings_view_is_immutable(self, pipeline):
        first_paper, second_paper = self._two_papers(pipeline)
        index = InvertedIndex(AnalyzedPaperCache(pipeline.corpus))
        index.index_paper(first_paper.paper_id)
        term = index.vocabulary()[0]
        view = index.postings(term)
        assert isinstance(view, tuple)
        assert index.postings(term) == view
        with pytest.raises(AttributeError):
            view.append  # tuples expose no mutators

    def test_postings_view_invalidated_by_mutation(self, pipeline):
        first_paper, second_paper = self._two_papers(pipeline)
        index = InvertedIndex(AnalyzedPaperCache(pipeline.corpus))
        index.index_paper(first_paper.paper_id)
        term = index.vocabulary()[0]
        before = index.postings(term)
        index.index_paper(second_paper.paper_id)
        after = index.postings(term)
        assert tuple(before) == tuple(after)[: len(before)]
        index.remove_paper(second_paper.paper_id)
        assert tuple(index.postings(term)) == tuple(before)

    def test_vocabulary_is_a_stable_snapshot(self, pipeline):
        first_paper, second_paper = self._two_papers(pipeline)
        index = InvertedIndex(AnalyzedPaperCache(pipeline.corpus))
        index.index_paper(first_paper.paper_id)
        snapshot = index.vocabulary()
        assert isinstance(snapshot, tuple)
        # Mutating mid-iteration must not raise or change the snapshot.
        seen = []
        for i, term in enumerate(snapshot):
            if i == 0:
                index.index_paper(second_paper.paper_id)
            seen.append(term)
        assert tuple(seen) == snapshot
        fresh = index.vocabulary()
        assert set(fresh) >= set(snapshot)
