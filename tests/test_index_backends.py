"""Tests for the inverted index's two origins: built and opened.

Covers a built index's equivalence with its saved and reopened copy --
over a fresh corpus or one changed by paper removals, replacements and
additions -- on every read API and engine score, and both against the
naive reference index mutated in place (:mod:`reference.index`,
also under hypothesis-drawn micro corpora and delta sequences); the
reopened index's on-demand run decode, framing, term-directory and
record checks; the ``index.backend.*`` gauges across a delta; and the
vocabulary snapshot and immutability contracts.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.index import ReferenceIndex, assert_index_equals_reference, postings
from reference.strategies import deltas, micro_corpora
from repro.corpus.corpus import Corpus
from repro.corpus.paper import Paper
from repro.corpus.rows import PaperRows
from repro.index import build_index, open_index, save_index
from repro.index.inverted import _LEN, _MAGIC, _PREAMBLE, _RECORD
from repro.index.search import KeywordSearchEngine
from repro.obs import get_registry
from repro.pipeline import build_demo_pipeline
from repro.text.analyze import AnalyzedPaperCache
from repro.workspace import ingest_delta, open_workspace

QUERIES = (
    "gene expression regulation",
    "protein binding activity",
    "cell membrane transport",
)


@pytest.fixture(scope="module")
def pipeline():
    return build_demo_pipeline(seed=11, n_papers=60, n_terms=20)


@pytest.fixture(scope="module")
def packed_path(pipeline, tmp_path_factory):
    path = tmp_path_factory.mktemp("packed") / "index.bin"
    save_index(pipeline.index, path)
    return path


@pytest.fixture()
def packed_index(packed_path, pipeline):
    index = open_index(packed_path, pipeline.corpus.paper_rows)
    yield index
    index.close()


def _mutated(pipeline):
    """The reference index mutated in place, and the corpus it ends up
    indexing.

    Removes the first paper (so some surviving terms lose their first
    posting), replaces the second with different text under the same
    id, and adds a new paper and a text-less one.
    """
    papers = list(pipeline.corpus)
    corpus = Corpus(papers)
    tokens = AnalyzedPaperCache(corpus)
    reference = ReferenceIndex.of(tokens)
    first, second, donor = papers[0], papers[1], papers[-1]
    replacement = dataclasses.replace(
        second, title=donor.title, abstract=first.abstract, body=""
    )
    added = [
        dataclasses.replace(first, paper_id="NEW-1"),
        Paper(paper_id="NEW-TEXTLESS", title=""),
    ]
    for paper_id in (first.paper_id, second.paper_id):
        reference.remove_paper(paper_id)
        corpus.remove(paper_id)
        tokens.evict_paper(paper_id)
    for paper in [replacement, *added]:
        corpus.add(paper)
        reference.index_paper(paper.paper_id)
    moved = [
        term
        for term in reference.vocabulary()
        if postings(pipeline.index, term)[0].paper_id == first.paper_id
        and reference.postings(term)[0].paper_id != "NEW-1"
    ]
    assert moved, "no term lost its first posting paper"
    return reference, corpus


@pytest.fixture(scope="module", params=["fresh", "mutated"])
def saved(request, pipeline, tmp_path_factory):
    """``(built index, reference index, corpus both index, saved file)``."""
    if request.param == "fresh":
        corpus = pipeline.corpus
        source = pipeline.index
        reference = ReferenceIndex.of(AnalyzedPaperCache(corpus))
    else:
        reference, corpus = _mutated(pipeline)
        source = build_index(AnalyzedPaperCache(corpus))
    path = tmp_path_factory.mktemp(f"saved-{request.param}") / "index.bin"
    save_index(source, path)
    return source, reference, corpus, path


def assert_same_arrays(index, other):
    """Equal paper rows, vocabulary order, dfs and records, term by term."""
    assert index.n_papers == other.n_papers
    assert index.paper_rows is other.paper_rows
    assert tuple(index.vocabulary()) == tuple(other.vocabulary())
    for term in index.vocabulary():
        run, other_run = index.term_run(term), other.term_run(term)
        assert run.section_table == other_run.section_table
        for column in ("rows", "sections", "term_frequency"):
            assert np.array_equal(getattr(run, column), getattr(other_run, column))
        assert index.document_frequency(term) == other.document_frequency(term)


class TestOndiskEquivalence:
    """The reopened index answers every read exactly as the built index
    it was saved from, fresh or after a delta, and both equal the
    reference index."""

    def test_every_read_api_matches_memory(self, saved):
        source, reference, corpus, path = saved
        opened = open_index(path, corpus.paper_rows)
        try:
            assert_same_arrays(opened, source)
            assert_index_equals_reference(source, reference)
            assert_index_equals_reference(opened, reference)
        finally:
            opened.close()

    def test_engine_rankings_identical(self, saved):
        """Scores off the file ``==`` a fresh build of the final corpus."""
        source, _, corpus, path = saved
        opened = open_index(path, corpus.paper_rows)
        fresh_engine = KeywordSearchEngine(build_index(AnalyzedPaperCache(corpus)))
        opened_engine = KeywordSearchEngine(opened)
        queries = list(QUERIES) + [paper.title for paper in list(corpus)[::5]]
        try:
            for query in queries:
                # Every matched paper, its score and its matched-term count.
                assert (
                    opened_engine.evaluate(query).hits()
                    == fresh_engine.evaluate(query).hits()
                ), query
                assert opened_engine.search(query, limit=10) == KeywordSearchEngine(
                    source
                ).search(query, limit=10)
        finally:
            opened.close()

    def test_out_of_vocabulary_term(self, packed_index):
        assert postings(packed_index, "zzz_not_a_term") == ()
        assert packed_index.document_frequency("zzz_not_a_term") == 0
        assert packed_index.papers_containing("zzz_not_a_term") == []
        assert "zzz_not_a_term" not in packed_index

    def test_read_only(self, pipeline, packed_index):
        """No mutators, and a run handed out cannot write the index."""
        for index in (pipeline.index, packed_index):
            assert not hasattr(index, "index_paper")
            assert not hasattr(index, "remove_paper")
            term = index.vocabulary()[0]
            run = index.term_run(term)
            before = postings(index, term)
            with pytest.raises(ValueError, match="read-only"):
                run.term_frequency[0] = 0
            with pytest.raises(ValueError, match="read-only"):
                run.sections[0] = 0
            run.rows[0] += 1  # a private copy
            assert postings(index, term) == before

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "index.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ValueError, match="bad magic"):
            open_index(path, NO_PAPERS)

    def test_truncated_data_rejected(self, packed_path, tmp_path):
        path = tmp_path / "index.bin"
        path.write_bytes(packed_path.read_bytes()[:-1])
        with pytest.raises(ValueError, match="truncated packed index"):
            open_index(path, NO_PAPERS)

    def test_parent_format_rejected(self, packed_path, tmp_path):
        """A file of the earlier layout (with a forward region) fails on
        its magic rather than being read as postings."""
        path = tmp_path / "index.bin"
        path.write_bytes(b"RPROIDX1" + packed_path.read_bytes()[len(_MAGIC):])
        with pytest.raises(ValueError, match="bad magic"):
            open_index(path, NO_PAPERS)


def _rewrite_header(source, target, edit):
    """Copy a packed file, applying ``edit`` to its header JSON and
    reframing it, so only the header's content is damaged."""
    raw = source.read_bytes()
    (header_len,) = _LEN.unpack_from(raw, len(_MAGIC))
    header = json.loads(raw[_PREAMBLE : _PREAMBLE + header_len])
    edit(header)
    encoded = json.dumps(header).encode("utf-8")
    target.write_bytes(
        _MAGIC + _LEN.pack(len(encoded)) + encoded + raw[_PREAMBLE + header_len :]
    )


def _rewrite_record(source, target, field, value, position=0):
    """Copy a packed file with one field of its ``position``-th record set."""
    raw = bytearray(source.read_bytes())
    (header_len,) = _LEN.unpack_from(raw, len(_MAGIC))
    data_start = _PREAMBLE + header_len
    records = np.frombuffer(raw, dtype=_RECORD, offset=data_start).copy()
    records[position][field] = value
    raw[data_start:] = records.tobytes()
    target.write_bytes(bytes(raw))


def _drop(key):
    return lambda header: header.pop(key)


def _set(key, value):
    return lambda header: header.__setitem__(key, value)


#: Rows for files whose damage is found before their paper table is mapped.
NO_PAPERS = PaperRows(())

#: Damage the opening checks must reject, and the message naming it.
DAMAGE = {
    "paper_past_table": (lambda header: None, ("paper", 10**6), "corrupt record 0"),
    "section_past_table": (lambda header: None, ("section", 9), "corrupt record 0"),
    "zero_tf": (lambda header: None, ("tf", 0), "corrupt record 0"),
    "no_n_papers": (_drop("n_papers"), None, "no 'n_papers'"),
    "no_paper_ids": (_drop("paper_ids"), None, "no 'paper_ids'"),
    "string_n_papers": (_set("n_papers", "60"), None, "'n_papers' is str"),
    "terms_not_a_list": (_set("terms", {}), None, "'terms' is dict"),
    "short_directory_entry": (
        lambda header: header["terms"][0].pop(),
        None,
        "corrupt term directory entry",
    ),
    "unknown_section": (
        lambda header: header["sections"].__setitem__(0, "preface"),
        None,
        "corrupt header",
    ),
    "paper_id_not_a_string": (
        lambda header: header["paper_ids"].__setitem__(0, 7),
        None,
        "paper id is not a string",
    ),
}


class TestTermDirectoryCheck:
    """Opening rejects a term directory whose runs do not tile the data,
    and any header or record the index could not serve."""

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
            open_index(path, NO_PAPERS)

    def test_df_above_run_count_rejected(self, packed_path, tmp_path):
        path = tmp_path / "index.bin"

        def raise_one_df(header):
            position = self._term_with_count(header, 1, 8)
            header["terms"][position][1] = header["terms"][position][3] + 1

        _rewrite_header(packed_path, path, raise_one_df)
        with pytest.raises(ValueError, match="corrupt term directory"):
            open_index(path, NO_PAPERS)

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_file_rejected_at_open(self, packed_path, tmp_path, damage):
        edit, record, message = DAMAGE[damage]
        path = tmp_path / "index.bin"
        _rewrite_header(packed_path, path, edit)
        if record is not None:
            _rewrite_record(path, path, *record, position=0)
        with pytest.raises(ValueError, match=message) as raised:
            open_index(path, NO_PAPERS)
        assert str(path) in str(raised.value)

    def test_a_record_damaged_deep_in_the_data_is_named(self, packed_path, tmp_path):
        path = tmp_path / "index.bin"
        raw = packed_path.read_bytes()
        (header_len,) = _LEN.unpack_from(raw, len(_MAGIC))
        position = (len(raw) - _PREAMBLE - header_len) // _RECORD.itemsize - 1
        _rewrite_record(packed_path, path, "tf", 0, position=position)
        with pytest.raises(ValueError, match=f"corrupt record {position} "):
            open_index(path, NO_PAPERS)

    def test_undamaged_rewrite_opens(self, pipeline, packed_path, tmp_path):
        """The damage helpers change nothing but what they are told to."""
        path = tmp_path / "index.bin"
        _rewrite_header(packed_path, path, lambda header: None)
        assert path.read_bytes() == packed_path.read_bytes()
        open_index(path, pipeline.corpus.paper_rows).close()

    def test_paper_the_corpus_lacks_rejected(self, pipeline, packed_path):
        index = pipeline.index
        missing = postings(index, index.vocabulary()[0])[0].paper_id
        paper_rows = PaperRows(
            pid for pid in pipeline.corpus.paper_ids() if pid != missing
        )
        message = f"{missing!r} is not in the corpus"
        with pytest.raises(ValueError, match=message) as raised:
            open_index(packed_path, paper_rows)
        assert str(raised.value).startswith(str(packed_path))


class TestRunDecode:
    """The opened index decodes runs on demand and keeps nothing mapped."""

    def test_decoded_runs_outlive_close(self, pipeline, packed_path):
        index = open_index(packed_path, pipeline.corpus.paper_rows)
        term = index.vocabulary()[0]
        run = index.term_run(term)
        expected = postings(index, term)
        # No decoded array is a view of the mapping, so closing succeeds.
        index.close()
        assert len(run.rows) == len(expected)
        assert run.rows.tolist() == [
            index.paper_rows.row_of[posting.paper_id] for posting in expected
        ]

    def test_backend_stats_report_mapped_bytes(self, pipeline, packed_path):
        index = open_index(packed_path, pipeline.corpus.paper_rows)
        index.term_run(index.vocabulary()[0])
        assert index.backend_stats() == {
            "mapped_bytes": float(packed_path.stat().st_size)
        }
        index.close()
        assert index.backend_stats() == {"mapped_bytes": 0.0}
        assert pipeline.index.backend_stats() == {"mapped_bytes": 0.0}


class TestBackendGauges:
    def test_delta_zeroes_the_packed_index_gauges(self, tmp_path):
        """Once a delta swaps the opened file for a built index,
        ``/metrics`` must stop reporting the file's figures."""
        build_demo_pipeline(seed=11, n_papers=40, n_terms=10).build_workspace(
            tmp_path
        )
        pipeline = build_demo_pipeline(seed=11, n_papers=40, n_terms=10)
        open_workspace(pipeline, tmp_path)
        pipeline.search("gene expression regulation")
        def mapped():
            pipeline.serving_view.export_gauges()
            return get_registry().snapshot()["gauges"]["index.backend.mapped_bytes"]

        opened = pipeline.substrates._index
        size = (tmp_path / "index.bin").stat().st_size
        assert opened.backend_stats() == {"mapped_bytes": float(size)}
        assert mapped() == size

        paper_id = next(iter(pipeline.corpus)).paper_id
        ingest_delta(pipeline, tmp_path, removed_ids=[paper_id])
        assert pipeline.substrates._index is not opened
        assert mapped() == 0.0


class TestFormatDispatch:
    """Opening a file that is not a packed index fails loudly."""

    def test_open_unreadable_file_raises(self, tmp_path):
        garbage = tmp_path / "garbage.bin"
        garbage.write_text("{}", encoding="utf-8")
        with pytest.raises(ValueError, match="not a packed index"):
            open_index(garbage, NO_PAPERS)
        with pytest.raises(FileNotFoundError):
            open_index(tmp_path / "missing.bin", NO_PAPERS)


class TestMemoryViewSatellites:
    """The vocabulary is an immutable snapshot of an immutable index."""

    def test_vocabulary_is_a_stable_snapshot(self, pipeline):
        corpus = Corpus(list(pipeline.corpus))
        index = build_index(AnalyzedPaperCache(corpus))
        snapshot = index.vocabulary()
        assert isinstance(snapshot, tuple)
        assert index.vocabulary() is snapshot
        # A delta builds a new index; the held snapshot stays valid.
        first = corpus.paper_ids()[0]
        corpus.remove(first)
        smaller = build_index(AnalyzedPaperCache(corpus))
        assert index.vocabulary() is snapshot
        assert set(smaller.vocabulary()) <= set(snapshot)


@settings(max_examples=150, deadline=None)
@given(micro_corpora(), st.data())
def test_built_and_reopened_index_equal_the_reference(micro, data):
    """After every delta step, a build of the changed corpus equals the
    reference mutated in place, and its saved copy reopens to equal
    arrays and re-saves to the same bytes."""
    corpus = micro.corpus()
    steps = data.draw(deltas(micro.papers))
    tokens = AnalyzedPaperCache(corpus)
    reference = ReferenceIndex.of(tokens)
    with tempfile.TemporaryDirectory() as directory:
        path, again = Path(directory) / "index.bin", Path(directory) / "again.bin"
        for paper_id, paper in [(None, None), *steps]:
            if paper_id in corpus:
                reference.remove_paper(paper_id)
                corpus.remove(paper_id)
                tokens.evict_paper(paper_id)
            if paper is not None:
                corpus.add(paper)
                reference.index_paper(paper_id)
            index = build_index(tokens)
            assert_index_equals_reference(index, reference)
            save_index(index, path)
            opened = open_index(path, corpus.paper_rows)
            try:
                assert_same_arrays(opened, index)
                save_index(opened, again)
                assert again.read_bytes() == path.read_bytes()
            finally:
                opened.close()
