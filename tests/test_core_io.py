"""Unit tests for artefact persistence (context sets, prestige scores,
pattern extractions, atomic writes)."""

import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.prestige import aligned_reference, pre_maps, scores_from_maps
from repro.core.context import Context, ContextPaperSet
from repro.core.io import (
    TEMP_SUFFIX,
    atomic_write,
    check_pattern_extractions,
    read_context_paper_set,
    read_pattern_extractions,
    read_prestige_scores,
    read_vector_store,
    write_context_paper_set,
    write_pattern_extractions,
    write_prestige_scores,
    write_vector_store,
)
from repro.core.patterns import PatternExtraction
from repro.core.vectors import PaperVectorStore
from repro.corpus.corpus import Corpus
from repro.corpus.rows import PaperRows
from repro.ontology import Ontology
from repro.ontology.term import Term
from repro.text.analyze import AnalyzedPaperCache

SRC = Path(__file__).resolve().parent.parent / "src"
#: The papers the hand-made sets and tables below name, in non-id order.
ROWS = PaperRows(["X1", *(f"M{i}" for i in reversed(range(16)))])


@pytest.fixture
def paper_set(tiny_ontology):
    return ContextPaperSet(
        tiny_ontology,
        [
            Context(
                "met",
                ("M3", "M1", "M2"),
                training_paper_ids=("M1", "X1"),  # X1 is not a member
                representative="M1",
            ),
            Context(
                "glu",
                ("M1", "M2"),
                inherited_from="met",
                decay=0.37,
            ),
            Context("sig", ()),
        ],
        ROWS,
    )


def _fields(paper_set):
    return [
        (c.term_id, c.paper_ids, c.training_paper_ids, c.inherited_from,
         c.decay, c.representative)
        for c in paper_set
    ]


def _rewrite(path, header=None, **arrays):
    """Rewrite an ``.npz`` artifact with ``header`` keys and ``arrays`` replaced."""
    import json

    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    old = json.loads(members["header"].tobytes())
    members["header"] = np.frombuffer(
        json.dumps({**old, **(header or {})}).encode(), dtype=np.uint8
    )
    members.update(arrays)
    with open(path, "wb") as handle:
        np.savez(handle, **members)


class TestContextPaperSetRoundTrip:
    def test_round_trip(self, paper_set, tiny_ontology, tmp_path):
        path = tmp_path / "set.npz"
        write_context_paper_set(paper_set, path)
        loaded = read_context_paper_set(path, tiny_ontology, ROWS)
        assert _fields(loaded) == _fields(paper_set)
        assert [c for c in loaded] == [c for c in paper_set]

    def test_demo_pipeline_sets_round_trip(self, tmp_path):
        """Both paper sets of a demo pipeline load back equal in every
        field, representatives included."""
        from repro.pipeline import build_demo_pipeline

        pipeline = build_demo_pipeline(seed=1, n_papers=120, n_terms=30)
        for name in ("text", "pattern"):
            original = pipeline.paper_set(name)
            path = tmp_path / f"{name}.npz"
            write_context_paper_set(original, path)
            loaded = read_context_paper_set(
                path, pipeline.ontology, pipeline.corpus.paper_rows
            )
            assert _fields(loaded) == _fields(original)
        text = pipeline.paper_set("text")
        assert all(c.representative for c in text)
        assert pipeline.representatives == {
            c.term_id: c.representative for c in text
        }
        pattern = pipeline.paper_set("pattern")
        assert any(c.inherited_from and c.decay != 1.0 for c in pattern)
        assert any(not set(c.training_paper_ids) <= c.paper_id_set for c in pattern)

    def test_wrong_format_rejected(self, tiny_ontology, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a context paper set"):
            read_context_paper_set(path, tiny_ontology, ROWS)

    def test_unknown_term_rejected_on_load(self, paper_set, tmp_path):
        from repro.ontology import Ontology
        from repro.ontology.term import Term

        path = tmp_path / "set.npz"
        write_context_paper_set(paper_set, path)
        other_ontology = Ontology([Term("different", "thing")])
        with pytest.raises(ValueError, match="not an ontology term") as excinfo:
            read_context_paper_set(path, other_ontology, ROWS)
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("truncated", "not a context paper set file"),
            ("format", "found 'repro/context-paper-set/v1'"),
            ("member_row", "inconsistent indptr/members"),
            ("training_row", "row outside the 4-paper table"),
            ("representative_row", "row outside the 4-paper table"),
            ("indptr", "inconsistent indptr/members"),
            ("indptr_dtype", "inconsistent indptr/members"),
            ("short_list", "header lists differ in length"),
        ],
    )
    def test_damaged_file_names_path(
        self, paper_set, tiny_ontology, tmp_path, damage, message
    ):
        path = tmp_path / "set.npz"
        write_context_paper_set(paper_set, path)  # paper table M1 M2 M3 X1
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        elif damage == "format":
            _rewrite(path, {"format": "repro/context-paper-set/v1"})
        elif damage == "member_row":
            _rewrite(path, members=np.array([0, 1, 9, 0, 1], dtype=np.int32))
        elif damage == "training_row":
            _rewrite(path, {"training": [[0, 4], [], []]})
        elif damage == "representative_row":
            _rewrite(path, {"representatives": [-1, None, None]})
        elif damage == "indptr":  # not monotone
            _rewrite(path, indptr=np.array([0, 3, 2, 5], dtype=np.int64))
        elif damage == "indptr_dtype":
            _rewrite(path, indptr=np.array([0, 3, 5, 5], dtype=np.int32))
        else:
            _rewrite(path, {"decay": [1.0]})
        with pytest.raises(ValueError, match=re.escape(message)) as excinfo:
            read_context_paper_set(path, tiny_ontology, ROWS)
        assert str(path) in str(excinfo.value)


class TestPrestigeScoresRoundTrip:
    def test_round_trip(self, tmp_path):
        scores = scores_from_maps(
            "text", {"met": {"M1": 1.0, "M2": 0.25}, "glu": {"M1": 0.5}}
        )
        path = tmp_path / "scores.json"
        write_prestige_scores(scores, path)
        loaded = read_prestige_scores(path, ROWS)
        assert loaded.function_name == "text"
        assert loaded.of("met") == {"M1": 1.0, "M2": 0.25}
        assert loaded.score("glu", "M1") == 0.5
        assert loaded.score("glu", "missing", default=-1.0) == -1.0

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "nope"}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a prestige-scores"):
            read_prestige_scores(path, ROWS)

    def test_empty_scores(self, tmp_path):
        path = tmp_path / "empty.json"
        write_prestige_scores(scores_from_maps("citation", {}), path)
        loaded = read_prestige_scores(path, ROWS)
        assert len(loaded) == 0
        assert loaded.function_name == "citation"

    def test_flipped_value_byte_is_rejected(self, tmp_path):
        values = [0.125 * (i + 1) for i in range(16)]
        scores = scores_from_maps(
            "text", {"met": {f"M{i}": v for i, v in enumerate(values)}}
        )
        path = tmp_path / "scores.npz"
        write_prestige_scores(scores, path)
        data = bytearray(path.read_bytes())
        at = data.find(np.asarray(values, dtype=np.float64).tobytes())
        assert at > 0
        data[at + 8 * 7 + 3] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="not a prestige-scores") as excinfo:
            read_prestige_scores(path, ROWS)
        assert str(path) in str(excinfo.value)

    def test_inconsistent_arrays_rejected(self, tmp_path):
        path = tmp_path / "scores.npz"
        write_prestige_scores(scores_from_maps("text", {"met": {"M1": 1.0}}), path)
        with np.load(path) as archive:
            members = {name: archive[name] for name in archive.files}
        members["rows"] = np.array([5], dtype=np.int32)  # past the paper table
        with open(path, "wb") as handle:
            np.savez(handle, **members)
        with pytest.raises(ValueError, match="corrupt prestige-scores"):
            read_prestige_scores(path, ROWS)

    @pytest.mark.parametrize(
        "header, message",
        [
            ({"paper_ids": ["M2", "M1"]}, "paper_ids not strictly ascending"),
            ({"paper_ids": ["M1", "M1"]}, "paper_ids not strictly ascending"),
            ({"paper_ids": ["M1", 2]}, "corrupt prestige-scores"),
            ({"contexts": ["met", "met"]}, "duplicate context ids"),
            ({"pre_propagation_contexts": ["glu", "glu"]}, "duplicate pre_context ids"),
        ],
    )
    def test_unsorted_papers_or_repeated_contexts_rejected(
        self, tmp_path, header, message
    ):
        """Lookups by paper bisect the table and lookups by context read
        one row per id, so a file breaking either is corrupt."""
        path = tmp_path / "scores.npz"
        pre = {"met": {"M1": 0.5}, "glu": {"M2": 0.25}}
        scores = scores_from_maps(
            "text", {"met": {"M1": 1.0}, "glu": {"M2": 0.5}}, pre
        )
        write_prestige_scores(scores, path)
        read_prestige_scores(path, ROWS)
        _rewrite(path, header)
        with pytest.raises(ValueError, match="corrupt prestige-scores") as excinfo:
            read_prestige_scores(path, ROWS)
        assert message in str(excinfo.value) and str(path) in str(excinfo.value)


# -- codec property test --------------------------------------------------------

_CONTEXT_POOL = tuple(f"c{i}" for i in range(6))
_PAPER_POOL = tuple(f"P{i:02d}" for i in range(12))
_ONTOLOGY = Ontology([Term(cid, cid) for cid in _CONTEXT_POOL])
_ROWS = PaperRows(reversed(_PAPER_POOL))

_score_maps = st.dictionaries(
    st.sampled_from(_CONTEXT_POOL),
    st.dictionaries(
        st.sampled_from(_PAPER_POOL),
        st.floats(allow_nan=False),
        max_size=len(_PAPER_POOL),
    ),
    max_size=len(_CONTEXT_POOL),
)
_members = st.lists(
    st.sampled_from(_PAPER_POOL), unique=True, max_size=len(_PAPER_POOL)
)


@st.composite
def _layouts(draw, by_context):
    """A paper set matching ``by_context``'s rows, or an arbitrary one."""
    unscored = {
        cid: tuple(draw(_members))
        for cid in draw(st.lists(st.sampled_from(_CONTEXT_POOL), unique=True))
        if cid not in by_context
    }
    if draw(st.booleans()):
        rows = {cid: tuple(scores) for cid, scores in by_context.items()}
        rows.update(unscored)
        return ContextPaperSet(
            _ONTOLOGY,
            [Context(cid, rows[cid]) for cid in draw(st.permutations(list(rows)))],
            _ROWS,
        ), True
    contexts = draw(st.lists(st.sampled_from(_CONTEXT_POOL), unique=True))
    return ContextPaperSet(
        _ONTOLOGY, [Context(cid, tuple(draw(_members))) for cid in contexts], _ROWS
    ), False


def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


class TestPrestigeScoresCodecProperty:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_write_then_read_equals_dict_backed(self, data):
        by_context = data.draw(_score_maps, label="by_context")
        pre_propagation = data.draw(st.none() | _score_maps, label="pre")
        function_name = data.draw(st.sampled_from(["text", "citation_xctx"]))
        original = scores_from_maps(function_name, by_context, pre_propagation, _ROWS)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "scores.npz"
            write_prestige_scores(original, path)
            loaded = read_prestige_scores(path, _ROWS)
            assert os.listdir(directory) == ["scores.npz"]

        paper_set, _ = data.draw(_layouts(by_context), label="layout")
        columns = paper_set.columns
        fast = loaded.aligned(columns)
        reference = aligned_reference(by_context, columns)
        assert np.array_equal(_bits(fast), _bits(reference))
        assert loaded.aligned(columns) is fast

        assert loaded.function_name == function_name
        assert loaded.context_ids() == list(by_context)
        assert len(loaded) == len(by_context)
        for cid in _CONTEXT_POOL:
            assert (cid in loaded) == (cid in by_context)
            assert list(loaded.of(cid).items()) == list(
                by_context.get(cid, {}).items()
            )
            for pid in _PAPER_POOL:
                assert loaded.score(cid, pid, -7.0) == original.score(cid, pid, -7.0)
        loaded_pre = pre_maps(loaded)
        assert loaded_pre == pre_propagation
        if pre_propagation is not None:
            assert list(loaded_pre) == list(pre_propagation)
            for cid, scores in pre_propagation.items():
                assert list(loaded_pre[cid]) == list(scores)
        # Other columns of the same layout get their own, equal array.
        again = ContextPaperSet(_ONTOLOGY, list(paper_set), _ROWS).columns
        assert np.array_equal(_bits(loaded.aligned(again)), _bits(reference))


# -- pattern extractions --------------------------------------------------------

_WORDS = st.text(alphabet="abcdeé ", min_size=1, max_size=4)
#: Sizes on both sides of the uint16/uint32 column boundary, besides small ones.
_BOUNDARY = st.sampled_from([0xFFFE, 0xFFFF, 0x10000])


def _column(draw, elements, n, fill, dtype):
    """``n`` values: up to eight drawn from ``elements``, then ``fill``."""
    head = draw(st.lists(elements, min_size=min(n, 8), max_size=min(n, 8)))
    return np.array(head + [fill] * (n - len(head)), dtype=dtype)


@st.composite
def _extraction(draw):
    """A (training ids, extraction) record with arbitrary, consistent columns."""
    window = draw(st.integers(0, 3))
    big = draw(st.sampled_from([None, "vocabulary", "middles", "count", "papers"]))
    if big == "vocabulary":
        vocabulary = tuple(f"v{i:05d}" for i in range(draw(_BOUNDARY) - 1))
    else:
        vocabulary = tuple(sorted(set(draw(st.lists(_WORDS, max_size=5)))))
    if big == "middles":
        middles = tuple((f"m{i:05d}",) for i in range(draw(_BOUNDARY)))
    else:
        phrases = st.lists(_WORDS, min_size=1, max_size=3).map(tuple)
        middles = tuple(sorted(set(draw(st.lists(phrases, max_size=4)))))
    n_rows = draw(st.integers(0, 6)) if middles else 0
    n_tokens = 2 * n_rows * window
    tokens = _column(draw, st.integers(0, len(vocabulary)), n_tokens, 0, np.int64)
    counts = st.integers(1, 3) | (_BOUNDARY if big == "count" else st.nothing())
    papers = st.integers(0, 3) | (_BOUNDARY if big == "papers" else st.nothing())
    training = tuple(draw(st.lists(st.sampled_from(_PAPER_POOL), unique=True)))
    record = PatternExtraction.from_columns(
        settings=(window, draw(st.integers(0, 4)), draw(st.integers(0, 4))),
        n_training=len(training),
        vocabulary=vocabulary,
        middles=middles,
        middle_base=_column(draw, st.floats(), len(middles), 0.5, np.float64),
        middle_papers=_column(draw, papers, len(middles), 1, np.int64),
        left=tokens.reshape(2, n_rows, window)[0],
        middle=_column(
            draw, st.integers(0, max(len(middles) - 1, 0)), n_rows, 0, np.int64
        ),
        right=tokens.reshape(2, n_rows, window)[1],
        count=_column(draw, counts, n_rows, 1, np.int64),
    )
    return training, record


def _assert_records_equal(loaded, original):
    """Every field of every record equal, arrays in dtype, shape and bits."""
    assert list(loaded) == list(original)
    for term_id, (training, record) in original.items():
        loaded_training, loaded_record = loaded[term_id]
        assert loaded_training == training
        for name in ("settings", "n_training", "vocabulary", "middles"):
            assert getattr(loaded_record, name) == getattr(record, name), name
        for name in ("middle_base", "middle_papers", "left", "middle", "right",
                     "count"):
            ours, theirs = getattr(loaded_record, name), getattr(record, name)
            assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape), name
            assert ours.tobytes() == theirs.tobytes(), name


class TestPatternExtractionsCodec:
    @settings(max_examples=60, deadline=None)
    @given(
        records=st.dictionaries(
            st.sampled_from(_CONTEXT_POOL), _extraction(), max_size=4
        )
    )
    def test_round_trip_is_bit_for_bit(self, records):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "extractions.npz"
            write_pattern_extractions(records, path)
            assert check_pattern_extractions(path) == path
            loaded = read_pattern_extractions(path)
            again = Path(directory) / "again.npz"
            write_pattern_extractions(loaded, again)
            assert again.read_bytes() == path.read_bytes()
        _assert_records_equal(loaded, records)

    def test_uint32_columns_round_trip(self, tmp_path):
        """Each compact column on the uint32 side of the boundary."""
        window = 1
        vocabulary = tuple(f"v{i:05d}" for i in range(0xFFFF))
        record = PatternExtraction.from_columns(
            settings=(window, 2, 3), n_training=1, vocabulary=vocabulary,
            middles=(("a",), ("b",)), middle_base=np.array([0.5, -0.0]),
            middle_papers=np.array([0x10000, 1]),
            left=np.array([[0xFFFF], [0]]), middle=np.array([0, 1]),
            right=np.array([[1], [0xFFFF]]), count=np.array([0x10000, 2]),
        )
        assert {column.dtype for column in (
            record.left, record.right, record.count, record.middle_papers
        )} == {np.dtype(np.uint32)}
        records = {"c0": (("P00",), record)}
        path = tmp_path / "extractions.npz"
        write_pattern_extractions(records, path)
        _assert_records_equal(read_pattern_extractions(path), records)

    def test_demo_pipeline_memo_round_trips(self, tmp_path):
        from repro.pipeline import build_demo_pipeline

        pipeline = build_demo_pipeline(seed=1, n_papers=80, n_terms=20)
        records = pipeline.substrates.pattern_extractions
        assert list(records) == pipeline.ontology.term_ids()
        assert all(len(record) for _, record in records.values())
        path = tmp_path / "extractions.npz"
        write_pattern_extractions(records, path)
        _assert_records_equal(read_pattern_extractions(path), records)

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "format", "vocab_row", "middle_word_row", "left_id",
         "middle_index", "training_row", "indptr", "column_dtype", "short_list"],
    )
    def test_damaged_file_is_corrupt(self, tmp_path, damage):
        record = PatternExtraction.from_columns(
            settings=(1, 2, 3), n_training=1, vocabulary=("x", "y"),
            middles=(("m",), ("n", "x")), middle_base=np.array([1.0, 2.0]),
            middle_papers=np.array([1, 1]), left=np.array([[0], [2]]),
            middle=np.array([0, 1]), right=np.array([[1], [0]]),
            count=np.array([1, 3]),
        )
        path = tmp_path / "extractions.npz"
        write_pattern_extractions({"c0": (("P00",), record)}, path)  # words m n x y
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
            with pytest.raises(ValueError, match="corrupt pattern-extractions file"):
                check_pattern_extractions(path)
        elif damage == "format":
            _rewrite(path, {"format": "repro/pattern-extractions/v0"})
        elif damage == "vocab_row":
            _rewrite(path, vocab=np.array([2, 4], dtype=np.int32))
        elif damage == "middle_word_row":
            _rewrite(path, middle_words=np.array([0, -1, 2], dtype=np.int32))
        elif damage == "left_id":  # past the context's two-word vocabulary
            _rewrite(path, left=np.array([0, 3], dtype=np.uint16))
        elif damage == "middle_index":
            _rewrite(path, middle=np.array([0, 2], dtype=np.uint16))
        elif damage == "training_row":
            _rewrite(path, {"training": [[1]]})
        elif damage == "indptr":
            _rewrite(path, row_indptr=np.array([0, 3], dtype=np.int64))
        elif damage == "column_dtype":
            _rewrite(path, count=np.array([1, 3], dtype=np.int64))
        else:
            _rewrite(path, {"settings": []})
        with pytest.raises(
            ValueError, match="corrupt pattern-extractions file"
        ) as excinfo:
            read_pattern_extractions(path)
        assert str(excinfo.value).startswith(str(path))


class TestVectorStoreChecks:
    @pytest.mark.parametrize(
        "member, damage",
        [
            ("full.ids", "past-vocabulary"),
            ("title.row_ids", "past-vocabulary"),
            ("full.indptr", "decreasing"),
            ("body.row_indptr", "decreasing"),
            ("full.counts", "short"),
            ("abstract.weights", "short"),
        ],
    )
    def test_damaged_arrays_are_corrupt(self, tiny_corpus, tmp_path, member, damage):
        tokens = AnalyzedPaperCache(tiny_corpus)
        vectors = PaperVectorStore(tokens)
        vectors.warm()
        path = tmp_path / "vectors.npz"
        write_vector_store(vectors, path)
        with np.load(path) as archive:
            array = archive[member].copy()
        if damage == "past-vocabulary":
            array[0] = np.iinfo(np.int32).max
        elif damage == "decreasing":
            array[1] = array[-1] + 1
        else:
            array = array[:-1]
        _rewrite(path, **{member: array})
        match = r"corrupt vector-store file \(inconsistent"
        with pytest.raises(ValueError, match=match):
            read_vector_store(path, tokens)

    def test_paper_table_must_be_the_corpus_order(self, tiny_corpus, tmp_path):
        vectors = PaperVectorStore(AnalyzedPaperCache(tiny_corpus))
        vectors.warm()
        path = tmp_path / "vectors.npz"
        write_vector_store(vectors, path)
        reordered = AnalyzedPaperCache(Corpus(reversed(list(tiny_corpus))))
        with pytest.raises(ValueError, match="differ from the corpus") as excinfo:
            read_vector_store(path, reordered)
        assert str(excinfo.value).startswith(str(path))


class TestScoresTableCheck:
    def test_paper_the_corpus_lacks_is_rejected(self, tmp_path):
        path = tmp_path / "scores.npz"
        write_prestige_scores(scores_from_maps("text", {"met": {"M1": 1.0}}), path)
        with pytest.raises(ValueError, match="'M1' is not in the corpus") as excinfo:
            read_prestige_scores(path, PaperRows(["M0", "M2"]))
        assert str(excinfo.value).startswith(str(path))


class TestAtomicWrite:
    def test_failed_writer_keeps_old_bytes_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "artifact.bin"
        path.write_bytes(b"old bytes")
        with pytest.raises(RuntimeError, match="midway"):
            with atomic_write(path) as handle:
                handle.write(b"new, half written")
                raise RuntimeError("writer died midway")
        assert path.read_bytes() == b"old bytes"
        assert os.listdir(tmp_path) == ["artifact.bin"]

    def test_failed_scores_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "scores.npz"
        write_prestige_scores(scores_from_maps("text", {"met": {"M1": 1.0}}), path)
        before = path.read_bytes()

        def broken_savez(handle, **arrays):
            handle.write(b"PK partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", broken_savez)
        with pytest.raises(OSError, match="disk full"):
            write_prestige_scores(scores_from_maps("text", {"met": {"M2": 0.5}}), path)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob(f"*{TEMP_SUFFIX}"))

    def test_replace_keeps_a_live_ondisk_mapping_valid(self, tmp_path):
        """Re-saving an index under an open packed index must not tear it.

        Runs in a child: an in-place rewrite of the mapped file kills
        the reader with SIGBUS (or feeds it the new file's bytes).
        """
        script = textwrap.dedent(
            """
            import sys
            from repro.corpus.corpus import Corpus
            from repro.index import build_index, open_index, save_index
            from repro.pipeline import build_demo_pipeline
            from repro.text.analyze import AnalyzedPaperCache

            path = sys.argv[1]
            pipeline = build_demo_pipeline(seed=11, n_papers=60, n_terms=20)
            full = pipeline.index
            save_index(full, path)
            live = open_index(path, full.paper_rows)
            small = build_index(AnalyzedPaperCache(Corpus(list(pipeline.corpus)[:3])))
            save_index(small, path)
            assert open_index(path, full.paper_rows).n_papers == 3
            for term in full.vocabulary():
                run, expected = live.term_run(term), full.term_run(term)
                if any(
                    a.tolist() != b.tolist() for a, b in zip(run[:3], expected[:3])
                ):
                    sys.exit(f"postings of {term!r} changed under the mapping")
            """
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "index.bin")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, (result.returncode, result.stderr[-2000:])
