"""Unit tests for artefact persistence (context sets, prestige scores,
atomic writes)."""

import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import Context, ContextPaperSet
from repro.core.io import (
    TEMP_SUFFIX,
    atomic_write,
    read_context_paper_set,
    read_prestige_scores,
    write_context_paper_set,
    write_prestige_scores,
)
from repro.core.scores.base import PrestigeScores
from repro.ontology import Ontology
from repro.ontology.term import Term

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def paper_set(tiny_ontology):
    return ContextPaperSet(
        tiny_ontology,
        [
            Context(
                "met",
                ("M1", "M2", "M3"),
                training_paper_ids=("M1",),
            ),
            Context(
                "glu",
                ("M1", "M2"),
                inherited_from="met",
                decay=0.37,
            ),
        ],
    )


class TestContextPaperSetRoundTrip:
    def test_round_trip(self, paper_set, tiny_ontology, tmp_path):
        path = tmp_path / "set.json"
        write_context_paper_set(paper_set, path)
        loaded = read_context_paper_set(path, tiny_ontology)
        assert len(loaded) == 2
        met = loaded.context("met")
        assert met.paper_ids == ("M1", "M2", "M3")
        assert met.training_paper_ids == ("M1",)
        glu = loaded.context("glu")
        assert glu.inherited_from == "met"
        assert glu.decay == pytest.approx(0.37)

    def test_wrong_format_rejected(self, tiny_ontology, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a context paper set"):
            read_context_paper_set(path, tiny_ontology)

    def test_unknown_term_rejected_on_load(self, paper_set, tmp_path):
        from repro.ontology import Ontology
        from repro.ontology.term import Term

        path = tmp_path / "set.json"
        write_context_paper_set(paper_set, path)
        other_ontology = Ontology([Term("different", "thing")])
        with pytest.raises(ValueError):
            read_context_paper_set(path, other_ontology)


class TestPrestigeScoresRoundTrip:
    def test_round_trip(self, tmp_path):
        scores = PrestigeScores(
            "text", {"met": {"M1": 1.0, "M2": 0.25}, "glu": {"M1": 0.5}}
        )
        path = tmp_path / "scores.json"
        write_prestige_scores(scores, path)
        loaded = read_prestige_scores(path)
        assert loaded.function_name == "text"
        assert loaded.of("met") == {"M1": 1.0, "M2": 0.25}
        assert loaded.score("glu", "M1") == 0.5
        assert loaded.score("glu", "missing", default=-1.0) == -1.0

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "nope"}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a prestige-scores"):
            read_prestige_scores(path)

    def test_empty_scores(self, tmp_path):
        path = tmp_path / "empty.json"
        write_prestige_scores(PrestigeScores("citation", {}), path)
        loaded = read_prestige_scores(path)
        assert len(loaded) == 0
        assert loaded.function_name == "citation"

    def test_flipped_value_byte_is_rejected(self, tmp_path):
        values = [0.125 * (i + 1) for i in range(16)]
        scores = PrestigeScores(
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
            read_prestige_scores(path)
        assert str(path) in str(excinfo.value)

    def test_inconsistent_arrays_rejected(self, tmp_path):
        path = tmp_path / "scores.npz"
        write_prestige_scores(PrestigeScores("text", {"met": {"M1": 1.0}}), path)
        with np.load(path) as archive:
            members = {name: archive[name] for name in archive.files}
        members["rows"] = np.array([5], dtype=np.int32)  # past the paper table
        with open(path, "wb") as handle:
            np.savez(handle, **members)
        with pytest.raises(ValueError, match="corrupt prestige-scores"):
            read_prestige_scores(path)


# -- codec property test --------------------------------------------------------

_CONTEXT_POOL = tuple(f"c{i}" for i in range(6))
_PAPER_POOL = tuple(f"P{i:02d}" for i in range(12))
_ONTOLOGY = Ontology([Term(cid, cid) for cid in _CONTEXT_POOL])

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
        ), True
    contexts = draw(st.lists(st.sampled_from(_CONTEXT_POOL), unique=True))
    return ContextPaperSet(
        _ONTOLOGY, [Context(cid, tuple(draw(_members))) for cid in contexts]
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
        original = PrestigeScores(function_name, by_context, pre_propagation)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "scores.npz"
            write_prestige_scores(original, path)
            loaded = read_prestige_scores(path)
            assert os.listdir(directory) == ["scores.npz"]

        paper_set, matches = data.draw(_layouts(by_context), label="layout")
        columns = paper_set.columns
        fast = loaded.aligned(columns)
        if matches:
            assert loaded._by_context is None  # served from the stored rows
        reference = PrestigeScores(function_name, by_context).aligned(columns)
        assert np.array_equal(_bits(fast), _bits(reference))

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
        assert loaded.pre_propagation == pre_propagation
        if pre_propagation is not None:
            assert list(loaded.pre_propagation) == list(pre_propagation)
            for cid, scores in pre_propagation.items():
                assert list(loaded.pre_propagation[cid]) == list(scores)
        # Dicts built on demand are reused, and aligned() agrees with them.
        assert loaded._dicts() is loaded._dicts()
        loaded._aligned = None
        assert np.array_equal(_bits(loaded.aligned(columns)), _bits(reference))


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
        write_prestige_scores(PrestigeScores("text", {"met": {"M1": 1.0}}), path)
        before = path.read_bytes()

        def broken_savez(handle, **arrays):
            handle.write(b"PK partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", broken_savez)
        with pytest.raises(OSError, match="disk full"):
            write_prestige_scores(PrestigeScores("text", {"met": {"M2": 0.5}}), path)
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
            from repro.index.packed import PackedIndex
            from repro.pipeline import build_demo_pipeline

            path = sys.argv[1]
            pipeline = build_demo_pipeline(seed=11, n_papers=60, n_terms=20)
            full = pipeline.index
            save_index(full, path)
            live = PackedIndex(path, term_cache_size=0)
            small = build_index(Corpus(list(pipeline.corpus)[:3]))
            save_index(small, path)
            assert open_index(path).n_papers == 3
            for term in full.vocabulary():
                if tuple(live.postings(term)) != tuple(full.postings(term)):
                    sys.exit(f"postings of {term!r} changed under the mapping")
            """
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "index.bin")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, (result.returncode, result.stderr[-2000:])
