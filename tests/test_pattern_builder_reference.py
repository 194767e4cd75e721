"""Differential test: the pattern-set builder against :mod:`reference.patterns`.

Hypothesis generates token documents over a five-word vocabulary
(repeated, overlapping and nested phrases, phrases longer than a
document) and the builder's counts, decoded from its
:class:`PatternExtraction` columns, and pattern lists -- scores compared
with ``==`` -- must equal the per-phrase reference's.

``TestGoldenPatternSets`` pins every pattern the demo pipeline mines
against ``tests/data/golden_pattern_sets.json`` (written by
``tools/gen_golden_rankings.py``).
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.patterns import reference_extract, reference_patterns
from reference.strategies import make_builder

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO_ROOT / "tests" / "data" / "golden_pattern_sets.json"
WORDS = ("a", "b", "c", "d", "e")
documents = st.lists(st.sampled_from(WORDS), min_size=0, max_size=14)
names = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join),
    min_size=1,
    max_size=3,
)


def titles(docs):
    """``make_builder`` documents of title tokens only."""
    return {pid: (tokens, (), (), ()) for pid, tokens in docs.items()}


def decode(extraction):
    """The columns as reference-shaped counts: key -> occ, middle -> papers."""
    occ = {extraction.key(row): int(n) for row, n in enumerate(extraction.count)}
    papers = dict(zip(extraction.middles, extraction.middle_papers.tolist()))
    return occ, papers


class TestExtractRegular:
    @settings(max_examples=200, deadline=None)
    @given(
        docs=st.lists(documents, min_size=0, max_size=6),
        significant=st.lists(
            st.lists(st.sampled_from(WORDS), min_size=1, max_size=5).map(tuple),
            min_size=0,
            max_size=12,
        ),
        window=st.sampled_from((0, 1, 3)),
    )
    def test_counts_equal_reference(self, docs, significant, window):
        builder = make_builder({}, ["a"], window=window)
        training = [tuple(doc) for doc in docs]
        phrases = dict.fromkeys(significant, "frequent")
        extraction = builder._extract(("a",), training, phrases)
        expected = reference_extract(training, phrases, window)
        occ, papers = decode(extraction)
        assert occ == {key: e["occ"] for key, e in expected.items()}
        papers_by_middle = {}
        for (_, middle, __), e in expected.items():
            papers_by_middle[middle] = papers_by_middle.get(middle, 0) + e["papers"]
        assert papers == papers_by_middle
        # Rows are the keys in string-tuple order, each once.
        keys = list(occ)
        assert len(keys) == len(extraction) and keys == sorted(set(keys))
        assert extraction.left.shape == extraction.right.shape == (len(keys), window)
        assert extraction.count.dtype == np.uint16


class TestBuild:
    @settings(max_examples=150, deadline=None)
    @given(
        docs=st.lists(documents, min_size=1, max_size=8),
        names=names,
        n_training=st.integers(min_value=0, max_value=8),
        window=st.sampled_from((0, 1, 3)),
        max_regular_patterns=st.sampled_from((0, 1, 40)),
        build_extended=st.booleans(),
        frequency_coefficient=st.sampled_from((1.0, -0.75)),
    )
    def test_patterns_equal_reference(
        self,
        docs,
        names,
        n_training,
        window,
        max_regular_patterns,
        build_extended,
        frequency_coefficient,
    ):
        corpus = {f"P{i}": tuple(doc) for i, doc in enumerate(docs)}
        builder = make_builder(
            titles(corpus),
            names,
            window=window,
            max_regular_patterns=max_regular_patterns,
            build_extended=build_extended,
            frequency_coefficient=frequency_coefficient,
        )
        training = sorted(corpus)[:n_training]
        for term_id in ("T0", f"T{len(names) - 1}"):
            built = builder.build(term_id, training).patterns
            expected = reference_patterns(builder, term_id, training)
            assert [(p.key(), p.kind, p.score) for p in built] == [
                (p.key(), p.kind, p.score) for p in expected
            ]

    def test_score_ties_are_cut_by_key_order(self):
        # The three keys around the context word "a" occur once each, so
        # they tie; the cut keeps the two smallest (left, middle, right).
        corpus = {"P0": ("c", "a", "e", "d", "a", "b"), "P1": ("b", "a", "d")}
        for coefficient in (1.0, -0.75):
            builder = make_builder(
                titles(corpus),
                ["a"],
                window=1,
                max_regular_patterns=2,
                build_extended=False,
                frequency_coefficient=coefficient,
            )
            built = builder.build("T0", ["P0", "P1"]).patterns
            assert [p.key() for p in built] == [
                (("b",), ("a",), ("d",)),
                (("c",), ("a",), ("e",)),
            ]
            assert built[0].score == built[1].score
            expected = reference_patterns(builder, "T0", ["P0", "P1"])
            assert [(p.key(), p.score) for p in built] == [
                (p.key(), p.score) for p in expected
            ]


def _load_golden_tool():
    path = REPO_ROOT / "tools" / "gen_golden_rankings.py"
    spec = importlib.util.spec_from_file_location("gen_golden_rankings", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGoldenPatternSets:
    def test_every_mined_pattern_matches_golden(self):
        from repro.pipeline import build_demo_pipeline

        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            golden = json.load(handle)
        assert golden["format"] == "repro/golden-pattern-sets/v1"
        demo = golden["demo"]
        pipeline = build_demo_pipeline(
            seed=demo["seed"], n_papers=demo["n_papers"], n_terms=demo["n_terms"]
        )
        actual = _load_golden_tool().golden_pattern_sets(pipeline)
        for part in ("simplified", "extended", "pattern_paper_set"):
            mismatched = sorted(
                tid
                for tid in set(golden[part]) | set(actual[part])
                if golden[part].get(tid) != actual[part].get(tid)
            )
            assert mismatched == [], part
