"""Differential test: the pattern-set builder against a per-phrase reference.

:func:`reference_extract` and :func:`reference_build` are the builder's
former kernel: one :func:`find_occurrences` scan per significant phrase
per training paper, then a :class:`Pattern` for every raw key, scored one
by one and fully sorted before the ``max_regular_patterns`` cut.
Hypothesis generates token documents over a five-word vocabulary
(repeated, overlapping and nested phrases, phrases longer than a
document) and the builder's counts, decoded from its
:class:`PatternExtraction` columns, and pattern lists -- scores compared
with ``==`` -- must equal the reference's.

``TestGoldenPatternSets`` pins every pattern the demo pipeline mines
against ``tests/data/golden_pattern_sets.json`` (written by
``tools/gen_golden_rankings.py``).
"""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import (
    Pattern,
    PatternKind,
    PatternSetBuilder,
    find_occurrences,
)
from repro.corpus.corpus import Corpus
from repro.corpus.paper import Paper
from repro.ontology.ontology import Ontology
from repro.ontology.term import Term
from repro.text.analyze import AnalyzedPaperCache

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO_ROOT / "tests" / "data" / "golden_pattern_sets.json"
WORDS = ("a", "b", "c", "d", "e")


def reference_extract(training_tokens, significant, window):
    """Per-phrase scan: key -> {'occ': occurrences, 'papers': papers}."""
    counts = {}
    phrases = sorted(significant, key=len, reverse=True)
    for tokens in training_tokens:
        seen_here = set()
        for phrase in phrases:
            for start in find_occurrences(tokens, phrase):
                left = tuple(tokens[max(start - window, 0) : start])
                end = start + len(phrase)
                right = tuple(tokens[end : end + window])
                key = (left, phrase, right)
                entry = counts.setdefault(key, {"occ": 0, "papers": 0})
                entry["occ"] += 1
                if key not in seen_here:
                    entry["papers"] += 1
                    seen_here.add(key)
    return counts


def reference_build(builder, term_id, training_ids):
    """Score every raw key as a Pattern, sort all, keep the top ones."""
    context_words = builder._context_term_words(term_id)
    training_tokens = [builder.tokens.all_tokens(pid) for pid in training_ids]
    significant = builder._significant_terms(context_words, training_tokens)
    raw = reference_extract(training_tokens, significant, builder.window)
    n_training = len(training_tokens)
    papers_by_middle = {}
    for (_, middle, __), stats in raw.items():
        papers_by_middle[middle] = papers_by_middle.get(middle, 0) + stats["papers"]
    context_word_set = set(context_words)
    patterns = []
    for (left, middle, right), stats in raw.items():
        middle_type = builder._middle_type_score(middle, context_word_set, significant)
        total_term = sum(
            builder._word_selectivity(word)
            for word in middle
            if word in context_word_set
        )
        occ_freq = stats["occ"] / max(n_training, 1)
        paper_freq = min(papers_by_middle[middle] / max(n_training, 1), 1.0)
        base = middle_type + total_term + builder.frequency_coefficient * (
            occ_freq + paper_freq
        )
        coverage = builder._paper_coverage(middle)
        score = base * (1.0 / coverage) ** builder.coverage_exponent
        patterns.append(Pattern(left, middle, right, PatternKind.REGULAR, score))
    patterns.sort(key=lambda p: (-p.score, p.key()))
    patterns = patterns[: builder.max_regular_patterns]
    if builder.build_extended:
        patterns.extend(builder._side_joined(patterns))
        patterns.extend(builder._middle_joined(patterns))
    return patterns


def make_builder(docs, names, **knobs):
    """A builder over ``docs`` (paper id -> title tokens) with a stub index."""
    ontology = Ontology([Term(f"T{i}", name) for i, name in enumerate(names)])
    corpus = Corpus(Paper(pid, title=" ".join(tokens)) for pid, tokens in docs.items())
    cache = AnalyzedPaperCache(corpus, SimpleNamespace(analyze=str.split))
    index = SimpleNamespace(
        n_papers=len(docs),
        papers_containing=lambda word: {
            pid for pid, tokens in docs.items() if word in tokens
        },
    )
    return PatternSetBuilder(ontology, index, cache, **knobs)


documents = st.lists(st.sampled_from(WORDS), min_size=0, max_size=14)
names = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join),
    min_size=1,
    max_size=3,
)


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
            corpus,
            names,
            window=window,
            max_regular_patterns=max_regular_patterns,
            build_extended=build_extended,
            frequency_coefficient=frequency_coefficient,
        )
        training = sorted(corpus)[:n_training]
        for term_id in ("T0", f"T{len(names) - 1}"):
            built = builder.build(term_id, training).patterns
            expected = reference_build(builder, term_id, training)
            assert [(p.key(), p.kind, p.score) for p in built] == [
                (p.key(), p.kind, p.score) for p in expected
            ]

    def test_score_ties_are_cut_by_key_order(self):
        # The three keys around the context word "a" occur once each, so
        # they tie; the cut keeps the two smallest (left, middle, right).
        corpus = {"P0": ("c", "a", "e", "d", "a", "b"), "P1": ("b", "a", "d")}
        for coefficient in (1.0, -0.75):
            builder = make_builder(
                corpus,
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
            expected = reference_build(builder, "T0", ["P0", "P1"])
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
