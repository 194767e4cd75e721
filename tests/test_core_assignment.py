"""Unit tests for the two context paper set builders."""

import pytest

from repro.core.assignment import PatternContextAssigner, TextContextAssigner
from repro.core.patterns import Pattern, PatternKind, PatternSet
from repro.corpus.corpus import Corpus
from repro.corpus.paper import Paper
from repro.index.inverted import build_index
from repro.ontology.ontology import Ontology
from repro.ontology.term import Term
from repro.text.analyze import AnalyzedPaperCache


class TestTextContextAssigner:
    @pytest.fixture(scope="class")
    def paper_set(self, tiny):
        assigner = TextContextAssigner(
            tiny.corpus,
            tiny.ontology,
            tiny.vectors,
            similarity_threshold=0.15,
        )
        return assigner.build(tiny.training)

    def test_only_contexts_with_training(self, paper_set):
        assert set(paper_set.context_ids()) == {"met", "sig", "glu"}

    def test_training_papers_always_members(self, paper_set):
        assert "M1" in paper_set.context("met")
        assert "M2" in paper_set.context("met")
        assert "S1" in paper_set.context("sig")

    def test_topical_papers_join(self, paper_set):
        # M3 is clearly metabolic and should clear a 0.15 bar.
        assert "M3" in paper_set.context("met")

    def test_off_topic_papers_excluded(self, paper_set):
        assert "X1" not in paper_set.context("met")
        assert "X1" not in paper_set.context("sig")

    def test_representatives_recorded(self, paper_set):
        reps = {c.term_id: c.representative for c in paper_set}
        assert set(reps) == {"met", "sig", "glu"}
        assert reps["glu"] == "M1"
        assert reps["sig"] == "S1"

    def test_high_threshold_shrinks_contexts(self, tiny):
        strict = TextContextAssigner(
            tiny.corpus,
            tiny.ontology,
            tiny.vectors,
            similarity_threshold=0.99,
        )
        built = strict.build(tiny.training)
        # Only training papers survive a near-exact threshold.
        assert set(built.context("met").paper_ids) == {"M1", "M2"}


class TestPatternContextAssigner:
    @pytest.fixture(scope="class")
    def assigner(self, tiny):
        return PatternContextAssigner(
            tiny.corpus,
            tiny.ontology,
            tiny.index,
            tiny.tokens,
            max_middle_coverage=0.5,
        )

    @pytest.fixture(scope="class")
    def paper_set(self, tiny, assigner):
        return assigner.build(tiny.training)

    def test_pattern_sets_populated(self, assigner, paper_set):
        assert "met" in assigner.pattern_sets
        assert len(assigner.pattern_sets["met"]) > 0

    def test_topical_matching(self, paper_set):
        met = paper_set.context("met")
        assert "M1" in met and "M2" in met
        assert "X1" not in met

    def test_descendant_rollup(self, paper_set):
        # Papers matched by 'glu' must appear in ancestor 'met'.
        glu = set(paper_set.context("glu").paper_ids)
        met = set(paper_set.context("met").paper_ids)
        if paper_set.context("glu").inherited_from is None:
            assert glu <= met

    def test_root_contains_everything_matched(self, paper_set):
        if "root" in paper_set:
            root = set(paper_set.context("root").paper_ids)
            for context in paper_set:
                if context.inherited_from is None:
                    assert set(context.paper_ids) <= root

    def test_ancestor_fallback_decay(self, tiny):
        """A context with no training and no matches inherits with decay."""
        assigner = PatternContextAssigner(
            tiny.corpus,
            tiny.ontology,
            tiny.index,
            tiny.tokens,
            max_middle_coverage=0.5,
        )
        # Only 'met' gets training; 'glu' (child of met) has none.
        paper_set = assigner.build({"met": ["M1", "M2"]})
        if "glu" in paper_set:
            glu = paper_set.context("glu")
            assert glu.inherited_from in {"met", "root"} or glu.inherited_from is None
            if glu.inherited_from is not None:
                assert 0.0 <= glu.decay <= 1.0
                assert set(glu.paper_ids) == set(
                    paper_set.context(glu.inherited_from).paper_ids
                )

    def test_coverage_cap_blocks_ubiquitous_middles(self, tiny):
        strict = PatternContextAssigner(
            tiny.corpus,
            tiny.ontology,
            tiny.index,
            tiny.tokens,
            max_middle_coverage=0.01,  # nothing passes
        )
        paper_set = strict.build(tiny.training)
        # With no matches anywhere, fallback finds no non-empty ancestor
        # either, so the set is empty.
        assert len(paper_set) == 0


class TestMembershipAcrossSections:
    """Membership scans a paper's sections joined; scoring scans each alone."""

    @pytest.fixture(scope="class")
    def setup(self):
        corpus = Corpus(
            [
                # "liver kinase" only across the title|abstract boundary.
                Paper("STR", title="zebrafish liver", abstract="kinase activity"),
                Paper("IN", title="liver kinase", abstract="zebrafish"),
                Paper("OFF", title="yeast growth", abstract="budding"),
            ]
        )
        tokens = AnalyzedPaperCache(corpus)
        index = build_index(tokens)
        middle = tuple(index.analyzer.analyze("liver kinase"))
        pattern_set = PatternSet(
            "t", [Pattern((), middle, (), PatternKind.REGULAR, 1.0)]
        )
        return corpus, index, pattern_set, tokens

    def _assigner(self, setup, max_middle_coverage):
        corpus, index, _, tokens = setup
        ontology = Ontology([Term("t", "liver kinase")])
        return PatternContextAssigner(
            corpus, ontology, index, tokens,
            max_middle_coverage=max_middle_coverage,
        )

    def test_straddling_middle_makes_a_member(self, setup):
        assigner = self._assigner(setup, 1.0)
        assert assigner._match_corpus(setup[2]) == {"STR", "IN"}

    def test_straddling_middle_scores_zero(self, setup):
        builder = self._assigner(setup, 1.0).pattern_builder
        scores = builder.score_papers(setup[2], ["STR", "IN", "OFF"], middle_only=True)
        assert scores == {"STR": 0.0, "IN": 1.0, "OFF": 0.0}

    def test_coverage_cut_counts_papers_with_all_words(self, setup):
        # Two of three papers hold both words: over a 0.5 cut, under 0.7.
        assert self._assigner(setup, 0.5)._match_corpus(setup[2]) == set()
        assert self._assigner(setup, 0.7)._match_corpus(setup[2]) == {"STR", "IN"}

