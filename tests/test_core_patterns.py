"""Unit tests for pattern construction, joining, scoring, and matching."""

import math

import pytest

from repro.core.assignment import PatternContextAssigner
from repro.core.patterns import (
    Pattern,
    PatternKind,
    PatternSet,
    PatternSetBuilder,
    find_occurrences,
    match_strength,
)
from repro.corpus.paper import Section
from repro.text.analyze import AnalyzedPaperCache


@pytest.fixture(scope="module")
def builder(tiny):
    return PatternSetBuilder(tiny.ontology, tiny.index, tiny.tokens, min_phrase_support=2)


class TestFindOccurrences:
    def test_single_word(self):
        assert find_occurrences(["a", "b", "a"], ("a",)) == [0, 2]

    def test_phrase(self):
        tokens = ["x", "gene", "expression", "y", "gene", "expression"]
        assert find_occurrences(tokens, ("gene", "expression")) == [1, 4]

    def test_no_match(self):
        assert find_occurrences(["a", "b"], ("c",)) == []

    def test_empty_phrase(self):
        assert find_occurrences(["a"], ()) == []

    def test_phrase_longer_than_tokens(self):
        assert find_occurrences(["a"], ("a", "b")) == []

    def test_overlapping_occurrences(self):
        assert find_occurrences(["a", "a", "a"], ("a", "a")) == [0, 1]


class TestKnobValidation:
    @pytest.mark.parametrize(
        "knob, value",
        [
            ("window", -1),
            ("max_regular_patterns", -3),
            ("max_joined_pairs", -1),
            ("coverage_exponent", math.nan),
            ("coverage_exponent", math.inf),
            ("frequency_coefficient", math.nan),
            ("frequency_coefficient", -math.inf),
        ],
    )
    def test_builder_rejects_nonsense(self, tiny, knob, value):
        with pytest.raises(ValueError, match=knob):
            PatternSetBuilder(tiny.ontology, tiny.index, tiny.tokens, **{knob: value})

    @pytest.mark.parametrize("value", [-0.1, math.nan])
    def test_assigner_rejects_nonsense_coverage_cut(self, tiny, value):
        with pytest.raises(ValueError, match="max_middle_coverage"):
            PatternContextAssigner(
                tiny.corpus, tiny.ontology, tiny.index, tiny.tokens,
                max_middle_coverage=value,
            )

    def test_zero_knobs_are_accepted(self, tiny):
        builder = PatternSetBuilder(
            tiny.ontology,
            tiny.index,
            tiny.tokens,
            window=0,
            max_regular_patterns=0,
            max_joined_pairs=0,
        )
        assert len(builder.build("met", ["M1", "M2", "M3"])) == 0


class TestPatternConstruction:
    def test_patterns_built_for_context_with_training(self, builder):
        pattern_set = builder.build("met", ["M1", "M2", "M3"])
        assert len(pattern_set) > 0
        assert pattern_set.term_id == "met"

    def test_middles_include_context_words(self, builder):
        pattern_set = builder.build("met", ["M1", "M2", "M3"])
        # 'metabolic process' analyses to ('metabol', 'process').
        middles = pattern_set.middles()
        flat = {word for middle in middles for word in middle}
        assert "metabol" in flat
        assert "process" in flat

    def test_empty_training_set_no_patterns(self, builder):
        assert len(builder.build("met", [])) == 0

    def test_patterns_scored_positive(self, builder):
        pattern_set = builder.build("met", ["M1", "M2", "M3"])
        assert all(p.score > 0 for p in pattern_set.patterns)

    def test_regular_pattern_cap(self, tiny, builder):
        capped = PatternSetBuilder(
            tiny.ontology, tiny.index, tiny.tokens, max_regular_patterns=3,
            build_extended=False,
        )
        pattern_set = capped.build("met", ["M1", "M2", "M3"])
        assert len(pattern_set) <= 3

    def test_simplified_builder_only_regular(self, tiny):
        simplified = PatternSetBuilder(
            tiny.ontology, tiny.index, tiny.tokens, build_extended=False
        )
        pattern_set = simplified.build("met", ["M1", "M2", "M3"])
        assert all(p.kind is PatternKind.REGULAR for p in pattern_set.patterns)

    def test_window_respected(self, builder):
        pattern_set = builder.build("met", ["M1", "M2", "M3"])
        for pattern in pattern_set.patterns:
            if pattern.kind is PatternKind.REGULAR:
                assert len(pattern.left) <= builder.window
                assert len(pattern.right) <= builder.window


class TestScoringComponents:
    def test_selectivity_rarer_word_higher(self, builder):
        # 'glucos' appears in one term name, 'process' in all four.
        builder.build("met", ["M1"])  # force df computation
        assert builder._word_selectivity("glucos") > builder._word_selectivity(
            "process"
        )

    def test_paper_coverage_fraction(self, builder):
        coverage = builder._paper_coverage(("glucos",))
        # glucose appears in M1 and M2 of 6 papers.
        assert coverage == pytest.approx(2 / 6)

    def test_paper_coverage_unknown_word_floors(self, builder):
        assert builder._paper_coverage(("neverseen",)) == pytest.approx(1 / 6)

    def test_rare_middle_outranks_common_middle(self, builder):
        """(1/PaperCoverage)^t rewards selective middles."""
        pattern_set = builder.build("glu", ["M1"])
        by_middle = {}
        for pattern in pattern_set.patterns:
            if pattern.kind is PatternKind.REGULAR:
                by_middle.setdefault(pattern.middle, []).append(pattern.score)
        glucose_scores = [
            max(scores) for middle, scores in by_middle.items() if "glucos" in middle
        ]
        process_only = [
            max(scores)
            for middle, scores in by_middle.items()
            if middle == ("process",)
        ]
        if glucose_scores and process_only:
            assert max(glucose_scores) > max(process_only)


class TestExtendedPatterns:
    def test_side_join_construction(self, builder):
        p1 = Pattern(("a",), ("b",), ("c",), PatternKind.REGULAR, 2.0)
        p2 = Pattern(("c",), ("d",), ("e",), PatternKind.REGULAR, 3.0)
        joined = builder._side_joined([p1, p2])
        assert len(joined) == 1
        (side,) = joined
        assert side.left == ("a",)
        assert side.middle == ("b", "c", "d")
        assert side.right == ("e",)
        assert side.score == pytest.approx((2.0 + 3.0) ** 2)
        assert side.kind is PatternKind.SIDE_JOINED

    def test_side_join_requires_overlap(self, builder):
        p1 = Pattern(("a",), ("b",), ("c",), PatternKind.REGULAR, 1.0)
        p2 = Pattern(("z",), ("d",), ("e",), PatternKind.REGULAR, 1.0)
        assert builder._side_joined([p1, p2]) == []

    def test_middle_join_construction(self, builder):
        # P1.middle 'b' appears in P2.left.
        p1 = Pattern(("a",), ("b",), ("c",), PatternKind.REGULAR, 4.0)
        p2 = Pattern(("b",), ("x",), ("y",), PatternKind.REGULAR, 2.0)
        joined = builder._middle_joined([p1, p2])
        assert joined
        first = joined[0]
        assert first.kind is PatternKind.MIDDLE_JOINED
        assert set(first.middle) == {"b", "x"}
        # DOO1 = 1 (all of P1.middle in P2 sides); DOO2 = 0.
        assert first.score == pytest.approx(1.0 * 4.0 + 0.0 * 2.0)

    def test_middle_join_degree_of_overlap(self, builder):
        p1 = Pattern(("x",), ("b", "q"), ("c",), PatternKind.REGULAR, 4.0)
        p2 = Pattern(("b",), ("c", "z"), ("w",), PatternKind.REGULAR, 2.0)
        joined = builder._middle_joined([p1, p2])
        first = next(p for p in joined if p.middle[0] == "b")
        # DOO1: {'b'} of P1.middle {b,q} in P2 sides {b,w} -> 1/2.
        # DOO2: {'c'} of P2.middle {c,z} in P1 sides {x,c} -> 1/2.
        assert first.score == pytest.approx(0.5 * 4.0 + 0.5 * 2.0)


class TestMatching:
    def test_match_strength_full_surround(self):
        pattern = Pattern(("x",), ("m",), ("y",), PatternKind.REGULAR, 1.0)
        tokens = ["x", "m", "y"]
        strength = match_strength(pattern, tokens, 1, Section.TITLE)
        assert strength == pytest.approx(1.0)  # weight 1.0 * (0.5 + 0.5 * 1.0)

    def test_match_strength_no_surround_match(self):
        pattern = Pattern(("x",), ("m",), ("y",), PatternKind.REGULAR, 1.0)
        tokens = ["q", "m", "r"]
        strength = match_strength(pattern, tokens, 1, Section.TITLE)
        assert strength == pytest.approx(0.5)

    def test_match_strength_section_weighting(self):
        pattern = Pattern((), ("m",), (), PatternKind.REGULAR, 1.0)
        title = match_strength(pattern, ["m"], 0, Section.TITLE)
        body = match_strength(pattern, ["m"], 0, Section.BODY)
        assert title > body

    def test_score_paper_positive_for_topical_paper(self, builder):
        pattern_set = builder.build("met", ["M1", "M2", "M3"])
        scores = builder.score_papers(pattern_set, ["M1", "X1"])
        score_topical, score_off = scores["M1"], scores["X1"]
        assert score_topical > score_off
        assert score_off == 0.0

    def test_middle_only_mode(self, builder):
        pattern_set = builder.build("met", ["M1", "M2", "M3"])
        (full,) = builder.score_papers(pattern_set, ["M1"]).values()
        (simplified,) = builder.score_papers(
            pattern_set, ["M1"], middle_only=True
        ).values()
        assert simplified > 0
        assert full > 0

    def test_empty_pattern_set_scores_zero(self, builder):
        empty = PatternSet(term_id="met")
        assert builder.score_papers(empty, ["M1", "X1"]) == {
            "M1": 0.0,
            "X1": 0.0,
        }


class TestAnalyzedPaperCache:
    def test_tokens_cached(self, tiny_corpus):
        cache = AnalyzedPaperCache(tiny_corpus)
        a = cache.tokens("M1", Section.BODY)
        b = cache.tokens("M1", Section.BODY)
        assert a is b

    def test_all_tokens_concatenates_sections(self, tiny_corpus):
        cache = AnalyzedPaperCache(tiny_corpus)
        combined = cache.all_tokens("M1")
        assert len(combined) == sum(
            len(cache.tokens("M1", s))
            for s in (
                Section.TITLE,
                Section.ABSTRACT,
                Section.BODY,
                Section.INDEX_TERMS,
            )
        )
