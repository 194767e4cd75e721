"""Property-based tests for pattern construction and matching invariants."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import (
    Pattern,
    PatternKind,
    PatternSet,
    find_occurrences,
    match_strength,
)
from repro.corpus.paper import Section

words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
token_lists = st.lists(words, max_size=30)
phrases = st.lists(words, min_size=1, max_size=4).map(tuple)


class TestFindOccurrencesProperties:
    @given(token_lists, phrases)
    def test_every_occurrence_matches(self, tokens, phrase):
        for start in find_occurrences(tokens, phrase):
            assert tuple(tokens[start : start + len(phrase)]) == phrase

    @given(token_lists, phrases)
    def test_occurrences_sorted_unique(self, tokens, phrase):
        hits = find_occurrences(tokens, phrase)
        assert hits == sorted(set(hits))

    @given(token_lists, phrases)
    def test_count_never_exceeds_possible_windows(self, tokens, phrase):
        hits = find_occurrences(tokens, phrase)
        assert len(hits) <= max(len(tokens) - len(phrase) + 1, 0)

    @given(token_lists, words)
    def test_single_word_occurrences_match_count(self, tokens, word):
        hits = find_occurrences(tokens, (word,))
        assert len(hits) == tokens.count(word)

    @given(phrases)
    def test_phrase_found_in_itself(self, phrase):
        assert find_occurrences(list(phrase), phrase) == [0]


class TestMatchStrengthProperties:
    pattern_strategy = st.builds(
        Pattern,
        left=st.lists(words, max_size=2).map(tuple),
        middle=phrases,
        right=st.lists(words, max_size=2).map(tuple),
        kind=st.just(PatternKind.REGULAR),
        score=st.floats(min_value=0.1, max_value=10.0),
    )

    @given(pattern_strategy, token_lists, st.sampled_from(list(Section)))
    @settings(max_examples=80)
    def test_strength_bounded(self, pattern, tokens, section):
        if section in (Section.AUTHORS, Section.REFERENCES):
            return
        start = min(2, max(len(tokens) - len(pattern.middle), 0))
        strength = match_strength(pattern, tokens, start, section)
        assert 0.0 <= strength <= 1.0

    @given(pattern_strategy)
    def test_perfect_surround_is_section_weight(self, pattern):
        tokens = list(pattern.left) + list(pattern.middle) + list(pattern.right)
        strength = match_strength(
            pattern, tokens, len(pattern.left), Section.TITLE
        )
        # Perfect surround similarity -> weight * (0.5 + 0.5 * 1.0) = weight.
        # Jaccard over sets can fall below 1.0 only when surround words
        # repeat across tuples; allow that slack.
        assert 0.5 <= strength <= 1.0

    @given(pattern_strategy, token_lists)
    def test_title_strength_dominates_body(self, pattern, tokens):
        title = match_strength(pattern, tokens, 0, Section.TITLE)
        body = match_strength(pattern, tokens, 0, Section.BODY)
        assert title >= body


class TestPatternSetProperties:
    pattern_lists = st.lists(
        st.builds(
            Pattern,
            left=st.lists(words, max_size=2).map(tuple),
            middle=phrases,
            right=st.lists(words, max_size=2).map(tuple),
            kind=st.sampled_from(list(PatternKind)),
            score=st.floats(min_value=0.0, max_value=5.0),
        ),
        max_size=12,
    )

    @given(pattern_lists)
    def test_middles_is_set_of_all_middles(self, patterns):
        pattern_set = PatternSet(term_id="t", patterns=patterns)
        assert pattern_set.middles() == {p.middle for p in patterns}
