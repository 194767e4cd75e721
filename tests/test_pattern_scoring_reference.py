"""Differential test: pattern prestige from kept middle hits against a token loop.

:meth:`PatternSetBuilder.score_papers` sums the kept hits of each middle
(:class:`MiddleHits`) in (section, position, pattern) order, and must
give the same dict as :func:`reference.patterns.reference_score` --
values compared with ``==``, keys in the same order -- for pattern sets
the builder mines (extended patterns on and off) and for generated
ones, with ``middle_only`` both ways.

Hypothesis generates papers of four sections over a five-word
vocabulary, so middles nest, overlap and repeat, some run longer than
their section, and some sections are empty.
"""

from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from reference.patterns import by_first_middle_word, reference_score
from reference.strategies import make_builder
from repro.core import patterns
from repro.core.patterns import Pattern, PatternKind, PatternSet
from repro.corpus.paper import TEXT_SECTIONS

WORDS = ("a", "b", "c", "d", "e")


sections = st.lists(st.sampled_from(WORDS), max_size=10).map(tuple)
papers = st.lists(
    st.tuples(*[sections] * len(TEXT_SECTIONS)), min_size=1, max_size=6
).map(lambda docs: {f"P{i}": doc for i, doc in enumerate(docs)})
names = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join),
    min_size=1,
    max_size=3,
)
phrases = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(tuple)
sides = st.lists(st.sampled_from(WORDS), max_size=2).map(tuple)
scores = st.floats(min_value=-2.0, max_value=5.0, allow_nan=False)


@st.composite
def pattern_sets(draw):
    """Patterns whose middles repeat with several left/right variants."""
    middles = draw(st.lists(phrases | st.just(()), min_size=1, max_size=4))
    patterns = [
        Pattern(draw(sides), middle, draw(sides), PatternKind.REGULAR, draw(scores))
        for middle in middles
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    return PatternSet("T0", draw(st.permutations(patterns)))


def assert_scores_equal(builder, pattern_set, paper_ids):
    for middle_only in (True, False):
        expected = reference_score(pattern_set, builder.tokens, paper_ids, middle_only)
        # The second call reads the hits the first one kept.
        for _ in range(2):
            actual = builder.score_papers(pattern_set, paper_ids, middle_only)
            assert list(actual.items()) == list(expected.items())


class TestScorePapers:
    @settings(max_examples=150, deadline=None)
    @given(
        docs=papers,
        names=names,
        n_training=st.integers(min_value=0, max_value=6),
        build_extended=st.booleans(),
        data=st.data(),
    )
    def test_mined_pattern_sets_equal_reference(
        self, docs, names, n_training, build_extended, data
    ):
        builder = make_builder(
            docs, names, window=1, min_phrase_support=1, build_extended=build_extended
        )
        training = sorted(docs)[:n_training]
        paper_ids = data.draw(st.lists(st.sampled_from(sorted(docs)), max_size=8))
        for term_id in sorted({"T0", f"T{len(names) - 1}"}):
            assert_scores_equal(builder, builder.build(term_id, training), paper_ids)

    @settings(max_examples=150, deadline=None)
    @given(docs=papers, pattern_set=pattern_sets(), data=st.data())
    def test_generated_pattern_sets_equal_reference(self, docs, pattern_set, data):
        builder = make_builder(docs, ["a"])
        paper_ids = data.draw(st.permutations(sorted(docs)))
        assert_scores_equal(builder, pattern_set, paper_ids)

    @settings(max_examples=60, deadline=None)
    @given(docs=papers, pattern_set=pattern_sets(), chunk=st.sampled_from((1, 3)))
    def test_chunked_scans_and_sums_equal_reference(self, docs, pattern_set, chunk):
        # Hits are found a few papers at a time, and papers are summed a
        # few terms' worth at a time.
        builder = make_builder(docs, ["a"])
        with patch.object(patterns, "_SCAN_PAPERS", chunk), patch.object(
            patterns, "_CHUNK_TERMS", chunk
        ):
            assert_scores_equal(builder, pattern_set, sorted(docs))

    def test_hits_never_straddle_sections(self):
        # "a b" runs across the title|abstract boundary of P0 only.
        docs = {"P0": (("c", "a"), ("b", "c"), (), ()), "P1": (("a", "b"), (), (), ())}
        builder = make_builder(docs, ["a b"])
        pattern_set = PatternSet(
            "T0", [Pattern((), ("a", "b"), (), PatternKind.REGULAR, 2.0)]
        )
        assert builder.score_papers(pattern_set, ["P0", "P1"], middle_only=True) == {
            "P0": 0.0,
            "P1": 2.0,
        }
        assert_scores_equal(builder, pattern_set, ["P0", "P1"])


class TestReferenceIndex:
    pattern_lists = st.lists(
        st.builds(
            Pattern,
            left=sides,
            middle=phrases | st.just(()),
            right=sides,
            kind=st.sampled_from(list(PatternKind)),
            score=st.floats(min_value=0.0, max_value=5.0),
        ),
        max_size=12,
    )

    @given(pattern_lists)
    def test_first_word_index_complete(self, patterns):
        pattern_set = PatternSet(term_id="t", patterns=patterns)
        indexed = by_first_middle_word(pattern_set)
        total_indexed = sum(len(group) for group in indexed.values())
        with_middle = [p for p in patterns if p.middle]
        assert total_indexed == len(with_middle)
        for first_word, group in indexed.items():
            for pattern in group:
                assert pattern.middle[0] == first_word
