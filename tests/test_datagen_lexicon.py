"""Unit tests for the lexicon."""

import random

from repro.datagen.lexicon import FILLER_WORDS, TERM_HEADS, TERM_MODIFIERS, Lexicon
from repro.text.tokenize import tokenize


class TestLexicon:
    def test_jargon_words_distinct(self):
        lexicon = Lexicon(random.Random(1))
        words = lexicon.new_jargon_words(500)
        assert len(set(words)) == 500

    def test_jargon_never_collides_with_curated_pools(self):
        lexicon = Lexicon(random.Random(2))
        reserved = set(TERM_HEADS) | set(TERM_MODIFIERS) | set(FILLER_WORDS)
        for word in lexicon.new_jargon_words(300):
            assert word not in reserved

    def test_jargon_single_token(self):
        lexicon = Lexicon(random.Random(3))
        for word in lexicon.new_jargon_words(50):
            assert tokenize(word) == [word]

    def test_jargon_min_length(self):
        lexicon = Lexicon(random.Random(4))
        assert all(len(w) >= 5 for w in lexicon.new_jargon_words(100))

    def test_deterministic(self):
        a = Lexicon(random.Random(7)).new_jargon_words(20)
        b = Lexicon(random.Random(7)).new_jargon_words(20)
        assert a == b

    def test_different_seeds_differ(self):
        a = Lexicon(random.Random(1)).new_jargon_words(20)
        b = Lexicon(random.Random(2)).new_jargon_words(20)
        assert a != b

    def test_filler_word_from_pool(self):
        lexicon = Lexicon(random.Random(5))
        assert lexicon.filler_word() in FILLER_WORDS

    def test_author_name_format(self):
        lexicon = Lexicon(random.Random(6))
        name = lexicon.author_name()
        initial, surname = name.split(" ")
        assert initial.endswith(".")
        assert surname[0].isupper()
