"""Unit tests for repro.text.tokenize."""

import pytest

from repro.text.tokenize import ngrams, tokenize


class TestTokenize:
    def test_basic_words(self):
        assert tokenize("gene expression analysis") == [
            "gene",
            "expression",
            "analysis",
        ]

    def test_lowercases_by_default(self):
        assert tokenize("DNA Repair") == ["dna", "repair"]

    def test_lowercase_disabled(self):
        assert tokenize("DNA Repair", lowercase=False) == ["DNA", "Repair"]

    def test_keeps_internal_hyphens(self):
        assert tokenize("wild-type knock-out") == ["wild-type", "knock-out"]

    def test_keeps_gene_style_alphanumerics(self):
        assert tokenize("p53 and BRCA1 interact") == ["p53", "and", "brca1", "interact"]

    def test_keeps_internal_apostrophes(self):
        assert tokenize("crick's hypothesis") == ["crick's", "hypothesis"]

    def test_strips_punctuation(self):
        assert tokenize("binding, (regulation); signal!") == [
            "binding",
            "regulation",
            "signal",
        ]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_whitespace_only(self):
        assert tokenize("   \t\n ") == []

    def test_leading_trailing_hyphen_not_part_of_token(self):
        assert tokenize("-prefix suffix-") == ["prefix", "suffix"]


class TestNgrams:
    def test_bigrams(self):
        assert ngrams(["a", "b", "c"], 2) == [("a", "b"), ("b", "c")]

    def test_unigrams(self):
        assert ngrams(["a", "b"], 1) == [("a",), ("b",)]

    def test_n_longer_than_input(self):
        assert ngrams(["a"], 2) == []

    def test_n_equal_to_input(self):
        assert ngrams(["a", "b"], 2) == [("a", "b")]

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            ngrams(["a"], 0)
