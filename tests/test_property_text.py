"""Property-based tests (hypothesis) for the text substrate."""

import math
import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference.facets import dice_coefficient, jaccard_similarity

from repro.text.analyze import Analyzer
from repro.text.stem import PorterStemmer
from repro.text.tokenize import ngrams, tokenize
from repro.text.vectorize import SparseVector, TfidfModel, centroid

words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=12)
texts = st.text(
    alphabet=string.ascii_letters + string.digits + " .,;-'!?()",
    max_size=300,
)
weight_maps = st.dictionaries(
    st.integers(min_value=0, max_value=50),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    max_size=20,
)


class TestTokenizeProperties:
    @given(texts)
    def test_tokens_are_lowercase_and_nonempty(self, text):
        for token in tokenize(text):
            assert token
            assert token == token.lower()

    @given(texts)
    def test_tokenize_idempotent_on_joined_output(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    @given(st.lists(words, max_size=20), st.integers(min_value=1, max_value=5))
    def test_ngram_count(self, tokens, n):
        grams = ngrams(tokens, n)
        assert len(grams) == max(len(tokens) - n + 1, 0)
        for gram in grams:
            assert len(gram) == n


class TestStemmerProperties:
    @given(words)
    def test_stem_idempotent(self, word):
        stemmer = PorterStemmer()
        once = stemmer.stem(word)
        assert stemmer.stem(once) == stemmer.stem(once)

    @given(words)
    def test_stem_never_longer_and_lowercase(self, word):
        stem = PorterStemmer().stem(word)
        assert len(stem) <= len(word)
        assert stem == stem.lower()

    @given(words)
    def test_stem_of_alpha_stays_alpha(self, word):
        assert PorterStemmer().stem(word).isalpha()


class TestAnalyzerProperties:
    @given(texts)
    def test_no_stopwords_survive(self, text):
        analyzer = Analyzer()
        stems_of_stopwords = set()  # stems may coincide; check raw removal
        for term in analyzer.analyze(text):
            assert len(term) >= analyzer.min_token_length

    @given(texts)
    def test_analysis_deterministic(self, text):
        analyzer = Analyzer()
        assert analyzer.analyze(text) == analyzer.analyze(text)


class TestSparseVectorProperties:
    @given(weight_maps, weight_maps)
    def test_cosine_bounds_and_symmetry(self, a, b):
        va, vb = SparseVector(a), SparseVector(b)
        value = va.cosine(vb)
        assert 0.0 <= value <= 1.0
        assert math.isclose(value, vb.cosine(va), rel_tol=1e-9, abs_tol=1e-12)

    @given(weight_maps)
    @example({0: 3.589329562659184e-159, 1: 3.589329562659184e-159})
    def test_self_cosine_is_one_or_zero(self, a):
        v = SparseVector(a)
        value = v.cosine(v)
        if v.norm == 0.0:
            assert value == 0.0
        else:
            assert math.isclose(value, 1.0, rel_tol=1e-9)

    @given(weight_maps)
    def test_normalized_has_unit_norm(self, a):
        v = SparseVector(a).normalized()
        if v:
            assert math.isclose(v.norm, 1.0, rel_tol=1e-9)

    @given(weight_maps, weight_maps)
    def test_dot_commutes(self, a, b):
        va, vb = SparseVector(a), SparseVector(b)
        assert math.isclose(va.dot(vb), vb.dot(va), rel_tol=1e-9, abs_tol=1e-12)

    @given(st.lists(weight_maps, max_size=6))
    def test_centroid_weights_bounded_by_max(self, maps):
        vectors = [SparseVector(m) for m in maps]
        center = centroid(vectors)
        for term, weight in center.weights.items():
            biggest = max(v.weights.get(term, 0.0) for v in vectors)
            assert weight <= biggest + 1e-9


class TestSetSimilarityProperties:
    sets = st.sets(words, max_size=15)

    @given(sets, sets)
    def test_jaccard_bounds_symmetry(self, a, b):
        value = jaccard_similarity(a, b)
        assert 0.0 <= value <= 1.0
        assert value == jaccard_similarity(b, a)

    @given(sets)
    def test_jaccard_identity(self, a):
        assert jaccard_similarity(a, a) == (1.0 if a else 0.0)

    @given(sets, sets)
    def test_dice_ge_jaccard(self, a, b):
        # Dice >= Jaccard always (2x/(s) vs x/(s-x) relation).
        assert dice_coefficient(a, b) >= jaccard_similarity(a, b) - 1e-12


class TestTfidfProperties:
    documents = st.lists(st.lists(words, min_size=1, max_size=10), min_size=1, max_size=8)

    @given(documents)
    @settings(max_examples=50)
    def test_vectorize_known_document_nonempty(self, docs):
        model = TfidfModel().fit(docs)
        vector = model.vectorize(docs[0])
        assert len(vector) == len(set(docs[0]))

    @given(documents)
    @settings(max_examples=50)
    def test_idf_positive_and_anti_monotone_in_df(self, docs):
        model = TfidfModel().fit(docs)
        vocab = model.vocabulary
        idfs = {tid: model.idf(tid) for _, tid in vocab.items()}
        assert all(value > 0 for value in idfs.values())
        for term_a, tid_a in vocab.items():
            for term_b, tid_b in vocab.items():
                if vocab.doc_freq(term_a) < vocab.doc_freq(term_b):
                    assert idfs[tid_a] >= idfs[tid_b]
