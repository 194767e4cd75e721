"""Unit tests for sparse vectors, TF-IDF, and vocabulary."""

import math

import pytest

from repro.text.vectorize import SparseVector, TfidfModel, centroid
from repro.text.vocabulary import Vocabulary


class TestVocabulary:
    def test_add_term_assigns_dense_ids(self):
        vocab = Vocabulary()
        assert vocab.add_term("alpha") == 0
        assert vocab.add_term("beta") == 1
        assert vocab.add_term("alpha") == 0

    def test_add_document_counts_df_once_per_doc(self):
        vocab = Vocabulary()
        vocab.add_document(["a", "a", "b"])
        vocab.add_document(["a", "c"])
        assert vocab.doc_freq("a") == 2
        assert vocab.doc_freq("b") == 1
        assert vocab.doc_freq("c") == 1
        assert vocab.n_documents == 2

    def test_unknown_term(self):
        vocab = Vocabulary()
        assert vocab.id_of("nope") is None
        assert vocab.doc_freq("nope") == 0

    def test_round_trip_term_of(self):
        vocab = Vocabulary()
        tid = vocab.add_term("gene")
        assert vocab.term_of(tid) == "gene"

    def test_contains_len_iter(self):
        vocab = Vocabulary()
        vocab.add_document(["x", "y"])
        assert "x" in vocab and "z" not in vocab
        assert len(vocab) == 2
        assert sorted(vocab) == ["x", "y"]


class TestSparseVector:
    def test_norm(self):
        v = SparseVector({0: 3.0, 1: 4.0})
        assert v.norm == pytest.approx(5.0)

    def test_empty_norm(self):
        assert SparseVector().norm == 0.0

    def test_dot_product(self):
        a = SparseVector({0: 1.0, 1: 2.0})
        b = SparseVector({1: 3.0, 2: 5.0})
        assert a.dot(b) == pytest.approx(6.0)

    def test_dot_disjoint(self):
        assert SparseVector({0: 1.0}).dot(SparseVector({1: 1.0})) == 0.0

    def test_cosine_identical(self):
        v = SparseVector({0: 2.0, 3: 1.0})
        assert v.cosine(v) == pytest.approx(1.0)

    def test_cosine_of_parallel_vectors(self):
        a = SparseVector({0: 1.0})
        b = SparseVector({0: 2.0})
        assert a.cosine(b) == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        assert SparseVector({0: 1.0}).cosine(SparseVector({1: 1.0})) == 0.0

    def test_cosine_empty_is_zero(self):
        assert SparseVector().cosine(SparseVector({0: 1.0})) == 0.0

    def test_cosine_bounded(self):
        a = SparseVector({0: 1.0, 1: 1e-9})
        b = SparseVector({0: 1.0, 1: 2e-9})
        assert 0.0 <= a.cosine(b) <= 1.0

    def test_normalized(self):
        v = SparseVector({0: 3.0, 1: 4.0}).normalized()
        assert v.norm == pytest.approx(1.0)
        assert v.weights[0] == pytest.approx(0.6)

    def test_normalized_empty(self):
        assert len(SparseVector().normalized()) == 0

    def test_add(self):
        total = SparseVector({0: 1.0}).add(SparseVector({0: 2.0, 1: 1.0}))
        assert total.weights == {0: 3.0, 1: 1.0}

    def test_scaled(self):
        assert SparseVector({0: 2.0}).scaled(0.5).weights == {0: 1.0}

    def test_top_terms(self):
        v = SparseVector({0: 1.0, 1: 5.0, 2: 3.0})
        assert v.top_terms(2) == [(1, 5.0), (2, 3.0)]

    def test_bool(self):
        assert not SparseVector()
        assert SparseVector({0: 1.0})


class TestCentroid:
    def test_mean_of_vectors(self):
        c = centroid([SparseVector({0: 2.0}), SparseVector({0: 0.0, 1: 4.0})])
        assert c.weights[0] == pytest.approx(1.0)
        assert c.weights[1] == pytest.approx(2.0)

    def test_empty_input(self):
        assert len(centroid([])) == 0


class TestTfidfModel:
    @pytest.fixture
    def model(self):
        docs = [
            ["gene", "expression", "gene"],
            ["gene", "regulation"],
            ["protein", "binding"],
        ]
        return TfidfModel().fit(docs)

    def test_idf_ordering(self, model):
        # 'gene' appears in 2 docs, 'protein' in 1: rarer term has higher idf.
        gene_id = model.vocabulary.id_of("gene")
        protein_id = model.vocabulary.id_of("protein")
        assert model.idf(protein_id) > model.idf(gene_id)

    def test_vectorize_normalises_by_default(self, model):
        v = model.vectorize(["gene", "expression"])
        assert v.norm == pytest.approx(1.0)

    def test_vectorize_unknown_terms_ignored(self, model):
        assert len(model.vectorize(["zebra"])) == 0

    def test_vectorize_unnormalised(self, model):
        v = model.vectorize(["protein"], normalize=False)
        protein_id = model.vocabulary.id_of("protein")
        assert v.weights[protein_id] == pytest.approx(model.idf(protein_id))

    def test_sublinear_tf(self, model):
        v1 = model.vectorize(["gene"], normalize=False)
        v3 = model.vectorize(["gene", "gene", "gene"], normalize=False)
        gene_id = model.vocabulary.id_of("gene")
        expected_ratio = 1.0 + math.log(3)
        assert v3.weights[gene_id] / v1.weights[gene_id] == pytest.approx(
            expected_ratio
        )

    def test_raw_tf_mode(self):
        model = TfidfModel(sublinear_tf=False).fit([["a"], ["a", "b"]])
        v = model.vectorize(["a", "a"], normalize=False)
        a_id = model.vocabulary.id_of("a")
        assert v.weights[a_id] == pytest.approx(2.0 * model.idf(a_id))

    def test_unsmoothed_idf_zero_for_unknown(self):
        model = TfidfModel(smooth_idf=False).fit([["a"]])
        vocab_id = model.vocabulary.add_term("never-in-doc")
        assert model.idf(vocab_id) == 0.0

    def test_identical_docs_cosine_one(self, model):
        a = model.vectorize(["gene", "expression"])
        b = model.vectorize(["gene", "expression"])
        assert a.cosine(b) == pytest.approx(1.0)
