"""Extra edge-case coverage: OBO corners, query generation, pipeline inputs."""

import io

from repro.datagen.corpus_gen import CorpusGenerator
from repro.datagen.queries import generate_queries
from repro.ontology.obo import read_obo
from repro.ontology.ontology import Ontology
from repro.ontology.term import Term
from repro.pipeline import Pipeline


class TestOboCorners:
    def test_empty_file(self):
        onto = read_obo(io.StringIO(""))
        assert len(onto) == 0

    def test_header_only(self):
        onto = read_obo(io.StringIO("format-version: 1.2\nontology: go\n"))
        assert len(onto) == 0

    def test_stanza_without_id_skipped(self):
        onto = read_obo(io.StringIO("[Term]\nname: orphan stanza\n"))
        assert len(onto) == 0

    def test_comment_lines_ignored(self):
        text = "! a comment\n[Term]\nid: A\nname: a\n! another\n"
        onto = read_obo(io.StringIO(text))
        assert "A" in onto

    def test_term_without_name_uses_id(self):
        onto = read_obo(io.StringIO("[Term]\nid: X\n"))
        assert onto.term("X").name == "X"

    def test_windows_line_endings(self):
        text = "[Term]\r\nid: A\r\nname: a thing\r\n"
        onto = read_obo(io.StringIO(text))
        assert onto.term("A").name == "a thing"


class TestQueryGenerationCorners:
    def test_single_term_ontology(self):
        ontology = Ontology([Term("only", "solitary process term")])
        dataset = CorpusGenerator(n_papers=10, ontology=ontology).generate(seed=0)
        workload = generate_queries(dataset, n_queries=3, seed=0, min_level=5)
        # min_level exceeds the ontology depth: falls back to all terms.
        assert len(workload) == 3
        assert all(w.source_term_id == "only" for w in workload)


class TestPipelineInputCorners:
    def test_training_referencing_unknown_papers_ignored(self, tiny_corpus,
                                                         tiny_ontology):
        pipeline = Pipeline(
            corpus=tiny_corpus,
            ontology=tiny_ontology,
            training_papers={"met": ["M1", "GHOST-1", "GHOST-2"]},
            min_context_size=1,
        )
        context = pipeline.text_paper_set.context("met")
        assert "GHOST-1" not in context.training_paper_ids
        assert "M1" in context.training_paper_ids

    def test_training_for_unknown_terms_ignored(self, tiny_corpus, tiny_ontology):
        pipeline = Pipeline(
            corpus=tiny_corpus,
            ontology=tiny_ontology,
            training_papers={"met": ["M1"], "NOT-A-TERM": ["M2"]},
            min_context_size=1,
        )
        # Builders iterate ontology terms, so the bogus key is simply unused.
        assert "NOT-A-TERM" not in pipeline.text_paper_set
        assert "met" in pipeline.text_paper_set

    def test_no_training_at_all(self, tiny_corpus, tiny_ontology):
        pipeline = Pipeline(
            corpus=tiny_corpus,
            ontology=tiny_ontology,
            training_papers={},
            min_context_size=1,
        )
        assert len(pipeline.text_paper_set) == 0
        # Search degrades gracefully to no results (no contexts exist).
        assert pipeline.search("glucose metabolic") == []

    def test_generator_with_prebuilt_ontology(self, tiny_ontology):
        dataset = CorpusGenerator(
            n_papers=25, ontology=tiny_ontology
        ).generate(seed=4)
        assert dataset.ontology is tiny_ontology
        for paper in dataset.corpus:
            assert paper.true_context_ids[0] in tiny_ontology
