"""Unit tests for Context and ContextPaperSet."""

import pytest

from repro.core.context import Context, ContextPaperSet
from repro.corpus.rows import PaperRows
from repro.ontology.ontology import Ontology
from repro.ontology.term import Term


@pytest.fixture
def ontology():
    return Ontology(
        [
            Term("root", "process"),
            Term("a", "a process", parent_ids=("root",)),
            Term("b", "b process", parent_ids=("root",)),
            Term("a1", "deep a process", parent_ids=("a",)),
        ]
    )


#: The papers' rows, in an order other than the ids'.
ROWS = PaperRows(("P4", "P2", "P9", "P1", "P3"))


@pytest.fixture
def paper_set(ontology):
    return ContextPaperSet(
        ontology,
        [
            Context("root", ("P1", "P2", "P3", "P4")),
            Context("a", ("P1", "P2"), training_paper_ids=("P1",)),
            Context("a1", ("P1",), inherited_from="a", decay=0.5),
            Context("b", ("P3",)),
        ],
        ROWS,
    )


class TestContext:
    def test_size_and_contains(self):
        context = Context("a", ("P1", "P2"))
        assert context.size == 2
        assert "P1" in context and "P9" not in context

    def test_defaults(self):
        context = Context("a", ())
        assert context.training_paper_ids == ()
        assert context.inherited_from is None
        assert context.decay == 1.0


class TestContextPaperSet:
    def test_len_iter(self, paper_set):
        assert len(paper_set) == 4
        assert {c.term_id for c in paper_set} == {"root", "a", "a1", "b"}

    def test_context_lookup(self, paper_set):
        assert paper_set.context("a").paper_ids == ("P1", "P2")
        with pytest.raises(KeyError):
            paper_set.context("nope")

    def test_unknown_term_rejected(self, ontology):
        with pytest.raises(ValueError, match="not an ontology term"):
            ContextPaperSet(ontology, [Context("ghost", ())], ROWS)

    def test_duplicate_context_rejected(self, ontology):
        with pytest.raises(ValueError, match="duplicate"):
            ContextPaperSet(ontology, [Context("a", ()), Context("a", ())], ROWS)

    def test_contexts_of_paper(self, paper_set):
        assert set(paper_set.contexts_of_paper("P1")) == {"root", "a", "a1"}
        assert paper_set.contexts_of_paper("P9") == ()

    def test_filter_small(self, paper_set):
        filtered = paper_set.filter_small(2)
        assert set(filtered.context_ids()) == {"root", "a"}

    def test_filter_small_keeps_ontology(self, paper_set):
        assert paper_set.filter_small(2).ontology is paper_set.ontology

    def test_contexts_at_level(self, paper_set):
        level2 = paper_set.contexts_at_level(2)
        assert {c.term_id for c in level2} == {"a", "b"}

    def test_descendants_in_set(self, paper_set):
        assert paper_set.descendants_in_set("root") == ["a", "a1", "b"] or set(
            paper_set.descendants_in_set("root")
        ) == {"a", "a1", "b"}
        assert paper_set.descendants_in_set("a") == ["a1"]
        assert paper_set.descendants_in_set("a1") == []
