"""Unit tests for query expansion."""

import pytest

from repro.core.query_expansion import ContextQueryExpander, PseudoRelevanceExpander


@pytest.fixture(scope="module")
def setup(tiny):
    return {"vectors": tiny.vectors, "keyword": tiny.keyword}


class TestContextQueryExpander:
    def test_adds_context_vocabulary(self, setup):
        expander = ContextQueryExpander(
            setup["vectors"], {"met": "M1"}, max_added_terms=2
        )
        expanded = expander.expand("glucose", ["met"])
        assert expanded.startswith("glucose ")
        added = expanded.split()[1:]
        assert 1 <= len(added) <= 2
        # Added terms come from M1's vocabulary, analysed form.
        m1_terms = set(
            setup["vectors"].tokens.analyzer.analyze(
                "glucose metabolic process flux yeast glycolysis pathway "
                "measured rates cells stress metabolism"
            )
        )
        assert set(added) <= m1_terms

    def test_no_duplicate_query_terms(self, setup):
        expander = ContextQueryExpander(
            setup["vectors"], {"met": "M1"}, max_added_terms=5
        )
        expanded = expander.expand("glucose glycolysis", ["met"])
        terms = setup["vectors"].tokens.analyzer.analyze(expanded)
        assert len(terms) == len(set(terms))

    def test_unknown_context_unchanged(self, setup):
        expander = ContextQueryExpander(setup["vectors"], {"met": "M1"})
        assert expander.expand("glucose", ["nope"]) == "glucose"

    def test_zero_budget_unchanged(self, setup):
        expander = ContextQueryExpander(
            setup["vectors"], {"met": "M1"}, max_added_terms=0
        )
        assert expander.expand("glucose", ["met"]) == "glucose"

    def test_validation(self, setup):
        with pytest.raises(ValueError):
            ContextQueryExpander(setup["vectors"], {}, max_added_terms=-1)

    def test_multiple_contexts_use_centroid(self, setup):
        expander = ContextQueryExpander(
            setup["vectors"], {"met": "M1", "sig": "S1"}, max_added_terms=3
        )
        expanded = expander.expand("process", ["met", "sig"])
        assert expanded != "process"


class TestPseudoRelevanceExpander:
    def test_adds_feedback_terms(self, setup):
        expander = PseudoRelevanceExpander(
            setup["keyword"], setup["vectors"], feedback_depth=3, max_added_terms=2
        )
        expanded = expander.expand("glucose")
        assert expanded.startswith("glucose")
        assert len(expanded.split()) > 1

    def test_no_results_unchanged(self, setup):
        expander = PseudoRelevanceExpander(setup["keyword"], setup["vectors"])
        assert expander.expand("zebra quagga") == "zebra quagga"

    def test_zero_budget_unchanged(self, setup):
        expander = PseudoRelevanceExpander(
            setup["keyword"], setup["vectors"], max_added_terms=0
        )
        assert expander.expand("glucose") == "glucose"

    def test_validation(self, setup):
        with pytest.raises(ValueError):
            PseudoRelevanceExpander(setup["keyword"], setup["vectors"], feedback_depth=0)
        with pytest.raises(ValueError):
            PseudoRelevanceExpander(
                setup["keyword"], setup["vectors"], max_added_terms=-2
            )

    def test_expansion_improves_recall_on_tiny_corpus(self, setup):
        """Expanded query reaches papers the bare term misses."""
        bare_hits = {h.paper_id for h in setup["keyword"].search("glycolysis")}
        expander = PseudoRelevanceExpander(
            setup["keyword"], setup["vectors"], max_added_terms=3
        )
        expanded = expander.expand("glycolysis")
        expanded_hits = {h.paper_id for h in setup["keyword"].search(expanded)}
        assert bare_hits <= expanded_hits
