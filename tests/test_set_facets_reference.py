"""Differential tests: batch set facets and PageRank slices against per-pair code.

``TextPrestige`` counts the author and reference overlaps of every
(member, representative) pair at once over integer set rows, and
``CitationPrestige`` runs PageRank on edge slices of one CSR of the
citation graph.  Hypothesis draws small corpora with duplicate authors
in one paper, papers without authors or references, references to ids
outside the corpus, self-citations, co-authorship through a third paper
and representatives that are themselves members.  Every batch score must
equal the per-pair reference (:mod:`reference.facets`, and ``pagerank``
of ``graph.subgraph``) with ``==``, in the same key order.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference.facets import facet_similarity
from reference.strategies import micro_corpora
from repro.citations.graph import CitationGraph
from repro.citations.pagerank import TeleportKind, pagerank
from repro.core.context import Context
from repro.core.vectors import PaperVectorStore
from repro.corpus.corpus import Corpus
from repro.corpus.paper import Paper
from repro.obs import get_registry
from repro.scoring.citation import CitationPrestige
from repro.scoring.text import FacetWeights, TextPrestige
from repro.text.analyze import AnalyzedPaperCache

#: Cosine facets off: the differential then covers the set facets alone.
NO_COSINE = dict(title=0.0, abstract=0.0, body=0.0, index_terms=0.0)
WEIGHTS = (
    FacetWeights(),
    FacetWeights(authors=0.0),
    FacetWeights(references=0.0),
    FacetWeights(level1_author=0.0),
    FacetWeights(level0_author=0.0),
    FacetWeights(bibliographic=0.0),
    FacetWeights(bibliographic=1.0),
    FacetWeights(**NO_COSINE),
    FacetWeights(**NO_COSINE, bibliographic=0.0),
    FacetWeights(**NO_COSINE, bibliographic=1.0),
)


@st.composite
def corpora(draw):
    """A micro corpus, its graph, contexts and representatives that are
    sometimes members."""
    micro = draw(micro_corpora().filter(lambda micro: micro.papers))
    corpus = micro.corpus()
    graph = CitationGraph.from_corpus(corpus)
    ids = sorted(corpus.paper_ids())
    contexts, representatives = [], {}
    for term_id in micro.ontology.term_ids()[: draw(st.integers(1, 4))]:
        members = draw(st.lists(st.sampled_from(ids), unique=True, max_size=len(ids)))
        contexts.append(Context(term_id, tuple(members)))
        if draw(st.booleans()):
            representatives[term_id] = draw(st.sampled_from(ids + members))
    return corpus, graph, contexts, representatives


@given(corpora(), st.sampled_from(WEIGHTS))
@settings(max_examples=150, deadline=None)
def test_text_batch_matches_per_pair_reference(case, weights):
    corpus, graph, contexts, representatives = case
    vectors = PaperVectorStore(AnalyzedPaperCache(corpus))
    prestige = TextPrestige(corpus, vectors, graph, representatives, weights)
    cosine_only = TextPrestige(
        corpus, vectors, graph, representatives,
        FacetWeights(**{**weights.__dict__, "authors": 0.0, "references": 0.0}),
    )
    for context, got, cosines in zip(
        contexts, prestige.score_batch(contexts), cosine_only.score_batch(contexts)
    ):
        representative = representatives.get(context.term_id)
        expected = {
            pid: facet_similarity(prestige, total, pid, representative)
            for pid, total in cosines.items()
        }
        assert list(got.items()) == list(expected.items())


def test_graph_over_other_rows_refused():
    """The reference facets read the graph's rows as corpus rows, so a
    graph with a node table of its own is refused, even on equal ids."""
    corpus = Corpus(
        [Paper("A", "glucose kinase"), Paper("B", "glucose signal", references=("A",))]
    )
    vectors = PaperVectorStore(AnalyzedPaperCache(corpus))
    for graph in (
        CitationGraph(edges=[("B", "A")]),
        CitationGraph(edges=[("B", "A")], nodes=["A", "B"]),
    ):
        with pytest.raises(ValueError):
            TextPrestige(corpus, vectors, graph, {"T": "A"})


def test_facet_pairs_counted():
    corpus = Corpus(
        [
            Paper("A", "glucose kinase", authors=("Ann", "Ann")),
            Paper("B", "glucose signal", authors=("Bo",), references=("A",)),
        ]
    )
    prestige = TextPrestige(
        corpus,
        PaperVectorStore(AnalyzedPaperCache(corpus)),
        CitationGraph.from_corpus(corpus),
        {"T": "A"},
    )
    counter = get_registry().counter("text.facets.pairs")
    before = counter.value
    prestige.score_batch([Context("T", ("A", "B")), Context("U", ("B",))])
    assert counter.value - before == 2


@st.composite
def graphs_and_contexts(draw):
    nodes = [f"N{i}" for i in range(draw(st.integers(min_value=0, max_value=16)))]
    edges = []
    if nodes:
        edges = draw(
            st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
                     max_size=80)
        )
    graph = CitationGraph(edges=edges, nodes=draw(st.permutations(nodes)))
    pool = nodes + ["Z1", "Z2", "Z3", "Z4"]
    contexts = [
        Context(f"T{i}", tuple(draw(st.lists(st.sampled_from(pool), max_size=20))))
        for i in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    return graph, contexts


#: N3 sums three sources of unequal spread: the only order that gives
#: the subgraph's floats is its in-list order.
IN_LIST_ORDER = CitationGraph(
    nodes=[f"N{i}" for i in range(6)],
    edges=[("N1", "N3"), ("N4", "N5"), ("N4", "N3"), ("N2", "N3")],
)


@given(
    graphs_and_contexts(),
    st.sampled_from(list(TeleportKind)),
    st.sampled_from((0.15, 0.5)),
)
@example(
    (IN_LIST_ORDER, [Context("T", ("N5", "N4", "N3", "N2", "N1", "N0"))]),
    TeleportKind.E2_UNIFORM,
    0.15,
)
@settings(max_examples=150, deadline=None)
def test_citation_slices_match_subgraph_pagerank(case, teleport, d):
    graph, contexts = case
    prestige = CitationPrestige(graph, teleport=teleport, d=d)
    for context, got in zip(contexts, prestige.score_batch(contexts)):
        expected = {}
        if context.paper_ids:
            expected = pagerank(
                graph.subgraph(context.paper_ids),
                teleport=teleport, d=d, max_iterations=prestige.max_iterations,
            ).scores
        assert list(got.items()) == list(expected.items())
