"""Shared fixtures: a tiny hand-crafted testbed and a small generated one.

The hand-crafted corpus gives tests exact control over similarities,
citations, and pattern matches; the generated dataset exercises realistic
statistical structure.  Both are session-scoped -- building them is the
expensive part of the suite.
"""

from types import SimpleNamespace

import pytest
from hypothesis import Phase, settings

from repro.citations.graph import CitationGraph
from repro.core.context import Context, ContextPaperSet
from repro.core.vectors import PaperVectorStore
from repro.corpus.corpus import Corpus
from repro.obs import reset_registry, reset_telemetry
from repro.corpus.paper import Paper
from repro.datagen.corpus_gen import CorpusGenerator
from repro.datagen.ontology_gen import OntologyGenerator
from repro.index.inverted import build_index
from repro.index.search import KeywordSearchEngine
from repro.ontology.ontology import Ontology
from repro.ontology.term import Term
from repro.scoring import TextPrestige
from repro.text.analyze import AnalyzedPaperCache


#: ``--hypothesis-profile=no-shrink`` (tools/check_reference_sharpness.py):
#: report the first failing example, and keep no example database.
settings.register_profile(
    "no-shrink", phases=[Phase.explicit, Phase.reuse, Phase.generate], database=None
)


@pytest.fixture(autouse=True)
def _fresh_obs_state():
    """Every test starts and ends with fresh process-wide obs state.

    Counters accumulated by session-scoped fixture builds (or earlier
    tests) must never leak into a test's metric assertions, and query
    telemetry enabled by one test must not capture another's requests.
    Tracing is deliberately left alone: tests manage their own tracers
    via start_tracing()/stop_tracing().
    """
    reset_registry()
    reset_telemetry()
    yield
    reset_registry()
    reset_telemetry()


@pytest.fixture(scope="session")
def tiny_ontology():
    """root -> {metabolism, signaling}; metabolism -> glucose."""
    return Ontology(
        [
            Term("root", "biological process"),
            Term("met", "metabolic process", parent_ids=("root",)),
            Term("sig", "signaling process", parent_ids=("root",)),
            Term("glu", "glucose metabolic process", parent_ids=("met",)),
        ]
    )


@pytest.fixture(scope="session")
def tiny_corpus():
    """Six papers: three metabolic (two glucose), two signaling, one off-topic.

    Citations: M1 <- M2 <- M3 within metabolism, S1 <- S2 in signaling,
    and a cross-topic edge S2 -> M1.
    """
    return Corpus(
        [
            Paper(
                paper_id="M1",
                title="glucose metabolic process flux",
                abstract="glucose metabolic process in yeast glycolysis pathway",
                body="we measured glucose metabolic process rates and "
                "glycolysis pathway flux in yeast cells under stress",
                index_terms=("glucose", "metabolism"),
                authors=("A. Alpha", "B. Beta"),
                year=1995,
            ),
            Paper(
                paper_id="M2",
                title="metabolic process regulation by glucose sensing",
                abstract="regulation of the metabolic process through glucose "
                "sensing receptors",
                body="metabolic process regulation depends on glucose sensing "
                "and downstream glycolysis pathway components",
                index_terms=("metabolism", "regulation"),
                authors=("B. Beta", "C. Gamma"),
                references=("M1",),
                year=1999,
            ),
            Paper(
                paper_id="M3",
                title="survey of metabolic process studies",
                abstract="a survey of metabolic process research directions",
                body="this survey covers the metabolic process literature "
                "including glycolysis and energy pathways",
                index_terms=("metabolism", "survey"),
                authors=("D. Delta",),
                references=("M1", "M2"),
                year=2003,
            ),
            Paper(
                paper_id="S1",
                title="signaling process cascades",
                abstract="kinase cascades in the signaling process",
                body="the signaling process uses kinase cascades and receptor "
                "phosphorylation to transmit information",
                index_terms=("signaling", "kinase"),
                authors=("E. Epsilon", "F. Zeta"),
                year=1996,
            ),
            Paper(
                paper_id="S2",
                title="receptor signaling process dynamics",
                abstract="dynamics of receptor driven signaling process",
                body="receptor dynamics shape the signaling process and kinase "
                "activity over time",
                index_terms=("signaling", "receptor"),
                authors=("F. Zeta",),
                references=("S1", "M1"),
                year=2000,
            ),
            Paper(
                paper_id="X1",
                title="astronomy of distant quasars",
                abstract="quasar luminosity surveys",
                body="telescope observations of quasars and galactic nuclei",
                index_terms=("astronomy",),
                authors=("G. Eta",),
                year=2001,
            ),
        ]
    )


@pytest.fixture(scope="session")
def tiny_training():
    return {"met": ["M1", "M2"], "sig": ["S1"], "glu": ["M1"]}


@pytest.fixture(scope="module")
def tiny(tiny_corpus, tiny_ontology, tiny_training):
    """The tiny testbed with its token cache, index, vectors, citation
    graph and keyword engine, built once per module."""
    tokens = AnalyzedPaperCache(tiny_corpus)
    index = build_index(tokens)
    stack = SimpleNamespace(
        corpus=tiny_corpus, ontology=tiny_ontology, training=tiny_training,
        tokens=tokens, index=index, vectors=PaperVectorStore(tokens),
        graph=CitationGraph.from_corpus(tiny_corpus), keyword=KeywordSearchEngine(index),
    )

    def text_scores(contexts):
        """``(paper set, representatives, text prestige)`` of ``contexts``
        (term id -> papers, the first one its representative)."""
        paper_set = ContextPaperSet(
            tiny_ontology,
            [Context(cid, papers) for cid, papers in contexts.items()],
            tiny_corpus.paper_rows,
        )
        representatives = {cid: papers[0] for cid, papers in contexts.items()}
        prestige = TextPrestige(tiny_corpus, stack.vectors, stack.graph, representatives)
        return paper_set, representatives, prestige.score_all(paper_set)

    stack.text_scores = text_scores
    return stack


@pytest.fixture(scope="session")
def small_dataset():
    """A generated dataset big enough for statistical structure."""
    generator = CorpusGenerator(
        n_papers=300,
        ontology_generator=OntologyGenerator(n_terms=60, max_depth=5),
    )
    return generator.generate(seed=17)
