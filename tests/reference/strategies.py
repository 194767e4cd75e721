"""Generators shared by the differential tests.

:func:`micro_corpora` draws a micro corpus, a small DAG ontology named
from the corpus's words and a training map; :func:`deltas` draws
remove/replace/add steps over such a corpus.  :func:`make_builder` wraps
token documents in a pattern-set builder, and :func:`delta_pipeline`
makes a seeded demo pipeline that has taken a delta on warm scores.
"""

from types import SimpleNamespace
from typing import NamedTuple

from hypothesis import strategies as st

from repro.core.patterns import PatternSetBuilder
from repro.corpus.corpus import Corpus
from repro.corpus.paper import Paper
from repro.ontology.ontology import Ontology
from repro.ontology.term import Term
from repro.pipeline import Pipeline, build_demo_pipeline
from repro.text.analyze import AnalyzedPaperCache

WORDS = ("gene", "cell", "repair", "signal", "protein", "kinase")
#: Out-of-vocabulary query words.
OUTSIDE_WORDS = ("zebra", "quartz")
AUTHORS = ("Ann", "Bo", "Cy", "Di", "Ed")
#: Reference targets that are not corpus papers.
OUTSIDE = ("X1", "X2")
#: Few distinct texts, so papers repeat and their scores tie; terms
#: repeat within a section, so tf > 1; sections may be empty.
TEXTS = st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join)
NAMES = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)


class Micro(NamedTuple):
    papers: list
    ontology: Ontology
    training: dict

    def corpus(self) -> Corpus:
        return Corpus(list(self.papers))


@st.composite
def ontologies(draw):
    """A DAG of 1-7 terms named from :data:`WORDS`: each term's parents
    come before it, so some terms have two."""
    ids = [f"c{i}" for i in range(draw(st.integers(1, 7)))]
    terms = []
    for i, cid in enumerate(ids):
        parents = draw(st.lists(st.sampled_from(ids[:i]), unique=True, max_size=2)) if i else []
        terms.append(Term(cid, draw(NAMES), parent_ids=tuple(parents)))
    return Ontology(terms)


@st.composite
def micro_corpora(draw):
    """A :class:`Micro`: 0-8 papers listed in drawn (not id) order, with
    duplicate authors, no authors, references to ids outside the corpus
    and to the citing paper itself; training lists may name a paper
    missing from the corpus."""
    ids = [f"P{i}" for i in range(draw(st.integers(0, 8)))]
    papers = [
        Paper(
            paper_id=ids[i],
            title=draw(TEXTS),
            abstract=draw(TEXTS),
            body=draw(TEXTS),
            index_terms=tuple(draw(st.lists(st.sampled_from(WORDS), max_size=2))),
            authors=tuple(draw(st.lists(st.sampled_from(AUTHORS), max_size=4))),
            references=tuple(
                draw(st.lists(st.sampled_from(ids + list(OUTSIDE)), max_size=5))
            ),
            year=2000,
        )
        for i in draw(st.permutations(range(len(ids))))
    ]
    ontology = draw(ontologies())
    pool = st.sampled_from(ids + ["MISSING"])
    training = {
        term_id: draw(st.lists(pool, max_size=3)) for term_id in ontology.term_ids()
    }
    return Micro(papers, ontology, training)


@st.composite
def deltas(draw, papers):
    """One to four remove/replace/add steps over ``papers``, as
    ``(paper_id, new paper or None)``; removals may empty the corpus."""
    live = [paper.paper_id for paper in papers]
    steps, fresh = [], 0
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("remove", "replace", "add")))
        if kind != "add" and live:
            paper_id = draw(st.sampled_from(live))
            if kind == "remove":
                live.remove(paper_id)
                steps.append((paper_id, None))
                continue
        else:
            paper_id = f"N{fresh}"
            fresh += 1
            live.append(paper_id)
        body = draw(TEXTS)
        paper = Paper(paper_id=paper_id, title=body, body=body, year=2000)
        steps.append((paper_id, paper))
    return steps


def make_builder(docs, names, **knobs):
    """A builder over ``docs`` (paper id -> title, abstract, body and
    index-term token tuples), split on spaces, with a stub index."""
    ontology = Ontology([Term(f"T{i}", name) for i, name in enumerate(names)])
    corpus = Corpus(
        Paper(pid, " ".join(title), " ".join(abstract), " ".join(body), index_terms)
        for pid, (title, abstract, body, index_terms) in docs.items()
    )
    cache = AnalyzedPaperCache(corpus, SimpleNamespace(analyze=str.split))
    index = SimpleNamespace(
        n_papers=len(docs),
        papers_containing=lambda word: {
            pid for pid, sections in docs.items() if any(word in s for s in sections)
        },
    )
    return PatternSetBuilder(ontology, index, cache, **knobs)


def delta_pipeline(seed, n_add, n_remove, warm):
    """A demo pipeline minus its last ``n_add`` papers, with the ``warm``
    ``(function, paper set)`` arms scored, after the delta that adds them
    back and removes ``n_remove`` others; and the delta's report."""
    demo = build_demo_pipeline(seed=seed, n_papers=50, n_terms=12)
    papers = list(demo.corpus)
    held_out = papers[len(papers) - n_add:] if n_add else []
    base = papers[: len(papers) - n_add]
    pipeline = Pipeline(Corpus(base), demo.ontology, demo.training_papers)
    for function, paper_set_name in warm:
        pipeline.prestige(function, paper_set_name)
    removed = [paper.paper_id for paper in base[::7][:n_remove]]
    report = pipeline.substrates.apply_delta(added_papers=held_out, removed_ids=removed)
    return pipeline, report
