"""Differential test: the context search kernel against :mod:`reference.search`.

Hypothesis generates small paper sets (ties, papers shared by several
contexts, empty contexts, matched papers in no context, probe depths
below the match count) and every engine answer, ranking and ``search.context.*`` counter delta must equal the
reference's exactly.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.prestige import scores_from_maps
from reference.search import (
    COUNTERS,
    QUERY_VECTOR,
    ReferenceSearch,
    representative_vector,
)
from repro.core.context import Context, ContextPaperSet
from repro.core.cosine import VectorRows
from repro.core.search import SELECTION_STRATEGIES, ContextSearchEngine
from repro.corpus.rows import PaperRows
from repro.index.search import QueryEvaluation
from repro.obs import reset_registry
from repro.ontology.ontology import Ontology
from repro.ontology.term import Term

#: Few distinct values, so relevancies, match scores and strengths tie.
VALUES = (0.0, 0.1, 0.25, 0.3, 0.5, 1.0)
WORDS = ("gene", "cell", "repair", "signal")
OUTSIDE = ("X0", "X1", "X2")  # matched papers that are in no context


@st.composite
def scenarios(draw):
    papers = [f"P{i}" for i in range(draw(st.integers(1, 10)))]
    contexts = [
        (f"C{i}", tuple(draw(st.lists(st.sampled_from(papers), unique=True))))
        for i in range(draw(st.integers(1, 6)))
    ]
    ids = [cid for cid, _ in contexts]
    weights = draw(st.sampled_from(
        [(0.5, 0.5), (0.3, 0.7), (1.0, 0.0), (0.0, 1.0), (2.0, 0.5)]
    ))
    return SimpleNamespace(
        contexts=contexts,
        names={
            cid: " ".join(draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3)))
            for cid in ids
        },
        prestige=draw(st.dictionaries(
            st.sampled_from(ids),
            st.dictionaries(st.sampled_from(papers), st.sampled_from(VALUES)),
        )),
        match=draw(st.dictionaries(
            st.sampled_from(papers + list(OUTSIDE)), st.sampled_from(VALUES)
        )),
        similarity=draw(st.dictionaries(st.sampled_from(ids), st.sampled_from(VALUES))),
        terms=tuple(draw(st.lists(st.sampled_from(WORDS), unique=True, max_size=3))),
        w_prestige=weights[0],
        w_matching=weights[1],
        probe_depth=draw(st.integers(0, 12)),
        name_bonus=draw(st.sampled_from((0.0, 0.1, 0.5))),
        strategy=draw(st.sampled_from(SELECTION_STRATEGIES)),
    )


def build_engine(s):
    """A production engine over the scenario, with stub index and vectors."""
    ontology = Ontology([Term(cid, s.names[cid]) for cid, _ in s.contexts])
    # Rows in the drawn (not id) order, so ranking must go by paper id.
    paper_rows = PaperRows(dict.fromkeys([
        *s.match,
        *(pid for _, members in s.contexts for pid in members),
        *(pid for scores in s.prestige.values() for pid in scores),
    ]))
    paper_set = ContextPaperSet(
        ontology, [Context(cid, members) for cid, members in s.contexts], paper_rows
    )
    evaluation = QueryEvaluation(
        query=" ".join(s.terms), terms=s.terms, table=paper_rows,
        papers=np.arange(len(s.match)),
        scores=np.array(list(s.match.values()), dtype=np.float64),
        matched_terms=np.ones(len(s.match), dtype=np.intp), max_score=1.0,
        postings_scanned=0,
    )
    keyword_engine = SimpleNamespace(
        evaluate=lambda query: evaluation,
        index=SimpleNamespace(analyzer=SimpleNamespace(analyze=str.split)),
    )
    vectors = SimpleNamespace(
        query_vector=lambda query: QUERY_VECTOR,
        full_rows=VectorRows.of_vectors(
            [representative_vector(s, cid) for cid, _ in s.contexts]
        ),
        # Each context is its own representative, at its context row.
        paper_rows=PaperRows(cid for cid, _ in s.contexts),
    )
    return paper_set, ContextSearchEngine(
        ontology, paper_set,
        scores_from_maps("reference", s.prestige, paper_rows=paper_rows),
        keyword_engine,
        w_prestige=s.w_prestige, w_matching=s.w_matching,
        probe_depth=s.probe_depth, name_bonus=s.name_bonus,
        selection_strategy=s.strategy, vectors=vectors,
        representatives={cid: cid for cid, _ in s.contexts},
    )


def run(call):
    """``call()``'s answer with the ``search.context.*`` counter deltas."""
    registry = reset_registry()
    answer = call()
    counters = registry.snapshot()["counters"]
    return answer, {name: counters.get(name, 0) for name in COUNTERS}


def reference_run(s, method, *args):
    reference = ReferenceSearch(s)
    return getattr(reference, method)(*args), reference.counters


@settings(max_examples=200, deadline=None)
@given(scenarios(), st.data())
def test_kernel_equals_reference(s, data):
    paper_set, engine = build_engine(s)
    query = " ".join(s.terms)
    for pid in [p for _, members in s.contexts for p in members] + list(OUTSIDE):
        assert paper_set.contexts_of_paper(pid) == tuple(
            cid for cid, members in s.contexts if pid in members
        )
    relevancies = sorted({
        s.w_prestige * s.prestige.get(cid, {}).get(pid, 0.0)
        + s.w_matching * s.match[pid]
        for cid, members in s.contexts for pid in members
        if s.match.get(pid, 0.0) > 0.0
    })
    # Thresholds on an exact relevancy tie included.
    threshold = data.draw(st.sampled_from([0.0] + relevancies))
    max_contexts = data.draw(st.integers(0, 7))
    k = data.draw(st.integers(2, 12))
    explicit = data.draw(st.lists(
        st.sampled_from([cid for cid, _ in s.contexts] + ["GHOST"]), max_size=5
    ))

    assert run(lambda: engine.select_contexts(query, max_contexts)) == (
        reference_run(s, "select", max_contexts)
    )
    for limit in (None, 0, 1, k):
        assert run(lambda: engine.search(
            query, max_contexts=max_contexts, threshold=threshold, limit=limit
        )) == reference_run(s, "search", max_contexts, threshold, limit)
        assert run(lambda: engine.search_grouped(
            query, max_contexts=max_contexts, threshold=threshold,
            per_context_limit=limit,
        )) == reference_run(s, "search_grouped", max_contexts, threshold, limit)
        assert run(lambda: engine.search(
            query, threshold=threshold, limit=limit, contexts=explicit
        )) == reference_run(s, "search", max_contexts, threshold, limit, explicit)
