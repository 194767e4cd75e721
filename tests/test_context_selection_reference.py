"""Differential test: row-space context selection against a Python sort.

Hypothesis draws per-context values from a few tied ones and gives the
context rows ids in a drawn order, not id order.  Each strategy is set
up so those values are its strengths: the probe reaches each context
through one member paper matched with its value, the name strategy
shares a number of query words with each context name, and the
representative strategy compares the query with one of a few vectors.
For every strategy and ``max_contexts`` in -1, 0, 1, n - 1, n and n + 1
(n the contexts the strategy reached), :meth:`select_contexts` must
equal ``sorted(items, key=(-strength, id))[:max_contexts]`` of the
strategy's own ``(context, strength)`` items bit for bit, and the
``contexts_probed`` / ``contexts_selected`` counters must count the
items and that answer.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.prestige import scores_from_maps
from repro.core.context import Context, ContextPaperSet
from repro.core.cosine import VectorRows
from repro.core.search import (
    SELECTION_STRATEGIES,
    ContextSearchEngine,
    ContextSelection,
)
from repro.corpus.rows import PaperRows
from repro.index.search import QueryEvaluation
from repro.obs import reset_registry
from repro.ontology.ontology import Ontology
from repro.ontology.term import Term
from repro.text.vectorize import SparseVector

#: Per-context values; None reaches no context.  Few, so strengths tie.
VALUES = (None, 0.25, 0.5, 0.75, 1.0)
WORDS = ("w0", "w1", "w2", "w3")
QUERY = " ".join(WORDS)


@st.composite
def selections(draw):
    n = draw(st.integers(1, 8))
    return SimpleNamespace(
        # Row r holds context ids[r]: row order is not id order.
        ids=draw(st.permutations([f"C{i}" for i in range(n)])),
        values=draw(st.lists(st.sampled_from(VALUES), min_size=n, max_size=n)),
        strategy=draw(st.sampled_from(SELECTION_STRATEGIES)),
    )


def build_engine(s):
    """An engine whose strategy yields one strength per drawn value."""
    papers = [f"P{row}" for row in range(len(s.ids))]
    paper_rows = PaperRows(papers)
    matched = [row for row, value in enumerate(s.values) if value is not None]
    evaluation = QueryEvaluation(
        query=QUERY, terms=(), table=paper_rows,
        papers=np.array(matched, dtype=np.intp),
        scores=np.array([s.values[row] for row in matched], dtype=np.float64),
        matched_terms=np.ones(len(matched), dtype=np.intp), max_score=1.0,
        postings_scanned=0,
    )
    # A value v names int(4 * v) of the query's words; None names none.
    names = [
        " ".join(WORDS[:int(4 * value)]) if value is not None else "other"
        for value in s.values
    ]
    ontology = Ontology([Term(cid, name) for cid, name in zip(s.ids, names)])
    paper_set = ContextPaperSet(
        ontology,
        [Context(cid, (pid,)) for cid, pid in zip(s.ids, papers)],
        paper_rows,
    )
    vectors = SimpleNamespace(
        query_vector=lambda query: SparseVector({0: 1.0}),
        full_rows=VectorRows.of_vectors([
            SparseVector({0: value, 1: 1.0} if value is not None else {1: 1.0})
            for value in s.values
        ]),
        paper_rows=PaperRows(s.ids),
    )
    return evaluation, ContextSearchEngine(
        ontology, paper_set,
        scores_from_maps("reference", {}, paper_rows=paper_rows),
        SimpleNamespace(
            evaluate=lambda query: evaluation,
            index=SimpleNamespace(analyzer=SimpleNamespace(analyze=str.split)),
        ),
        probe_depth=len(s.ids), selection_strategy=s.strategy,
        vectors=vectors, representatives={cid: cid for cid in s.ids},
    )


def items_of(s, evaluation, engine):
    """The strategy's ``(context id, strength)`` items, unranked."""
    if s.strategy == "probe":
        rows, strengths = engine._probe_strengths(evaluation)
    elif s.strategy == "name":
        rows, strengths = engine._name_strengths(QUERY)
    else:
        rows, strengths = engine._representative_strengths(QUERY)
    return [(s.ids[row], strength) for row, strength in zip(
        rows.tolist(), strengths.tolist()
    )]


@settings(max_examples=300, deadline=None)
@given(selections())
def test_selection_equals_sorted_items(s):
    evaluation, engine = build_engine(s)
    items = items_of(s, evaluation, engine)
    assert len(items) == sum(value is not None for value in s.values)
    ranked = sorted(items, key=lambda item: (-item[1], item[0]))
    n = len(items)
    for max_contexts in (-1, 0, 1, n - 1, n, n + 1):
        registry = reset_registry()
        got = engine.select_contexts(QUERY, max_contexts)
        counters = registry.snapshot()["counters"]
        expected = ranked[:max(max_contexts, 0)]
        assert [(c.context_id, c.strength.hex()) for c in got] == [
            (cid, strength.hex()) for cid, strength in expected
        ], max_contexts
        assert all(type(c) is ContextSelection for c in got)
        assert counters.get("search.context.contexts_probed", 0) == n
        assert counters.get("search.context.contexts_selected", 0) == len(expected)
