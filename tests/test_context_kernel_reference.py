"""Differential test: the context search kernel against a brute-force reference.

:class:`ReferenceSearch` is the per-paper dict loop the engine used to
run -- select contexts, score ``w_prestige * p + w_matching * m`` in
them, drop what falls below the threshold, merge by best relevancy --
with no arrays, caches or index.  Hypothesis generates small paper sets
(ties, papers shared by several contexts, empty contexts, matched papers
in no context, probe depths below the match count) and every engine
answer, ranking and ``search.context.*`` counter delta must equal the
reference's exactly.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import Context, ContextPaperSet
from repro.core.scores.base import PrestigeScores
from repro.core.search import (
    SELECTION_STRATEGIES,
    ContextResultGroup,
    ContextSearchEngine,
    ContextSelection,
    SearchHit,
)
from repro.index.search import QueryEvaluation
from repro.obs import reset_registry
from repro.ontology.ontology import Ontology
from repro.ontology.term import Term

COUNTERS = tuple(
    f"search.context.{name}"
    for name in (
        "queries", "papers_scored", "papers_dropped", "merge_deduped",
        "contexts_probed", "contexts_selected",
    )
)
#: Few distinct values, so relevancies, match scores and strengths tie.
VALUES = (0.0, 0.1, 0.25, 0.3, 0.5, 1.0)
WORDS = ("gene", "cell", "repair", "signal")
OUTSIDE = ("X0", "X1", "X2")  # matched papers that are in no context


class ReferenceSearch:
    """Select -> score -> threshold -> merge over plain dicts."""

    def __init__(self, s):
        self.s = s
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _count(self, name, value=1):
        self.counters[f"search.context.{name}"] += value

    def select(self, max_contexts):
        s = self.s
        strengths = {}
        if s.strategy == "name":
            query = set(s.terms)
            for cid, _ in s.contexts:
                shared = query & set(s.names[cid].split())
                if query and shared:
                    strengths[cid] = len(shared) / len(query)
        elif s.strategy == "representative":
            for cid, _ in s.contexts:
                if s.similarity.get(cid, 0.0) > 0.0:
                    strengths[cid] = s.similarity[cid]
        else:
            ranked = sorted(s.match.items(), key=lambda kv: (-kv[1], kv[0]))
            for pid, score in ranked[:s.probe_depth]:
                for cid, members in s.contexts:
                    if pid in members:
                        strengths[cid] = strengths.get(cid, 0.0) + score
            for cid, members in s.contexts:
                if cid in strengths:
                    strength = strengths[cid] / max(len(members) ** 0.5, 1.0)
                    if s.terms:
                        shared = set(s.terms) & set(s.names[cid].split())
                        strength += s.name_bonus * len(shared)
                    strengths[cid] = strength
        ranked = sorted(strengths.items(), key=lambda kv: (-kv[1], kv[0]))
        selected = ranked[:max_contexts] if max_contexts > 0 else []
        self._count("contexts_probed", len(strengths))
        self._count("contexts_selected", len(selected))
        return [ContextSelection(cid, value) for cid, value in selected]

    def _scored(self, cid, threshold):
        """(hit, dropped?) for every matched member of one context."""
        s = self.s
        for pid in dict(s.contexts)[cid]:
            matching = s.match.get(pid, 0.0)
            if matching > 0.0:
                prestige = s.prestige.get(cid, {}).get(pid, 0.0)
                relevancy = s.w_prestige * prestige + s.w_matching * matching
                hit = SearchHit(pid, cid, relevancy, prestige, matching)
                yield hit, relevancy < threshold

    def search(self, max_contexts, threshold, limit, contexts=None):
        if contexts is None:
            selected = [sel.context_id for sel in self.select(max_contexts)]
        else:
            known = dict(self.s.contexts)
            selected = [cid for cid in dict.fromkeys(contexts) if cid in known]
        if not selected:
            return []
        best = {}
        for cid in selected:
            for hit, dropped in self._scored(cid, threshold):
                self._count("papers_scored")
                if dropped:
                    self._count("papers_dropped")
                    continue
                current = best.get(hit.paper_id)
                if current is not None:
                    self._count("merge_deduped")
                    if hit.relevancy <= current.relevancy:
                        continue
                best[hit.paper_id] = hit
        self._count("queries")
        hits = sorted(best.values(), key=lambda h: (-h.relevancy, h.paper_id))
        return hits if limit is None else hits[:limit]

    def search_grouped(self, max_contexts, threshold, per_context_limit):
        groups = []
        for selection in self.select(max_contexts):
            hits = sorted(
                (hit for hit, dropped in self._scored(selection.context_id, threshold)
                 if not dropped),
                key=lambda h: (-h.relevancy, h.paper_id),
            )
            if per_context_limit is not None:
                hits = hits[:per_context_limit]
            if hits:
                groups.append(ContextResultGroup(
                    selection.context_id, selection.strength, tuple(hits)
                ))
        return groups


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


class _Vector:
    def __init__(self, similarity=1.0):
        self.similarity = similarity

    def cosine(self, other):
        return other.similarity


def build_engine(s):
    """A production engine over the scenario, with stub index and vectors."""
    ontology = Ontology([Term(cid, s.names[cid]) for cid, _ in s.contexts])
    paper_set = ContextPaperSet(
        ontology, [Context(cid, members) for cid, members in s.contexts]
    )
    evaluation = QueryEvaluation(
        query=" ".join(s.terms), terms=s.terms, phrases=(), scores=s.match,
        matched_terms=dict.fromkeys(s.match, 1), max_score=1.0,
        postings_scanned=0,
    )
    keyword_engine = SimpleNamespace(
        evaluate=lambda query: evaluation,
        index=SimpleNamespace(analyzer=SimpleNamespace(analyze=str.split)),
    )
    vectors = SimpleNamespace(
        query_vector=lambda query: _Vector(),
        full_vector=lambda rep: _Vector(s.similarity.get(rep, 0.0)),
    )
    return paper_set, ContextSearchEngine(
        ontology, paper_set, PrestigeScores("reference", s.prestige),
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
