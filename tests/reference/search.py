"""Brute-force reference for the context search kernel (section 5).

:class:`ReferenceSearch` is the per-paper dict loop the engine used to
run -- select contexts, score ``w_prestige * p + w_matching * m`` in
them, drop what falls below the threshold, merge by best relevancy --
with no arrays, caches or index, over a scenario namespace: contexts,
names, prestige and match maps, representative similarities, query
terms, weights, probe depth, name bonus and selection strategy.

:func:`two_sort_merge` is the engine's array merge step as it was
before the top-``limit`` cut, and :func:`pairs_kept` counts the pairs
that cut should leave.
"""

import numpy as np

from repro.core.search import ContextResultGroup, ContextSelection, SearchHit
from repro.text.vectorize import SparseVector

COUNTERS = tuple(
    f"search.context.{name}"
    for name in (
        "queries", "papers_scored", "papers_dropped", "merge_deduped",
        "contexts_probed", "contexts_selected",
    )
)

#: The query's vector under the representative strategy.
QUERY_VECTOR = SparseVector({0: 1.0, 2: 0.5})


def representative_vector(s, cid):
    """Context ``cid``'s representative vector, from its drawn value.

    Equal values give equal vectors, so strengths tie; a zero value gives
    a vector shorter than the query, whose dot product walks it instead.
    """
    value = s.similarity.get(cid, 0.0)
    return SparseVector({0: value, 1: 1.0} if value else {1: 1.0})


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
                similarity = QUERY_VECTOR.cosine(representative_vector(s, cid))
                if similarity > 0.0:
                    strengths[cid] = similarity
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
        self._count("queries")
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


def two_sort_merge(scored, rank, limit):
    """``(pairs, deduped)``: the merge step sorting every scored pair.

    A 3-key ``lexsort`` over all pairs keeps each paper's best pair (the
    earliest selected context on a tie, NaN last), a 2-key ``lexsort``
    ranks those by ``(-relevancy, id rank)``, and only then is the answer
    cut to ``limit``.  ``pairs`` indexes the returned pairs, best first.
    """
    by_paper = np.lexsort((scored.order, -scored.relevancy, scored.papers))
    papers = scored.papers[by_paper]
    first = np.ones(len(papers), dtype=bool)
    first[1:] = papers[1:] != papers[:-1]
    best = by_paper[first]
    merge_deduped = len(scored) - len(best)
    ranked = best[np.lexsort((rank[scored.papers[best]], -scored.relevancy[best]))]
    if limit is not None:
        ranked = ranked[:limit]
    return ranked, merge_deduped


def pairs_kept(scored, limit):
    """How many pairs the top-``limit`` cut keeps, by a per-pair loop.

    With more than ``limit`` papers scored, the pairs at or above the
    ``limit``-th best of the papers' finite best relevancies; all pairs
    if fewer than ``limit`` papers have a finite best, none at limit 0.
    """
    papers = scored.papers.tolist()
    relevancies = scored.relevancy.tolist()
    if limit is None or len(set(papers)) <= limit:
        return len(papers)
    if limit == 0:
        return 0
    best = {}
    for paper, relevancy in zip(papers, relevancies):
        if relevancy == relevancy:  # not NaN
            best[paper] = max(best.get(paper, relevancy), relevancy)
    finite = sorted(best.values(), reverse=True)
    if len(finite) < limit:
        return len(papers)
    return sum(relevancy >= finite[limit - 1] for relevancy in relevancies)
