"""Per-pair reference for the cosine kernel and the text stages.

:class:`ReferenceVector` keeps ``SparseVector``'s former norm, dot and
cosine code, and the ``reference_*`` functions keep the per-pair loops
of ``TextPrestige.similarity``, ``select_representative``, text
assignment (every paper scored against the representative, one pair at
a time, in :func:`reference_text_contexts`) and
``ContextSearchEngine._representative_strengths``.
:class:`ReferenceVectors` takes each vector from ``TfidfModel.vectorize``
of freshly analysed text, never from a store's rows.
"""

import math
import sys

from reference.facets import facet_similarity
from repro.corpus.paper import Section
from repro.text.vectorize import SparseVector, centroid


class ReferenceVector:
    """``SparseVector``'s norm / dot / cosine as the dict loops computed them."""

    def __init__(self, weights):
        self.weights = dict(weights)

    @property
    def norm(self):
        peak = max((abs(w) for w in self.weights.values()), default=0.0)
        if peak == 0.0:
            return 0.0
        return peak * math.sqrt(sum((w / peak) ** 2 for w in self.weights.values()))

    def dot(self, other):
        a, b = self.weights, other.weights
        if len(a) > len(b):
            a, b = b, a
        return sum(weight * b[term] for term, weight in a.items() if term in b)

    def normalized(self):
        n = self.norm
        if n == 0.0:
            return ReferenceVector({})
        if n < sys.float_info.min:
            peak = max(abs(w) for w in self.weights.values())
            scaled = {t: w / peak for t, w in self.weights.items()}
            m = math.sqrt(sum(v * v for v in scaled.values()))
            return ReferenceVector({t: v / m for t, v in scaled.items()})
        return ReferenceVector({t: w / n for t, w in self.weights.items()})

    def cosine(self, other):
        na, nb = self.norm, other.norm
        if na == 0.0 or nb == 0.0:
            return 0.0
        denominator = na * nb
        if denominator < sys.float_info.min or math.isinf(denominator):
            value = self.normalized().dot(other.normalized())
        else:
            value = self.dot(other) / denominator
        return min(max(value, 0.0), 1.0)


def needs_fallback(a, b):
    na, nb = a.norm, b.norm
    product = na * nb
    return (
        na != 0.0 and nb != 0.0
        and (product < sys.float_info.min or math.isinf(product))
    )


class ReferenceVectors:
    """Each paper's vectors from ``TfidfModel.vectorize`` of fresh analysis.

    Never read from the store's rows; memoised for one state of the
    store (build a new one after a delta).
    """

    def __init__(self, store):
        self.store = store
        self._memo = {}

    def __call__(self, paper_id, section=None):
        key = (paper_id, section)
        if key not in self._memo:
            paper = self.store.corpus.paper(paper_id)
            if section is None:
                model, text = self.store.full_model, paper.all_text()
            else:
                model = self.store.section_model(section)
                text = paper.section_text(section)
            vector = model.vectorize(self.store.tokens.analyzer.analyze(text))
            self._memo[key] = ReferenceVector(vector.weights)
        return self._memo[key]


def reference_similarity(reference, prestige, paper_id, representative):
    """``TextPrestige.similarity``: the six facets summed per pair."""
    w = prestige.weights

    def section_cosine(section):
        return reference(paper_id, section).cosine(reference(representative, section))

    total = 0.0
    if w.title:
        total += w.title * section_cosine(Section.TITLE)
    if w.abstract:
        total += w.abstract * section_cosine(Section.ABSTRACT)
    if w.body:
        total += w.body * section_cosine(Section.BODY)
    if w.index_terms:
        total += w.index_terms * section_cosine(Section.INDEX_TERMS)
    return facet_similarity(prestige, total, paper_id, representative)


def reference_select_representative(reference, candidate_ids):
    candidates = list(dict.fromkeys(candidate_ids))
    if not candidates:
        return None
    if len(candidates) == 1:
        return candidates[0]
    center = ReferenceVector(
        centroid(SparseVector(reference(pid).weights) for pid in candidates).weights
    )
    best_id, best_similarity = None, -1.0
    for paper_id in sorted(candidates):
        similarity = reference(paper_id).cosine(center)
        if similarity > best_similarity:
            best_similarity, best_id = similarity, paper_id
    return best_id


def reference_assign(reference, corpus, threshold, representative, training):
    """Every corpus paper, in id order, that is a training paper, the
    representative, or at least ``threshold`` similar to it."""
    rep_vector = reference(representative)
    return [
        paper_id
        for paper_id in sorted(corpus.paper_ids())
        if paper_id in training
        or paper_id == representative
        or reference(paper_id).cosine(rep_vector) >= threshold
    ]


def reference_text_contexts(reference, corpus, ontology, training, threshold):
    """The text-based contexts, in term order, as ``(term id, paper ids,
    training ids, representative)`` tuples: one for every term with a
    training paper in the corpus."""
    contexts = []
    for term_id in ontology.term_ids():
        kept = [pid for pid in training.get(term_id, ()) if pid in corpus]
        if kept:
            chosen = reference_select_representative(reference, kept)
            members = reference_assign(reference, corpus, threshold, chosen, kept)
            contexts.append((term_id, tuple(members), tuple(kept), chosen))
    return contexts


def reference_representative_strengths(
    reference, paper_set, representatives, query
):
    query_vector = ReferenceVector(reference.store.query_vector(query).weights)
    strengths = {}
    if not query_vector.weights:
        return strengths
    for context in paper_set:
        representative = representatives.get(context.term_id)
        if representative is None:
            continue
        similarity = query_vector.cosine(reference(representative))
        if similarity > 0.0:
            strengths[context.term_id] = similarity
    return strengths
