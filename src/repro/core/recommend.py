"""Related-work recommendation over the context structure.

The paradigm's motivating scenario (section 1) is a researcher drowning
in an unranked result list.  A second, equally practical use of the same
pre-processing is *related-work recommendation*: given a draft abstract
or any free text, find the contexts it belongs to and surface each
context's most prestigious papers that also resemble the input.

Pipeline: vectorise the input -> rank contexts by representative
similarity (the text-based assignment criterion applied to an unseen
document) -> score each context member by
``w_prestige * prestige + w_similarity * cosine(input, member)`` ->
merge, best context per paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.core.context import ContextPaperSet
from repro.core.vectors import PaperVectorStore
from repro.scoring.base import PrestigeScores


@dataclass(frozen=True)
class Recommendation:
    """One recommended paper."""

    paper_id: str
    context_id: str
    score: float
    prestige: float
    similarity: float


@dataclass(frozen=True)
class ContextMatch:
    """One context the input text was classified into."""

    context_id: str
    similarity: float


class RelatedWorkRecommender:
    """Recommend prestigious, similar papers for unseen input text."""

    def __init__(
        self,
        paper_set: ContextPaperSet,
        prestige: PrestigeScores,
        vectors: PaperVectorStore,
        representatives: Mapping[str, str],
        w_prestige: float = 0.4,
        w_similarity: float = 0.6,
    ) -> None:
        if w_prestige < 0 or w_similarity < 0 or (w_prestige + w_similarity) == 0:
            raise ValueError(
                "w_prestige and w_similarity must be >= 0 and not both zero"
            )
        self.paper_set = paper_set
        self.prestige = prestige
        self.vectors = vectors
        self.representatives = dict(representatives)
        self.w_prestige = w_prestige
        self.w_similarity = w_similarity

    def classify(self, text: str, max_contexts: int = 3) -> List[ContextMatch]:
        """The contexts whose representatives the input resembles most.

        This is the text-based assignment criterion of section 4 applied
        to a document that is *not* in the corpus.
        """
        input_vector = self.vectors.query_vector(text)
        if not input_vector:
            return []
        matches: List[ContextMatch] = []
        for context in self.paper_set:
            representative = self.representatives.get(context.term_id)
            if representative is None:
                continue
            similarity = input_vector.cosine(
                self.vectors.full_vector(representative)
            )
            if similarity > 0.0:
                matches.append(
                    ContextMatch(context_id=context.term_id, similarity=similarity)
                )
        matches.sort(key=lambda m: (-m.similarity, m.context_id))
        return matches[:max_contexts]

    def recommend(
        self,
        text: str,
        limit: int = 10,
        max_contexts: int = 3,
        exclude: Optional[List[str]] = None,
    ) -> List[Recommendation]:
        """Top related papers for ``text``, merged across its contexts.

        ``exclude`` drops known papers (e.g. the draft's own citations).
        A paper reachable through several contexts keeps its best score.
        """
        matches = self.classify(text, max_contexts=max_contexts)
        if not matches:
            return []
        input_vector = self.vectors.query_vector(text)
        excluded = set(exclude or ())
        best: Dict[str, Recommendation] = {}
        for match in matches:
            context = self.paper_set.context(match.context_id)
            context_prestige = self.prestige.of(match.context_id)
            for paper_id in context.paper_ids:
                if paper_id in excluded:
                    continue
                similarity = input_vector.cosine(self.vectors.full_vector(paper_id))
                if similarity == 0.0:
                    continue
                prestige = context_prestige.get(paper_id, 0.0)
                score = (
                    self.w_prestige * prestige + self.w_similarity * similarity
                )
                current = best.get(paper_id)
                if current is None or score > current.score:
                    best[paper_id] = Recommendation(
                        paper_id=paper_id,
                        context_id=match.context_id,
                        score=score,
                        prestige=prestige,
                        similarity=similarity,
                    )
        ranked = sorted(best.values(), key=lambda r: (-r.score, r.paper_id))
        return ranked[:limit]
