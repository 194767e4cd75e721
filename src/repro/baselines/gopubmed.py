"""A GoPubMed-style categoriser (paper section 6, reference [22]).

GoPubMed "queries are submitted to PubMed, and the corresponding PubMed
paper *abstracts* are retrieved and categorized by GO terms.  However,
categorization fully relies on the existence of GO term words in the
abstracts ... GoPubMed does not rank results or provide importance
scores."

This module implements that behaviour faithfully so the context-based
system has its related-work comparator:

- retrieval is the keyword engine's unranked boolean search;
- a result paper lands under ontology term T iff T's (analysed) name
  phrase occurs contiguously in the paper's **abstract** (title optional);
- output is a term -> papers categorisation with **no scores**.

The known weakness the paper calls out -- only ~78% of abstracts contain
any GO term words -- is measurable here via :meth:`coverage`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.patterns import find_occurrences
from repro.corpus.paper import Section
from repro.index.search import KeywordSearchEngine
from repro.ontology.ontology import Ontology
from repro.text.analyze import AnalyzedPaperCache


class GoPubMedClassifier:
    """Categorise search results by term-name occurrence in abstracts."""

    def __init__(
        self,
        tokens: AnalyzedPaperCache,
        ontology: Ontology,
        keyword_engine: KeywordSearchEngine,
        include_title: bool = False,
    ) -> None:
        self.tokens = tokens
        self.corpus = tokens.corpus
        self.ontology = ontology
        self.keyword_engine = keyword_engine
        self.include_title = include_title
        self._term_phrases: Optional[List[Tuple[str, Tuple[str, ...]]]] = None

    # -- classification ---------------------------------------------------------------

    def classify_paper(self, paper_id: str) -> List[str]:
        """Ontology terms whose name phrase occurs in the paper's abstract."""
        tokens = self._tokens(paper_id)
        if not tokens:
            return []
        matched = []
        for term_id, phrase in self._phrases():
            if find_occurrences(tokens, phrase):
                matched.append(term_id)
        return matched

    def search(self, query: str) -> Dict[str, List[str]]:
        """GoPubMed's pipeline: keyword search, then categorise the results.

        Returns ``term_id -> [paper ids]`` (unscored, unranked).  Papers
        matching no term land under the pseudo-category ``"(unclassified)"``
        -- GoPubMed's blind spot.
        """
        result_ids = self.keyword_engine.search_unranked(query, self.corpus)
        categories: Dict[str, List[str]] = {}
        for paper_id in result_ids:
            terms = self.classify_paper(paper_id)
            if not terms:
                categories.setdefault("(unclassified)", []).append(paper_id)
                continue
            for term_id in terms:
                categories.setdefault(term_id, []).append(paper_id)
        return categories

    # -- diagnostics --------------------------------------------------------------------

    def coverage(self) -> float:
        """Fraction of corpus papers classifiable at all.

        The paper measures this weakness on real data: "only 78% of the
        14 million PubMed abstracts contain words occurring in a GO term".
        """
        if len(self.corpus) == 0:
            return 0.0
        classified = sum(
            1 for paper in self.corpus if self.classify_paper(paper.paper_id)
        )
        return classified / len(self.corpus)

    # -- internals -------------------------------------------------------------------------

    def _phrases(self) -> List[Tuple[str, Tuple[str, ...]]]:
        if self._term_phrases is None:
            phrases = []
            for term_id in self.ontology.term_ids():
                analysed = tuple(
                    self.tokens.analyzer.analyze(self.ontology.term(term_id).name)
                )
                if analysed:
                    phrases.append((term_id, analysed))
            self._term_phrases = phrases
        return self._term_phrases

    def _tokens(self, paper_id: str) -> Tuple[str, ...]:
        abstract = self.tokens.tokens(paper_id, Section.ABSTRACT)
        if self.include_title:
            return self.tokens.tokens(paper_id, Section.TITLE) + abstract
        return abstract
