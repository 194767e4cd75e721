"""The composed text-analysis pipeline used throughout the system.

Every component that turns raw text into index/vector terms (the inverted
index, TF-IDF vectors, pattern mining, AC-answer construction) goes through
one :class:`Analyzer` so stemming and stopword decisions stay consistent
across the whole pipeline.  Paper text is analysed in one place only:
:class:`AnalyzedPaperCache`, which every corpus consumer reads.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.corpus.corpus import Corpus
from repro.corpus.paper import Section, TEXT_SECTIONS
from repro.text.stem import PorterStemmer
from repro.text.stopwords import STOPWORDS
from repro.text.tokenize import tokenize


class Analyzer:
    """Tokenise, lowercase, drop stopwords, and (optionally) stem.

    Parameters
    ----------
    stopwords:
        Set of lowercase words to drop.  Pass ``frozenset()`` to keep all.
    stem:
        If True (default), apply the Porter stemmer to surviving tokens.
    min_token_length:
        Tokens shorter than this are dropped *after* stemming.  Single
        characters are almost always noise in scientific text; gene symbols
        of length >= 2 survive.
    """

    def __init__(
        self,
        stopwords: Optional[FrozenSet[str]] = None,
        stem: bool = True,
        min_token_length: int = 2,
    ) -> None:
        self.stopwords = STOPWORDS if stopwords is None else stopwords
        self.stem_enabled = stem
        self.min_token_length = min_token_length
        self._stemmer = PorterStemmer()
        # Memoise stems: corpus analysis hits the same words millions of
        # times and the stemmer is the hot path.
        self._stem_cache: dict = {}

    def analyze(self, text: str) -> List[str]:
        """Return the analysis terms of ``text`` in document order.

        >>> Analyzer().analyze("The binding of transcription factors")
        ['bind', 'transcript', 'factor']
        """
        terms = []
        for token in tokenize(text):
            if token in self.stopwords:
                continue
            if self.stem_enabled:
                term = self._stem_cached(token)
            else:
                term = token
            if len(term) >= self.min_token_length:
                terms.append(term)
        return terms

    def analyze_tokens(self, tokens: List[str]) -> List[str]:
        """Analyse pre-tokenised, lowercased ``tokens`` (no re-tokenising)."""
        terms = []
        for token in tokens:
            if token in self.stopwords:
                continue
            term = self._stem_cached(token) if self.stem_enabled else token
            if len(term) >= self.min_token_length:
                terms.append(term)
        return terms

    def _stem_cached(self, token: str) -> str:
        cached = self._stem_cache.get(token)
        if cached is None:
            cached = self._stemmer.stem(token)
            self._stem_cache[token] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Analyzer(stem={self.stem_enabled}, "
            f"min_token_length={self.min_token_length}, "
            f"n_stopwords={len(self.stopwords)})"
        )


_DEFAULT: Optional[Analyzer] = None


def default_analyzer() -> Analyzer:
    """Return the process-wide shared :class:`Analyzer`.

    Sharing one instance shares the stem cache, which matters when several
    components (index, vectoriser, pattern miner) analyse the same corpus.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Analyzer()
    return _DEFAULT


class AnalyzedPaperCache:
    """Analysed token sequences per (paper, section), computed once.

    The corpus's only text analysis: the inverted index, the TF-IDF
    vector store, pattern construction and the GoPubMed baseline all
    read their terms here.  The whole-paper sequence is the
    concatenation of the section sequences, which equals analysing
    :meth:`~repro.corpus.paper.Paper.all_text`: that joins the
    sections with a space, and no token spans a space.
    """

    def __init__(self, corpus: Corpus, analyzer: Optional[Analyzer] = None) -> None:
        self.corpus = corpus
        self.analyzer = analyzer if analyzer is not None else default_analyzer()
        self._cache: Dict[Tuple[str, Section], Tuple[str, ...]] = {}
        # Plain ints (not registry counters): tokens() is too hot for a
        # lock per lookup.  PatternSetBuilder.build publishes them.
        self.cache_hits = 0
        self.cache_misses = 0

    def tokens(self, paper_id: str, section: Section) -> Tuple[str, ...]:
        key = (paper_id, section)
        cached = self._cache.get(key)
        if cached is None:
            self.cache_misses += 1
            text = self.corpus.paper(paper_id).section_text(section)
            cached = tuple(self.analyzer.analyze(text))
            self._cache[key] = cached
        else:
            self.cache_hits += 1
        return cached

    def all_tokens(self, paper_id: str) -> Tuple[str, ...]:
        """Concatenation over textual sections, in section order."""
        parts: List[str] = []
        for section in TEXT_SECTIONS:
            parts.extend(self.tokens(paper_id, section))
        return tuple(parts)

    def evict_paper(self, paper_id: str) -> None:
        """Drop one paper's cached token sequences (idempotent).

        Used when a paper leaves the corpus: its entries would otherwise
        pin dead token tuples and could mask a later re-add with changed
        text under the same id.
        """
        for section in TEXT_SECTIONS:
            self._cache.pop((paper_id, section), None)
