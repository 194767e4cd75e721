"""Pattern construction, joining, scoring, and matching (section 3.3).

A (regular) pattern is three tuples ``<left, middle, right>`` of analysed
terms: ``middle`` is a *significant term* occurrence, ``left``/``right``
are the words surrounding it in a training paper.  Significant terms come
from two sources -- words/phrases of the context term itself, and frequent
phrases mined apriori-style from the context's training (annotation
evidence) papers.

Two extended pattern kinds are built "by virtually walking from one
pattern to another":

- **side-joined** -- P1's right tuple equals P2's left tuple; the join
  bridges them into one longer pattern.
- **middle-joined** -- P1's middle overlaps P2's left/right tuple; the two
  middles merge, weighted by each pattern's DegreeOfOverlap.

Pattern scores follow the published formula:

    RegularPatternScore = BaseScore * (1 / PaperCoverage)^t
    BaseScore = MiddleTypeScore + TotalTermScore
                + c * (PatternOccFreq + PatternPaperFreq)

with MiddleTypeScore graded high/higher/highest for frequent-only /
context-only / mixed middles; TotalTermScore summing the selectivity of
context-term words (selectivity = scarcity of the word across all
ontology term names); PaperCoverage the corpus-wide frequency of the
middle tuple; PatternOccFreq / PatternPaperFreq the pattern's and its
middle's frequency in the training papers.

Where the ICDE text is ambiguous (exact join tuple arithmetic, window
widths), the interpretation implemented here is documented inline; each
choice preserves the scoring semantics the evaluation relies on.
"""

from __future__ import annotations

import enum
import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.corpus.corpus import Corpus
from repro.corpus.paper import Section, TEXT_SECTIONS
from repro.index.backends.base import SearchBackend
from repro.obs import get_registry
from repro.ontology.ontology import Ontology
from repro.text.analyze import Analyzer, default_analyzer
from repro.text.phrases import FrequentPhraseMiner

Terms = Tuple[str, ...]


class PatternKind(str, enum.Enum):
    REGULAR = "regular"
    SIDE_JOINED = "side_joined"
    MIDDLE_JOINED = "middle_joined"


@dataclass(frozen=True)
class Pattern:
    """One scored pattern of a context."""

    left: Terms
    middle: Terms
    right: Terms
    kind: PatternKind
    score: float

    def key(self) -> Tuple[Terms, Terms, Terms]:
        return (self.left, self.middle, self.right)


@dataclass
class PatternSet:
    """All patterns of one context, ready for matching."""

    term_id: str
    patterns: List[Pattern] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.patterns)

    def middles(self) -> Set[Terms]:
        """Distinct middle tuples (the simplified-matching alphabet)."""
        return {p.middle for p in self.patterns}

    def by_first_middle_word(self) -> Dict[str, List[Pattern]]:
        """Index patterns by the first word of their middle, for scanning."""
        result: Dict[str, List[Pattern]] = {}
        for pattern in self.patterns:
            if pattern.middle:
                result.setdefault(pattern.middle[0], []).append(pattern)
        return result


class AnalyzedPaperCache:
    """Analysed token sequences per (paper, section), computed once."""

    def __init__(self, corpus: Corpus, analyzer: Optional[Analyzer] = None) -> None:
        self.corpus = corpus
        self.analyzer = analyzer if analyzer is not None else default_analyzer()
        self._cache: Dict[Tuple[str, Section], Terms] = {}
        # Plain ints (not registry counters): tokens() is too hot for a
        # lock per lookup.  PatternSetBuilder.build publishes them.
        self.cache_hits = 0
        self.cache_misses = 0

    def tokens(self, paper_id: str, section: Section) -> Terms:
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

    def all_tokens(self, paper_id: str) -> Terms:
        """Concatenation over textual sections, in section order."""
        parts: List[str] = []
        for section in TEXT_SECTIONS:
            parts.extend(self.tokens(paper_id, section))
        return tuple(parts)

    # -- (de)serialisation ------------------------------------------------------

    def warm(self) -> None:
        """Analyse every (paper, section) pair once, filling the cache."""
        for paper_id in self.corpus.paper_ids():
            for section in TEXT_SECTIONS:
                self.tokens(paper_id, section)

    def warm_paper(self, paper_id: str) -> None:
        """Analyse one paper's sections (incremental counterpart of warm)."""
        for section in TEXT_SECTIONS:
            self.tokens(paper_id, section)

    def evict_paper(self, paper_id: str) -> None:
        """Drop one paper's cached token sequences (idempotent).

        Used when a paper leaves the corpus: its entries would otherwise
        pin dead token tuples and could mask a later re-add with changed
        text under the same id.
        """
        for section in TEXT_SECTIONS:
            self._cache.pop((paper_id, section), None)

    def to_payload(self) -> Dict[str, Dict[str, List[str]]]:
        """JSON-able snapshot of every cached token sequence."""
        papers: Dict[str, Dict[str, List[str]]] = {}
        for (paper_id, section), tokens in self._cache.items():
            papers.setdefault(paper_id, {})[section.value] = list(tokens)
        return {"papers": papers}

    @classmethod
    def from_payload(
        cls, payload: Mapping, corpus: Corpus, analyzer: Optional[Analyzer] = None
    ) -> "AnalyzedPaperCache":
        """Rebuild a warmed cache from :meth:`to_payload` output."""
        cache = cls(corpus, analyzer)
        for paper_id, sections in payload["papers"].items():
            for section_value, tokens in sections.items():
                cache._cache[(paper_id, Section(section_value))] = tuple(tokens)
        return cache


def find_occurrences(tokens: Sequence[str], phrase: Terms) -> List[int]:
    """Start offsets of contiguous ``phrase`` occurrences in ``tokens``."""
    if not phrase or len(tokens) < len(phrase):
        return []
    first = phrase[0]
    n = len(phrase)
    hits = []
    for i, token in enumerate(tokens[: len(tokens) - n + 1]):
        if token == first and tuple(tokens[i : i + n]) == phrase:
            hits.append(i)
    return hits


class PatternSetBuilder:
    """Builds the scored :class:`PatternSet` of each context.

    Parameters
    ----------
    window:
        Width (in analysed terms) of the left/right surround captured
        around each significant-term occurrence.
    min_phrase_support / max_phrase_length:
        Apriori miner knobs for frequent-phrase significant terms.
    max_regular_patterns:
        Keep only the top-scored regular patterns per context (caps the
        quadratic join stage and matching cost).
    max_joined_pairs:
        Cap on pattern pairs examined for each extended-join kind.
    coverage_exponent (t) / frequency_coefficient (c):
        The ``t`` and ``c`` constants of the scoring formula.
    build_extended:
        The simplified builder of section 4 sets this False ("extended
        patterns were not used").

    Raises ``ValueError`` for a negative ``window``,
    ``max_regular_patterns`` or ``max_joined_pairs`` and for a non-finite
    ``coverage_exponent`` or ``frequency_coefficient``.
    """

    def __init__(
        self,
        ontology: Ontology,
        corpus: Corpus,
        index: SearchBackend,
        token_cache: Optional[AnalyzedPaperCache] = None,
        window: int = 2,
        min_phrase_support: int = 2,
        max_phrase_length: int = 3,
        max_regular_patterns: int = 40,
        max_joined_pairs: int = 400,
        coverage_exponent: float = 0.35,
        frequency_coefficient: float = 1.0,
        build_extended: bool = True,
    ) -> None:
        for name, count in (
            ("window", window),
            ("max_regular_patterns", max_regular_patterns),
            ("max_joined_pairs", max_joined_pairs),
        ):
            if count < 0:
                raise ValueError(f"{name} must be >= 0, got {count}")
        for name, constant in (
            ("coverage_exponent", coverage_exponent),
            ("frequency_coefficient", frequency_coefficient),
        ):
            if not math.isfinite(constant):
                raise ValueError(f"{name} must be finite, got {constant}")
        self.ontology = ontology
        self.corpus = corpus
        self.index = index
        self.tokens = (
            token_cache
            if token_cache is not None
            else AnalyzedPaperCache(corpus, index.analyzer)
        )
        self.window = window
        self.min_phrase_support = min_phrase_support
        self.max_phrase_length = max_phrase_length
        self.max_regular_patterns = max_regular_patterns
        self.max_joined_pairs = max_joined_pairs
        self.coverage_exponent = coverage_exponent
        self.frequency_coefficient = frequency_coefficient
        self.build_extended = build_extended
        self._term_word_df: Optional[Dict[str, int]] = None
        self._word_paper_cache: Dict[str, frozenset] = {}
        self._miner = FrequentPhraseMiner(
            min_support=min_phrase_support, max_length=max_phrase_length
        )

    # -- public API -----------------------------------------------------------

    def build(self, term_id: str, training_paper_ids: Sequence[str]) -> PatternSet:
        """Construct, join, and score the pattern set of one context."""
        registry = get_registry()
        context_words = self._context_term_words(term_id)
        training_tokens = [
            self.tokens.all_tokens(pid) for pid in training_paper_ids
        ]
        significant = self._significant_terms(context_words, training_tokens)
        if not significant:
            return PatternSet(term_id=term_id)

        occ, papers = self._extract_regular(training_tokens, significant)
        if not occ:
            return PatternSet(term_id=term_id)

        registry.counter("patterns.builder.mined").inc(len(occ))
        patterns = self._score_regular(
            occ, papers, context_words, significant, len(training_tokens)
        )
        if self.build_extended:
            patterns.extend(self._side_joined(patterns))
            patterns.extend(self._middle_joined(patterns))
        registry.counter("patterns.builder.kept").inc(len(patterns))
        registry.gauge("patterns.tokens.cache_hits").set(self.tokens.cache_hits)
        registry.gauge("patterns.tokens.cache_misses").set(
            self.tokens.cache_misses
        )
        return PatternSet(term_id=term_id, patterns=patterns)

    # -- significant terms -------------------------------------------------------

    def _context_term_words(self, term_id: str) -> Terms:
        """Analysed words of the context term name (stemmed, no stopwords)."""
        name = self.ontology.term(term_id).name
        return tuple(self.tokens.analyzer.analyze(name))

    def _significant_terms(
        self, context_words: Terms, training_tokens: Sequence[Terms]
    ) -> Dict[Terms, str]:
        """Map of significant phrase -> source ('context'/'frequent'/'both').

        Source (i): every analysed word of the context term and the full
        analysed name phrase.  Source (ii): apriori frequent phrases of the
        training papers.  The apriori-style *combination* happens naturally:
        multiword phrases only survive if their sub-phrases are frequent.
        """
        result: Dict[Terms, str] = {}
        for word in context_words:
            result[(word,)] = "context"
        if len(context_words) > 1:
            result[context_words] = "context"
        for phrase in self._miner.mine(list(training_tokens)):
            if phrase.words in result:
                result[phrase.words] = "both"
            else:
                result[phrase.words] = "frequent"
        return result

    # -- regular pattern extraction ---------------------------------------------

    def _extract_regular(
        self,
        training_tokens: Sequence[Terms],
        significant: Mapping[Terms, str],
    ) -> Tuple[Counter, Counter]:
        """Occurrences of <left, middle, right> windows around significant terms.

        Returns two counters over the same pattern keys: total occurrences,
        and distinct training papers containing the pattern.  Each paper is
        scanned once; at each token only the phrases starting with it are
        tried, so nested phrases ("rna polymerase" and "rna") both count.
        """
        by_first: Dict[str, List[Tuple[Terms, int]]] = {}
        for phrase in significant:
            if phrase:
                by_first.setdefault(phrase[0], []).append((phrase, len(phrase)))
        window = self.window
        occ: Counter = Counter()
        papers: Counter = Counter()
        for tokens in training_tokens:
            keys = []
            for start, token in enumerate(tokens):
                phrases = by_first.get(token)
                if phrases is None:
                    continue
                left = tokens[max(start - window, 0) : start]
                for phrase, length in phrases:
                    end = start + length
                    # A slice running off the end is shorter, so never equal.
                    if length == 1 or tokens[start:end] == phrase:
                        keys.append((left, phrase, tokens[end : end + window]))
            occ.update(keys)
            papers.update(set(keys))
        return occ, papers

    # -- scoring -------------------------------------------------------------------

    def _score_regular(
        self,
        occ: Mapping[Tuple[Terms, Terms, Terms], int],
        papers: Mapping[Tuple[Terms, Terms, Terms], int],
        context_words: Terms,
        significant: Mapping[Terms, str],
        n_training: int,
    ) -> List[Pattern]:
        """The ``max_regular_patterns`` best regular patterns, best first.

        Every term but the occurrence frequency depends on the middle
        alone, so it is computed once per distinct middle.  Those terms are
        the formula's left-most summands and its last factor, so hoisting
        them leaves every score bit-identical.  Keys are unique, so
        ``(-score, key)`` orders them totally and only the kept ones
        become :class:`Pattern` objects.
        """
        context_word_set = set(context_words)
        n = max(n_training, 1)
        papers_by_middle: Dict[Terms, int] = {}
        for (_, middle, __), count in papers.items():
            papers_by_middle[middle] = papers_by_middle.get(middle, 0) + count
        per_middle: Dict[Terms, Tuple[float, float, float]] = {}
        for middle, paper_count in papers_by_middle.items():
            type_and_terms = self._middle_type_score(
                middle, context_word_set, significant
            ) + sum(
                self._word_selectivity(word)
                for word in middle
                if word in context_word_set
            )
            coverage_factor = (
                1.0 / self._paper_coverage(middle)
            ) ** self.coverage_exponent
            per_middle[middle] = (
                type_and_terms,
                min(paper_count / n, 1.0),
                coverage_factor,
            )
        c = self.frequency_coefficient
        scored = []
        for key, count in occ.items():
            type_and_terms, paper_freq, coverage_factor = per_middle[key[1]]
            base = type_and_terms + c * (count / n + paper_freq)
            scored.append((-(base * coverage_factor), key))
        return [
            Pattern(left, middle, right, PatternKind.REGULAR, -neg_score)
            for neg_score, (left, middle, right) in heapq.nsmallest(
                self.max_regular_patterns, scored
            )
        ]

    @staticmethod
    def _middle_type_score(
        middle: Terms,
        context_words: Set[str],
        significant: Mapping[Terms, str],
    ) -> float:
        """High (1) frequent-only, higher (2) context-only, highest (3) both."""
        source = significant.get(middle)
        if source == "both":
            return 3.0
        has_context = any(word in context_words for word in middle)
        if source == "frequent" and has_context:
            return 3.0
        if has_context:
            return 2.0
        return 1.0

    def _word_selectivity(self, word: str) -> float:
        """Scarcity of ``word`` across all ontology term names, in (0, 1].

        A word appearing in one term name has selectivity 1; a word in
        every term name approaches 0.  This is the "occurrence frequency
        among all context terms" of scoring criterion (2).
        """
        if self._term_word_df is None:
            df: Dict[str, int] = {}
            for tid in self.ontology.term_ids():
                words = set(self.tokens.analyzer.analyze(self.ontology.term(tid).name))
                for w in words:
                    df[w] = df.get(w, 0) + 1
            self._term_word_df = df
        count = self._term_word_df.get(word, 1)
        return 1.0 / count

    def _paper_coverage(self, middle: Terms) -> float:
        """Fraction of all corpus papers containing the middle tuple.

        Computed conjunctively from the inverted index (papers containing
        *all* middle words) -- an upper bound on exact phrase coverage
        that is cheap and order-preserving for the (1/coverage)^t factor.
        Floors at one paper so the factor stays finite.
        """
        n_papers = max(self.index.n_papers, 1)
        return max(len(self.papers_containing_all(middle)), 1) / n_papers

    def papers_containing_all(self, words: Terms) -> frozenset:
        """Corpus papers containing every word of ``words`` (cached lookups)."""
        if not words:
            return frozenset()
        sets = []
        for word in words:
            cached = self._word_paper_cache.get(word)
            if cached is None:
                cached = frozenset(self.index.papers_containing(word))
                self._word_paper_cache[word] = cached
            sets.append(cached)
        sets.sort(key=len)
        result = set(sets[0])
        for other in sets[1:]:
            result &= other
            if not result:
                break
        return frozenset(result)

    # -- extended patterns ------------------------------------------------------------

    def _side_joined(self, patterns: Sequence[Pattern]) -> List[Pattern]:
        """Join P1, P2 where P1.right == P2.left (non-empty overlap).

        Joined pattern: <P1.left, P1.middle + P1.right + P2.middle,
        P2.right>, scored (Score(P1) + Score(P2))^2 per section 3.3.
        """
        joined: List[Pattern] = []
        by_left: Dict[Terms, List[Pattern]] = {}
        for pattern in patterns:
            if pattern.left:
                by_left.setdefault(pattern.left, []).append(pattern)
        pairs_examined = 0
        seen: Set[Tuple[Terms, Terms, Terms]] = set()
        for p1 in patterns:
            if not p1.right:
                continue
            for p2 in by_left.get(p1.right, ()):
                if p1 is p2:
                    continue
                pairs_examined += 1
                if pairs_examined > self.max_joined_pairs:
                    return joined
                middle = p1.middle + p1.right + p2.middle
                key = (p1.left, middle, p2.right)
                if key in seen:
                    continue
                seen.add(key)
                joined.append(
                    Pattern(
                        left=p1.left,
                        middle=middle,
                        right=p2.right,
                        kind=PatternKind.SIDE_JOINED,
                        score=(p1.score + p2.score) ** 2,
                    )
                )
        return joined

    def _middle_joined(self, patterns: Sequence[Pattern]) -> List[Pattern]:
        """Join P1, P2 where P1.middle overlaps P2.left/right.

        Joined middle merges both middles (P2's new words appended);
        score = DOO1 * Score(P1) + DOO2 * Score(P2) where DOOi is the
        proportion of pattern i's middle contained in the *other*
        pattern's left/right tuples.
        """
        joined: List[Pattern] = []
        pairs_examined = 0
        seen: Set[Tuple[Terms, Terms, Terms]] = set()
        for p1 in patterns:
            middle_set = set(p1.middle)
            for p2 in patterns:
                if p1 is p2:
                    continue
                pairs_examined += 1
                if pairs_examined > self.max_joined_pairs:
                    return joined
                p2_sides = set(p2.left) | set(p2.right)
                overlap1 = middle_set & p2_sides
                if not overlap1:
                    continue
                p1_sides = set(p1.left) | set(p1.right)
                overlap2 = set(p2.middle) & p1_sides
                doo1 = len(overlap1) / max(len(p1.middle), 1)
                doo2 = len(overlap2) / max(len(p2.middle), 1)
                middle = p1.middle + tuple(
                    w for w in p2.middle if w not in middle_set
                )
                key = (p1.left, middle, p2.right)
                if key in seen:
                    continue
                seen.add(key)
                joined.append(
                    Pattern(
                        left=p1.left,
                        middle=middle,
                        right=p2.right,
                        kind=PatternKind.MIDDLE_JOINED,
                        score=doo1 * p1.score + doo2 * p2.score,
                    )
                )
        return joined


#: Section weights for matching strength M(P, pt): a match in the title or
#: index terms speaks louder than one deep in the body (criterion (1) of
#: the matching-strength definition).
MATCH_SECTION_WEIGHTS: Mapping[Section, float] = {
    Section.TITLE: 1.0,
    Section.INDEX_TERMS: 0.9,
    Section.ABSTRACT: 0.8,
    Section.BODY: 0.6,
}


def match_strength(
    pattern: Pattern,
    tokens: Sequence[str],
    start: int,
    section: Section,
) -> float:
    """M(P, pt) for one occurrence of ``pattern.middle`` at ``start``.

    Combines (1) the section weight and (2) the similarity between the
    pattern's surround and the matching phrase's observed surround
    (Jaccard over the left and right windows; a middle-only match still
    counts at half strength).
    """
    weight = MATCH_SECTION_WEIGHTS.get(section, 0.6)
    window = max(len(pattern.left), len(pattern.right), 1)
    observed_left = set(tokens[max(start - window, 0) : start])
    end = start + len(pattern.middle)
    observed_right = set(tokens[end : end + window])
    side_similarity = 0.0
    sides = 0
    if pattern.left:
        sides += 1
        union = set(pattern.left) | observed_left
        side_similarity += (
            len(set(pattern.left) & observed_left) / len(union) if union else 0.0
        )
    if pattern.right:
        sides += 1
        union = set(pattern.right) | observed_right
        side_similarity += (
            len(set(pattern.right) & observed_right) / len(union) if union else 0.0
        )
    surround = side_similarity / sides if sides else 0.0
    return weight * (0.5 + 0.5 * surround)


def score_papers_against_patterns(
    pattern_set: PatternSet,
    token_cache: AnalyzedPaperCache,
    paper_ids: Iterable[str],
    middle_only: bool = False,
) -> Dict[str, float]:
    """Score(P) = sum over matching patterns of Score(pt) * M(P, pt), per paper.

    With ``middle_only`` (the simplified variant of section 4), matching
    strength reduces to the section weight of each middle-tuple hit.  The
    first-middle-word index of ``pattern_set`` is built once and shared by
    every paper.
    """
    by_first = pattern_set.by_first_middle_word()
    if not by_first:
        return dict.fromkeys(paper_ids, 0.0)
    scores: Dict[str, float] = {}
    for paper_id in paper_ids:
        total = 0.0
        for section in TEXT_SECTIONS:
            tokens = token_cache.tokens(paper_id, section)
            if not tokens:
                continue
            section_weight = MATCH_SECTION_WEIGHTS.get(section, 0.6)
            for i, token in enumerate(tokens):
                for pattern in by_first.get(token, ()):
                    n = len(pattern.middle)
                    if tuple(tokens[i : i + n]) != pattern.middle:
                        continue
                    if middle_only:
                        total += pattern.score * section_weight
                    else:
                        total += pattern.score * match_strength(
                            pattern, tokens, i, section
                        )
        scores[paper_id] = total
    return scores
