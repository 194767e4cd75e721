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
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.cosine import ordered_sums
from repro.corpus.paper import Section, TEXT_SECTIONS
from repro.index.inverted import InvertedIndex
from repro.obs import get_registry
from repro.ontology.ontology import Ontology
from repro.text.analyze import AnalyzedPaperCache
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


def _scan(
    training_tokens: Sequence[Terms], middles: Sequence[Terms]
) -> Tuple[List[int], List[int], List[int]]:
    """Every occurrence of a middle in the training papers.

    Returns each occurrence's start within its paper and its index into
    ``middles``, paper by paper, and the number of occurrences per paper.
    Each paper is scanned once; at each token only the phrases starting
    with it are tried, one lookup per phrase length, so nested phrases
    ("rna polymerase" and "rna") both count.
    """
    index_of = {phrase: index for index, phrase in enumerate(middles)}
    # Per first word: the middle index of the word itself (or None), and
    # the ascending lengths of the longer phrases starting with it.
    by_first: Dict[str, Tuple[Optional[int], List[int]]] = {}
    for phrase in middles:
        single, lengths = by_first.get(phrase[0], (None, []))
        if len(phrase) == 1:
            single = index_of[phrase]
        elif len(phrase) not in lengths:
            lengths = sorted(lengths + [len(phrase)])
        by_first[phrase[0]] = (single, lengths)
    starts: List[int] = []
    hit_middles: List[int] = []
    add_start, add_middle = starts.append, hit_middles.append
    hits_per_paper: List[int] = []
    for tokens in training_tokens:
        before = len(starts)
        n_tokens = len(tokens)
        for start, token in enumerate(tokens):
            entry = by_first.get(token)
            if entry is None:
                continue
            single, lengths = entry
            if single is not None:
                add_start(start)
                add_middle(single)
            for length in lengths:
                # A slice running off the end would be a shorter phrase.
                if start + length > n_tokens:
                    break
                index = index_of.get(tokens[start : start + length])
                if index is not None:
                    add_start(start)
                    add_middle(index)
        hits_per_paper.append(len(starts) - before)
    return starts, hit_middles, hits_per_paper


def _compact_dtype(bound: int) -> np.dtype:
    """``uint16`` when every value is at most ``bound``, else ``uint32``."""
    return np.dtype(np.uint16 if bound <= 0xFFFF else np.uint32)


@dataclass(frozen=True)
class PatternExtraction:
    """One context's regular-pattern occurrences, as sorted int columns.

    Row ``i`` is the pattern key ``(left, middle, right)`` with
    ``count[i]`` occurrences in the training papers.  ``left`` and
    ``right`` hold ``window`` token ids per row: id ``k`` is
    ``vocabulary[k - 1]``, and 0 pads a tuple a paper edge cut short.
    ``middle[i]`` indexes ``middles``.  ``vocabulary`` and ``middles``
    are sorted and the pad sorts first, so row order is the
    ``(left, middle, right)`` string-tuple order.

    Per middle, ``middle_base`` is the fixed part of the score
    (``MiddleTypeScore + TotalTermScore``) and ``middle_papers`` the
    number of distinct (key, training paper) pairs, the numerator of
    ``PatternPaperFreq``.  Nothing here reads the corpus beyond the
    training papers, so a record stays valid until one of them changes;
    ``settings`` are the extraction knobs that made it.
    """

    settings: Tuple[int, int, int]
    n_training: int
    vocabulary: Tuple[str, ...]
    middles: Tuple[Terms, ...]
    middle_base: np.ndarray
    middle_papers: np.ndarray
    left: np.ndarray
    middle: np.ndarray
    right: np.ndarray
    count: np.ndarray

    @classmethod
    def from_columns(
        cls,
        settings: Tuple[int, int, int],
        n_training: int,
        vocabulary: Sequence[str],
        middles: Sequence[Terms],
        middle_base: np.ndarray,
        middle_papers: np.ndarray,
        left: np.ndarray,
        middle: np.ndarray,
        right: np.ndarray,
        count: np.ndarray,
    ) -> "PatternExtraction":
        """The record with every int column in its most compact dtype.

        Token ids are bounded by the vocabulary size plus the pad, middle
        indices by the number of middles, and the two counts by their
        maxima, so a record's dtypes follow from its values alone.
        """
        token_dtype = _compact_dtype(len(vocabulary) + 1)
        return cls(
            settings=tuple(settings),
            n_training=n_training,
            vocabulary=tuple(vocabulary),
            middles=tuple(middles),
            middle_base=np.asarray(middle_base, dtype=np.float64),
            middle_papers=middle_papers.astype(
                _compact_dtype(int(middle_papers.max(initial=0)))
            ),
            left=left.astype(token_dtype),
            middle=middle.astype(_compact_dtype(len(middles))),
            right=right.astype(token_dtype),
            count=count.astype(_compact_dtype(int(count.max(initial=0)))),
        )

    def __len__(self) -> int:
        return len(self.count)

    @property
    def nbytes(self) -> int:
        """Bytes held by the column arrays."""
        return sum(
            column.nbytes
            for column in (
                self.middle_base,
                self.middle_papers,
                self.left,
                self.middle,
                self.right,
                self.count,
            )
        )

    def _decode(self, ids: np.ndarray) -> Terms:
        vocabulary = self.vocabulary
        return tuple(vocabulary[i - 1] for i in ids.tolist() if i)

    def key(self, row: int) -> Tuple[Terms, Terms, Terms]:
        """The ``(left, middle, right)`` string tuples of ``row``."""
        return (
            self._decode(self.left[row]),
            self.middles[int(self.middle[row])],
            self._decode(self.right[row]),
        )


#: ``term_id -> (training paper ids, extraction)``: the extraction cache a
#: :class:`PatternSetBuilder` reads and fills.
Extractions = Dict[str, Tuple[Tuple[str, ...], PatternExtraction]]

#: One paper's analysed token sequences, one per section of ``TEXT_SECTIONS``.
Sections = Sequence[Terms]


def find_hits(
    papers: Sequence[Tuple[int, Sections]], middles: Sequence[Terms]
) -> Dict[Terms, "MiddleHits"]:
    """Every occurrence of each of ``middles`` in ``papers``' sections.

    ``papers`` pairs a paper key with its sections; ``middles`` are
    distinct and non-empty.  One :func:`_scan` walks each section once
    for all middles, so occurrences never straddle two sections and
    nested or overlapping ones all count.  Middles that occur nowhere
    get no entry.
    """
    sequences = [tokens for _, sections in papers for tokens in sections]
    starts, hit_middles, hits_per_sequence = _scan(sequences, middles)
    if not starts:
        return {}
    n_sections = len(TEXT_SECTIONS)
    sequence = np.repeat(np.arange(len(sequences)), hits_per_sequence)
    keys = np.array([key for key, _ in papers], dtype=np.int64)
    middle = np.array(hit_middles, dtype=np.int64)
    # A stable sort keeps each middle's rows in (paper, section, start) order.
    order = np.argsort(middle, kind="stable")
    paper = keys[sequence // n_sections][order]
    section = (sequence % n_sections)[order]
    position = np.array(starts, dtype=np.int64)[order]
    bounds = np.searchsorted(middle[order], np.arange(len(middles) + 1))
    return {
        middles[i]: MiddleHits.from_arrays(
            paper[lo:hi], section[lo:hi], position[lo:hi]
        )
        for i, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        if hi > lo
    }


@dataclass(frozen=True)
class MiddleHits:
    """Every occurrence of one middle in the corpus, as int columns.

    Row ``i`` is an occurrence starting at token ``position[i]`` of
    section ``TEXT_SECTIONS[section[i]]`` of the paper whose
    :class:`PatternMemo` key is ``paper[i]``.  One paper's rows are
    contiguous and in (section, position) order.
    """

    paper: np.ndarray
    section: np.ndarray
    position: np.ndarray

    @classmethod
    def from_arrays(
        cls, paper: np.ndarray, section: np.ndarray, position: np.ndarray
    ) -> "MiddleHits":
        """The columns in their most compact dtypes."""
        return cls(
            paper.astype(_compact_dtype(int(paper.max(initial=0)))),
            section.astype(np.uint8),
            position.astype(_compact_dtype(int(position.max(initial=0)))),
        )

    def __len__(self) -> int:
        return len(self.paper)

    @property
    def nbytes(self) -> int:
        """Bytes held by the column arrays."""
        return self.paper.nbytes + self.section.nbytes + self.position.nbytes

    def without(self, key: int) -> "MiddleHits":
        """These hits less the rows of paper ``key``."""
        keep = self.paper != key
        return MiddleHits(self.paper[keep], self.section[keep], self.position[keep])

    @classmethod
    def concat(cls, pieces: Sequence["MiddleHits"]) -> "MiddleHits":
        """The rows of ``pieces``, in order."""
        if len(pieces) == 1:
            return pieces[0]
        return cls.from_arrays(
            *(
                np.concatenate([getattr(piece, name) for piece in pieces])
                if pieces
                else np.zeros(0, dtype=np.int64)
                for name in ("paper", "section", "position")
            )
        )


class PatternMemo:
    """Pattern state kept across corpus deltas, read and filled by builds.

    - ``extractions``: per context, the :class:`PatternExtraction` of
      its training papers, valid while their ids and text are unchanged;
    - ``coverage``: per middle, the number of corpus papers containing
      all of its words (the ``PaperCoverage`` numerator);
    - ``hits``: per middle, its :class:`MiddleHits` over the corpus.

    The last two describe the whole corpus, so whoever changes it calls
    :meth:`apply_delta` with the old text of every removed paper and the
    new text of every added one (``SubstrateStore.apply_delta`` does).
    Extractions read nothing of the corpus but their training papers,
    so :meth:`seed` can restore them from a workspace file.
    """

    def __init__(self) -> None:
        self.extractions: Extractions = {}
        self.coverage: Dict[Terms, int] = {}
        self.hits: Dict[Terms, MiddleHits] = {}
        #: Paper id per key (the key of a removed paper stays reserved).
        self.paper_ids: List[str] = []
        self._keys: Dict[str, int] = {}

    def __bool__(self) -> bool:
        return bool(self.extractions or self.coverage or self.hits)

    def key_of(self, paper_id: str) -> Optional[int]:
        return self._keys.get(paper_id)

    def paper_key(self, paper_id: str) -> int:
        """The int key ``hits`` columns use for ``paper_id``."""
        key = self._keys.get(paper_id)
        if key is None:
            key = self._keys[paper_id] = len(self.paper_ids)
            self.paper_ids.append(paper_id)
        return key

    @property
    def nbytes(self) -> int:
        """Bytes held by the extraction and hit columns."""
        return sum(record.nbytes for _, record in self.extractions.values()) + sum(
            hits.nbytes for hits in self.hits.values()
        )

    def seed(self, extractions: Extractions) -> int:
        """Add the records of ``extractions`` for contexts the memo lacks.

        A record already held was computed from the live corpus, so it
        wins.  A seeded record is reused only while its training ids and
        settings match the builder's, like any other.  Returns the
        number of records added.
        """
        added = 0
        for term_id, record in extractions.items():
            if term_id not in self.extractions:
                self.extractions[term_id] = record
                added += 1
        registry = get_registry()
        registry.counter("patterns.extraction.loaded").inc(added)
        registry.gauge("patterns.memo.bytes").set(self.nbytes)
        return added

    def apply_delta(
        self, removed: Mapping[str, Sections], added: Mapping[str, Sections]
    ) -> None:
        """Patch the memo for papers leaving and joining the corpus.

        ``removed`` maps each removed paper id to its old sections (which
        may be empty while the memo holds no coverage count or hit) and
        ``added`` each added id to its new ones; an id in both is a paper
        replaced in place.  Extractions listing a touched id are dropped.
        Coverage and hits are kept only for middles of the surviving
        extractions; for each of those, a touched paper containing all of
        the middle's words moves its count by one and has its hit rows
        dropped (removed) or scanned (added), so both stay exact.
        """
        touched = set(removed) | set(added)
        for term_id, (training, _) in list(self.extractions.items()):
            if not touched.isdisjoint(training):
                del self.extractions[term_id]
        live = set(
            chain.from_iterable(
                record.middles for _, record in self.extractions.values()
            )
        )
        self.coverage = {m: n for m, n in self.coverage.items() if m in live}
        self.hits = {m: h for m, h in self.hits.items() if m in live}
        by_first: Dict[str, List[Terms]] = {}
        for middle in self.coverage.keys() | self.hits.keys():
            by_first.setdefault(middle[0], []).append(middle)
        patched = 0
        for sign, papers in ((-1, removed), (1, added)):
            for paper_id, sections in papers.items():
                words = set(chain.from_iterable(sections))
                held: List[Terms] = []
                for word in words:
                    for middle in by_first.get(word, ()):
                        if not words.issuperset(middle):
                            continue
                        if middle in self.coverage:
                            self.coverage[middle] += sign
                            patched += 1
                        if middle in self.hits:
                            held.append(middle)
                if sign > 0:
                    found = find_hits([(self.paper_key(paper_id), sections)], held)
                    for middle, rows in found.items():
                        self.hits[middle] = MiddleHits.concat([self.hits[middle], rows])
                elif paper_id in self._keys:
                    key = self._keys[paper_id]
                    for middle in held:
                        self.hits[middle] = self.hits[middle].without(key)
        registry = get_registry()
        registry.counter("patterns.coverage.patched").inc(patched)
        registry.gauge("patterns.memo.bytes").set(self.nbytes)


class PatternSetBuilder:
    """Builds the scored :class:`PatternSet` of each context.

    Parameters
    ----------
    token_cache:
        The corpus's analysed token sequences; every paper the builder
        reads comes from here.
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
    memo:
        The :class:`PatternMemo` to read and fill (default: a private
        one).  :meth:`build` reuses a context's :class:`PatternExtraction`
        while its training paper ids and this builder's extraction knobs
        are unchanged; coverage counts and middle hits are reused while
        the corpus is unchanged, so whoever changes it must patch the
        memo (``SubstrateStore.apply_delta`` does).

    Raises ``ValueError`` for a negative ``window``,
    ``max_regular_patterns`` or ``max_joined_pairs`` and for a non-finite
    ``coverage_exponent`` or ``frequency_coefficient``.
    """

    def __init__(
        self,
        ontology: Ontology,
        index: InvertedIndex,
        token_cache: AnalyzedPaperCache,
        window: int = 2,
        min_phrase_support: int = 2,
        max_phrase_length: int = 3,
        max_regular_patterns: int = 40,
        max_joined_pairs: int = 400,
        coverage_exponent: float = 0.35,
        frequency_coefficient: float = 1.0,
        build_extended: bool = True,
        memo: Optional[PatternMemo] = None,
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
        self.index = index
        self.tokens = token_cache
        self.window = window
        self.min_phrase_support = min_phrase_support
        self.max_phrase_length = max_phrase_length
        self.max_regular_patterns = max_regular_patterns
        self.max_joined_pairs = max_joined_pairs
        self.coverage_exponent = coverage_exponent
        self.frequency_coefficient = frequency_coefficient
        self.build_extended = build_extended
        self.memo = memo if memo is not None else PatternMemo()
        self._settings = (window, min_phrase_support, max_phrase_length)
        self._term_word_df: Optional[Dict[str, int]] = None
        self._word_paper_cache: Dict[str, frozenset] = {}
        self._miner = FrequentPhraseMiner(
            min_support=min_phrase_support, max_length=max_phrase_length
        )

    # -- public API -----------------------------------------------------------

    def build(self, term_id: str, training_paper_ids: Sequence[str]) -> PatternSet:
        """Construct, join, and score the pattern set of one context."""
        registry = get_registry()
        extraction = self._extraction(term_id, training_paper_ids)
        if not len(extraction):
            return PatternSet(term_id=term_id)

        registry.counter("patterns.builder.mined").inc(len(extraction))
        patterns = self._score_regular(extraction)
        if self.build_extended:
            patterns.extend(self._side_joined(patterns))
            patterns.extend(self._middle_joined(patterns))
        registry.counter("patterns.builder.kept").inc(len(patterns))
        registry.gauge("text.tokens.cache_hits").set(self.tokens.cache_hits)
        registry.gauge("text.tokens.cache_misses").set(
            self.tokens.cache_misses
        )
        return PatternSet(term_id=term_id, patterns=patterns)

    def _extraction(
        self, term_id: str, training_paper_ids: Sequence[str]
    ) -> PatternExtraction:
        """The context's :class:`PatternExtraction`, cached in the memo.

        A cached record is reused while it was extracted from the same
        training paper ids with this builder's extraction knobs.
        """
        training = tuple(training_paper_ids)
        extractions = self.memo.extractions
        cached = extractions.get(term_id)
        if (
            cached is not None
            and cached[0] == training
            and cached[1].settings == self._settings
        ):
            get_registry().counter("patterns.extraction.reused").inc()
            return cached[1]
        get_registry().counter("patterns.extraction.computed").inc()
        context_words = self._context_term_words(term_id)
        training_tokens = [self.tokens.all_tokens(pid) for pid in training]
        extraction = self._extract(
            context_words,
            training_tokens,
            self._significant_terms(context_words, training_tokens),
        )
        extractions[term_id] = (training, extraction)
        return extraction

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

    def _extract(
        self,
        context_words: Terms,
        training_tokens: Sequence[Terms],
        significant: Mapping[Terms, str],
    ) -> PatternExtraction:
        """Occurrences of <left, middle, right> windows around significant terms.

        :func:`_scan` records each occurrence's start and middle; the
        surrounding token ids are then gathered as arrays, and one
        ``np.lexsort`` over string ranks orders and groups the rows by
        key, counting occurrences per key and (key, paper) pairs per
        middle.
        """
        middles = sorted(phrase for phrase in significant if phrase)
        starts, hit_middles, hits_per_paper = _scan(training_tokens, middles)

        window = self.window
        vocabulary = sorted(set(chain.from_iterable(training_tokens)))
        rank = {token: i for i, token in enumerate(vocabulary, 1)}
        bounds = np.cumsum([0] + [len(tokens) for tokens in training_tokens])
        n_tokens = int(bounds[-1])
        # Token ids of every training token in paper order, then one pad
        # per window position so gathers past the last paper stay in range.
        ids = np.zeros(n_tokens + window, dtype=np.int64)
        ids[:n_tokens] = np.fromiter(
            map(rank.__getitem__, chain.from_iterable(training_tokens)),
            dtype=np.int64,
            count=n_tokens,
        )
        paper = np.repeat(
            np.arange(len(training_tokens), dtype=np.int64), hits_per_paper
        )
        local_start = np.array(starts, dtype=np.int64)
        start = local_start + bounds[paper]
        middle = np.array(hit_middles, dtype=np.int64)
        lengths = np.array([len(phrase) for phrase in middles], dtype=np.int64)
        end = start + lengths[middle]
        n_left = np.minimum(local_start, window)
        paper_end = bounds[paper + 1]
        left = np.zeros((len(start), window), dtype=np.int64)
        right = np.zeros((len(start), window), dtype=np.int64)
        for k in range(window):
            left[:, k] = np.where(k < n_left, ids[start - n_left + k], 0)
            right[:, k] = np.where(end + k < paper_end, ids[end + k], 0)

        # Sort by (left, middle, right, paper); lexsort's last key is primary.
        order = np.lexsort(
            (paper,) + tuple(right.T[::-1]) + (middle,) + tuple(left.T[::-1])
        )
        left, middle = left[order], middle[order]
        right, paper = right[order], paper[order]
        new_key = np.ones(len(order), dtype=bool)
        new_key[1:] = (
            (middle[1:] != middle[:-1])
            | (left[1:] != left[:-1]).any(axis=1)
            | (right[1:] != right[:-1]).any(axis=1)
        )
        new_pair = new_key.copy()
        new_pair[1:] |= paper[1:] != paper[:-1]
        first = np.flatnonzero(new_key)
        count = np.diff(np.append(first, len(order)))
        middle_papers = np.bincount(middle[new_pair], minlength=len(middles))

        # Keep only the middles and tokens that occur: both maps are
        # monotone, so row order is unchanged.
        kept_middles = np.flatnonzero(middle_papers)
        middle_row = np.zeros(len(middles), dtype=np.int64)
        middle_row[kept_middles] = np.arange(len(kept_middles))
        kept_ids = np.union1d([0], np.concatenate((left.ravel(), right.ravel())))
        id_row = np.zeros(len(vocabulary) + 1, dtype=np.int64)
        id_row[kept_ids] = np.arange(len(kept_ids))

        context_word_set = set(context_words)
        occurring = [middles[i] for i in kept_middles.tolist()]
        return PatternExtraction.from_columns(
            settings=self._settings,
            n_training=len(training_tokens),
            vocabulary=[vocabulary[i - 1] for i in kept_ids[1:].tolist()],
            middles=occurring,
            middle_base=np.array(
                [
                    self._middle_type_score(middle, context_word_set, significant)
                    + sum(
                        self._word_selectivity(word)
                        for word in middle
                        if word in context_word_set
                    )
                    for middle in occurring
                ],
                dtype=np.float64,
            ),
            middle_papers=middle_papers[kept_middles],
            left=id_row[left[first]],
            middle=middle_row[middle[first]],
            right=id_row[right[first]],
            count=count,
        )

    # -- scoring -------------------------------------------------------------------

    def _score_regular(self, extraction: PatternExtraction) -> List[Pattern]:
        """The ``max_regular_patterns`` best regular patterns, best first.

        Every term but the occurrence frequency depends on the middle
        alone, so it is computed once per distinct middle, the coverage
        factor from the memo's count over the index's current paper
        count.  The array expression
        keeps the formula's operation order, so every score is the float
        a per-key loop computes.  Rows are in key order, so sorting by
        ``(-score, row)`` orders them by ``(-score, key)``, and only the
        kept rows become :class:`Pattern` objects.
        """
        n = max(extraction.n_training, 1)
        coverage_factor = np.array(
            [
                (1.0 / self._paper_coverage(middle)) ** self.coverage_exponent
                for middle in extraction.middles
            ],
            dtype=np.float64,
        )
        paper_freq = np.minimum(extraction.middle_papers / n, 1.0)
        middle = extraction.middle.astype(np.intp)
        c = self.frequency_coefficient
        neg_score = -(
            (
                extraction.middle_base[middle]
                + c * (extraction.count / n + paper_freq[middle])
            )
            * coverage_factor[middle]
        )
        rows = np.lexsort((np.arange(len(neg_score)), neg_score))
        kept = rows[: self.max_regular_patterns]
        return [
            Pattern(*extraction.key(row), PatternKind.REGULAR, score)
            for row, score in zip(kept.tolist(), (-neg_score[kept]).tolist())
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

        Computed conjunctively (papers containing *all* middle words, see
        :meth:`coverage_count`) -- an upper bound on exact phrase
        coverage that is cheap and order-preserving for the
        (1/coverage)^t factor.  Floors at one paper so the factor stays
        finite.
        """
        n_papers = max(self.index.n_papers, 1)
        return max(self.coverage_count(middle), 1) / n_papers

    def coverage_count(self, middle: Terms) -> int:
        """Corpus papers containing every word of ``middle``, kept in the memo."""
        count = self.memo.coverage.get(middle)
        if count is None:
            count = len(self.papers_containing_all(middle))
            self.memo.coverage[middle] = count
        return count

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

    # -- matching -------------------------------------------------------------------

    def middle_hits(self, middles: Iterable[Terms]) -> Dict[Terms, MiddleHits]:
        """Where each of ``middles`` occurs in the corpus, kept in the memo.

        Middles new to the memo are found by one scan of the papers
        holding all the words of one of them
        (:meth:`papers_containing_all`): the index analyses the same
        sections with the same analyser as the token cache, so no other
        paper can hold one.
        """
        kept = self.memo.hits
        result = {middle: kept.get(middle) for middle in middles if middle}
        cold = [middle for middle, hits in result.items() if hits is None]
        if cold:
            candidates = sorted(
                set(chain.from_iterable(map(self.papers_containing_all, cold)))
            )
            pieces: Dict[Terms, List[MiddleHits]] = {middle: [] for middle in cold}
            # A few papers at a time bound the scan's Python int lists.
            for lo in range(0, len(candidates), _SCAN_PAPERS):
                papers = [
                    (
                        self.memo.paper_key(paper_id),
                        [self.tokens.tokens(paper_id, s) for s in TEXT_SECTIONS],
                    )
                    for paper_id in candidates[lo : lo + _SCAN_PAPERS]
                ]
                for middle, rows in find_hits(papers, cold).items():
                    pieces[middle].append(rows)
            for middle in cold:
                result[middle] = kept[middle] = MiddleHits.concat(pieces[middle])
            get_registry().counter("patterns.hits.computed").inc(len(cold))
        return result

    def score_papers(
        self,
        pattern_set: PatternSet,
        paper_ids: Iterable[str],
        middle_only: bool = False,
    ) -> Dict[str, float]:
        """Score(P) = sum over matching patterns of Score(pt) * M(P, pt), per paper.

        With ``middle_only`` (the simplified variant of section 4), matching
        strength reduces to the section weight of each middle-tuple hit.

        Each paper's terms are summed left to right in the order of a
        scan of its sections, token by token, trying the patterns at each
        token in pattern order -- (section, position, pattern index) --
        so every total is the float that scan computes
        (:func:`~repro.core.cosine.ordered_sums`).  The hits come from
        :meth:`middle_hits`; papers without one score 0.0.  Papers are
        summed a group of about :data:`_CHUNK_TERMS` terms at a time.
        """
        ids = list(dict.fromkeys(paper_ids))
        patterns = [pattern for pattern in pattern_set.patterns if pattern.middle]
        if not patterns or not ids:
            return dict.fromkeys(ids, 0.0)
        memo = self.memo
        middles = list(dict.fromkeys(pattern.middle for pattern in patterns))
        get_registry().counter("patterns.hits.reused").inc(
            sum(map(memo.hits.__contains__, middles))
        )
        kept = self.middle_hits(middles)
        hits = [kept[middle] for middle in middles]
        # Each paper's position in ``ids``, by memo key (-1: not scored).
        rank = np.full(len(memo.paper_ids), -1, dtype=np.int64)
        for i, paper_id in enumerate(ids):
            key = memo.key_of(paper_id)
            if key is not None:
                rank[key] = i
        owner = rank[np.concatenate([h.paper for h in hits])]
        keep = np.flatnonzero(owner >= 0)
        keep = keep[np.argsort(owner[keep], kind="stable")]
        owner = owner[keep]
        slot = np.repeat(np.arange(len(middles)), [len(h) for h in hits])[keep]
        section = np.concatenate([h.section for h in hits])[keep]
        position = np.concatenate([h.position for h in hits])[keep]
        # A hit of a middle is one term of every pattern with that middle:
        # the k-th copy of a row takes the k-th such pattern.
        slot_of = {middle: i for i, middle in enumerate(middles)}
        pattern_slot = np.array([slot_of[p.middle] for p in patterns])
        by_slot = np.argsort(pattern_slot, kind="stable")
        uses = np.bincount(pattern_slot, minlength=len(middles))
        first_use = np.cumsum(uses) - uses
        terms_of = np.bincount(owner, weights=uses[slot], minlength=len(ids))
        group = ((np.cumsum(terms_of) - terms_of) // _CHUNK_TERMS).astype(np.int64)
        cuts = np.flatnonzero(np.diff(group[owner])) + 1
        pattern_scores = np.array([pattern.score for pattern in patterns])
        totals = np.zeros(len(ids))
        for rows in np.split(np.arange(len(owner)), cuts):
            if not len(rows):
                continue
            copies = uses[slot[rows]]
            row = np.repeat(rows, copies)
            copy = np.arange(len(row)) - np.repeat(np.cumsum(copies) - copies, copies)
            index = by_slot[first_use[slot[row]] + copy]
            terms = (owner[row], section[row], position[row], index)
            order = np.lexsort(terms[::-1])
            term_owner, term_section, term_position, index = (
                column[order] for column in terms
            )
            if middle_only:
                values = pattern_scores[index] * _SECTION_WEIGHTS[term_section]
            else:
                values = np.array(
                    [
                        patterns[i].score
                        * match_strength(
                            patterns[i],
                            self.tokens.tokens(ids[o], TEXT_SECTIONS[s]),
                            start,
                            TEXT_SECTIONS[s],
                        )
                        for o, s, start, i in zip(
                            term_owner.tolist(),
                            term_section.tolist(),
                            term_position.tolist(),
                            index.tolist(),
                        )
                    ]
                )
            lo, hi = int(term_owner[0]), int(term_owner[-1]) + 1
            totals[lo:hi] = ordered_sums(term_owner - lo, values, hi - lo)
        # A scan's total starts at 0.0, so it is never -0.0; adding 0.0
        # makes an all-(-0.0) sum agree.
        return dict(zip(ids, (totals + 0.0).tolist()))

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


#: Terms :meth:`PatternSetBuilder.score_papers` expands at once: about
#: 60 bytes of index and value columns each, so a few MB in all.
_CHUNK_TERMS = 1 << 15

#: Papers :meth:`PatternSetBuilder.middle_hits` scans at once.
_SCAN_PAPERS = 64

#: ``MATCH_SECTION_WEIGHTS`` per ``TEXT_SECTIONS`` index.
_SECTION_WEIGHTS = np.array(
    [MATCH_SECTION_WEIGHTS.get(section, 0.6) for section in TEXT_SECTIONS]
)


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
