"""Sparse vectors and the TF-IDF weighting model.

Implements the classic ``tf * idf`` scheme from Salton's *Automatic Text
Processing* (paper reference [6]): term frequency (optionally
log-normalised) times ``log(N / df)``, with cosine-ready L2 normalisation.

Vectors are dict-backed sparse maps from term id to weight.  Paper
vectors are short (10^2..10^3 non-zeros), so batches of them are kept as
CSR rows (:mod:`repro.core.cosine`) rather than dense numpy rows; the
dict form defines the arithmetic those rows reproduce bit for bit.
"""

from __future__ import annotations

import math
import sys
from itertools import repeat
from operator import truediv
from typing import (
    Collection, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple,
)

import numpy as np

from repro.text.vocabulary import Vocabulary


def l2_norm(weights: Collection[float]) -> float:
    """L2 norm of ``weights``, computed scale-invariantly.

    The peak magnitude is factored out before squaring, so tiny weights
    don't lose precision to subnormal underflow and huge weights can't
    overflow.  ``map(pow, ...)`` performs exactly the float operations
    of ``sum((w / peak) ** 2 for w in weights)``, only faster.
    ``SparseVector.norm`` and the norms of CSR rows
    (:mod:`repro.core.cosine`) both come from here, so equal weights
    always give equal norms.
    """
    peak = max(map(abs, weights), default=0.0)
    if peak == 0.0:
        return 0.0
    return peak * math.sqrt(
        sum(map(pow, map(truediv, weights, repeat(peak)), repeat(2)))
    )


class SparseVector:
    """An immutable-by-convention sparse vector of ``{term_id: weight}``."""

    __slots__ = ("weights", "_norm")

    def __init__(self, weights: Optional[Mapping[int, float]] = None) -> None:
        self.weights: Dict[int, float] = dict(weights) if weights else {}
        self._norm: Optional[float] = None

    @property
    def norm(self) -> float:
        """L2 norm (see :func:`l2_norm`), cached after first computation."""
        if self._norm is None:
            self._norm = l2_norm(self.weights.values())
        return self._norm

    def dot(self, other: "SparseVector") -> float:
        """Sparse dot product (iterates the smaller vector)."""
        a, b = self.weights, other.weights
        if len(a) > len(b):
            a, b = b, a
        return sum(weight * b[term] for term, weight in a.items() if term in b)

    def cosine(self, other: "SparseVector") -> float:
        """Cosine similarity in [0, 1] for non-negative weights.

        Returns 0.0 if either vector is empty (the conventional IR choice:
        an empty document matches nothing).
        """
        na, nb = self.norm, other.norm
        if na == 0.0 or nb == 0.0:
            return 0.0
        denominator = na * nb
        if denominator < sys.float_info.min or math.isinf(denominator):
            # The norm product under/overflowed (zero, subnormal or huge
            # weights).  Dividing raw weights by a subnormal norm loses
            # almost every bit of precision, so normalise each vector via
            # ``normalized()`` (which rescales by the peak magnitude into
            # a well-conditioned range first) and dot the unit vectors.
            value = self.normalized().dot(other.normalized())
        else:
            value = self.dot(other) / denominator
        # Guard against floating point drift pushing past 1.
        return min(max(value, 0.0), 1.0)

    def normalized(self) -> "SparseVector":
        """Return a unit-norm copy (or an empty vector if norm is 0)."""
        n = self.norm
        if n == 0.0:
            return SparseVector()
        if n < sys.float_info.min:
            # A subnormal norm carries too little precision to divide by:
            # rescale by the peak magnitude first, then normalise the
            # well-conditioned intermediate.
            peak = max(abs(w) for w in self.weights.values())
            scaled = {t: w / peak for t, w in self.weights.items()}
            m = math.sqrt(sum(v * v for v in scaled.values()))
            return SparseVector({t: v / m for t, v in scaled.items()})
        return SparseVector({t: w / n for t, w in self.weights.items()})

    def scaled(self, factor: float) -> "SparseVector":
        """Return a copy with every weight multiplied by ``factor``."""
        return SparseVector({t: w * factor for t, w in self.weights.items()})

    def add(self, other: "SparseVector") -> "SparseVector":
        """Return the element-wise sum of two vectors."""
        result = dict(self.weights)
        for term, weight in other.weights.items():
            result[term] = result.get(term, 0.0) + weight
        return SparseVector(result)

    def top_terms(self, k: int) -> List[Tuple[int, float]]:
        """Return the ``k`` highest-weighted ``(term_id, weight)`` pairs."""
        return sorted(self.weights.items(), key=lambda item: (-item[1], item[0]))[:k]

    def __len__(self) -> int:
        return len(self.weights)

    def __bool__(self) -> bool:
        return bool(self.weights)

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        return iter(self.weights.items())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SparseVector({len(self.weights)} nonzeros, norm={self.norm:.4f})"


def centroid(vectors: Iterable[SparseVector]) -> SparseVector:
    """Arithmetic-mean centroid of ``vectors`` (empty input -> empty vector).

    Used by the AC-answer-set text expansion ("papers sufficiently similar
    to the centroid of the initial paper set", paper section 2).
    """
    total: Dict[int, float] = {}
    count = 0
    for vector in vectors:
        count += 1
        for term, weight in vector.weights.items():
            total[term] = total.get(term, 0.0) + weight
    if count == 0:
        return SparseVector()
    return SparseVector({t: w / count for t, w in total.items()})


class TfidfModel:
    """TF-IDF weighting over a fixed document collection.

    Build with :meth:`fit` (or incrementally via a shared
    :class:`~repro.text.vocabulary.Vocabulary`), then turn term sequences
    into :class:`SparseVector` instances with :meth:`vectorize`.

    Parameters
    ----------
    sublinear_tf:
        If True (default), use ``1 + log(tf)`` instead of raw ``tf`` --
        Salton's recommended dampening for long documents (paper bodies are
        two orders of magnitude longer than titles).
    smooth_idf:
        If True (default), use ``log((1 + N) / (1 + df)) + 1`` so unseen and
        ubiquitous terms keep small positive weight instead of exploding or
        vanishing.
    """

    def __init__(
        self,
        vocabulary: Optional[Vocabulary] = None,
        sublinear_tf: bool = True,
        smooth_idf: bool = True,
    ) -> None:
        self.vocabulary = vocabulary if vocabulary is not None else Vocabulary()
        self.sublinear_tf = sublinear_tf
        self.smooth_idf = smooth_idf

    def fit(self, documents: Iterable[Iterable[str]]) -> "TfidfModel":
        """Register every document's terms with the vocabulary."""
        for terms in documents:
            self.vocabulary.add_document(terms)
        return self

    def idf(self, term_id: int) -> float:
        """Inverse document frequency for ``term_id``."""
        return self._idf(
            self.vocabulary.n_documents, self.vocabulary.doc_freq_by_id(term_id)
        )

    def _idf(self, n: int, df: int) -> float:
        if self.smooth_idf:
            return math.log((1.0 + n) / (1.0 + df)) + 1.0
        if df == 0:
            return 0.0
        return math.log(n / df)

    def _tf(self, count: int) -> float:
        return 1.0 + math.log(count) if self.sublinear_tf else float(count)

    def term_weights(self, ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Raw ``tf * idf`` of ``counts[i]`` occurrences of term ``ids[i]``.

        The same float operations :meth:`vectorize` performs, with ``tf``
        and ``idf`` from ``math.log`` (``np.log`` may differ in the last
        ulp) tabulated per distinct count and document frequency.
        """
        if not len(ids):
            return np.zeros(0)
        n = self.vocabulary.n_documents
        doc_freq = np.asarray(self.vocabulary.doc_freqs(), dtype=np.int64)
        idf = np.array([self._idf(n, df) for df in range(int(doc_freq.max()) + 1)])
        tf = np.array([0.0] + [self._tf(c) for c in range(1, int(counts.max()) + 1)])
        return tf[counts] * idf[doc_freq[ids]]

    def vectorize(self, terms: Iterable[str], normalize: bool = True) -> SparseVector:
        """Build the TF-IDF vector of a term sequence.

        Terms unknown to the vocabulary are ignored (standard IR behaviour
        for query terms never seen at indexing time).  Terms whose document
        frequency has dropped to zero -- ghosts left behind by incremental
        document removal -- are treated exactly like unknown terms, so a
        delta-updated model vectorizes identically to one fitted from
        scratch on the surviving documents.
        """
        counts: Dict[int, int] = {}
        for term in terms:
            term_id = self.vocabulary.id_of(term)
            if term_id is not None and self.vocabulary.doc_freq_by_id(term_id) > 0:
                counts[term_id] = counts.get(term_id, 0) + 1
        weights: Dict[int, float] = {}
        for term_id, count in counts.items():
            weights[term_id] = self._tf(count) * self.idf(term_id)
        vector = SparseVector(weights)
        return vector.normalized() if normalize else vector

    # -- (de)serialisation --------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """JSON-able snapshot of the fitted model (vocabulary + flags)."""
        return {
            "vocabulary": self.vocabulary.to_payload(),
            "sublinear_tf": self.sublinear_tf,
            "smooth_idf": self.smooth_idf,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "TfidfModel":
        """Rebuild a fitted model from :meth:`to_payload` output."""
        return cls(
            vocabulary=Vocabulary.from_payload(payload["vocabulary"]),
            sublinear_tf=bool(payload["sublinear_tf"]),
            smooth_idf=bool(payload["smooth_idf"]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TfidfModel({len(self.vocabulary)} terms, "
            f"{self.vocabulary.n_documents} documents)"
        )
