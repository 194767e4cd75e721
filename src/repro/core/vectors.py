"""Per-section TF-IDF vector store.

One shared component fits and holds every paper vector the text
machinery needs: per-section rows for the section 3.2 similarity
facets, and whole-paper rows for representative selection, context
assignment, and AC-answer-set centroid expansion.

Each textual section gets its *own* TF-IDF model (title term statistics
differ wildly from body statistics), plus one model over concatenated
text.  A model is fitted on first use from every paper's analysed terms,
read from the corpus's token cache
(:class:`~repro.text.analyze.AnalyzedPaperCache`); the terms survive as
each paper's ordered term counts (term ids in first-occurrence order),
kept as CSR arrays over the corpus's
:class:`~repro.corpus.rows.PaperRows`.  The unit
TF-IDF rows (:class:`~repro.core.cosine.VectorRows`) are weighted from
those counts on first use, and re-weighted from them after a corpus
delta: a delta reads only the papers it adds.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.context import check_csr
from repro.core.cosine import VectorRows, row_norms
from repro.corpus.paper import Paper, Section, TEXT_SECTIONS
from repro.corpus.rows import PaperRows, csr_positions, indptr_of
from repro.text.analyze import AnalyzedPaperCache
from repro.text.vectorize import SparseVector, TfidfModel

#: Name of the whole-paper model; section models go by ``Section.value``.
FULL = "full"
#: Every model name, in the order they are persisted.
MODEL_NAMES: Tuple[str, ...] = (FULL,) + tuple(s.value for s in TEXT_SECTIONS)


def _ordered_counts(terms: Iterable[str]) -> Dict[str, int]:
    """Term counts keyed in first-occurrence order of the stream."""
    counts: Dict[str, int] = {}
    for term in terms:
        counts[term] = counts.get(term, 0) + 1
    return counts


class ModelRows:
    """One fitted TF-IDF model and every paper's ordered term counts.

    ``ids[indptr[r]:indptr[r + 1]]`` are the term ids of paper row ``r``
    in first-occurrence order and ``counts`` their frequencies.  Every
    term of a live paper has document frequency >= 1 (the paper itself
    holds it), so the weighted rows keep exactly these entries.
    """

    __slots__ = ("tfidf", "indptr", "ids", "counts", "_rows")

    def __init__(
        self,
        tfidf: TfidfModel,
        indptr: np.ndarray,
        ids: np.ndarray,
        counts: np.ndarray,
        rows: Optional[VectorRows] = None,
    ) -> None:
        self.tfidf = tfidf
        self.indptr = indptr
        self.ids = ids
        self.counts = counts
        self._rows = rows

    @property
    def rows(self) -> VectorRows:
        """Unit TF-IDF rows, weighted from the counts on first use.

        Each row equals ``TfidfModel.vectorize`` of the paper's text: raw
        ``tf * idf`` divided by its :func:`l2_norm`.  The store's models
        smooth idf, so every raw weight is at least 1 and a non-empty
        row's norm never takes ``SparseVector.normalized``'s zero or
        subnormal branches.
        """
        if self._rows is None:
            raw = self.tfidf.term_weights(self.ids, self.counts)
            unit = raw / np.repeat(row_norms(self.indptr, raw), np.diff(self.indptr))
            self._rows = VectorRows(
                self.indptr, self.ids, unit, row_norms(self.indptr, unit)
            )
        return self._rows

    @classmethod
    def of_counts(
        cls, tfidf: TfidfModel, id_rows: List[List[int]], count_rows: List[List[int]]
    ) -> "ModelRows":
        return cls(
            tfidf,
            indptr_of([len(row) for row in id_rows]),
            np.fromiter(chain.from_iterable(id_rows), dtype=np.int32),
            np.fromiter(chain.from_iterable(count_rows), dtype=np.int32),
        )

    def row_ids(self, row: int) -> List[int]:
        return self.ids[self.indptr[row]:self.indptr[row + 1]].tolist()

    def spliced(
        self, kept: np.ndarray, id_rows: List[List[int]], count_rows: List[List[int]]
    ) -> "ModelRows":
        """The ``kept`` rows followed by new rows; weights re-derive lazily."""
        positions, lengths = csr_positions(self.indptr, kept)
        added = ModelRows.of_counts(self.tfidf, id_rows, count_rows)
        return ModelRows(
            self.tfidf,
            indptr_of(lengths.tolist() + np.diff(added.indptr).tolist()),
            np.concatenate([self.ids[positions], added.ids]),
            np.concatenate([self.counts[positions], added.counts]),
        )


class PaperVectorStore:
    """Lazy per-section and whole-paper TF-IDF rows for a corpus."""

    def __init__(self, tokens: AnalyzedPaperCache) -> None:
        self.tokens = tokens
        self.corpus = tokens.corpus
        self._models: Dict[str, ModelRows] = {}
        #: The rows every model shares, moved on by :meth:`apply_delta`.
        self.paper_rows: PaperRows = self.corpus.paper_rows
        self._vectors: Dict[str, Dict[str, SparseVector]] = {}

    # -- models -----------------------------------------------------------------------

    def _analyze(self, tfidf: TfidfModel, paper_id: str, name: str):
        """Register one paper with ``tfidf``; its ``(term ids, counts)``.

        Fitting from the ordered count map assigns the same term ids and
        document frequencies as fitting from the raw token stream (ids
        come from first-occurrence order, frequencies from distinct
        terms).
        """
        terms = (
            self.tokens.all_tokens(paper_id)
            if name == FULL
            else self.tokens.tokens(paper_id, Section(name))
        )
        counts = _ordered_counts(terms)
        return tfidf.vocabulary.add_document(counts), list(counts.values())

    def _model(self, name: str) -> ModelRows:
        model = self._models.get(name)
        if model is None:
            tfidf = TfidfModel()
            analysed = [self._analyze(tfidf, pid, name) for pid in self.paper_rows.ids]
            model = ModelRows.of_counts(
                tfidf, [ids for ids, _ in analysed], [c for _, c in analysed]
            )
            self._models[name] = model
        return model

    def section_model(self, section: Section) -> TfidfModel:
        """The TF-IDF model fit over one section of every corpus paper."""
        return self._model(section.value).tfidf

    @property
    def full_model(self) -> TfidfModel:
        """The TF-IDF model over whole-paper (all sections) text."""
        return self._model(FULL).tfidf

    # -- rows and vectors --------------------------------------------------------------

    def section_rows(self, section: Section) -> VectorRows:
        """Unit TF-IDF rows of one section, by paper row."""
        return self._model(section.value).rows

    @property
    def full_rows(self) -> VectorRows:
        """Unit TF-IDF rows of whole-paper text, by paper row."""
        return self._model(FULL).rows

    def _vector(self, name: str, paper_id: str) -> SparseVector:
        cache = self._vectors.setdefault(name, {})
        vector = cache.get(paper_id)
        if vector is None:
            vector = self._model(name).rows.vector(self.paper_rows.row_of[paper_id])
            cache[paper_id] = vector
        return vector

    def section_vector(self, paper_id: str, section: Section) -> SparseVector:
        """Unit TF-IDF vector of one paper section (empty if no text)."""
        return self._vector(section.value, paper_id)

    def full_vector(self, paper_id: str) -> SparseVector:
        """Unit TF-IDF vector of the paper's full text."""
        return self._vector(FULL, paper_id)

    def query_vector(self, text: str) -> SparseVector:
        """Vectorise free text against the whole-paper model."""
        return self.full_model.vectorize(self.tokens.analyzer.analyze(text))

    def centroid_of(self, paper_ids: Iterable[str]) -> SparseVector:
        """Centroid of the whole-paper vectors of ``paper_ids``."""
        return self.full_rows.centroid(self.paper_rows.rows(paper_ids)).vector(0)

    # -- incremental updates -----------------------------------------------------------

    def apply_delta(
        self, added: Sequence[Paper], removed: Sequence[Paper]
    ) -> None:
        """Splice a corpus delta into every fitted model.

        ``removed`` takes the :class:`Paper` objects (already popped from
        the corpus).  Fitted vocabularies are updated exactly from the
        removed papers' retained counts -- removal leaves "ghost" terms
        with zero document frequency which vectorisation skips, so the
        updated models produce the same vectors as models fitted from
        scratch on the surviving papers.  Only the added papers are
        analysed; every row re-weights lazily from the retained counts
        (a corpus-wide IDF shift stales them all).  Models not yet fitted
        stay lazy and simply see the mutated corpus when first requested.
        The rows move to the corpus's new :class:`PaperRows` (kept rows,
        then the added papers).
        """
        old, new = self.paper_rows, self.corpus.paper_rows
        kept = np.flatnonzero(old.remap(new, {p.paper_id for p in removed}) >= 0)
        for name, model in list(self._models.items()):
            vocabulary = model.tfidf.vocabulary
            for paper in removed:
                row = old.row_of[paper.paper_id]
                vocabulary.remove_document(
                    [vocabulary.term_of(term_id) for term_id in model.row_ids(row)]
                )
            analysed = [
                self._analyze(model.tfidf, paper.paper_id, name) for paper in added
            ]
            self._models[name] = model.spliced(
                kept, [ids for ids, _ in analysed], [c for _, c in analysed]
            )
        self.paper_rows = new
        self._vectors.clear()

    # -- (de)serialisation -------------------------------------------------------------

    def warm(self) -> None:
        """Fit every model and weight every row.

        The workspace builder calls this before serialising, so a loaded
        store serves queries, centroid / representative work, text
        scores and deltas without reading the token cache.
        """
        for name in MODEL_NAMES:
            _ = self._model(name).rows

    def to_arrays(self) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
        """A JSON-able header and the arrays of every fitted model.

        Array members are ``<model>.<field>`` for ``indptr`` / ``ids`` /
        ``counts`` (the counts) and ``row_indptr`` / ``row_ids`` /
        ``weights`` / ``norms`` (the unit rows).
        """
        header: Dict[str, object] = {"paper_ids": list(self.paper_rows.ids)}
        header["models"] = {}
        arrays: Dict[str, np.ndarray] = {}
        for name in MODEL_NAMES:
            model = self._models.get(name)
            if model is None:
                continue
            header["models"][name] = model.tfidf.to_payload()
            rows = model.rows
            arrays.update(
                {
                    f"{name}.indptr": model.indptr,
                    f"{name}.ids": model.ids,
                    f"{name}.counts": model.counts,
                    f"{name}.row_indptr": rows.indptr,
                    f"{name}.row_ids": rows.ids,
                    f"{name}.weights": rows.weights,
                    f"{name}.norms": rows.norms,
                }
            )
        return header, arrays

    @classmethod
    def from_arrays(
        cls,
        header: Dict,
        arrays: Dict[str, np.ndarray],
        tokens: AnalyzedPaperCache,
    ) -> "PaperVectorStore":
        """Rebuild a store from :meth:`to_arrays` output.

        Raises ``ValueError`` when the arrays disagree with each other or
        with the paper table, or the table is not the corpus's rows.
        """
        store = cls(tokens)
        paper_ids = list(header["paper_ids"])
        if paper_ids != list(store.paper_rows.ids):
            raise ValueError("paper_ids differ from the corpus's papers")
        for name, payload in header["models"].items():
            if name not in MODEL_NAMES:
                raise ValueError(f"unknown vector model {name!r}")
            tfidf = TfidfModel.from_payload(payload)
            fields = {
                field: arrays[f"{name}.{field}"]
                for field in (
                    "indptr", "ids", "counts", "row_indptr", "row_ids",
                    "weights", "norms",
                )
            }
            n_terms = len(tfidf.vocabulary)
            what = f"{name} indptr/ids"
            check_csr(fields["indptr"], fields["ids"], len(paper_ids), n_terms, what)
            check_csr(
                fields["row_indptr"], fields["row_ids"], len(paper_ids), n_terms, what
            )
            if (
                fields["counts"].dtype != np.int32
                or fields["counts"].shape != fields["ids"].shape
                or fields["weights"].dtype != np.float64
                or fields["weights"].shape != fields["row_ids"].shape
                or fields["norms"].dtype != np.float64
                or fields["norms"].shape != (len(paper_ids),)
            ):
                raise ValueError(f"inconsistent {name} count/weight arrays")
            store._models[name] = ModelRows(
                tfidf,
                fields["indptr"],
                fields["ids"],
                fields["counts"],
                VectorRows(
                    fields["row_indptr"],
                    fields["row_ids"],
                    fields["weights"],
                    fields["norms"],
                ),
            )
        return store
