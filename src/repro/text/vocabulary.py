"""Vocabulary: term <-> integer id mapping with document frequencies.

The vocabulary underpins the TF-IDF model and the inverted index.  Ids are
dense and assigned in first-seen order, so vectors built against the same
vocabulary are directly comparable.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


class Vocabulary:
    """A growable term dictionary with document-frequency bookkeeping."""

    def __init__(self) -> None:
        self._term_to_id: Dict[str, int] = {}
        self._id_to_term: List[str] = []
        self._doc_freq: List[int] = []
        self._n_documents = 0

    # -- construction ---------------------------------------------------------

    def add_term(self, term: str) -> int:
        """Intern ``term`` and return its id (existing id if already known)."""
        term_id = self._term_to_id.get(term)
        if term_id is None:
            term_id = len(self._id_to_term)
            self._term_to_id[term] = term_id
            self._id_to_term.append(term)
            self._doc_freq.append(0)
        return term_id

    def add_document(self, terms: Iterable[str]) -> List[int]:
        """Register one document's terms; updates document frequencies.

        Returns the term-id sequence of the document (with duplicates, in
        order), which callers typically feed straight into vectorisation.
        """
        term_ids = [self.add_term(term) for term in terms]
        for term_id in set(term_ids):
            self._doc_freq[term_id] += 1
        self._n_documents += 1
        return term_ids

    def remove_document(self, terms: Iterable[str]) -> List[int]:
        """Unregister one previously-added document's terms.

        The exact inverse of :meth:`add_document` for the statistics that
        feed IDF: every distinct term's document frequency is decremented
        and the document count drops by one.  Term *ids* are never
        reclaimed -- a term whose frequency reaches zero stays interned
        with ``df == 0`` so ids assigned to later documents are identical
        whether or not this document ever existed.  Callers must pass the
        same term sequence the document was added with.
        """
        term_ids = [self.add_term(term) for term in terms]
        for term_id in set(term_ids):
            if self._doc_freq[term_id] <= 0:
                raise ValueError(
                    f"cannot remove document: term {self._id_to_term[term_id]!r} "
                    "has zero document frequency (was this document added?)"
                )
            self._doc_freq[term_id] -= 1
        if self._n_documents <= 0:
            raise ValueError("cannot remove a document from an empty vocabulary")
        self._n_documents -= 1
        return term_ids

    # -- lookup ---------------------------------------------------------------

    def id_of(self, term: str) -> Optional[int]:
        """Return the id of ``term`` or None if unknown."""
        return self._term_to_id.get(term)

    def term_of(self, term_id: int) -> str:
        """Return the term string for ``term_id`` (raises on bad id)."""
        return self._id_to_term[term_id]

    def doc_freq(self, term: str) -> int:
        """Number of registered documents containing ``term`` (0 if unknown)."""
        term_id = self._term_to_id.get(term)
        if term_id is None:
            return 0
        return self._doc_freq[term_id]

    def doc_freq_by_id(self, term_id: int) -> int:
        """Document frequency for a known term id."""
        return self._doc_freq[term_id]

    def doc_freqs(self) -> Sequence[int]:
        """Document frequency of every term, indexed by id (read-only)."""
        return self._doc_freq

    @property
    def n_documents(self) -> int:
        """Number of documents registered via :meth:`add_document`."""
        return self._n_documents

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __contains__(self, term: str) -> bool:
        return term in self._term_to_id

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_term)

    def items(self) -> Iterator[Tuple[str, int]]:
        """Iterate ``(term, id)`` pairs."""
        return iter(self._term_to_id.items())

    # -- (de)serialisation ------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """JSON-able snapshot; ids are implicit in the term list order."""
        return {
            "terms": list(self._id_to_term),
            "doc_freq": list(self._doc_freq),
            "n_documents": self._n_documents,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "Vocabulary":
        """Rebuild from :meth:`to_payload` output (ids preserved exactly)."""
        vocabulary = cls()
        terms = list(payload["terms"])
        doc_freq = [int(df) for df in payload["doc_freq"]]
        if len(terms) != len(doc_freq):
            raise ValueError(
                f"vocabulary payload mismatch: {len(terms)} terms vs "
                f"{len(doc_freq)} doc_freq entries"
            )
        vocabulary._id_to_term = terms
        vocabulary._term_to_id = {term: i for i, term in enumerate(terms)}
        vocabulary._doc_freq = doc_freq
        vocabulary._n_documents = int(payload["n_documents"])
        return vocabulary

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Vocabulary({len(self)} terms, {self._n_documents} documents)"
