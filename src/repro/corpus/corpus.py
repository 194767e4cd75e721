"""The corpus container: papers plus derived lookup structures."""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.corpus.paper import Paper
from repro.corpus.rows import PaperRows

#: Concurrent first readers of a revision's rows get one object.
_ROWS_LOCK = threading.Lock()


class CorpusError(ValueError):
    """Raised for duplicate ids and lookups of unknown papers."""


class Corpus:
    """An in-memory collection of :class:`Paper` with citation/author indexes.

    The container is append-only: papers can be added until the first
    consumer asks for a derived index, after which it is conventionally
    treated as frozen (derived indexes are built lazily and cached; adding
    papers afterwards invalidates them automatically).
    """

    def __init__(self, papers: Optional[Iterable[Paper]] = None) -> None:
        self._papers: Dict[str, Paper] = {}
        self._outgoing: Optional[Dict[str, Tuple[str, ...]]] = None
        self._by_author: Optional[Dict[str, Tuple[str, ...]]] = None
        self._paper_rows: Optional[PaperRows] = None
        if papers is not None:
            for paper in papers:
                self.add(paper)

    # -- construction -----------------------------------------------------------

    def add(self, paper: Paper) -> None:
        """Add one paper; duplicate ids are an error."""
        if paper.paper_id in self._papers:
            raise CorpusError(f"duplicate paper id {paper.paper_id!r}")
        self._papers[paper.paper_id] = paper
        self._invalidate()

    def remove(self, paper_id: str) -> Paper:
        """Remove and return one paper; unknown ids are an error.

        Later insertions keep their relative order, so a corpus that
        removes papers and then adds new ones iterates identically to a
        corpus constructed from the surviving papers in the same order.
        """
        try:
            paper = self._papers.pop(paper_id)
        except KeyError:
            raise CorpusError(f"unknown paper id {paper_id!r}") from None
        self._invalidate()
        return paper

    def _invalidate(self) -> None:
        self._outgoing = None
        self._by_author = None
        self._paper_rows = None

    # -- basic access -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._papers)

    def __contains__(self, paper_id: str) -> bool:
        return paper_id in self._papers

    def __iter__(self) -> Iterator[Paper]:
        return iter(self._papers.values())

    def paper(self, paper_id: str) -> Paper:
        """Return the paper with ``paper_id`` (CorpusError if absent)."""
        try:
            return self._papers[paper_id]
        except KeyError:
            raise CorpusError(f"unknown paper id {paper_id!r}") from None

    def paper_ids(self) -> List[str]:
        """All paper ids in insertion order."""
        return list(self._papers)

    @property
    def paper_rows(self) -> PaperRows:
        """This revision's :class:`PaperRows`, built on first read."""
        paper_rows = self._paper_rows
        if paper_rows is None:
            with _ROWS_LOCK:
                paper_rows = self._paper_rows
                if paper_rows is None:
                    paper_rows = self._paper_rows = PaperRows(self._papers)
        return paper_rows

    # -- citation structure ---------------------------------------------------------

    def references_of(self, paper_id: str) -> Tuple[str, ...]:
        """*Resolvable* references of a paper (dangling refs dropped).

        A real parse of 72k full-text papers yields many references to
        papers outside the downloaded set; like the paper's testbed we keep
        only edges where both endpoints are in the corpus.
        """
        self._ensure_citation_maps()
        assert self._outgoing is not None
        return self._outgoing.get(paper_id, ())

    def _ensure_citation_maps(self) -> None:
        if self._outgoing is not None:
            return
        self._outgoing = {
            paper.paper_id: tuple(
                ref
                for ref in paper.references
                if ref in self._papers and ref != paper.paper_id
            )
            for paper in self._papers.values()
        }

    # -- author structure -------------------------------------------------------------

    def authors(self) -> List[str]:
        """All distinct author names, sorted."""
        self._ensure_author_index()
        assert self._by_author is not None
        return sorted(self._by_author)

    def _ensure_author_index(self) -> None:
        if self._by_author is not None:
            return
        index: Dict[str, List[str]] = {}
        for paper in self._papers.values():
            for author in dict.fromkeys(paper.authors):  # dedupe, keep order
                index.setdefault(author, []).append(paper.paper_id)
        self._by_author = {name: tuple(ids) for name, ids in index.items()}

    # -- bulk views ---------------------------------------------------------------------

    def subset(self, paper_ids: Iterable[str]) -> "Corpus":
        """A new corpus containing only ``paper_ids`` (order preserved)."""
        return Corpus(self.paper(pid) for pid in paper_ids)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Corpus({len(self)} papers)"
