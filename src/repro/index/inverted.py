"""The inverted index: one immutable, columnar form, built or mapped.

Maps analysis terms to postings ``(paper, section, term_frequency)``.
Sections are indexed separately so searches can weight title matches above
body matches -- the usual digital-library behaviour, and the mechanism the
context search engine reuses for its text-matching component.

An :class:`InvertedIndex` is a term directory (terms, document
frequencies, run offsets) over term-major packed records, made in one
of two ways:

- :func:`build_index` -- one pass over the token cache in corpus order,
  then a stable sort by term id, so each term's postings are in corpus
  order, then section order;
- :func:`open_index` -- ``mmap`` of a file :func:`save_index` wrote, plus
  a parse of its header.  Postings are decoded only when something asks
  for their term.

Both number papers and sections in first-posting order (the order a
term-major scan first meets them), so a built index and its reopened
copy hold equal records, and the saved bytes are a pure function of the
corpus.  Both map that table once to the corpus's
:class:`~repro.corpus.rows.PaperRows`.  The index never changes: a
corpus delta builds a new one.

File layout (``index.bin``): ``magic | u64 header_len | header JSON |
data``:

- header: ``n_papers``, ``revision`` (written as ``n_papers``; not
  read), the paper-id and section tables, the per-term ``[term, df,
  offset, count]`` directory and ``data_bytes``;
- data: per-term runs of packed ``(paper u32, section u8, tf u32)``
  records (:data:`_RECORD`), tiling the data region in directory order.

Opening checks the header's keys and types, that the runs tile the data,
that every record indexes the paper and section tables with a positive
tf, and that the corpus holds every paper of the table, so a damaged or
foreign file fails at open, not at its first query.

Metrics: an ``index.backend.mapped_bytes`` gauge set when a file is
mapped.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from collections import Counter
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.corpus.paper import Section, TEXT_SECTIONS
from repro.corpus.rows import PaperRows
from repro.obs import get_registry
from repro.text.analyze import Analyzer, AnalyzedPaperCache, default_analyzer

_MAGIC = b"RPROIDX2"
_LEN = struct.Struct("<Q")
#: One posting as an (unpadded) record: paper row, section code, tf.
_RECORD = np.dtype([("paper", "<u4"), ("section", "u1"), ("tf", "<u4")])
_PREAMBLE = len(_MAGIC) + _LEN.size
#: The header keys :func:`open_index` reads, and their JSON types.
_HEADER_TYPES = {
    "n_papers": int,
    "paper_ids": list,
    "sections": list,
    "terms": list,
    "data_bytes": int,
}


class TermRun(NamedTuple):
    """One term's postings as parallel columns, in indexing order."""

    #: Each posting's paper, as a row of the index's :class:`PaperRows`.
    rows: np.ndarray
    #: Each posting's section, as a position in ``section_table``.
    sections: np.ndarray
    term_frequency: np.ndarray
    section_table: Tuple[Section, ...]


class InvertedIndex:
    """Section-aware inverted index over a corpus; immutable.

    Make one with :func:`build_index` or :func:`open_index`.  ``data``
    holds the records, ``terms`` maps each term to its ``(df, offset,
    count)`` with ``offset`` in bytes from ``data_start``;
    ``table_rows`` maps the file's paper table to ``paper_rows``.
    Scoring sums floats in postings order, so two indexes with equal
    records give
    bit-identical scores.
    """

    def __init__(
        self,
        analyzer: Analyzer,
        n_papers: int,
        paper_rows: PaperRows,
        table_rows: np.ndarray,
        sections: Sequence[Section],
        terms: Dict[str, Tuple[int, int, int]],
        data,
        data_start: int = 0,
    ) -> None:
        #: The analyzer whose term pipeline produced the indexed terms;
        #: queries must be analysed with the same one.
        self.analyzer = analyzer
        self.n_papers = n_papers
        self.paper_rows = paper_rows
        self._table_rows = table_rows
        self._sections: Tuple[Section, ...] = tuple(sections)
        self._terms = terms
        self._vocabulary: Tuple[str, ...] = tuple(terms)
        self._data = data
        self._data_start = data_start

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Release a mapped file (idempotent; a built index maps none)."""
        if isinstance(self._data, mmap.mmap):
            self._data.close()
            self._data = None

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- postings ------------------------------------------------------------------

    def _records(self, term: str) -> np.ndarray:
        """The term's records, decoded with one ``np.frombuffer``.

        The slice copies the run out of the buffer, so no array keeps a
        mapping exported and :meth:`close` always succeeds.
        """
        entry = self._terms.get(term)
        if entry is None:
            return np.empty(0, dtype=_RECORD)
        _, offset, count = entry
        start = self._data_start + offset
        return np.frombuffer(
            self._data[start : start + count * _RECORD.itemsize], dtype=_RECORD
        )

    def term_run(self, term: str) -> TermRun:
        """The postings of ``term`` in indexing order (empty if unseen)."""
        records = self._records(term)
        return TermRun(
            self._table_rows[records["paper"]],
            records["section"],
            records["tf"],
            self._sections,
        )

    def document_frequency(self, term: str) -> int:
        """Number of papers containing ``term`` in any section."""
        entry = self._terms.get(term)
        return entry[0] if entry is not None else 0

    def papers_containing(self, term: str) -> List[str]:
        """Distinct paper ids containing ``term``, in indexing order."""
        rows = self._table_rows[self._records(term)["paper"]]
        _, first = np.unique(rows, return_index=True)
        paper_ids = self.paper_rows.ids
        return [paper_ids[row] for row in rows[np.sort(first)].tolist()]

    # -- vocabulary ----------------------------------------------------------------

    def vocabulary(self) -> Sequence[str]:
        """All indexed terms, in indexing order."""
        return self._vocabulary

    def __contains__(self, term: str) -> bool:
        return term in self._terms

    # -- observability -------------------------------------------------------------

    def backend_stats(self) -> Dict[str, float]:
        """Point-in-time stats exported as ``index.backend.*`` gauges."""
        mapped = isinstance(self._data, mmap.mmap)
        return {"mapped_bytes": float(len(self._data)) if mapped else 0.0}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"InvertedIndex({self.n_papers} papers, {len(self._terms)} terms)"


def build_index(tokens: AnalyzedPaperCache) -> InvertedIndex:
    """Index every paper of the token cache's corpus, in corpus order.

    One pass appends each section's ``(term id, paper, section, tf)``
    cells, with terms numbered by first occurrence; a stable sort by
    term id then makes the runs term-major with each run in corpus and
    section order.  Papers and sections are renumbered in first-posting
    order, the file table :func:`open_index` reads back.
    """
    vocabulary: Dict[str, int] = {}
    term_ids: List[int] = []
    frequencies: List[int] = []
    # One entry per (paper, section) run of cells: its length and owner.
    run_lengths: List[int] = []
    run_papers: List[int] = []
    run_sections: List[int] = []
    paper_rows = tokens.corpus.paper_rows
    for position, paper_id in enumerate(paper_rows.ids):
        for code, section in enumerate(TEXT_SECTIONS):
            terms = tokens.tokens(paper_id, section)
            if not terms:
                continue
            counts = Counter(terms)  # first-occurrence order
            term_ids.extend(
                [vocabulary.setdefault(term, len(vocabulary)) for term in counts]
            )
            frequencies.extend(counts.values())
            run_lengths.append(len(counts))
            run_papers.append(position)
            run_sections.append(code)

    term_col = np.array(term_ids, dtype=np.int64)
    order = np.argsort(term_col, kind="stable")
    term_col = term_col[order]
    paper_col = np.repeat(np.array(run_papers, dtype=np.int64), run_lengths)[order]
    section_col = np.repeat(np.array(run_sections, dtype=np.int64), run_lengths)[order]
    papers, table_positions = _first_seen(paper_col)
    sections, section_codes = _first_seen(section_col)

    records = np.empty(len(order), dtype=_RECORD)
    records["paper"] = table_positions
    records["section"] = section_codes
    records["tf"] = np.array(frequencies, dtype=np.int64)[order]

    # A run's df counts its distinct papers; a run lists each paper's
    # postings together, so a new paper starts where the paper changes.
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (term_col[1:] != term_col[:-1]) | (paper_col[1:] != paper_col[:-1])
    dfs = np.bincount(term_col[starts], minlength=len(vocabulary)).tolist()
    counts = np.bincount(term_col, minlength=len(vocabulary)).tolist()
    offsets = (np.cumsum([0] + counts[:-1]) * _RECORD.itemsize).tolist()
    return InvertedIndex(
        tokens.analyzer,
        len(paper_rows),
        paper_rows,
        papers,
        [TEXT_SECTIONS[code] for code in sections.tolist()],
        {
            term: (df, offset, count)
            for term, df, offset, count in zip(vocabulary, dfs, offsets, counts)
        },
        records.tobytes(),
    )


def _first_seen(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(distinct values in first-occurrence order, each value's position
    in that order)``."""
    distinct, first, inverse = np.unique(
        values, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(distinct), dtype=np.int64)
    rank[order] = np.arange(len(distinct))
    return distinct[order], rank[inverse]


def save_index(index: InvertedIndex, path) -> None:
    """Write ``index`` to one file at ``path``: the header, then its records."""
    header = json.dumps(
        {
            "n_papers": index.n_papers,
            "revision": index.n_papers,
            "paper_ids": [index.paper_rows.ids[r] for r in index._table_rows.tolist()],
            "sections": [section.value for section in index._sections],
            "terms": [
                [term, *index._terms[term]] for term in index.vocabulary()
            ],
            "data_bytes": len(index._data) - index._data_start,
        }
    ).encode("utf-8")

    from repro.core.io import atomic_write  # lazy: core.io imports repro.index

    # Replaced, never truncated: an opened index keeps its mapping valid.
    with atomic_write(path) as handle:
        handle.write(_MAGIC)
        handle.write(_LEN.pack(len(header)))
        handle.write(header)
        handle.write(index._data[index._data_start :])


def _parse_header(buffer, path) -> Tuple[dict, int]:
    """Validate a mapped file's framing; returns ``(header, data_start)``.

    The header must hold its keys with their JSON types, and the term
    directory must tile the data region: each run starts where the
    previous one ended, the last ends at ``data_bytes``, and ``1 <= df
    <= count``.
    """
    if buffer[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: not a packed index (bad magic)")
    (header_len,) = _LEN.unpack_from(buffer, len(_MAGIC))
    data_start = _PREAMBLE + header_len
    try:
        header = json.loads(buffer[_PREAMBLE:data_start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValueError(f"{path}: corrupt header ({error})") from error
    if not isinstance(header, dict):
        raise ValueError(f"{path}: corrupt header (not an object)")
    for key, kind in _HEADER_TYPES.items():
        if key not in header:
            raise ValueError(f"{path}: corrupt header (no {key!r})")
        value = header[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(
                f"{path}: corrupt header ({key!r} is {type(value).__name__}, "
                f"not {kind.__name__})"
            )
    if not all(isinstance(paper_id, str) for paper_id in header["paper_ids"]):
        raise ValueError(f"{path}: corrupt header (a paper id is not a string)")
    if len(buffer) != data_start + header["data_bytes"]:
        raise ValueError(
            f"{path}: truncated packed index ({len(buffer) - data_start} of "
            f"{header['data_bytes']} data bytes)"
        )
    end = 0
    for entry in header["terms"]:
        if not (
            isinstance(entry, list)
            and len(entry) == 4
            and isinstance(entry[0], str)
            and all(type(field) is int for field in entry[1:])
        ):
            raise ValueError(f"{path}: corrupt term directory entry {entry!r}")
        term, df, offset, count = entry
        if offset != end or not 1 <= df <= count:
            raise ValueError(
                f"{path}: corrupt term directory at {term!r} (df {df}, "
                f"offset {offset}, count {count}; expected offset {end})"
            )
        end = offset + count * _RECORD.itemsize
    if end != header["data_bytes"]:
        raise ValueError(
            f"{path}: corrupt term directory (runs end at {end} of "
            f"{header['data_bytes']} data bytes)"
        )
    return header, data_start


def _check_records(buffer, data_start: int, header: dict, path) -> None:
    """Every record must index the paper and section tables, with tf >= 1."""
    records = np.frombuffer(
        buffer,
        dtype=_RECORD,
        count=header["data_bytes"] // _RECORD.itemsize,
        offset=data_start,
    )
    bad = np.flatnonzero(
        (records["paper"] >= len(header["paper_ids"]))
        | (records["section"] >= len(header["sections"]))
        | (records["tf"] == 0)
    )
    at = int(bad[0]) if len(bad) else -1
    record = records[at].tolist() if at >= 0 else None
    # No view of the mapping may outlive this call, or closing it fails.
    del records
    if record is not None:
        paper, section, tf = record
        raise ValueError(
            f"{path}: corrupt record {at} (paper {paper} of "
            f"{len(header['paper_ids'])}, section {section} of "
            f"{len(header['sections'])}, tf {tf})"
        )


def open_index(path, paper_rows: PaperRows) -> InvertedIndex:
    """Map an index file read-only, parse its header and check its
    records in one vectorised pass; decode no run.  The paper table is
    mapped to ``paper_rows`` once; a paper it lacks raises ``ValueError``.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        if os.fstat(handle.fileno()).st_size < _PREAMBLE:
            raise ValueError(f"{path}: not a packed index (too short)")
        # The mapping keeps its own descriptor, so the file can close.
        buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        header, data_start = _parse_header(buffer, path)
        _check_records(buffer, data_start, header, path)
        try:
            sections = [Section(value) for value in header["sections"]]
        except ValueError as error:
            raise ValueError(f"{path}: corrupt header ({error})") from error
        try:
            table_rows = paper_rows.rows(header["paper_ids"])
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from error
    except ValueError:
        buffer.close()
        raise
    get_registry().gauge("index.backend.mapped_bytes").set(len(buffer))
    return InvertedIndex(
        default_analyzer(),
        header["n_papers"],
        paper_rows,
        table_rows,
        sections,
        {term: (df, offset, count) for term, df, offset, count in header["terms"]},
        buffer,
        data_start,
    )
