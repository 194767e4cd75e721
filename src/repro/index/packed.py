"""The persisted index: packed postings behind ``mmap``.

A workspace stores its inverted index as one packed binary file.
Opening it maps the file (``mmap``) and parses only a small header;
a term's postings are decoded only when something asks for that term.
Open cost is proportional to the vocabulary header, not the corpus.

File layout (``index.bin``): ``magic | u64 header_len | header JSON |
data``:

- header: paper-id table (papers in first-posting order), section
  table, per-term ``(df, offset, count)`` directory, ``n_papers``,
  ``revision``, ``data_bytes``;
- data: per-term postings runs of packed ``(paper_idx u32,
  section_idx u8, tf u32)`` records **in indexing order** (scoring
  sums floats in postings order, so preserving it keeps rankings
  byte-identical with the in-memory index).  The runs tile the data
  region in directory order; opening checks that they do.

One decoder reads a run: a single ``np.frombuffer`` over the records.
The header's paper-id table is the :class:`~repro.index.backend.PaperTable`
its rows index, so :meth:`PackedIndex.term_run` (the query path) and
:meth:`PackedIndex.papers_containing` build no ``Posting``; only
:meth:`PackedIndex.postings` does.  The index caches nothing: the
keyword search engine keeps each queried term's decoded contributions.

Metrics: an ``index.backend.mapped_bytes`` gauge set when a file is
mapped.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.corpus.paper import Section
from repro.index.backend import PaperTable, SearchBackend, TermRun
from repro.index.inverted import Posting
from repro.obs import get_registry
from repro.text.analyze import default_analyzer

_MAGIC = b"RPROIDX2"
_LEN = struct.Struct("<Q")
_POSTING = struct.Struct("<IBI")   # paper_idx, section_idx, term_frequency
#: ``_POSTING`` as an (unpadded) numpy record, for decoding whole runs.
_RECORD = np.dtype([("paper", "<u4"), ("section", "u1"), ("tf", "<u4")])
_PREAMBLE = len(_MAGIC) + _LEN.size


def save_index(index: SearchBackend, path) -> None:
    """Pack the postings of either index form into one file at ``path``.

    Writes ``index.vocabulary()`` x ``index.postings(term)`` as they
    stand, so the packed postings order, and therefore every downstream
    score sum, matches the index that was saved.
    """
    paper_idx_of: Dict[str, int] = {}
    section_idx_of: Dict[Section, int] = {}
    terms_header: List[Tuple[str, int, int, int]] = []
    records: List[bytes] = []
    offset = 0
    pack = _POSTING.pack
    for term in index.vocabulary():
        run = index.postings(term)
        terms_header.append((term, index.document_frequency(term), offset, len(run)))
        offset += len(run) * _POSTING.size
        for posting in run:
            paper_idx = paper_idx_of.get(posting.paper_id)
            if paper_idx is None:
                paper_idx = paper_idx_of[posting.paper_id] = len(paper_idx_of)
            section_idx = section_idx_of.get(posting.section)
            if section_idx is None:
                section_idx = section_idx_of[posting.section] = len(section_idx_of)
            records.append(pack(paper_idx, section_idx, posting.term_frequency))

    header = json.dumps(
        {
            "n_papers": index.n_papers,
            "revision": index.n_papers,
            "paper_ids": list(paper_idx_of),
            "sections": [section.value for section in section_idx_of],
            "terms": terms_header,
            "data_bytes": offset,
        }
    ).encode("utf-8")

    from repro.core.io import atomic_write  # lazy: core.io imports repro.index

    # Replaced, never truncated: an open PackedIndex keeps its mapping valid.
    with atomic_write(path) as handle:
        handle.write(_MAGIC)
        handle.write(_LEN.pack(len(header)))
        handle.write(header)
        handle.write(b"".join(records))


def _parse_header(buffer, path) -> Tuple[dict, int]:
    """Validate a mapped file's framing; returns ``(header, data_start)``.

    Beyond the magic and the data length, the term directory must tile
    the data region: each run starts where the previous one ended, the
    last ends at ``data_bytes``, and ``1 <= df <= count``.  A file that
    breaks this fails here, not at the first query touching the term.
    """
    if buffer[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: not a packed index (bad magic)")
    (header_len,) = _LEN.unpack_from(buffer, len(_MAGIC))
    data_start = _PREAMBLE + header_len
    try:
        header = json.loads(buffer[_PREAMBLE:data_start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValueError(f"{path}: corrupt header ({error})") from error
    if len(buffer) != data_start + header["data_bytes"]:
        raise ValueError(
            f"{path}: truncated packed index ({len(buffer) - data_start} of "
            f"{header['data_bytes']} data bytes)"
        )
    end = 0
    for term, df, offset, count in header["terms"]:
        if offset != end or not 1 <= df <= count:
            raise ValueError(
                f"{path}: corrupt term directory at {term!r} (df {df}, "
                f"offset {offset}, count {count}; expected offset {end})"
            )
        end = offset + count * _POSTING.size
    if end != header["data_bytes"]:
        raise ValueError(
            f"{path}: corrupt term directory (runs end at {end} of "
            f"{header['data_bytes']} data bytes)"
        )
    return header, data_start


class PackedIndex(SearchBackend):
    """Read-only :class:`SearchBackend` over a packed, mmapped postings file.

    Construction maps the file and parses only its header -- no posting
    is decoded until a caller asks for its term, and nothing decoded is
    kept.  The index is immutable: ``index_paper``/``remove_paper``
    raise, and :attr:`revision` is the value frozen into the file.
    """

    def __init__(self, path) -> None:
        self.analyzer = default_analyzer()
        self._path = Path(path)
        self._mmap = None
        self._file = open(self._path, "rb")
        try:
            if os.fstat(self._file.fileno()).st_size < _PREAMBLE:
                raise ValueError(f"{self._path}: not a packed index (too short)")
            self._mmap = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
            header, self._data_start = _parse_header(self._mmap, self._path)
        except ValueError:
            self.close()
            raise

        self._n_papers = int(header["n_papers"])
        self._revision = int(header["revision"])
        self._paper_table = PaperTable(header["paper_ids"])
        self._sections: Tuple[Section, ...] = tuple(
            Section(value) for value in header["sections"]
        )
        self._terms: Dict[str, Tuple[int, int, int]] = {
            term: (int(df), int(offset), int(count))
            for term, df, offset, count in header["terms"]
        }
        self._term_list: Tuple[str, ...] = tuple(self._terms)
        get_registry().gauge("index.backend.mapped_bytes").set(len(self._mmap))

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Release the mapping and file handle (idempotent)."""
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- immutability --------------------------------------------------------------

    def _read_only(self, *args) -> None:
        raise TypeError(
            "packed index is read-only; build_index() an in-memory index "
            "to change the corpus"
        )

    index_paper = remove_paper = _read_only

    # -- corpus-level facts --------------------------------------------------------

    @property
    def n_papers(self) -> int:
        return self._n_papers

    @property
    def revision(self) -> int:
        return self._revision

    # -- postings ------------------------------------------------------------------

    def _records(self, term: str) -> np.ndarray:
        """The term's packed records, decoded with one ``np.frombuffer``.

        The slice copies the run out of the mapping, so no array keeps
        the mapping exported and :meth:`close` always succeeds.
        """
        entry = self._terms.get(term)
        if entry is None:
            return np.empty(0, dtype=_RECORD)
        _, offset, count = entry
        start = self._data_start + offset
        return np.frombuffer(
            self._mmap[start : start + count * _POSTING.size], dtype=_RECORD
        )

    def paper_table(self) -> PaperTable:
        return self._paper_table

    def term_run(self, term: str) -> TermRun:
        records = self._records(term)
        return TermRun(
            records["paper"].astype(np.intp),
            records["section"],
            records["tf"],
            self._sections,
        )

    def postings(self, term: str) -> Sequence[Posting]:
        records = self._records(term)
        paper_ids = self._paper_table.ids
        sections = self._sections
        return tuple(
            Posting(paper_ids[paper_idx], sections[section_idx], tf)
            for paper_idx, section_idx, tf in records.tolist()
        )

    def document_frequency(self, term: str) -> int:
        entry = self._terms.get(term)
        return entry[0] if entry is not None else 0

    def papers_containing(self, term: str) -> List[str]:
        rows = self._records(term)["paper"]
        _, first = np.unique(rows, return_index=True)
        paper_ids = self._paper_table.ids
        return [paper_ids[row] for row in rows[np.sort(first)].tolist()]

    # -- vocabulary ----------------------------------------------------------------

    def vocabulary(self) -> Sequence[str]:
        return self._term_list

    def __contains__(self, term: str) -> bool:
        return term in self._terms

    # -- observability -------------------------------------------------------------

    def backend_stats(self) -> Dict[str, float]:
        """Point-in-time stats exported as ``index.backend.*`` gauges."""
        return {"mapped_bytes": float(len(self._mmap)) if self._mmap else 0.0}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PackedIndex({self._n_papers} papers, "
            f"{len(self._terms)} terms, {self._path.name})"
        )


def open_index(path) -> PackedIndex:
    """Open a packed index file: mmap + header parse, no postings decode."""
    return PackedIndex(path)
