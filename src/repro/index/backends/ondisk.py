"""The ``ondisk`` backend: packed postings behind ``mmap``.

The memory backend's cold open is a full-index parse: every posting of
every term becomes a Python ``Posting`` before the first query runs, so
corpus scale is capped by RAM and open time.  This backend flips that:
the postings live in one packed binary file, opening a workspace maps it
(``mmap``) and parses only a small header, and each term's postings are
decoded on first touch into a bounded LRU cache.  Open cost is
proportional to the vocabulary header, not the corpus; resident memory
is proportional to the *queried* vocabulary, not the indexed one.

On-disk layout (artifact = JSON descriptor + binary sidecar):

- ``<artifact>.json`` -- a tiny format-tagged descriptor
  (``repro/index-ondisk/v1``) naming the sidecar file, so workspace
  manifests and format sniffing keep working on plain JSON;
- ``<artifact>.bin`` -- ``magic | u64 header_len | header JSON | data``:

  - header: paper-id table, section table, per-term
    ``(df, offset, count)`` directory, per-(paper, section) forward
    directory, ``n_papers``, ``revision``;
  - data: per-term postings runs of packed ``(paper_idx u32,
    section_idx u8, tf u32)`` records **in indexing order** (scoring
    sums floats in postings order, so preserving it keeps rankings
    byte-identical with the memory backend), then per-(paper, section)
    forward runs of ``(term_idx u32, tf u32)``.

Metrics: ``index.backend.term_loads`` / ``index.backend.cache_hit`` /
``index.backend.cache_evict`` counters on the term cache, and an
``index.backend.mapped_bytes`` gauge set when a file is mapped.
"""

from __future__ import annotations

import json
import mmap
import struct
import sys
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.corpus.corpus import Corpus
from repro.corpus.paper import Section
from repro.index.backends.base import SearchBackend
from repro.index.backends.registry import SearchBackendSpec
from repro.index.inverted import InvertedIndex, Posting
from repro.obs import get_registry
from repro.text.analyze import Analyzer, default_analyzer

ONDISK_FORMAT = "repro/index-ondisk/v1"

_MAGIC = b"RPROIDX1"
_LEN = struct.Struct("<Q")
_POSTING = struct.Struct("<IBI")   # paper_idx, section_idx, term_frequency
_FORWARD = struct.Struct("<II")    # term_idx, term_frequency

#: Default bound on decoded-term residency.  Sized for query serving --
#: far above any realistic per-query term count, far below a large
#: corpus vocabulary.
DEFAULT_TERM_CACHE_SIZE = 1024


def _sidecar_path(path) -> Path:
    """The packed-postings file next to the descriptor ``path``."""
    path = Path(path)
    return path.with_name(path.stem + ".bin")


def save_packed_index(index, path) -> None:
    """Pack any backend exposing ``to_payload`` into the ondisk format.

    Replays the per-paper per-section counts exactly the way
    ``InvertedIndex.from_payload`` does, so the packed postings order --
    and therefore every downstream score sum -- matches what a memory
    load of the same artifact would produce.
    """
    papers: Mapping[str, Mapping[str, Mapping[str, int]]]
    papers = index.to_payload()["papers"]

    paper_ids: List[str] = []
    section_values: List[str] = []
    section_idx_of: Dict[str, int] = {}
    term_idx_of: Dict[str, int] = {}
    term_postings: Dict[int, List[Tuple[int, int, int]]] = {}
    term_df: Dict[int, int] = {}
    forward_runs: List[Tuple[int, int, List[Tuple[int, int]]]] = []

    for paper_idx, (paper_id, sections) in enumerate(papers.items()):
        paper_ids.append(paper_id)
        seen_terms = set()
        for section_value, counts in sections.items():
            section_idx = section_idx_of.setdefault(
                section_value, len(section_idx_of)
            )
            if section_idx == len(section_values):
                section_values.append(section_value)
            run: List[Tuple[int, int]] = []
            for term, tf in counts.items():
                term_idx = term_idx_of.setdefault(term, len(term_idx_of))
                term_postings.setdefault(term_idx, []).append(
                    (paper_idx, section_idx, int(tf))
                )
                run.append((term_idx, int(tf)))
                seen_terms.add(term_idx)
            forward_runs.append((paper_idx, section_idx, run))
        for term_idx in seen_terms:
            term_df[term_idx] = term_df.get(term_idx, 0) + 1

    data = bytearray()
    terms_header: List[Tuple[str, int, int, int]] = []
    for term, term_idx in term_idx_of.items():
        run = term_postings.get(term_idx, [])
        terms_header.append((term, term_df.get(term_idx, 0), len(data), len(run)))
        for record in run:
            data += _POSTING.pack(*record)
    forward_header: List[Tuple[int, int, int, int]] = []
    for paper_idx, section_idx, run in forward_runs:
        forward_header.append((paper_idx, section_idx, len(data), len(run)))
        for record in run:
            data += _FORWARD.pack(*record)

    header = json.dumps(
        {
            "n_papers": len(paper_ids),
            "revision": len(paper_ids),
            "paper_ids": paper_ids,
            "sections": section_values,
            "terms": terms_header,
            "forward": forward_header,
        }
    ).encode("utf-8")

    # lazy: core.io imports repro.index
    from repro.core.io import atomic_write, write_tagged_json

    path = Path(path)
    sidecar = _sidecar_path(path)
    # Replaced, never truncated: an open backend keeps its mapping valid.
    with atomic_write(sidecar) as handle:
        handle.write(_MAGIC)
        handle.write(_LEN.pack(len(header)))
        handle.write(header)
        handle.write(bytes(data))

    write_tagged_json({"backend": "ondisk", "data_file": sidecar.name},
                      path, ONDISK_FORMAT)


class OndiskPostingsBackend(SearchBackend):
    """Read-only :class:`SearchBackend` over a packed, mmapped postings file.

    Construction maps the sidecar and parses only its header -- no
    posting is decoded until a query asks for its term.  Decoded terms
    live in a bounded LRU so resident memory tracks the working set.
    The backend is immutable: ``index_paper``/``remove_paper`` raise,
    and :attr:`revision` is the value frozen into the artifact.
    """

    backend_name = "ondisk"

    def __init__(
        self,
        path,
        analyzer: Optional[Analyzer] = None,
        term_cache_size: int = DEFAULT_TERM_CACHE_SIZE,
    ) -> None:
        self.analyzer = analyzer if analyzer is not None else default_analyzer()
        descriptor_path = Path(path)
        from repro.core.io import read_tagged_json  # lazy: core.io imports repro.index

        descriptor = read_tagged_json(descriptor_path, ONDISK_FORMAT)
        self._path = descriptor_path.with_name(descriptor["data_file"])
        self._file = open(self._path, "rb")
        self._mmap = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        if self._mmap[: len(_MAGIC)] != _MAGIC:
            raise ValueError(f"{self._path}: not a packed index (bad magic)")
        (header_len,) = _LEN.unpack_from(self._mmap, len(_MAGIC))
        header_start = len(_MAGIC) + _LEN.size
        try:
            header = json.loads(
                self._mmap[header_start : header_start + header_len].decode("utf-8")
            )
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(f"{self._path}: corrupt header ({error})") from error
        self._data_start = header_start + header_len

        self._n_papers = int(header["n_papers"])
        self._revision = int(header["revision"])
        self._paper_ids: Tuple[str, ...] = tuple(header["paper_ids"])
        self._paper_index = {pid: i for i, pid in enumerate(self._paper_ids)}
        self._sections: Tuple[Section, ...] = tuple(
            Section(value) for value in header["sections"]
        )
        self._section_index = {s: i for i, s in enumerate(self._sections)}
        self._terms: Dict[str, Tuple[int, int, int]] = {
            term: (int(df), int(offset), int(count))
            for term, df, offset, count in header["terms"]
        }
        self._term_list: Tuple[str, ...] = tuple(self._terms)
        # Forward directory grouped per paper, in stored (= indexing) order.
        self._forward: Dict[int, List[Tuple[int, int, int]]] = {}
        for paper_idx, section_idx, offset, count in header["forward"]:
            self._forward.setdefault(int(paper_idx), []).append(
                (int(section_idx), int(offset), int(count))
            )

        self._term_cache: "OrderedDict[str, Tuple[Posting, ...]]" = OrderedDict()
        self._term_cache_size = max(0, int(term_cache_size))
        self._cache_lock = threading.Lock()
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

    def index_corpus(self, corpus: Corpus) -> "OndiskPostingsBackend":
        raise TypeError(
            "ondisk index backend is read-only; rebuild the artifact "
            "(repro build --index-backend ondisk) to change the corpus"
        )

    def index_paper(self, paper) -> None:
        raise TypeError(
            "ondisk index backend is read-only; rebuild the artifact "
            "(repro build --index-backend ondisk) to change the corpus"
        )

    def remove_paper(self, paper_id: str) -> None:
        raise TypeError(
            "ondisk index backend is read-only; rebuild the artifact "
            "(repro build --index-backend ondisk) to change the corpus"
        )

    # -- corpus-level facts --------------------------------------------------------

    @property
    def n_papers(self) -> int:
        return self._n_papers

    @property
    def revision(self) -> int:
        return self._revision

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    # -- postings ------------------------------------------------------------------

    def postings(self, term: str) -> Sequence[Posting]:
        entry = self._terms.get(term)
        if entry is None:
            return ()
        registry = get_registry()
        with self._cache_lock:
            cached = self._term_cache.get(term)
            if cached is not None:
                self._term_cache.move_to_end(term)
                registry.counter("index.backend.cache_hit").inc()
                return cached
        _, offset, count = entry
        decoded = self._decode_postings(offset, count)
        registry.counter("index.backend.term_loads").inc()
        if self._term_cache_size:
            with self._cache_lock:
                self._term_cache[term] = decoded
                self._term_cache.move_to_end(term)
                while len(self._term_cache) > self._term_cache_size:
                    self._term_cache.popitem(last=False)
                    registry.counter("index.backend.cache_evict").inc()
        return decoded

    def _decode_postings(self, offset: int, count: int) -> Tuple[Posting, ...]:
        start = self._data_start + offset
        chunk = self._mmap[start : start + count * _POSTING.size]
        paper_ids = self._paper_ids
        sections = self._sections
        return tuple(
            Posting(paper_ids[paper_idx], sections[section_idx], tf)
            for paper_idx, section_idx, tf in _POSTING.iter_unpack(chunk)
        )

    def document_frequency(self, term: str) -> int:
        entry = self._terms.get(term)
        return entry[0] if entry is not None else 0

    def papers_containing(self, term: str) -> List[str]:
        seen: Dict[str, None] = {}
        for posting in self.postings(term):
            seen.setdefault(posting.paper_id, None)
        return list(seen)

    # -- forward index -------------------------------------------------------------

    def _decode_forward(self, offset: int, count: int) -> Dict[str, int]:
        start = self._data_start + offset
        chunk = self._mmap[start : start + count * _FORWARD.size]
        term_list = self._term_list
        return {
            term_list[term_idx]: tf
            for term_idx, tf in _FORWARD.iter_unpack(chunk)
        }

    def term_frequency(
        self, paper_id: str, term: str, section: Optional[Section] = None
    ) -> int:
        paper_idx = self._paper_index.get(paper_id)
        if paper_idx is None:
            return 0
        runs = self._forward.get(paper_idx, ())
        if section is not None:
            section_idx = self._section_index.get(section)
            if section_idx is None:
                return 0
            for run_section, offset, count in runs:
                if run_section == section_idx:
                    return self._decode_forward(offset, count).get(term, 0)
            return 0
        return sum(
            self._decode_forward(offset, count).get(term, 0)
            for _, offset, count in runs
        )

    def paper_section_terms(
        self, paper_id: str, section: Section
    ) -> Mapping[str, int]:
        paper_idx = self._paper_index.get(paper_id)
        section_idx = self._section_index.get(section)
        if paper_idx is None or section_idx is None:
            return {}
        for run_section, offset, count in self._forward.get(paper_idx, ()):
            if run_section == section_idx:
                return self._decode_forward(offset, count)
        return {}

    # -- vocabulary ----------------------------------------------------------------

    def vocabulary(self) -> Sequence[str]:
        return self._term_list

    def __contains__(self, term: str) -> bool:
        return term in self._terms

    # -- observability -------------------------------------------------------------

    def backend_stats(self) -> Dict[str, float]:
        """Point-in-time stats exported as ``index.backend.*`` gauges."""
        with self._cache_lock:
            cached_terms = len(self._term_cache)
        return {
            "mapped_bytes": float(len(self._mmap)) if self._mmap else 0.0,
            "cached_terms": float(cached_terms),
        }

    def resident_postings_bytes(self) -> int:
        """Heap bytes held by decoded (cached) postings right now."""
        with self._cache_lock:
            cached = list(self._term_cache.values())
        total = 0
        for run in cached:
            total += sys.getsizeof(run)
            for posting in run:
                total += sys.getsizeof(posting) + sys.getsizeof(posting.__dict__)
        return total

    # -- (de)serialisation ---------------------------------------------------------

    def to_payload(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """Reconstruct the canonical per-paper snapshot (repack path).

        Decodes the full forward region -- this is the bulk escape
        hatch for converting an ondisk artifact back to other formats,
        not a serving-path operation.
        """
        papers: Dict[str, Dict[str, Dict[str, int]]] = {}
        for paper_idx, paper_id in enumerate(self._paper_ids):
            sections: Dict[str, Dict[str, int]] = {}
            for section_idx, offset, count in self._forward.get(paper_idx, ()):
                sections[self._sections[section_idx].value] = self._decode_forward(
                    offset, count
                )
            papers[paper_id] = sections
        return {"papers": papers}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"OndiskPostingsBackend({self._n_papers} papers, "
            f"{len(self._terms)} terms, {self._path.name})"
        )


def build_ondisk_index(
    corpus: Corpus, analyzer: Optional[Analyzer] = None
) -> InvertedIndex:
    """Build pass for the ondisk backend.

    Indexing is identical to the memory backend (the format only changes
    how postings are *persisted and opened*), so the build returns a
    regular in-memory index stamped ``backend_name='ondisk'`` -- the
    workspace save path then packs it with :func:`save_packed_index`.
    """
    index = InvertedIndex(analyzer=analyzer).index_corpus(corpus)
    index.backend_name = "ondisk"
    return index


def load_packed_index(
    path, analyzer: Optional[Analyzer] = None
) -> OndiskPostingsBackend:
    """Open a packed artifact: mmap + header parse, no postings decode."""
    return OndiskPostingsBackend(path, analyzer=analyzer)


SPEC = SearchBackendSpec(
    name="ondisk",
    build=build_ondisk_index,
    save=save_packed_index,
    load=load_packed_index,
    format_tag=ONDISK_FORMAT,
    description=(
        "Packed binary postings + term-offset table behind mmap; "
        "cold open parses only the header, terms decode lazily into a "
        "bounded LRU."
    ),
)
