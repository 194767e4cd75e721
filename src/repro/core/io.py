"""Persistence for expensive pipeline artefacts.

Context paper sets and prestige scores take minutes to build on large
corpora; these helpers serialise them so a deployment computes them once
(the paper's "query independent pre-processing steps") and serves
searches from disk thereafter.  Each artefact is stored as arrays in an
uncompressed ``.npz`` with a format-tagged JSON header
(:func:`write_context_paper_set`, :func:`write_prestige_scores`,
:func:`write_vector_store`, :func:`write_pattern_extractions`).

Every writer goes through :func:`atomic_write`, so a crash mid-write
leaves the previous file intact and a reader that has a file open or
mapped keeps seeing the bytes it opened.  Every reader raises
``ValueError`` naming the path when a file is corrupt or of the wrong
format, or names a paper the corpus lacks: a file's paper table is its
own, mapped to the corpus's :class:`~repro.corpus.rows.PaperRows` once.
"""

from __future__ import annotations

import json
import os
import secrets
import zipfile
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import IO, Dict, Iterable, Iterator, Optional, Union

import numpy as np

from repro.core.context import Context, ContextPaperSet, check_csr, check_indptr
from repro.core.patterns import Extractions, PatternExtraction
from repro.core.vectors import PaperVectorStore
from repro.corpus.rows import PaperRows, indptr_of
from repro.ontology.ontology import Ontology
from repro.scoring.base import PrestigeScores, ScoreRows
from repro.text.analyze import AnalyzedPaperCache

PathLike = Union[str, Path]

#: Suffix of the temporary file :func:`atomic_write` fills; one left in
#: a workspace means a writer died before it could clean up.
TEMP_SUFFIX = ".tmp"

_PAPER_SET_FORMAT = "repro/context-paper-set/v2"
_SCORES_FORMAT = "repro/prestige-scores/v2"
_VECTORS_FORMAT = "repro/vector-store/v2"
_EXTRACTIONS_FORMAT = "repro/pattern-extractions/v1"


@contextmanager
def atomic_write(
    path: PathLike, mode: str = "wb", encoding: Optional[str] = None
) -> Iterator[IO]:
    """Write ``path`` all at once or not at all.

    Yields a handle on a temporary file in ``path``'s directory.  When
    the block completes the file is flushed, ``fsync``-ed and moved over
    ``path`` with ``os.replace``; when it raises, the temporary file is
    removed and ``path`` keeps its old bytes.  The old file's inode
    survives the replace, so an open ``mmap`` of it stays valid.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}{TEMP_SUFFIX}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, encoding=encoding) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# -- array artefacts: an uncompressed .npz with a JSON header -------------------------


def _write_npz(path: PathLike, header: dict, arrays: Dict[str, np.ndarray]) -> None:
    """``arrays`` plus ``header`` (uint8 bytes of its JSON) in one ``.npz``."""
    encoded = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    # Through a handle: given a str path, np.savez appends ".npz".
    with atomic_write(path) as handle:
        np.savez(handle, header=encoded, **arrays)


def _read_npz(path: PathLike, format_tag: str, what: str):
    """The header and the other members of a :func:`_write_npz` file.

    The zip CRC-32 of every member is checked; a corrupt file or another
    format tag raises ``ValueError`` naming ``path``.
    """
    try:
        with np.load(path, allow_pickle=False) as archive:
            members = {name: archive[name] for name in archive.files}
        header = json.loads(members.pop("header").tobytes().decode("utf-8"))
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError) as error:
        raise ValueError(f"{path}: not a {what} file ({error})") from error
    if not isinstance(header, dict) or header.get("format") != format_tag:
        found = header.get("format") if isinstance(header, dict) else None
        raise ValueError(
            f"{path}: not a {what} file (expected format {format_tag!r}, "
            f"found {found!r})"
        )
    return header, members


# -- context paper sets (v2) ---------------------------------------------------------
#
# Members: ``header`` (uint8 bytes of a JSON object: format tag, the
# sorted table of every paper id a context names, and per context its
# term id, training rows, representative row or null, ``inherited_from``
# and ``decay``) and the membership CSR: ``indptr`` (int64) / ``members``
# (int32 into the paper table, each context's papers in assignment
# order).  The per-context fields stay in the header: every array member
# costs a fixed read overhead that small lists do not repay.


def write_context_paper_set(paper_set: ContextPaperSet, path: PathLike) -> None:
    """Serialise a context paper set (its ontology is *not* embedded)."""
    contexts = list(paper_set)
    named = set()
    for context in contexts:
        named.update(context.paper_ids, context.training_paper_ids)
        if context.representative is not None:
            named.add(context.representative)
    paper_ids = sorted(named)
    row = {pid: i for i, pid in enumerate(paper_ids)}
    indptr = indptr_of([context.size for context in contexts])
    members = np.fromiter(
        (row[pid] for context in contexts for pid in context.paper_ids),
        dtype=np.int32,
        count=int(indptr[-1]),
    )
    header = {
        "format": _PAPER_SET_FORMAT,
        "paper_ids": paper_ids,
        "contexts": [context.term_id for context in contexts],
        "training": [
            [row[pid] for pid in context.training_paper_ids] for context in contexts
        ],
        "representatives": [
            None if context.representative is None else row[context.representative]
            for context in contexts
        ],
        "inherited_from": [context.inherited_from for context in contexts],
        "decay": [context.decay for context in contexts],
    }
    _write_npz(path, header, {"indptr": indptr, "members": members})


def read_context_paper_set(
    path: PathLike, ontology: Ontology, paper_rows: PaperRows
) -> ContextPaperSet:
    """Load a context paper set against the ontology and corpus rows it
    was built on; a term or paper they lack raises (silently dropping
    contexts would skew experiments)."""
    header, members = _read_npz(path, _PAPER_SET_FORMAT, "context paper set")
    try:
        paper_ids = header["paper_ids"]
        paper_rows.rows(paper_ids)
        term_ids = header["contexts"]
        training, representatives, inherited, decays = (header[key] for key in (
            "training", "representatives", "inherited_from", "decay"
        ))
        if {len(training), len(representatives), len(inherited), len(decays)} != {
            len(term_ids)
        }:
            raise ValueError("per-context header lists differ in length")
        indptr, rows = members["indptr"], members["members"]
        check_csr(indptr, rows, len(term_ids), len(paper_ids), "indptr/members")
        _check_rows(chain.from_iterable(training), len(paper_ids))
        _check_rows((r for r in representatives if r is not None), len(paper_ids))
        # Object-array indexing maps every member row to its id in C.
        ids = np.array(paper_ids, dtype=object)[rows].tolist()
        bounds = indptr.tolist()
        contexts = [
            Context(
                term_id=term_id,
                paper_ids=tuple(ids[start:end]),
                training_paper_ids=tuple(paper_ids[r] for r in train),
                inherited_from=parent,
                decay=float(decay),
                representative=None if rep is None else paper_ids[rep],
            )
            for term_id, start, end, train, rep, parent, decay in zip(
                term_ids, bounds, bounds[1:], training, representatives,
                inherited, decays,
            )
        ]
        return ContextPaperSet(ontology, contexts, paper_rows)
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"{path}: corrupt context paper set file ({error})") from error


def _check_rows(rows: Iterable, n_table: int) -> None:
    """``ValueError`` unless every row is an int in ``[0, n_table)``."""
    if not all(type(row) is int and 0 <= row < n_table for row in rows):
        raise ValueError(f"row outside the {n_table}-paper table")


# -- pattern extractions (v1) --------------------------------------------------------
#
# Members: ``header`` (uint8 bytes of a JSON object: format tag, the
# sorted ``words`` table of every vocabulary word and middle word, the
# sorted table of every training paper id, and per context its term id,
# extraction ``settings`` and training rows) and three CSRs with one row
# per context (``int64`` indptr):
#
# - ``vocab_indptr`` / ``vocab`` (int32 into ``words``): the vocabulary;
# - ``middle_indptr`` over the middle rows; per middle row its words
#   (``middle_word_indptr`` / ``middle_words``, int32 into ``words``),
#   ``middle_base`` (float64) and ``middle_papers``;
# - ``row_indptr`` over the pattern rows; per row its ``middle`` and
#   ``count``, and ``window`` ids each of ``left`` and ``right``.
#
# The five column members are the records' own compact columns
# concatenated, so ``uint16`` unless one record needed ``uint32``.

_COLUMNS = ("middle_papers", "middle", "count", "left", "right")
_EXTRACTION_MEMBERS = (
    "header", "vocab_indptr", "vocab", "middle_indptr", "middle_word_indptr",
    "middle_words", "middle_base", "row_indptr",
) + _COLUMNS


def write_pattern_extractions(extractions: Extractions, path: PathLike) -> None:
    """Serialise ``term_id -> (training ids, extraction)`` records.

    Contexts are written in ``extractions``' order, and one sorted word
    table serves every vocabulary and middle, so the bytes depend on
    nothing but the records and their order.
    """
    records = [record for _, record in extractions.values()]
    middles = [middle for record in records for middle in record.middles]
    words = sorted(
        set(chain.from_iterable(record.vocabulary for record in records))
        | set(chain.from_iterable(middles))
    )
    word_row = {word: i for i, word in enumerate(words)}
    paper_ids = sorted(
        set(chain.from_iterable(training for training, _ in extractions.values()))
    )
    paper_row = {pid: i for i, pid in enumerate(paper_ids)}

    def word_rows(sequences) -> np.ndarray:
        return np.fromiter(
            map(word_row.__getitem__, chain.from_iterable(sequences)), dtype=np.int32
        )

    header = {
        "format": _EXTRACTIONS_FORMAT,
        "words": words,
        "paper_ids": paper_ids,
        "contexts": list(extractions),
        "settings": [list(record.settings) for record in records],
        "training": [
            [paper_row[pid] for pid in training]
            for training, _ in extractions.values()
        ],
    }
    arrays = {
        "vocab_indptr": indptr_of([len(record.vocabulary) for record in records]),
        "vocab": word_rows(record.vocabulary for record in records),
        "middle_indptr": indptr_of([len(record.middles) for record in records]),
        "middle_word_indptr": indptr_of(list(map(len, middles))),
        "middle_words": word_rows(middles),
        "middle_base": np.concatenate(
            [np.zeros(0)] + [record.middle_base for record in records]
        ),
        "row_indptr": indptr_of([len(record) for record in records]),
    }
    for name in _COLUMNS:
        arrays[name] = np.concatenate(
            [np.zeros(0, dtype=np.uint16)]
            + [getattr(record, name).ravel() for record in records]
        )
    _write_npz(path, header, arrays)


def check_pattern_extractions(path: PathLike) -> Path:
    """``path``, once its zip directory lists every member.

    Reads the directory at the end of the file and no member, so a
    workspace open stays cheap yet still rejects a truncated file; the
    members are checked when :func:`read_pattern_extractions` reads them.
    """
    try:
        with zipfile.ZipFile(path) as archive:
            missing = {f"{name}.npy" for name in _EXTRACTION_MEMBERS} - set(
                archive.namelist()
            )
    except (OSError, zipfile.BadZipFile) as error:
        raise ValueError(
            f"{path}: corrupt pattern-extractions file ({error})"
        ) from error
    if missing:
        raise ValueError(
            f"{path}: corrupt pattern-extractions file (no {sorted(missing)})"
        )
    return Path(path)


def read_pattern_extractions(path: PathLike) -> Extractions:
    """Load the records :func:`write_pattern_extractions` wrote, in order.

    Every record is bit for bit the one written, each int column back in
    its compact dtype.  Every index is checked against the table it
    indexes, so a corrupt file raises ``ValueError`` naming ``path``
    here rather than failing a later pattern build.
    """
    try:
        header, members = _read_npz(path, _EXTRACTIONS_FORMAT, "pattern-extractions")
        words = np.array(header["words"], dtype=object)
        paper_ids = header["paper_ids"]
        term_ids = header["contexts"]
        settings, training = header["settings"], header["training"]
        n = len(term_ids)
        if {len(settings), len(training)} != {n}:
            raise ValueError("per-context header lists differ in length")
        if len(set(term_ids)) != n:
            raise ValueError("duplicate context ids")
        _check_rows(chain.from_iterable(training), len(paper_ids))
        if not all(
            len(knobs) == 3 and all(type(k) is int and k >= 0 for k in knobs)
            for knobs in settings
        ):
            raise ValueError("settings are not three non-negative ints")
        vocab_indptr, middle_indptr = members["vocab_indptr"], members["middle_indptr"]
        row_indptr = members["row_indptr"]
        check_csr(vocab_indptr, members["vocab"], n, len(words), "vocab")
        middle_base = members["middle_base"]
        n_middles = len(middle_base)
        if middle_base.dtype != np.float64 or middle_base.ndim != 1:
            raise ValueError("inconsistent middle_base array")
        check_indptr(middle_indptr, n, n_middles, "middle_indptr")
        middle_word_indptr = members["middle_word_indptr"]
        check_csr(
            middle_word_indptr, members["middle_words"], n_middles, len(words),
            "middle_words",
        )
        n_rows = len(members["count"])
        check_indptr(row_indptr, n, n_rows, "row_indptr")
        windows = np.array([knobs[0] for knobs in settings], dtype=np.int64)
        rows_per_context = np.diff(row_indptr)
        sizes = {
            "middle_papers": n_middles, "middle": n_rows, "count": n_rows,
            "left": int(rows_per_context @ windows),
        }
        sizes["right"] = sizes["left"]
        for name in _COLUMNS:
            column = members[name]
            if column.dtype not in (np.uint16, np.uint32) or column.shape != (
                sizes[name],
            ):
                raise ValueError(f"inconsistent {name} array")
        # Each context's token ids stop at its vocabulary size (0 pads)
        # and its middle indices below its middle count.
        token_bound = np.repeat(np.diff(vocab_indptr), rows_per_context * windows)
        middle_bound = np.repeat(np.diff(middle_indptr), rows_per_context)
        if (members["left"] > token_bound).any() or (
            members["right"] > token_bound
        ).any():
            raise ValueError("token id outside its context's vocabulary")
        if (members["middle"] >= middle_bound).any():
            raise ValueError("middle index outside its context's middles")
    except (KeyError, TypeError, ValueError) as error:
        message = str(error).removeprefix(f"{path}: ")
        raise ValueError(
            f"{path}: corrupt pattern-extractions file ({message})"
        ) from error

    vocab_words = words[members["vocab"]].tolist()
    middle_words = words[members["middle_words"]].tolist()
    word_bounds = middle_word_indptr.tolist()
    middles = [
        tuple(middle_words[lo:hi]) for lo, hi in zip(word_bounds, word_bounds[1:])
    ]
    vocab_bounds, middle_bounds = vocab_indptr.tolist(), middle_indptr.tolist()
    row_bounds = row_indptr.tolist()
    token_bounds = indptr_of((rows_per_context * windows).tolist()).tolist()
    extractions: Extractions = {}
    for c, term_id in enumerate(term_ids):
        rows = slice(row_bounds[c], row_bounds[c + 1])
        tokens = slice(token_bounds[c], token_bounds[c + 1])
        in_middles = slice(middle_bounds[c], middle_bounds[c + 1])
        shape = (row_bounds[c + 1] - row_bounds[c], int(windows[c]))
        extractions[term_id] = (
            tuple(paper_ids[r] for r in training[c]),
            PatternExtraction.from_columns(
                settings=tuple(settings[c]),
                n_training=len(training[c]),
                vocabulary=vocab_words[vocab_bounds[c]:vocab_bounds[c + 1]],
                middles=middles[in_middles],
                middle_base=middle_base[in_middles],
                middle_papers=members["middle_papers"][in_middles],
                left=members["left"][tokens].reshape(shape),
                middle=members["middle"][rows],
                right=members["right"][tokens].reshape(shape),
                count=members["count"][rows],
            ),
        )
    return extractions


# -- prestige scores (v2) ------------------------------------------------------------
#
# Members: ``header`` (uint8 bytes of a JSON object: format tag, function
# name, the sorted table of the papers the maps hold, the row context ids
# of each map) and ``indptr`` (int64) / ``rows`` (int32 into the table) /
# ``values`` (float64) per map, prefixed ``pre_`` for the pre-propagation
# rows.  The zip CRC-32 of every member is checked on read.


def write_prestige_scores(scores: PrestigeScores, path: PathLike) -> None:
    """Serialise prestige scores, with their ``pre`` rows when present.

    Keeping ``pre`` gives a workspace-hydrated pipeline the
    incremental per-context patch path that in-memory scores get (see
    :class:`PrestigeScores`).  The file's paper table is the papers the
    maps hold, sorted by id; each map's rows are renumbered into it.
    """
    main, pre, paper_rows = scores.scores, scores.pre, scores.paper_rows
    used = np.unique(np.concatenate([m.rows for m in (main, pre) if m is not None]))
    used = used[np.argsort(paper_rows.rank[used])]
    position = np.zeros(len(paper_rows), dtype=np.int32)
    position[used] = np.arange(len(used), dtype=np.int32)
    header = {
        "format": _SCORES_FORMAT,
        "function": scores.function_name,
        "paper_ids": [paper_rows.ids[row] for row in used.tolist()],
        "contexts": list(main.context_ids),
        "pre_propagation_contexts": None if pre is None else list(pre.context_ids),
    }
    arrays = {"indptr": main.indptr, "rows": position[main.rows], "values": main.values}
    if pre is not None:
        arrays.update(pre_indptr=pre.indptr, pre_rows=position[pre.rows])
        arrays["pre_values"] = pre.values
    _write_npz(path, header, arrays)


def read_prestige_scores(path: PathLike, paper_rows: PaperRows) -> PrestigeScores:
    """Load prestige scores written by :func:`write_prestige_scores`.

    The file's paper table must be strictly ascending, name only papers
    of ``paper_rows``, and each map's context ids must be unique; the
    table is mapped to ``paper_rows`` with one gather per map.
    """
    header, members = _read_npz(path, _SCORES_FORMAT, "prestige-scores")
    try:
        function_name = str(header["function"])
        paper_ids = tuple(header["paper_ids"])
        if any(a >= b for a, b in zip(paper_ids, paper_ids[1:])):
            raise ValueError("paper_ids not strictly ascending")
        table = paper_rows.rows(paper_ids).astype(np.int32)
        main = _score_rows(header["contexts"], members, "", table)
        pre = header["pre_propagation_contexts"]
        if pre is not None:
            pre = _score_rows(pre, members, "pre_", table)
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"{path}: corrupt prestige-scores file ({error})") from error
    return PrestigeScores(function_name, paper_rows, main, pre)


def _score_rows(
    context_ids, members: Dict[str, np.ndarray], prefix: str, table: np.ndarray
) -> ScoreRows:
    """One map's arrays, checked, with its rows mapped through ``table``."""
    context_ids = tuple(context_ids)
    if len(set(context_ids)) != len(context_ids):
        raise ValueError(f"duplicate {prefix}context ids")
    indptr = members[prefix + "indptr"]
    rows = members[prefix + "rows"]
    values = members[prefix + "values"]
    what = f"{prefix}indptr/rows/values"
    check_csr(indptr, rows, len(context_ids), len(table), what)
    if values.dtype != np.float64 or values.shape != rows.shape:
        raise ValueError(f"inconsistent {what} arrays")
    return ScoreRows(context_ids, indptr, table[rows], values)


# -- the vector store (v2) -----------------------------------------------------------
#
# The reader takes the live object the artefact cannot embed (the
# corpus's token cache) -- the same convention as
# :func:`read_context_paper_set`'s ontology.


def write_vector_store(vectors: PaperVectorStore, path: PathLike) -> None:
    """The store's models, count rows and unit rows as ``.npz`` (v2).

    The header holds the paper table and each fitted model's vocabulary;
    the members are :meth:`PaperVectorStore.to_arrays`' arrays.
    """
    header, arrays = vectors.to_arrays()
    _write_npz(path, {"format": _VECTORS_FORMAT, **header}, arrays)


def read_vector_store(path: PathLike, tokens: AnalyzedPaperCache) -> PaperVectorStore:
    header, members = _read_npz(path, _VECTORS_FORMAT, "vector-store")
    try:
        return PaperVectorStore.from_arrays(header, members, tokens)
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"{path}: corrupt vector-store file ({error})") from error

