"""Persistence for expensive pipeline artefacts.

Context paper sets and prestige scores take minutes to build on large
corpora; these helpers serialise them so a deployment computes them once
(the paper's "query independent pre-processing steps") and serves
searches from disk thereafter.  Prestige scores and the vector store are
stored as arrays in an uncompressed ``.npz`` with a JSON header
(:func:`write_prestige_scores`, :func:`write_vector_store`); the other
artefacts are format-tagged JSON.

Every writer goes through :func:`atomic_write`, so a crash mid-write
leaves the previous file intact and a reader that has a file open or
mapped keeps seeing the bytes it opened.  Every reader raises
``ValueError`` naming the path when a file is corrupt or of the wrong
format.
"""

from __future__ import annotations

import json
import os
import secrets
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Dict, Iterator, Optional, Union

import numpy as np

from repro.core.context import Context, ContextPaperSet
from repro.core.vectors import PaperVectorStore
from repro.corpus.corpus import Corpus
from repro.ontology.ontology import Ontology
from repro.scoring.base import PrestigeScores, ScoreRows
from repro.text.analyze import Analyzer

PathLike = Union[str, Path]

#: Suffix of the temporary file :func:`atomic_write` fills; one left in
#: a workspace means a writer died before it could clean up.
TEMP_SUFFIX = ".tmp"

_PAPER_SET_FORMAT = "repro/context-paper-set/v1"
_SCORES_FORMAT = "repro/prestige-scores/v2"
_VECTORS_FORMAT = "repro/vector-store/v2"
_REPRESENTATIVES_FORMAT = "repro/representatives/v1"


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


def _read_json(path: PathLike):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ValueError(f"{path}: corrupt JSON ({error})") from error


def write_tagged_json(payload: dict, path: PathLike, format_tag: str) -> None:
    """Write ``payload`` with a ``format`` tag for load-time validation."""
    payload = {"format": format_tag, **payload}
    with atomic_write(path, "w", encoding="utf-8") as handle:
        # ``json.dump`` always runs the pure-Python encoder; ``dumps``
        # takes the C one and yields the same text.
        handle.write(json.dumps(payload))


def read_tagged_json(path: PathLike, format_tag: str) -> dict:
    """Read a JSON artefact, refusing mismatched or corrupt files.

    Both failure modes raise ``ValueError`` naming the offending path, so
    a broken workspace points at the file to rebuild.
    """
    payload = _read_json(path)
    if not isinstance(payload, dict) or payload.get("format") != format_tag:
        found = payload.get("format") if isinstance(payload, dict) else None
        raise ValueError(
            f"{path}: expected format {format_tag!r}, found {found!r}"
        )
    return payload


def write_context_paper_set(paper_set: ContextPaperSet, path: PathLike) -> None:
    """Serialise a context paper set (ontology is *not* embedded)."""
    payload = {
        "contexts": [
            {
                "term_id": context.term_id,
                "paper_ids": list(context.paper_ids),
                "training_paper_ids": list(context.training_paper_ids),
                "inherited_from": context.inherited_from,
                "decay": context.decay,
            }
            for context in paper_set
        ],
    }
    write_tagged_json(payload, path, _PAPER_SET_FORMAT)


def read_context_paper_set(path: PathLike, ontology: Ontology) -> ContextPaperSet:
    """Load a context paper set against the ontology it was built on.

    Terms missing from ``ontology`` raise (a paper set only makes sense
    with its ontology; silently dropping contexts would skew experiments).
    """
    payload = _read_json(path)
    if not isinstance(payload, dict) or payload.get("format") != _PAPER_SET_FORMAT:
        found = payload.get("format") if isinstance(payload, dict) else None
        raise ValueError(
            f"{path}: not a context paper set file (format={found!r})"
        )
    contexts = [
        Context(
            term_id=raw["term_id"],
            paper_ids=tuple(raw["paper_ids"]),
            training_paper_ids=tuple(raw.get("training_paper_ids", ())),
            inherited_from=raw.get("inherited_from"),
            decay=float(raw.get("decay", 1.0)),
        )
        for raw in payload["contexts"]
    ]
    return ContextPaperSet(ontology, contexts)


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
        raise ValueError(f"{path}: not a {what} file (format={found!r})")
    return header, members


# -- prestige scores (v2) ------------------------------------------------------------
#
# Members: ``header`` (uint8 bytes of a JSON object: format tag, function
# name, the sorted paper-id table, the row context ids of each map) and
# ``indptr`` (int64) / ``rows`` (int32 into the paper table) / ``values``
# (float64) per map, prefixed ``pre_`` for ``pre_propagation``.  The zip
# CRC-32 of every member is checked on read.


def write_prestige_scores(scores: PrestigeScores, path: PathLike) -> None:
    """Serialise prestige scores, with ``pre_propagation`` when present.

    Keeping ``pre_propagation`` gives a workspace-hydrated pipeline the
    incremental per-context patch path that in-memory scores get (see
    :class:`PrestigeScores`).  Row-backed scores are written from their
    rows; nothing builds per-entry dicts.
    """
    paper_ids, main, pre = scores.to_rows()
    header = {
        "format": _SCORES_FORMAT,
        "function": scores.function_name,
        "paper_ids": list(paper_ids),
        "contexts": list(main.context_ids),
        "pre_propagation_contexts": None if pre is None else list(pre.context_ids),
    }
    arrays = {"indptr": main.indptr, "rows": main.rows, "values": main.values}
    if pre is not None:
        arrays.update(pre_indptr=pre.indptr, pre_rows=pre.rows, pre_values=pre.values)
    _write_npz(path, header, arrays)


def read_prestige_scores(path: PathLike) -> PrestigeScores:
    """Load prestige scores written by :func:`write_prestige_scores`.

    The result is row-backed: no per-entry Python object is built.
    """
    header, members = _read_npz(path, _SCORES_FORMAT, "prestige-scores")
    try:
        function_name = str(header["function"])
        paper_ids = tuple(header["paper_ids"])
        main = _score_rows(header["contexts"], members, "", len(paper_ids))
        pre = header["pre_propagation_contexts"]
        if pre is not None:
            pre = _score_rows(pre, members, "pre_", len(paper_ids))
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"{path}: corrupt prestige-scores file ({error})") from error
    return PrestigeScores.from_rows(function_name, paper_ids, main, pre)


def _score_rows(
    context_ids, members: Dict[str, np.ndarray], prefix: str, n_papers: int
) -> ScoreRows:
    """One map's arrays, checked against each other and the paper table."""
    context_ids = tuple(context_ids)
    indptr = members[prefix + "indptr"]
    rows = members[prefix + "rows"]
    values = members[prefix + "values"]
    if (
        indptr.dtype != np.int64 or rows.dtype != np.int32
        or values.dtype != np.float64
        or indptr.shape != (len(context_ids) + 1,)
        or indptr[0] != 0 or (np.diff(indptr) < 0).any()
        or rows.shape != (int(indptr[-1]),) or values.shape != rows.shape
        or (rows.size and not 0 <= rows.min() <= rows.max() < n_papers)
    ):
        raise ValueError(f"inconsistent {prefix}indptr/rows/values arrays")
    return ScoreRows(context_ids, indptr, rows, values)


# -- workspace substrate codecs ---------------------------------------------------
#
# Readers take the live objects the artefact cannot embed (corpus,
# analyzer) -- the same convention as :func:`read_context_paper_set`'s
# ontology.


def write_vector_store(vectors: PaperVectorStore, path: PathLike) -> None:
    """The store's models, count rows and unit rows as ``.npz`` (v2).

    The header holds the paper table and each fitted model's vocabulary;
    the members are :meth:`PaperVectorStore.to_arrays`' arrays.
    """
    header, arrays = vectors.to_arrays()
    _write_npz(path, {"format": _VECTORS_FORMAT, **header}, arrays)


def read_vector_store(
    path: PathLike, corpus: Corpus, analyzer: Optional[Analyzer] = None
) -> PaperVectorStore:
    header, members = _read_npz(path, _VECTORS_FORMAT, "vector-store")
    try:
        return PaperVectorStore.from_arrays(header, members, corpus, analyzer=analyzer)
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"{path}: corrupt vector-store file ({error})") from error


def write_representatives(representatives: Dict[str, str], path: PathLike) -> None:
    write_tagged_json({"by_context": dict(representatives)}, path,
                      _REPRESENTATIVES_FORMAT)


def read_representatives(path: PathLike) -> Dict[str, str]:
    payload = read_tagged_json(path, _REPRESENTATIVES_FORMAT)
    return dict(payload["by_context"])
