"""JSONL persistence for corpora.

One JSON object per line keeps memory flat when streaming large corpora and
makes the on-disk form greppable.  Round-trips exactly through
:meth:`Paper.to_dict` / :meth:`Paper.from_dict`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.corpus.corpus import Corpus
from repro.corpus.paper import Paper

PathLike = Union[str, Path]


def write_corpus_jsonl(corpus: Corpus, path: PathLike) -> int:
    """Write ``corpus`` to ``path`` as JSONL; returns the paper count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for paper in corpus:
            handle.write(json.dumps(paper.to_dict(), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def read_corpus_jsonl(path: PathLike) -> Corpus:
    """Load a corpus written by :func:`write_corpus_jsonl`.

    Blank lines are skipped; malformed lines raise ``ValueError`` with the
    offending line number so a truncated file fails loudly, not silently.
    """
    corpus = Corpus()
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                paper = Paper.from_dict(json.loads(stripped))
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError(
                    f"{path}:{line_number}: malformed JSONL record: {error}"
                ) from error
            corpus.add(paper)
    return corpus
