"""Corpus substrate: papers and paper collections.

Models the parsed full-text PubMed papers of the paper's testbed: every
paper carries the six similarity facets of section 3.2 (title, abstract,
body, index terms, authors, references) plus the identifiers needed to
track citations and context assignments.

- :mod:`repro.corpus.paper` -- the :class:`Paper` record and its sections.
- :mod:`repro.corpus.corpus` -- the :class:`Corpus` container with id maps,
  author and citation indexes.
- :mod:`repro.corpus.rows` -- :class:`PaperRows`, a revision's paper rows.
- :mod:`repro.corpus.io` -- JSONL persistence.
"""

from repro.corpus.corpus import Corpus
from repro.corpus.io import read_corpus_jsonl, write_corpus_jsonl
from repro.corpus.paper import Paper, Section
from repro.corpus.rows import PaperRows
from repro.corpus.validate import ValidationReport, validate_corpus

__all__ = [
    "Paper",
    "Section",
    "Corpus",
    "PaperRows",
    "read_corpus_jsonl",
    "write_corpus_jsonl",
    "validate_corpus",
    "ValidationReport",
]
