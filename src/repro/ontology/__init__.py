"""Ontology substrate: a Gene-Ontology-like DAG of terms.

Contexts in the paper are GO terms; the system needs the DAG structure
(parents/children), term *levels* (root = level 1, as in figure 5.3's
caption), descendant counts for information content ``I(C) = log(1/p(C))``
(Resnik, paper reference [13]), and the term-name words that seed
pattern construction.

- :mod:`repro.ontology.term` -- the :class:`Term` record.
- :mod:`repro.ontology.ontology` -- the :class:`Ontology` DAG.
- :mod:`repro.ontology.obo` -- a reader/writer for the OBO 1.2 subset
  needed to load the real Gene Ontology.
"""

from repro.ontology.obo import read_obo, write_obo
from repro.ontology.ontology import Ontology
from repro.ontology.semantic import (
    lin_similarity,
    most_informative_common_ancestor,
    resnik_similarity,
)
from repro.ontology.term import Term

__all__ = [
    "Term",
    "Ontology",
    "read_obo",
    "write_obo",
    "resnik_similarity",
    "lin_similarity",
    "most_informative_common_ancestor",
]
