"""The paper record: the unit the whole system ranks."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Tuple


class Section(str, enum.Enum):
    """Textual facets of a paper (section 3.2's similarity components).

    ``AUTHORS`` and ``REFERENCES`` are *set-valued* facets: similarity over
    them uses overlap measures rather than TF-IDF cosine.
    """

    TITLE = "title"
    ABSTRACT = "abstract"
    BODY = "body"
    INDEX_TERMS = "index_terms"
    AUTHORS = "authors"
    REFERENCES = "references"


#: The facets carrying free text (vectorised with TF-IDF).
TEXT_SECTIONS: Tuple[Section, ...] = (
    Section.TITLE,
    Section.ABSTRACT,
    Section.BODY,
    Section.INDEX_TERMS,
)

#: Record fields :meth:`Paper.from_dict` requires to be a string / a list
#: of strings when present.
_TEXT_FIELDS = ("title", "abstract", "body")
_LIST_FIELDS = ("index_terms", "authors", "references", "true_context_ids")


@dataclass(frozen=True)
class Paper:
    """One publication.

    Attributes
    ----------
    paper_id:
        Stable identifier (PubMed-id-like string, e.g. ``"P0001234"``).
    title, abstract, body:
        Raw section text.
    index_terms:
        Keyword/MeSH-style index terms.
    authors:
        Ordered author names (duplicates removed by the corpus on load).
    references:
        Cited paper ids.  References may point outside the corpus
        (dangling); the citation graph keeps only resolvable edges but the
        paper record preserves the full list, as a real parser would.
    year:
        Publication year (used only for PubMed-style recency ordering in
        the keyword baseline).
    true_context_ids:
        *Generator ground truth only*: the ontology terms this paper was
        synthesised from.  Empty for real data.  Evaluation uses this to
        validate AC-answer sets, never to compute scores.
    """

    paper_id: str
    title: str
    abstract: str = ""
    body: str = ""
    index_terms: Tuple[str, ...] = field(default_factory=tuple)
    authors: Tuple[str, ...] = field(default_factory=tuple)
    references: Tuple[str, ...] = field(default_factory=tuple)
    year: int = 2000
    true_context_ids: Tuple[str, ...] = field(default_factory=tuple)

    def section_text(self, section: Section) -> str:
        """Raw text of a *textual* section (joined for index terms).

        Raises ValueError for the set-valued facets, which have no single
        text representation.
        """
        if section is Section.TITLE:
            return self.title
        if section is Section.ABSTRACT:
            return self.abstract
        if section is Section.BODY:
            return self.body
        if section is Section.INDEX_TERMS:
            return " ".join(self.index_terms)
        raise ValueError(f"section {section.value!r} is not textual")

    def all_text(self) -> str:
        """Concatenation of all textual sections (used for whole-paper vectors)."""
        return " ".join(
            part
            for part in (self.title, self.abstract, self.body, " ".join(self.index_terms))
            if part
        )

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSONL serialisation."""
        return {
            "paper_id": self.paper_id,
            "title": self.title,
            "abstract": self.abstract,
            "body": self.body,
            "index_terms": list(self.index_terms),
            "authors": list(self.authors),
            "references": list(self.references),
            "year": self.year,
            "true_context_ids": list(self.true_context_ids),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Paper":
        """Inverse of :meth:`to_dict`.

        Raises ``ValueError`` naming the field when a text field is not a
        string, a list field is not a list of strings, or ``year`` is not
        an integer, so a malformed record fails before it reaches a corpus.
        """
        text = {"paper_id": data["paper_id"]}
        text.update({name: data.get(name, "") for name in _TEXT_FIELDS})
        lists = {name: data.get(name, []) for name in _LIST_FIELDS}
        year = data.get("year", 2000)
        for name, value in text.items():
            if not isinstance(value, str):
                raise ValueError(f"paper field {name!r} must be a string")
        for name, value in lists.items():
            if not isinstance(value, list) or not all(
                isinstance(item, str) for item in value
            ):
                raise ValueError(f"paper field {name!r} must be a list of strings")
        if not isinstance(year, int) or isinstance(year, bool):
            raise ValueError("paper field 'year' must be an integer")
        return cls(
            year=year, **text, **{name: tuple(value) for name, value in lists.items()}
        )
