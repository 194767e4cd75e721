"""Synthetic GO-like ontology generation.

Grows a DAG top-down from one root.  Child term names are *compositional*:
a child prepends (or inserts) modifier words into its parent's name, so

    root:     "biological process"
    level 2:  "metabolic process"
    level 3:  "glucose metabolic process"
    level 4:  "negative glucose metabolic process"

This reproduces the naming structure behind the paper's pattern-score
observations (section 5.2's "RNA polymerase II transcription factor
activity" example): siblings differ in one high-information modifier,
children of a term share most of its words, and term names get longer and
more selective with depth.

A small fraction of non-root terms get a second parent, making the result
a genuine DAG like GO rather than a tree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.datagen.lexicon import TERM_MODIFIERS
from repro.ontology.ontology import Ontology
from repro.ontology.term import Term


@dataclass
class OntologyGenerator:
    """Parameters for synthetic ontology growth.

    Attributes
    ----------
    n_terms:
        Total number of terms to generate (including the root).
    max_depth:
        Maximum level (root = 1).  Growth stops descending past this.
    min_children, max_children:
        Fan-out range for terms that get children.
    second_parent_probability:
        Chance a non-root term receives an extra parent from the previous
        level (creates the DAG diamonds GO has).
    """

    n_terms: int = 200
    max_depth: int = 7
    min_children: int = 2
    max_children: int = 5
    second_parent_probability: float = 0.08

    def generate(self, seed: int = 0) -> Ontology:
        """Generate a seeded ontology with ``n_terms`` terms."""
        if self.n_terms < 1:
            raise ValueError(f"n_terms must be >= 1, got {self.n_terms}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        rng = random.Random(seed)
        terms: List[Term] = [Term(self._term_id(0), "biological process")]
        # Track (term index, level, name words) of expandable frontier terms.
        frontier: List[int] = [0]
        levels = {0: 1}
        modifiers_unused = {0: list(TERM_MODIFIERS)}
        rng.shuffle(modifiers_unused[0])

        while len(terms) < self.n_terms and frontier:
            # Expand a random frontier term (biased to shallower terms so the
            # ontology fills level by level rather than one deep chain).
            frontier.sort(key=lambda i: levels[i])
            parent_index = frontier.pop(0)
            parent = terms[parent_index]
            parent_level = levels[parent_index]
            if parent_level >= self.max_depth:
                continue
            n_children = rng.randint(self.min_children, self.max_children)
            n_children = min(n_children, self.n_terms - len(terms))
            available = modifiers_unused[parent_index]
            for _ in range(n_children):
                child_index = len(terms)
                name = self._child_name(rng, parent.name, available)
                parent_ids = [parent.term_id]
                if (
                    rng.random() < self.second_parent_probability
                    and parent_level >= 2
                ):
                    extra = self._extra_parent(rng, terms, levels, parent_level,
                                               parent.term_id)
                    if extra is not None:
                        parent_ids.append(extra)
                terms.append(
                    Term(
                        self._term_id(child_index),
                        name,
                        parent_ids=tuple(parent_ids),
                    )
                )
                levels[child_index] = parent_level + 1
                child_modifiers = list(TERM_MODIFIERS)
                rng.shuffle(child_modifiers)
                modifiers_unused[child_index] = child_modifiers
                frontier.append(child_index)
        return Ontology(terms)

    @staticmethod
    def _term_id(index: int) -> str:
        return f"T:{index:06d}"

    @staticmethod
    def _child_name(
        rng: random.Random, parent_name: str, unused_modifiers: List[str]
    ) -> str:
        """Prefix the parent's name with a modifier unused among siblings.

        Falls back to doubled modifiers if the pool runs dry (possible for
        extremely wide fan-outs), keeping names distinct.
        """
        if unused_modifiers:
            modifier = unused_modifiers.pop()
        else:
            modifier = f"{rng.choice(TERM_MODIFIERS)} {rng.choice(TERM_MODIFIERS)}"
        return f"{modifier} {parent_name}"

    @staticmethod
    def _extra_parent(
        rng: random.Random,
        terms: Sequence[Term],
        levels: dict,
        child_parent_level: int,
        primary_parent: str,
    ) -> Optional[str]:
        """Pick a second parent at the same level as the primary parent."""
        candidates = [
            terms[i].term_id
            for i, level in levels.items()
            if level == child_parent_level and terms[i].term_id != primary_parent
        ]
        if not candidates:
            return None
        return rng.choice(candidates)
