"""The declaration of a prestige score function, and the table check.

The paper's core contribution is comparing *interchangeable* prestige
score functions over pre-computed contexts (section 3).  This module
makes that interchangeability structural: every score function is a
:class:`ScoreFunctionSpec`, :mod:`repro.scoring.functions` declares the
table of them once, at import, and every layer that used to hard-code
function names -- the pipeline's prestige dispatch, the CLI
``--function`` choices, the workspace score artifacts, the evaluation
sweeps -- derives its list from that table.  One more spec in the table
therefore gets a new ranking function fingerprinted persistence, CLI
exposure, and inclusion in evaluation sweeps with no edits to core
modules (see ``docs/architecture.md`` for the worked ``combined``
example).

A spec's ``name`` is the table key, CLI value, and metric segment; its
other fields are documented on :class:`ScoreFunctionSpec`.  It either
builds a scorer (``factory``) or blends other functions' scores
(``components``, a *derived* function that scores no paper).
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: The two context paper sets of section 4.  Paper-set construction is
#: structural (text assignment vs pattern assignment), not pluggable --
#: specs may only reference these names.
PAPER_SET_NAMES: Tuple[str, ...] = ("text", "pattern")

#: Names double as CLI values, file-name segments and metric segments.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")


@dataclass(frozen=True)
class ScoreFunctionSpec:
    """Declaration of one prestige score function (see module docstring)."""

    name: str
    #: ``factory(substrates) -> PrestigeScoreFunction``, given the
    #: :class:`~repro.serving.substrate.SubstrateStore`; called lazily, at
    #: most once per (function, paper set) thanks to score memoisation.
    #: Exactly one of ``factory`` and ``components`` is set.
    factory: Optional[Callable] = None
    #: Workspace-artifact names the scores depend on, e.g.
    #: ``("vectors",)`` -- the paper-set artifact is implicit (it
    #: carries the representatives), and so is the corpus (the citation
    #: graph derives from it).  For a derived spec :func:`check_specs`
    #: sets it to the ordered union of its components' substrates.
    substrates: Tuple[str, ...] = ()
    #: Paper sets the function is persisted on and swept over in
    #: evaluation (its arms).  Empty = searchable only (``hits``).
    paper_sets: Tuple[str, ...] = ()
    description: str = ""
    #: Include in the pairwise top-k% overlap experiment (figure 5.3).
    in_overlap: bool = False
    #: How a corpus delta invalidates this function's computed scores:
    #:
    #: - ``"contexts"`` -- per-context scores depend only on structure
    #:   *induced by the context's own paper set* (e.g. PageRank/HITS on
    #:   the context's citation subgraph), so contexts whose paper sets
    #:   did not change keep byte-identical scores and only changed
    #:   contexts are re-scored;
    #: - ``"full"`` (the conservative default, and the only scope of a
    #:   derived spec) -- scores couple to corpus-global statistics (IDF,
    #:   coverage, co-authorship), so any delta drops the whole memo and
    #:   the function recomputes (or re-derives) lazily.
    delta_scope: str = "full"
    #: ``(function, weight)`` pairs, weights made convex (``w / sum``):
    #: a paper's pre-propagation score in a context is ``0.0 + w_1*s_1 +
    #: w_2*s_2 ...`` over the components' pre-propagation rows
    #: (:attr:`PrestigeScores.pre`), in order, skipping components that
    #: did not score the context or the paper; the blended row lists its
    #: papers in order of first appearance, and is then max-propagated.
    #: Those scores are already normalised and decayed, so a decayed
    #: context gets ``sum(w * (d * x))``, which can differ from
    #: ``d * sum(w * x)`` in the last ulp.
    components: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValueError(
                f"score function name {self.name!r} must match "
                f"{_NAME_RE.pattern} (it becomes a CLI value, a file-name "
                f"segment and a metric segment)"
            )
        if (self.factory is None) == (not self.components):
            raise ValueError(
                f"score function {self.name!r}: declare exactly one of "
                f"factory and components"
            )
        if self.factory is not None and not callable(self.factory):
            raise ValueError(f"score function {self.name!r}: factory not callable")
        for paper_set in self.paper_sets:
            if paper_set not in PAPER_SET_NAMES:
                raise ValueError(
                    f"score function {self.name!r}: unknown paper set "
                    f"{paper_set!r}; expected one of {PAPER_SET_NAMES}"
                )
        scopes = ("full",) if self.components else ("contexts", "full")
        if self.delta_scope not in scopes:
            raise ValueError(
                f"score function {self.name!r}: unsupported delta_scope "
                f"{self.delta_scope!r}; expected one of {scopes}"
            )
        if self.components:
            total = sum(weight for _, weight in self.components)
            if not total > 0.0:
                raise ValueError(
                    f"score function {self.name!r}: component weights must "
                    f"sum to a positive value"
                )
            convex = tuple((name, w / total) for name, w in self.components)
            object.__setattr__(self, "components", convex)

    def arms(self) -> List[Tuple[str, str]]:
        """The function's evaluation arms as (function, paper_set) pairs."""
        return [(self.name, paper_set) for paper_set in self.paper_sets]


def _resolve(
    specs: Dict[str, ScoreFunctionSpec], spec: ScoreFunctionSpec
) -> ScoreFunctionSpec:
    """``spec`` with a derived spec's components checked, substrates filled.

    Components must be other functions of ``specs`` that score papers
    themselves (a ``factory``), so no chain of components can loop.
    """
    if not spec.components:
        return spec
    substrates: Dict[str, None] = {}
    for name, _ in spec.components:
        component = specs.get(name)
        if name == spec.name or component is None or component.factory is None:
            raise ValueError(
                f"score function {spec.name!r}: component {name!r} must be "
                f"another declared function with a factory"
            )
        missing = set(spec.paper_sets) - set(component.paper_sets)
        if missing:
            raise ValueError(
                f"score function {spec.name!r}: component {name!r} is not "
                f"declared on paper set(s) {sorted(missing)}"
            )
        substrates.update(dict.fromkeys(component.substrates))
    return dataclasses.replace(spec, substrates=tuple(substrates))


def check_specs(specs: Iterable[ScoreFunctionSpec]) -> Dict[str, ScoreFunctionSpec]:
    """``specs`` keyed by name, in order, each derived spec resolved.

    The order is the order of CLI choices and evaluation arms.  Raises
    ``ValueError`` on a repeated name, or on a derived spec whose
    components are not earlier specs with a factory.
    """
    table: Dict[str, ScoreFunctionSpec] = {}
    for spec in specs:
        if spec.name in table:
            raise ValueError(f"score function {spec.name!r} is declared twice")
        table[spec.name] = _resolve(table, spec)
    return table
