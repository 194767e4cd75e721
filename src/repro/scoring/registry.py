"""The pluggable score-function registry.

The paper's core contribution is comparing *interchangeable* prestige
score functions over pre-computed contexts (section 3).  This module
makes that interchangeability structural: every score function is a
:class:`ScoreFunctionSpec` registered by name, and every layer that used
to hard-code function names -- the pipeline's prestige dispatch, the CLI
``--function`` choices, the workspace score artifacts, the evaluation
sweeps -- derives its list from the registry instead.  Registering one
spec therefore gets a new ranking function fingerprinted persistence,
CLI exposure, and inclusion in evaluation sweeps with no edits to core
modules (see ``docs/architecture.md`` for the worked ``combined``
example).  The mechanics are the shared :class:`repro.registry.Registry`;
this module binds its public functions to one instance, ``REGISTRY``.

A spec declares:

- ``name`` -- the registry key, CLI value, and metric segment;
- ``factory`` -- builds the scorer from a
  :class:`~repro.serving.substrate.SubstrateStore` (the build layer that
  owns index/vectors/graph/paper sets/representatives);
- ``substrates`` -- the workspace-artifact names the computed scores
  depend on (beyond the paper-set artifact itself), which become the
  fingerprint dependency chain of each persisted score artifact;
- ``paper_sets`` -- the context paper sets the function is persisted and
  swept on (its evaluation arms); an empty tuple keeps a function
  searchable but out of the workspace and the experiment sweeps (the
  ``hits`` road-not-taken);
- ``in_overlap`` -- whether the function joins the figure-5.3 pairwise
  overlap grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.registry import Registry, check_name

#: The two context paper sets of section 4.  Paper-set construction is
#: structural (text assignment vs pattern assignment), not pluggable --
#: specs may only reference these names.
PAPER_SET_NAMES: Tuple[str, ...] = ("text", "pattern")


@dataclass(frozen=True)
class ScoreFunctionSpec:
    """Declaration of one prestige score function (see module docstring)."""

    name: str
    #: ``factory(substrates) -> PrestigeScoreFunction``; called lazily, at
    #: most once per (function, paper set) thanks to score memoisation.
    factory: Callable
    #: Workspace-artifact names the scores depend on, e.g.
    #: ``("citation_graph",)`` -- the paper-set artifact is implicit.
    substrates: Tuple[str, ...] = ()
    #: Paper sets the function is persisted on and swept over in
    #: evaluation (its arms).  Empty = searchable only.
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
    #: - ``"full"`` (the conservative default) -- scores couple to
    #:   corpus-global statistics (IDF, coverage, co-authorship), so any
    #:   delta drops the whole memo and the function recomputes lazily.
    delta_scope: str = "full"

    def __post_init__(self) -> None:
        check_name("score function", self.name)
        if not callable(self.factory):
            raise ValueError(f"score function {self.name!r}: factory not callable")
        for paper_set in self.paper_sets:
            if paper_set not in PAPER_SET_NAMES:
                raise ValueError(
                    f"score function {self.name!r}: unknown paper set "
                    f"{paper_set!r}; expected one of {PAPER_SET_NAMES}"
                )
        if self.delta_scope not in ("contexts", "full"):
            raise ValueError(
                f"score function {self.name!r}: unknown delta_scope "
                f"{self.delta_scope!r}; expected 'contexts' or 'full'"
            )

    def arms(self) -> List[Tuple[str, str]]:
        """The function's evaluation arms as (function, paper_set) pairs."""
        return [(self.name, paper_set) for paper_set in self.paper_sets]


REGISTRY: Registry[ScoreFunctionSpec] = Registry("prestige function")

register = REGISTRY.register
unregister = REGISTRY.unregister
temporary_registration = REGISTRY.temporary_registration
get = REGISTRY.get
is_registered = REGISTRY.__contains__
specs = REGISTRY.specs
#: Registered function names in registration order (CLI choices).
function_names = REGISTRY.names


def registry_revision() -> int:
    """Mutation counter; derived views compare it to detect staleness."""
    return REGISTRY.revision


def evaluation_arms() -> Tuple[Tuple[str, str], ...]:
    """Every (function, paper_set) experiment arm, registration-ordered.

    This single list drives the workspace score artifacts, the
    ``repro evaluate`` sweep, and the report sections -- one place to
    look when asking "what gets compared?".
    """
    return tuple(
        arm for spec in specs() for arm in spec.arms()
    )


def overlap_pairs() -> Tuple[Tuple[str, str], ...]:
    """Pairs for the figure-5.3 overlap grid (functions opted in)."""
    names = [spec.name for spec in specs() if spec.in_overlap]
    return tuple(itertools.combinations(names, 2))
