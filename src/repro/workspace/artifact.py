"""Artifact declarations: the nodes of the workspace build graph.

Each :class:`Artifact` bundles everything the builder needs to treat one
pipeline substrate as a first-class build product:

- ``build(pipeline)``   -- produce the object (delegates to the
  pipeline's lazily-memoised properties, so dependency objects installed
  beforehand are reused, never rebuilt);
- ``save(obj, path)`` / ``load(path, pipeline)`` -- the typed codec
  (see :mod:`repro.core.io` and :mod:`repro.index.inverted`); ``save``
  writes exactly ``path``, atomically;
- ``install(pipeline, obj)`` -- hydrate the substrate store's slot so
  later property accesses short-circuit (and the serving layer sees the
  revision bump);
- ``deps`` -- upstream artifact names (fingerprints chain through them);
- ``config_keys`` -- the pipeline parameters the artifact's content
  depends on (changing any other parameter leaves it fresh).

The registry :data:`ARTIFACTS` is declaration-ordered and already
topologically sorted; :func:`topological_order` re-derives the order from
the declared edges and is what the builder actually uses, so a future
out-of-order declaration cannot corrupt builds.

Score artifacts are **derived from the score-function table**
(:mod:`repro.scoring`): each declared function contributes one
``scores_<function>_<paper_set>`` artifact per declared paper set, whose
fingerprint dependencies are the paper-set artifact plus the spec's
``substrates``.  A function added to that table therefore gets
fingerprinted persistence with no edits here.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro import scoring
from repro.core import io as core_io
from repro.index import open_index, save_index


@dataclass(frozen=True)
class Artifact:
    """One node of the artifact graph (see module docstring)."""

    name: str
    filename: str
    schema_version: int
    build: Callable
    save: Callable
    load: Callable
    install: Callable
    deps: Tuple[str, ...] = ()
    config_keys: Tuple[str, ...] = ()
    description: str = ""
    #: The substrate-store slot ``install`` fills (default: ``name``).
    slot: str = ""

    def installed(self, pipeline) -> bool:
        """Is the object already live in the pipeline's substrate store?"""
        return pipeline.substrates.has(self.slot or self.name)


def _score_artifact(function: str, paper_set_name: str, deps: Tuple[str, ...]) -> Artifact:
    key = f"{function}/{paper_set_name}"

    def install(pipeline, scores):
        pipeline.substrates.install_scores(key, scores)

    return Artifact(
        name=f"scores_{function}_{paper_set_name}",
        filename=f"scores_{function}_{paper_set_name}.npz",
        schema_version=2,
        build=lambda pipeline: pipeline.prestige(function, paper_set_name),
        save=core_io.write_prestige_scores,
        load=lambda path, pipeline: core_io.read_prestige_scores(
            path, pipeline.corpus.paper_rows
        ),
        install=install,
        deps=deps,
        description=f"{function} prestige scores on the {paper_set_name} paper set",
        slot=key,
    )


def _build_vectors(pipeline):
    vectors = pipeline.vectors
    vectors.warm()
    return vectors


#: The structural artifacts every pipeline shares (declaration order is
#: a valid build order).  Score artifacts are appended from the
#: score-function table -- see :func:`_derive_artifacts`.
_BASE_ARTIFACTS: Tuple[Artifact, ...] = (
    Artifact(
        name="index",
        filename="index.bin",
        schema_version=3,
        build=lambda pipeline: pipeline.index,
        save=save_index,
        # Opened read-only behind mmap; a delta builds a new one in memory.
        load=lambda path, pipeline: open_index(path, pipeline.corpus.paper_rows),
        install=lambda pipeline, index: pipeline.substrates.install_index(index),
        description="section-aware inverted index over the corpus (packed postings)",
    ),
    Artifact(
        name="vectors",
        filename="vectors.npz",
        schema_version=2,
        build=_build_vectors,
        save=core_io.write_vector_store,
        load=lambda path, pipeline: core_io.read_vector_store(path, pipeline.tokens),
        install=lambda pipeline, vectors: pipeline.substrates.install_vectors(vectors),
        # A fingerprint edge only: the vectors read the token cache, not
        # the index.  Dropping it would move every workspace fingerprint.
        deps=("index",),
        description="fitted TF-IDF models, per-paper term counts and unit TF-IDF rows",
    ),
    Artifact(
        name="text_paper_set",
        filename="text_paper_set.npz",
        schema_version=2,
        build=lambda pipeline: pipeline.text_paper_set,
        save=core_io.write_context_paper_set,
        load=lambda path, pipeline: core_io.read_context_paper_set(
            path, pipeline.ontology, pipeline.corpus.paper_rows
        ),
        install=lambda pipeline, paper_set: (
            pipeline.substrates.install_text_paper_set(paper_set)
        ),
        deps=("vectors",),
        config_keys=("text_similarity_threshold",),
        description="text-based context paper set and representatives (section 4)",
    ),
    Artifact(
        name="pattern_paper_set",
        filename="pattern_paper_set.npz",
        schema_version=2,
        build=lambda pipeline: pipeline.pattern_paper_set,
        save=core_io.write_context_paper_set,
        load=lambda path, pipeline: core_io.read_context_paper_set(
            path, pipeline.ontology, pipeline.corpus.paper_rows
        ),
        install=lambda pipeline, paper_set: (
            pipeline.substrates.install_pattern_paper_set(paper_set)
        ),
        deps=("index",),
        description="pattern-based context paper set (section 4)",
    ),
    Artifact(
        name="pattern_extractions",
        filename="pattern_extractions.npz",
        schema_version=1,
        # The pattern build has filled the memo; this only serialises it.
        build=lambda pipeline: pipeline.substrates.pattern_extractions,
        save=core_io.write_pattern_extractions,
        # Read when the memo is seeded, not on open: no query needs it.
        load=lambda path, pipeline: core_io.check_pattern_extractions(path),
        install=lambda pipeline, path: (
            pipeline.substrates.install_pattern_extractions(path)
        ),
        deps=("pattern_paper_set",),
        description="per-context pattern extractions, seeding the pattern memo",
    ),
)


def _derive_artifacts() -> Dict[str, Artifact]:
    """Base artifacts + one score artifact per evaluation arm.

    A score artifact's fingerprint dependencies are the paper-set
    artifact followed by the spec's declared ``substrates``, in that
    order: the order is part of every workspace fingerprint.
    """
    registry: Dict[str, Artifact] = {
        artifact.name: artifact for artifact in _BASE_ARTIFACTS
    }
    for spec in scoring.specs():
        for paper_set_name in spec.paper_sets:
            artifact = _score_artifact(
                spec.name,
                paper_set_name,
                deps=(f"{paper_set_name}_paper_set",) + spec.substrates,
            )
            registry[artifact.name] = artifact
    return registry


class _ArtifactRegistry(Mapping):
    """A read-only mapping view of the artifact graph.

    Derives its contents from :func:`_derive_artifacts` on the first
    read, and again only after ``_cached_revision`` is reset to None:
    a tracer that swaps ``_derive_artifacts`` for one wrapping every
    node resets it on install and on uninstall.
    """

    def __init__(self) -> None:
        self._cached: Dict[str, Artifact] = {}
        self._cached_revision: Optional[int] = None

    def _snapshot(self) -> Dict[str, Artifact]:
        if self._cached_revision is None:
            self._cached = _derive_artifacts()
            self._cached_revision = 0
        return self._cached

    def __getitem__(self, name: str) -> Artifact:
        return self._snapshot()[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._snapshot())

    def __len__(self) -> int:
        return len(self._snapshot())


#: Declaration-ordered artifact registry (already a valid build order).
ARTIFACTS: Mapping = _ArtifactRegistry()


def artifact_names() -> List[str]:
    """Every registered artifact name, in declaration order."""
    return list(ARTIFACTS)


def topological_order(targets: Optional[Iterable[str]] = None) -> List[str]:
    """Dependency-closed build order for ``targets`` (default: everything).

    Raises ``KeyError`` for unknown names, and ``ValueError`` on a
    dependency that names no artifact (a score function's ``substrates``
    typo) or a dependency cycle (neither can happen with the shipped
    table; both guard future edits).
    """
    requested = list(targets) if targets is not None else artifact_names()
    for name in requested:
        if name not in ARTIFACTS:
            raise KeyError(
                f"unknown artifact {name!r}; known: {', '.join(ARTIFACTS)}"
            )
    order: List[str] = []
    visiting: set = set()
    done: set = set()

    def visit(name: str) -> None:
        if name in done:
            return
        if name in visiting:
            raise ValueError(f"artifact dependency cycle through {name!r}")
        visiting.add(name)
        for dep in ARTIFACTS[name].deps:
            if dep not in ARTIFACTS:
                raise ValueError(
                    f"artifact {name!r} depends on unknown artifact {dep!r}; "
                    f"known: {', '.join(ARTIFACTS)}"
                )
            visit(dep)
        visiting.discard(name)
        done.add(name)
        order.append(name)

    for name in requested:
        visit(name)
    return order
