"""The pluggable index-backend registry.

PR 4 made score functions structural plug-ins; this registry does the
same for the index itself.  Every backend is a :class:`SearchBackendSpec`
registered by name, and every layer that used to hard-code the concrete
``InvertedIndex`` -- the serving substrate's lazy build, the workspace
index artifact's codec, the CLI ``--index-backend`` choices -- derives
its behaviour from the registry instead.  Registering one spec therefore
surfaces a new storage engine in builds, workspaces, and the CLI with no
edits under ``repro/core/`` or ``repro/serving/``.  The mechanics are
the shared :class:`repro.registry.Registry`; this module binds its
public functions to one instance, ``REGISTRY``.

A spec declares:

- ``name`` -- the registry key and CLI value;
- ``build`` -- constructs a fresh :class:`~repro.index.backends.base.SearchBackend`
  from a corpus (full analysis pass);
- ``save`` / ``load`` -- the workspace codec pair: persist any backend
  object to the index artifact path, and open that artifact back into a
  ready-to-serve backend;
- ``format_tag`` -- the format tag ``save`` writes as the artifact's
  first JSON key, used to sniff which backend owns a file on disk.

Backends stamp the objects ``build``/``load`` return with a
``backend_name`` attribute so the workspace save path can round-trip an
installed index through the codec that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.registry import Registry, check_name

#: The backend used when none is configured -- the paper-faithful
#: in-memory inverted index.
DEFAULT_BACKEND = "memory"


@dataclass(frozen=True)
class SearchBackendSpec:
    """Declaration of one index backend (see module docstring)."""

    name: str
    #: ``build(corpus, analyzer=None) -> SearchBackend``; the full
    #: analyse-and-index pass used by ``repro build`` and lazy substrate
    #: builds.
    build: Callable
    #: ``save(backend, path) -> None``; persists any backend object (not
    #: just this spec's own class) as this spec's on-disk format.
    save: Callable
    #: ``load(path, analyzer=None) -> SearchBackend``; opens the artifact
    #: ``save`` wrote.  For lazy backends this must *not* parse the full
    #: postings data.
    load: Callable
    #: The format tag ``save`` writes first in the artifact file, e.g.
    #: ``repro/inverted-index/v1`` -- sniffed by :func:`open_index`.
    format_tag: str
    description: str = ""

    def __post_init__(self) -> None:
        check_name("index backend", self.name)
        for role in ("build", "save", "load"):
            if not callable(getattr(self, role)):
                raise ValueError(f"index backend {self.name!r}: {role} not callable")
        if not self.format_tag or "/" not in self.format_tag:
            raise ValueError(
                f"index backend {self.name!r}: format_tag {self.format_tag!r} "
                f"must look like 'repro/<name>/v<N>'"
            )


#: Format tags are unique: they identify which backend owns an artifact.
REGISTRY: Registry[SearchBackendSpec] = Registry(
    "index backend", unique=("format_tag",)
)

register = REGISTRY.register
unregister = REGISTRY.unregister
temporary_registration = REGISTRY.temporary_registration
get = REGISTRY.get
is_registered = REGISTRY.__contains__
specs = REGISTRY.specs
#: Registered backend names in registration order (CLI choices).
backend_names = REGISTRY.names


def registry_revision() -> int:
    """Mutation counter; derived views compare it to detect staleness."""
    return REGISTRY.revision


def spec_for_format(format_tag: str) -> SearchBackendSpec:
    """The spec whose codec owns ``format_tag`` (ValueError if none)."""
    registered = specs()
    for spec in registered:
        if spec.format_tag == format_tag:
            return spec
    known = ", ".join(sorted(spec.format_tag for spec in registered))
    raise ValueError(
        f"no index backend claims format {format_tag!r}; known formats: {known}"
    )
