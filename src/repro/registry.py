"""One thread-safe, registration-ordered registry of named specs.

Both plug-in seams of the system are instances of :class:`Registry`:
prestige score functions (:mod:`repro.scoring`) and index backends
(:mod:`repro.index.backends`).  A spec is any object with a ``name``;
the registry keeps specs in registration order (that order becomes CLI
choice lists and evaluation-arm order) and counts mutations in
``revision`` so derived views (the workspace artifact graph, memoised
CLI parsers) can cheaply detect staleness.
"""

from __future__ import annotations

import re
import threading
from contextlib import contextmanager
from typing import Dict, Generic, Iterator, List, Tuple, TypeVar

#: Registry keys double as CLI values, file-name segments and metric
#: segments.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

Spec = TypeVar("Spec")


def check_name(kind: str, name: str) -> None:
    """Raise ``ValueError`` unless ``name`` is a valid registry key."""
    if not _NAME_RE.match(name):
        raise ValueError(
            f"{kind} name {name!r} must match {_NAME_RE.pattern} (it becomes "
            f"a CLI value, a file-name segment and a metric segment)"
        )


class Registry(Generic[Spec]):
    """Specs keyed by ``spec.name``, in registration order.

    ``kind`` names the specs in error messages ("unknown <kind> 'x'").
    ``unique`` lists spec fields no two registered specs may share (the
    index backends' ``format_tag``, which identifies an artifact's
    owner on disk).
    """

    def __init__(self, kind: str, unique: Tuple[str, ...] = ()) -> None:
        self.kind = kind
        self._unique = unique
        self._specs: Dict[str, Spec] = {}
        self._lock = threading.Lock()
        self._revision = 0

    @property
    def revision(self) -> int:
        """Mutation counter; derived views compare it to detect staleness."""
        return self._revision

    def _add(self, spec: Spec, replace: bool) -> None:
        # Caller holds self._lock.
        if spec.name in self._specs and not replace:
            raise ValueError(
                f"{self.kind} {spec.name!r} is already registered "
                f"(pass replace=True to override)"
            )
        for field in self._unique:
            value = getattr(spec, field)
            for other in self._specs.values():
                if other.name != spec.name and getattr(other, field) == value:
                    label = field.replace("_", " ")
                    raise ValueError(
                        f"{self.kind} {spec.name!r} reuses {label} {value!r} "
                        f"already claimed by {other.name!r}; each {label} "
                        f"must identify exactly one {self.kind}"
                    )
        # Assigning an existing key keeps its position in the order.
        self._specs[spec.name] = spec
        self._revision += 1

    def register(self, spec: Spec, replace: bool = False) -> Spec:
        """Register ``spec``; the single entry point for built-ins and plugins.

        Raises ``ValueError`` when the name (or a ``unique`` field) is
        taken; pass ``replace=True`` to swap a variant in deliberately.
        Returns the spec for decorator-style chaining.
        """
        with self._lock:
            self._add(spec, replace)
        return spec

    def unregister(self, name: str) -> Spec:
        """Remove a registration (tests and plugin teardown); returns it."""
        with self._lock:
            try:
                spec = self._specs.pop(name)
            except KeyError:
                raise ValueError(f"{self.kind} {name!r} is not registered") from None
            self._revision += 1
        return spec

    @contextmanager
    def temporary_registration(
        self, spec: Spec, replace: bool = False
    ) -> Iterator[Spec]:
        """Register ``spec`` for the duration of a ``with`` block.

        On exit a shadowed spec is restored *in place*, so registration
        order (CLI choices, evaluation arms) is the same before and
        after the block.
        """
        with self._lock:
            shadowed = self._specs.get(spec.name)
            self._add(spec, replace)
        try:
            yield spec
        finally:
            with self._lock:
                if shadowed is None:
                    self._specs.pop(spec.name, None)
                else:
                    self._specs[spec.name] = shadowed
                self._revision += 1

    def get(self, name: str) -> Spec:
        """The spec registered under ``name``.

        Raises ``ValueError`` naming the registered specs -- the one
        "unknown <kind>" error every layer shares.
        """
        with self._lock:
            spec = self._specs.get(name)
            if spec is None:
                known = ", ".join(sorted(self._specs))
                raise ValueError(f"unknown {self.kind} {name!r}; registered: {known}")
            return spec

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._specs

    def specs(self) -> List[Spec]:
        """Every registered spec, in registration order."""
        with self._lock:
            return list(self._specs.values())

    def names(self) -> Tuple[str, ...]:
        """Registered names in registration order (CLI choices)."""
        with self._lock:
            return tuple(self._specs)
