"""Workspace building and hydration.

:class:`WorkspaceBuilder` walks the artifact graph in topological order
and builds only stale nodes -- a node is *fresh* when its manifest
fingerprint matches the fingerprint recomputed from the live inputs,
config, and dependency chain (see :mod:`repro.workspace.fingerprint`).
Fresh dependencies of a stale node are hydrated from disk, never rebuilt,
so changing one score function's config re-scores one file instead of
re-analysing the corpus.

:func:`open_workspace` is the serving path: hydrate every cache of an
existing pipeline from a fully-built workspace with zero rebuilds.

Observability follows the ``stage.component.metric`` convention:

- spans ``workspace.build.<artifact>`` / ``workspace.load.<artifact>``
  around each node, under ``workspace.build.run`` / ``workspace.load.run``;
- timers ``workspace.build.seconds`` / ``workspace.load.seconds``;
- counters ``workspace.build.artifacts`` (built), ``workspace.build.fresh``
  (skipped as fresh), ``workspace.load.artifacts`` (hydrated),
  ``workspace.load.stale`` (skipped as stale on a non-strict open).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.core.io import atomic_write
from repro.obs import get_registry, span
from repro.workspace.artifact import ARTIFACTS, topological_order
from repro.workspace.fingerprint import InputDigests, artifact_fingerprints
from repro.workspace.manifest import (
    MANIFEST_FILE,
    ManifestEntry,
    entries_from_payload,
    generation_archive_name,
    manifest_fingerprint,
    read_manifest,
    write_manifest,
)

PathLike = Union[str, Path]

#: Freshness states reported by :meth:`WorkspaceBuilder.status`.
FRESH, STALE, MISSING = "fresh", "stale", "missing"


class StaleWorkspaceError(RuntimeError):
    """A strict open found missing or stale artifacts."""


@dataclass(frozen=True)
class ArtifactStatus:
    """Freshness of one artifact relative to the live inputs."""

    name: str
    state: str  # one of FRESH / STALE / MISSING
    fingerprint: str  # the *expected* (recomputed) fingerprint
    reason: str = ""


@dataclass(frozen=True)
class BuildAction:
    """What the builder did for one artifact."""

    name: str
    action: str  # "built" | "fresh" | "loaded"
    wall_seconds: float


@dataclass(frozen=True)
class BuildReport:
    """Summary of one :meth:`WorkspaceBuilder.build` run."""

    directory: str
    actions: List[BuildAction]

    @property
    def built(self) -> List[str]:
        return [a.name for a in self.actions if a.action == "built"]

    @property
    def fresh(self) -> List[str]:
        return [a.name for a in self.actions if a.action == "fresh"]

    def is_noop(self) -> bool:
        return not self.built

    def format_table(self) -> str:
        lines = [f"workspace: {self.directory}"]
        for action in self.actions:
            lines.append(
                f"  {action.name:<24} {action.action:<6} "
                f"{action.wall_seconds * 1000.0:9.1f} ms"
            )
        lines.append(
            f"built {len(self.built)}, fresh {len(self.fresh)} "
            f"of {len(self.actions)} artifacts"
        )
        return "\n".join(lines)


class WorkspaceBuilder:
    """Incremental builder of the on-disk artifact workspace."""

    def __init__(self, pipeline, directory: PathLike) -> None:
        self.pipeline = pipeline
        self.directory = Path(directory)

    # -- freshness ----------------------------------------------------------------

    def status(
        self, fingerprints: Optional[Dict[str, str]] = None
    ) -> List[ArtifactStatus]:
        """Per-artifact freshness against the current inputs and config."""
        if fingerprints is None:
            fingerprints = artifact_fingerprints(self.pipeline)
        payload = read_manifest(self.directory)
        entries = entries_from_payload(payload) if payload else {}
        statuses: List[ArtifactStatus] = []
        for name in topological_order():
            artifact = ARTIFACTS[name]
            expected = fingerprints[name]
            entry = entries.get(name)
            if entry is None:
                statuses.append(
                    ArtifactStatus(name, MISSING, expected, "not in manifest")
                )
                continue
            if not (self.directory / entry.file).exists():
                statuses.append(
                    ArtifactStatus(name, MISSING, expected, f"{entry.file} missing")
                )
                continue
            if entry.schema_version != artifact.schema_version:
                statuses.append(
                    ArtifactStatus(
                        name,
                        STALE,
                        expected,
                        f"schema v{entry.schema_version} != v{artifact.schema_version}",
                    )
                )
                continue
            if entry.fingerprint != expected:
                statuses.append(
                    ArtifactStatus(name, STALE, expected, "fingerprint changed")
                )
                continue
            statuses.append(ArtifactStatus(name, FRESH, expected))
        return statuses

    # -- building -----------------------------------------------------------------

    def build(
        self,
        only: Optional[Iterable[str]] = None,
        force: bool = False,
        lineage: Optional[Dict[str, object]] = None,
    ) -> BuildReport:
        """Build stale artifacts (all of them, or ``only`` + dependencies).

        Fresh artifacts are left on disk untouched; the ones a stale node
        needs are hydrated into the pipeline first so the stale build
        reuses them.  Entries and files of artifacts that are no longer
        declared are dropped.  ``lineage`` is the ``generation``,
        ``parent`` and ``delta`` the manifest records (what
        :func:`ingest_delta` passes); None keeps the existing manifest's,
        so a full rebuild refreshes artifacts within the same generation.
        Returns a :class:`BuildReport`; re-running on an unchanged
        workspace is a no-op for every artifact.
        """
        registry = get_registry()
        self.directory.mkdir(parents=True, exist_ok=True)
        inputs = InputDigests.of_pipeline(self.pipeline)
        fingerprints = artifact_fingerprints(self.pipeline, inputs)
        statuses = {s.name: s for s in self.status(fingerprints)}
        requested = list(only) if only is not None else None
        closure = topological_order(requested)
        # ``force`` re-does the *requested* artifacts; their fresh
        # dependencies are still hydrated, not rebuilt.
        forced = set(requested if requested is not None else closure) if force else set()
        to_build = {
            name
            for name in closure
            if name in forced or statuses[name].state != FRESH
        }
        # Transitive dependencies of anything being built must be live in
        # the pipeline: hydrate the fresh ones instead of rebuilding.
        needed: set = set()
        pending = {dep for name in to_build for dep in ARTIFACTS[name].deps}
        while pending:
            dep = pending.pop()
            if dep in needed:
                continue
            needed.add(dep)
            pending.update(ARTIFACTS[dep].deps)

        payload = read_manifest(self.directory)
        entries = entries_from_payload(payload) if payload else {}
        actions: List[BuildAction] = []
        #: Files the new manifest no longer names: those of rebuilt
        #: artifacts whose file name changed (a schema bump) and those of
        #: retired artifacts (no longer declared, so their entries go).
        superseded: List[str] = [
            entries.pop(name).file for name in list(entries) if name not in ARTIFACTS
        ]
        with span("workspace.build.run", directory=str(self.directory)):
            for name in closure:
                artifact = ARTIFACTS[name]
                path = self.directory / artifact.filename
                if name in to_build:
                    started = time.perf_counter()
                    with span(f"workspace.build.{name}"), registry.timer(
                        "workspace.build.seconds"
                    ):
                        obj = artifact.build(self.pipeline)
                        artifact.save(obj, path)
                    elapsed = time.perf_counter() - started
                    registry.counter("workspace.build.artifacts").inc()
                    previous = entries.get(name)
                    if previous is not None and previous.file != artifact.filename:
                        superseded.append(previous.file)
                    entries[name] = ManifestEntry(
                        file=artifact.filename,
                        fingerprint=fingerprints[name],
                        schema_version=artifact.schema_version,
                        deps=list(artifact.deps),
                        built_at=time.time(),
                        wall_seconds=round(elapsed, 6),
                        size_bytes=path.stat().st_size,
                    )
                    actions.append(BuildAction(name, "built", elapsed))
                else:
                    registry.counter("workspace.build.fresh").inc()
                    if name in needed and not artifact.installed(self.pipeline):
                        started = time.perf_counter()
                        _load_artifact(self.pipeline, self.directory, name)
                        actions.append(
                            BuildAction(name, "fresh", time.perf_counter() - started)
                        )
                    else:
                        actions.append(BuildAction(name, "fresh", 0.0))
            if lineage is None:
                lineage = {
                    "generation": int(payload.get("generation", 0)) if payload else 0,
                    "parent": payload.get("parent") if payload else None,
                    "delta": payload.get("delta") if payload else None,
                }
            write_manifest(
                self.directory,
                {
                    "corpus": inputs.corpus,
                    "ontology": inputs.ontology,
                    "training": inputs.training,
                },
                entries,
                generation=int(lineage["generation"]),
                parent=lineage["parent"],
                delta=lineage["delta"],
            )
            for filename in superseded:
                (self.directory / filename).unlink(missing_ok=True)
            registry.gauge("workspace.generation.current").set(
                float(lineage["generation"])
            )
        return BuildReport(directory=str(self.directory), actions=actions)


def _load_artifact(pipeline, directory: Path, name: str) -> None:
    """Load one artifact file and install it into the pipeline's caches."""
    artifact = ARTIFACTS[name]
    registry = get_registry()
    with span(f"workspace.load.{name}"), registry.timer("workspace.load.seconds"):
        obj = artifact.load(directory / artifact.filename, pipeline)
        artifact.install(pipeline, obj)
    registry.counter("workspace.load.artifacts").inc()


def open_workspace(pipeline, directory: PathLike, strict: bool = True) -> int:
    """Hydrate ``pipeline``'s caches from a built workspace.

    Returns the number of artifacts loaded.  With ``strict=True`` (the
    serving default) any missing or stale artifact raises
    :class:`StaleWorkspaceError` -- a production instance should never
    silently fall back to a multi-minute rebuild.  With ``strict=False``
    fresh artifacts are loaded and stale ones are left to lazy rebuild.
    """
    directory = Path(directory)
    registry = get_registry()
    with span("workspace.load.run", directory=str(directory), strict=strict):
        statuses = WorkspaceBuilder(pipeline, directory).status()
        not_fresh = [s for s in statuses if s.state != FRESH]
        if strict and not_fresh:
            details = ", ".join(f"{s.name} ({s.state}: {s.reason})" for s in not_fresh)
            raise StaleWorkspaceError(
                f"workspace {directory} is not fully built: {details}; "
                f"run `repro build` (or open with strict=False)"
            )
        loaded = 0
        for status in statuses:
            if status.state != FRESH:
                registry.counter("workspace.load.stale").inc()
                continue
            _load_artifact(pipeline, directory, status.name)
            loaded += 1
        if loaded:
            # Hydration replaced ranking inputs: memoised engines and
            # cached results built from the old objects must go.
            pipeline.refresh()
    return loaded


def workspace_status(pipeline, directory: PathLike) -> List[ArtifactStatus]:
    """Convenience wrapper: per-artifact freshness for a data directory."""
    return WorkspaceBuilder(pipeline, directory).status()


def ingest_delta(
    pipeline,
    directory: PathLike,
    added_papers=(),
    removed_ids=(),
):
    """Apply a corpus delta and persist it as a new workspace generation.

    The workspace at ``directory`` must already hold a manifest (built
    against ``pipeline``'s pre-delta corpus).  The delta is applied to
    the live substrates via :meth:`SubstrateStore.apply_delta` -- the
    incremental path, not a rebuild -- then the superseded manifest is
    archived as ``manifest.gen-<N>.json`` and the changed artifacts are
    re-serialised from the already-updated in-memory state under
    generation N+1, chained to the parent by
    :func:`~repro.workspace.manifest.manifest_fingerprint`.

    Returns ``(delta_report, build_report)``; a no-op delta (both lists
    empty or cancelling) archives nothing and returns
    ``(delta_report, None)``.
    """
    directory = Path(directory)
    payload = read_manifest(directory)
    if payload is None:
        raise StaleWorkspaceError(
            f"workspace {directory} has no manifest; run a full build "
            f"before ingesting deltas"
        )
    parent_generation = int(payload.get("generation", 0))
    parent_fingerprint = manifest_fingerprint(payload)
    registry = get_registry()
    with span(
        "workspace.ingest.run",
        directory=str(directory),
        parent_generation=parent_generation,
    ) as trace:
        report = pipeline.substrates.apply_delta(
            added_papers=added_papers, removed_ids=removed_ids
        )
        if report.is_noop:
            trace.set(generation=parent_generation, noop=True)
            return report, None
        # Archive the parent manifest before build() overwrites it; the
        # artifact files themselves are replaced under the same names
        # (generations share artifact storage -- the chain records *what
        # changed*, not full snapshots).
        archive = directory / generation_archive_name(parent_generation)
        with atomic_write(archive) as handle:
            handle.write((directory / MANIFEST_FILE).read_bytes())
        build_report = WorkspaceBuilder(pipeline, directory).build(
            lineage={
                "generation": parent_generation + 1,
                "parent": parent_fingerprint,
                "delta": {"added": list(report.added), "removed": list(report.removed)},
            }
        )
        trace.set(
            generation=parent_generation + 1,
            added=len(report.added),
            removed=len(report.removed),
        )
    registry.counter("workspace.ingest.generations").inc()
    return report, build_report
