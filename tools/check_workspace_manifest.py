#!/usr/bin/env python3
"""Validate the workspace artifact registry and (optionally) a manifest.

Default mode checks the registry itself -- the invariants a bad edit to
``repro/workspace/artifact.py`` would break silently:

- every declared dependency names a registered artifact;
- the dependency graph is acyclic;
- artifact file names are unique (two nodes must never share a file);
- every artifact carries callable build/save/load/install codecs;
- every ``config_keys`` entry is a real ``Pipeline`` constructor
  parameter (a typo would silently stop invalidating anything).

With ``--manifest PATH`` it additionally validates a built workspace's
``manifest.json``: schema (via ``validate_manifest_payload``), every
entry names a registered artifact, recorded schema versions and
dependency edges match the registry, every referenced artifact file
exists on disk, no temporary file of an interrupted write is left in
the workspace directory, every artifact file loads through its
registered ``load`` codec (with a pipeline opened from the data
directory holding the workspace, so codec checks such as the packed
index's term directory run on real files), and -- when the workspace
carries generations -- the lineage chain is sound: each archived
``manifest.gen-<N>.json`` hashes to the ``parent`` fingerprint its
child recorded and generation numbers descend monotonically by one
(via ``read_generation_chain``).

Exit status 1 when any violation is found; intended for tools/ci.sh.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.io import TEMP_SUFFIX, read_pattern_extractions  # noqa: E402
from repro.pipeline import Pipeline  # noqa: E402
from repro.workspace import (  # noqa: E402
    ARTIFACTS,
    read_generation_chain,
    topological_order,
    validate_manifest_payload,
)


def check_registry() -> list:
    problems = []
    pipeline_params = set(inspect.signature(Pipeline.__init__).parameters)
    filenames = {}
    for name, artifact in ARTIFACTS.items():
        if name != artifact.name:
            problems.append(f"{name}: registry key != artifact.name {artifact.name!r}")
        for dep in artifact.deps:
            if dep not in ARTIFACTS:
                problems.append(f"{name}: unknown dependency {dep!r}")
        if artifact.filename in filenames:
            problems.append(
                f"{name}: file {artifact.filename!r} already used by "
                f"{filenames[artifact.filename]!r}"
            )
        filenames[artifact.filename] = name
        for hook in ("build", "save", "load", "install", "installed"):
            if not callable(getattr(artifact, hook)):
                problems.append(f"{name}: {hook} is not callable")
        if artifact.schema_version < 1:
            problems.append(f"{name}: schema_version must be >= 1")
        for key in artifact.config_keys:
            if key not in pipeline_params:
                problems.append(
                    f"{name}: config key {key!r} is not a Pipeline parameter"
                )
    try:
        order = topological_order()
        if sorted(order) != sorted(ARTIFACTS):
            problems.append("topological order does not cover the registry")
    except (KeyError, ValueError) as error:
        problems.append(f"dependency graph invalid: {error}")
    return problems


def check_manifest(path: Path) -> list:
    problems = []
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        return [f"{path}: unreadable ({error})"]
    try:
        validate_manifest_payload(payload, origin=str(path))
    except ValueError as error:
        return [str(error)]
    workspace = path.parent
    for name, entry in payload["artifacts"].items():
        artifact = ARTIFACTS.get(name)
        if artifact is None:
            problems.append(f"{path}: {name!r} is not a registered artifact")
            continue
        if entry["file"] != artifact.filename:
            problems.append(
                f"{path}: {name}: file {entry['file']!r} != registry "
                f"{artifact.filename!r}"
            )
        if entry["schema_version"] != artifact.schema_version:
            problems.append(
                f"{path}: {name}: schema v{entry['schema_version']} != "
                f"registry v{artifact.schema_version} (stale workspace?)"
            )
        if list(entry["deps"]) != list(artifact.deps):
            problems.append(
                f"{path}: {name}: deps {entry['deps']!r} != registry "
                f"{list(artifact.deps)!r}"
            )
        if not (workspace / entry["file"]).exists():
            problems.append(f"{path}: {name}: {entry['file']} missing on disk")
    for leftover in sorted(workspace.glob(f"*{TEMP_SUFFIX}")):
        problems.append(
            f"{path}: leftover temporary file {leftover.name} "
            f"(a write was interrupted)"
        )
    problems += check_loads(path, payload)
    problems += check_generation_chain(workspace, payload)
    return problems


def check_loads(path: Path, payload: dict) -> list:
    """Load every listed artifact file through its registered codec.

    The pipeline comes from the workspace's data directory (the
    workspace's parent, the layout ``repro build`` writes).  Artifacts
    load in build order and each loaded object is installed, as a
    workspace open does.  No codec reads another artifact: the vector
    store takes the token cache, which derives from the corpus and
    analyses nothing until read.  The pattern extractions, which an open
    only checks, are read in full too.  Any exception is a violation.
    """
    workspace = path.parent
    try:
        pipeline = Pipeline.from_directory(workspace.parent)
    except Exception as error:
        return [f"{path}: cannot open the data directory ({error})"]
    problems = []
    for name in topological_order():
        entry = payload["artifacts"].get(name)
        if entry is None or not (workspace / entry["file"]).exists():
            continue
        artifact = ARTIFACTS[name]
        try:
            loaded = artifact.load(workspace / entry["file"], pipeline)
            artifact.install(pipeline, loaded)
            if name == "pattern_extractions":
                # Its load reads only the zip directory; read the records.
                read_pattern_extractions(workspace / entry["file"])
        except Exception as error:
            problems.append(
                f"{path}: {name}: {entry['file']} does not load "
                f"({type(error).__name__}: {error})"
            )
    return problems


def check_generation_chain(workspace: Path, payload: dict) -> list:
    """Validate the workspace's generation lineage, if it has one.

    ``read_generation_chain`` re-verifies every link: each archived
    ``manifest.gen-<N>.json`` must validate, hash to the ``parent``
    fingerprint its child recorded, and carry a generation exactly one
    below its child's.  A pruned tail (missing archive) is fine -- the
    chain just ends there -- but a broken link is a corruption signal
    worth failing CI over.
    """
    if payload.get("generation", 0) == 0:
        return []  # fresh or legacy workspace: no lineage to walk
    try:
        read_generation_chain(workspace)
    except ValueError as error:
        return [f"{workspace}: generation chain broken: {error}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="additionally validate a built workspace's manifest.json",
    )
    args = parser.parse_args(argv)
    problems = check_registry()
    checked = f"{len(ARTIFACTS)} artifacts"
    if args.manifest:
        problems += check_manifest(Path(args.manifest))
        checked += f" + {args.manifest}"
    if problems:
        for problem in problems:
            print(f"workspace-manifest: {problem}")
        return 1
    print(f"workspace-manifest: OK ({checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
