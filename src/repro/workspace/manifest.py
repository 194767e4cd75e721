"""The workspace manifest: one JSON file describing every built artifact.

``manifest.json`` sits at the workspace root and records, per artifact,
the file it lives in, the content fingerprint it was built from, its
schema version, dependency edges, and build cost.  Freshness checks
compare manifest fingerprints against recomputed ones -- the manifest is
the *only* state the builder trusts between runs.

Schema (``repro/workspace-manifest/v1``)::

    {
      "format": "repro/workspace-manifest/v1",
      "generation": 2,
      "parent": "<sha256 of the parent manifest payload>",
      "delta": {"added": ["P123"], "removed": ["P045"]},
      "inputs": {"corpus": "<sha256>", "ontology": "...", "training": "..."},
      "artifacts": {
        "<name>": {
          "file": "<name>.json",
          "fingerprint": "<sha256>",
          "schema_version": 1,
          "deps": ["..."],
          "built_at": 1754000000.0,
          "wall_seconds": 1.234,
          "size_bytes": 56789
        }
      }
    }

``generation``, ``parent`` and ``delta`` are optional -- manifests written
before incremental ingestion existed lack them and read as generation 0
with no parent.  Each delta ingestion bumps the generation, records the
ids it added/removed, and chains to its parent by
:func:`manifest_fingerprint` of the parent payload; the superseded
manifest is archived as ``manifest.gen-<N>.json`` so the lineage stays
walkable (:func:`read_generation_chain`).  ``manifest.json`` itself is
always the *newest* generation, which is why ``open_workspace`` needs no
lineage awareness to load the latest state.

``tools/check_workspace_manifest.py`` validates the same schema from the
command line via :func:`validate_manifest_payload`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.io import atomic_write

PathLike = Union[str, Path]

MANIFEST_FORMAT = "repro/workspace-manifest/v1"
MANIFEST_FILE = "manifest.json"

#: Required per-artifact entry fields and their JSON types.
_ENTRY_FIELDS: Tuple[Tuple[str, type], ...] = (
    ("file", str),
    ("fingerprint", str),
    ("schema_version", int),
    ("deps", list),
    ("built_at", float),
    ("wall_seconds", float),
    ("size_bytes", int),
)


@dataclass(frozen=True)
class ManifestEntry:
    """Manifest record of one built artifact."""

    file: str
    fingerprint: str
    schema_version: int
    deps: List[str]
    built_at: float
    wall_seconds: float
    size_bytes: int


def validate_manifest_payload(payload: object, origin: str = "manifest") -> Dict:
    """Validate a parsed manifest; return it or raise ``ValueError``.

    Checks the format tag, the input-digest block, and that every
    artifact entry carries every required field with the right type.
    Registry-level checks (known names, codec coverage) live in
    ``tools/check_workspace_manifest.py`` so this stays import-light.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{origin}: manifest must be a JSON object")
    if payload.get("format") != MANIFEST_FORMAT:
        raise ValueError(
            f"{origin}: expected format {MANIFEST_FORMAT!r}, "
            f"found {payload.get('format')!r}"
        )
    inputs = payload.get("inputs")
    if not isinstance(inputs, dict) or set(inputs) != {
        "corpus", "ontology", "training",
    }:
        raise ValueError(
            f"{origin}: 'inputs' must map exactly corpus/ontology/training "
            "to digests"
        )
    generation = payload.get("generation", 0)
    if not isinstance(generation, int) or isinstance(generation, bool) or generation < 0:
        raise ValueError(
            f"{origin}: 'generation' must be a non-negative integer, "
            f"got {generation!r}"
        )
    parent = payload.get("parent")
    if parent is not None and not isinstance(parent, str):
        raise ValueError(f"{origin}: 'parent' must be a fingerprint string or null")
    if generation > 0 and parent is None:
        raise ValueError(
            f"{origin}: generation {generation} must name a 'parent' fingerprint"
        )
    if generation == 0 and parent is not None:
        raise ValueError(f"{origin}: generation 0 cannot have a 'parent'")
    delta = payload.get("delta")
    if delta is not None:
        if not isinstance(delta, dict) or set(delta) != {"added", "removed"}:
            raise ValueError(
                f"{origin}: 'delta' must map exactly added/removed to id lists"
            )
        for key in ("added", "removed"):
            ids = delta[key]
            if not isinstance(ids, list) or not all(
                isinstance(pid, str) for pid in ids
            ):
                raise ValueError(
                    f"{origin}: 'delta'.{key} must be a list of paper-id strings"
                )
        if generation == 0:
            raise ValueError(f"{origin}: generation 0 cannot carry a 'delta'")
    artifacts = payload.get("artifacts")
    if not isinstance(artifacts, dict):
        raise ValueError(f"{origin}: 'artifacts' must be a JSON object")
    for name, entry in artifacts.items():
        if not isinstance(entry, dict):
            raise ValueError(f"{origin}: artifact {name!r} entry must be an object")
        for fieldname, expected in _ENTRY_FIELDS:
            if fieldname not in entry:
                raise ValueError(
                    f"{origin}: artifact {name!r} is missing {fieldname!r}"
                )
            value = entry[fieldname]
            # ints are acceptable where floats are expected (JSON 1 vs 1.0).
            if expected is float and isinstance(value, int):
                continue
            if not isinstance(value, expected):
                raise ValueError(
                    f"{origin}: artifact {name!r} field {fieldname!r} must be "
                    f"{expected.__name__}, got {type(value).__name__}"
                )
    return payload


def read_manifest(directory: PathLike) -> Optional[Dict[str, object]]:
    """Load and validate ``manifest.json`` from ``directory``.

    Returns None when the file does not exist (an unbuilt workspace);
    corrupt or invalid manifests raise ``ValueError`` with the path.
    """
    path = Path(directory) / MANIFEST_FILE
    if not path.exists():
        return None
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}: corrupt JSON ({error})") from error
    return validate_manifest_payload(payload, origin=str(path))


def write_manifest(
    directory: PathLike,
    inputs: Dict[str, str],
    entries: Dict[str, ManifestEntry],
    generation: int = 0,
    parent: Optional[str] = None,
    delta: Optional[Dict[str, List[str]]] = None,
) -> Path:
    """Write ``manifest.json`` atomically (see :func:`atomic_write`).

    ``generation``/``parent``/``delta`` record the workspace's place in
    its generation chain; full builds of a fresh workspace use the
    defaults (generation 0, no parent).
    """
    path = Path(directory) / MANIFEST_FILE
    payload: Dict[str, object] = {
        "format": MANIFEST_FORMAT,
        "generation": generation,
        "parent": parent,
        "inputs": dict(inputs),
        "artifacts": {name: asdict(entry) for name, entry in sorted(entries.items())},
    }
    if delta is not None:
        payload["delta"] = {
            "added": list(delta.get("added", ())),
            "removed": list(delta.get("removed", ())),
        }
    validate_manifest_payload(payload, origin=str(path))
    with atomic_write(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def manifest_fingerprint(payload: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON of a manifest payload.

    This is the chaining key of the generation lineage: a child manifest
    stores the fingerprint of its parent's *entire payload*, so any
    tampering with an archived generation breaks the chain visibly.
    """
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def generation_archive_name(generation: int) -> str:
    """File name a superseded generation's manifest is archived under."""
    return f"manifest.gen-{generation}.json"


def read_generation_chain(directory: PathLike) -> List[Dict[str, object]]:
    """The manifest lineage, newest first.

    Element 0 is the live ``manifest.json``; each subsequent element is
    the archived parent (``manifest.gen-<N>.json``) whose
    :func:`manifest_fingerprint` matches the child's ``parent`` field.
    The walk stops cleanly when an archive is absent (archives may be
    pruned) and raises ``ValueError`` when a present archive does not
    match the fingerprint its child recorded, or when generation numbers
    do not descend by exactly one.
    """
    directory = Path(directory)
    payload = read_manifest(directory)
    if payload is None:
        return []
    chain: List[Dict[str, object]] = [payload]
    while True:
        child = chain[-1]
        generation = int(child.get("generation", 0))
        parent_fingerprint = child.get("parent")
        if generation == 0 or parent_fingerprint is None:
            return chain
        archive = directory / generation_archive_name(generation - 1)
        if not archive.exists():
            return chain  # older generations pruned; lineage ends here
        with open(archive, "r", encoding="utf-8") as handle:
            try:
                parent = json.load(handle)
            except json.JSONDecodeError as error:
                raise ValueError(f"{archive}: corrupt JSON ({error})") from error
        parent = validate_manifest_payload(parent, origin=str(archive))
        if manifest_fingerprint(parent) != parent_fingerprint:
            raise ValueError(
                f"{archive}: fingerprint does not match the 'parent' recorded "
                f"by generation {generation}"
            )
        if int(parent.get("generation", 0)) != generation - 1:
            raise ValueError(
                f"{archive}: generation {parent.get('generation', 0)} does not "
                f"precede child generation {generation}"
            )
        chain.append(parent)


def entries_from_payload(payload: Dict[str, object]) -> Dict[str, ManifestEntry]:
    """Typed entries from a validated manifest payload."""
    return {
        name: ManifestEntry(
            file=raw["file"],
            fingerprint=raw["fingerprint"],
            schema_version=int(raw["schema_version"]),
            deps=list(raw["deps"]),
            built_at=float(raw["built_at"]),
            wall_seconds=float(raw["wall_seconds"]),
            size_bytes=int(raw["size_bytes"]),
        )
        for name, raw in payload["artifacts"].items()
    }
