#!/usr/bin/env python3
"""Check that ``repro build`` upgrades a workspace built by older code.

    python tools/check_workspace_upgrade.py DATA SCENARIO [SCENARIO ...]

``DATA`` is a data directory whose ``workspace/`` is fully built by the
current code.  Each scenario edits the workspace in place so that it
looks like one an earlier layout left behind, then runs ``repro build``
and checks that:

- the build reports exactly the expected number of rebuilt artifacts;
- the retired files are deleted, and ``tools/check_workspace_manifest.py``
  passes: the manifest lists only registered artifacts, each with the
  registry's file, schema version and deps;
- every artifact file keeps the sha256 it had before the edit, so the
  rebuild reproduced the same bytes.

Scenarios:

- ``citation_graph`` -- a ``citation_graph`` entry and file, from when
  the graph was an artifact; nothing rebuilds.
- ``tokens`` -- a ``tokens`` entry and file that ``pattern_paper_set``
  depended on; it and its two score artifacts rebuild.
- ``text_index_dep`` -- ``text_paper_set`` depending on ``index`` and
  ``vectors``, from when text assignment read the index; it and its
  three score artifacts rebuild.
- ``json_paper_sets`` -- both paper sets as v1 JSON plus a
  ``representatives`` entry and file; the two paper sets and all five
  score artifacts rebuild.
- ``no_pattern_extractions`` -- no ``pattern_extractions`` entry or
  file, from before the pattern memo was persisted; it alone rebuilds,
  re-running pattern construction without rewriting the pattern paper
  set or the pattern scores.

Exit status 1 on the first failed check.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_workspace_manifest  # noqa: E402
from repro.core.io import read_context_paper_set  # noqa: E402
from repro.pipeline import Pipeline  # noqa: E402

STALE = "0" * 64


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload), encoding="utf-8")


def citation_graph(data: Path, artifacts: dict) -> tuple:
    workspace = data / "workspace"
    artifacts["citation_graph"] = dict(
        artifacts["index"], file="citation_graph.json", deps=[]
    )
    _write_json(
        workspace / "citation_graph.json",
        {"format": "repro/citation-graph/v1", "nodes": [], "edges": []},
    )
    return 0, ["citation_graph.json"]


def tokens(data: Path, artifacts: dict) -> tuple:
    artifacts["tokens"] = dict(artifacts["index"], file="tokens.json", deps=["index"])
    artifacts["pattern_paper_set"]["deps"] = ["index", "tokens"]
    for name in ("pattern_paper_set", "scores_pattern_pattern", "scores_citation_pattern"):
        artifacts[name]["fingerprint"] = STALE
    _write_json(
        data / "workspace" / "tokens.json",
        {"format": "repro/token-cache/v1", "papers": {}},
    )
    return 3, ["tokens.json"]


def text_index_dep(data: Path, artifacts: dict) -> tuple:
    artifacts["text_paper_set"]["deps"] = ["index", "vectors"]
    for name in ("text_paper_set", "scores_text_text", "scores_citation_text",
                 "scores_combined_text"):
        artifacts[name]["fingerprint"] = STALE
    return 4, []


def json_paper_sets(data: Path, artifacts: dict) -> tuple:
    workspace = data / "workspace"
    pipeline = Pipeline.from_directory(data)
    representatives = {}
    for name in ("text_paper_set", "pattern_paper_set"):
        paper_set = read_context_paper_set(
            workspace / f"{name}.npz", pipeline.ontology, pipeline.corpus.paper_rows
        )
        (workspace / f"{name}.npz").unlink()
        contexts = []
        for context in paper_set:
            contexts.append({
                "term_id": context.term_id,
                "paper_ids": list(context.paper_ids),
                "training_paper_ids": list(context.training_paper_ids),
                "inherited_from": context.inherited_from,
                "decay": context.decay,
            })
            if context.representative is not None:
                representatives[context.term_id] = context.representative
        _write_json(
            workspace / f"{name}.json",
            {"format": "repro/context-paper-set/v1", "contexts": contexts},
        )
        artifacts[name].update(file=f"{name}.json", schema_version=1)
    _write_json(
        workspace / "representatives.json",
        {"format": "repro/representatives/v1", "by_context": representatives},
    )
    artifacts["representatives"] = dict(
        artifacts["vectors"], file="representatives.json", schema_version=1,
        deps=["text_paper_set", "vectors"], fingerprint=STALE,
    )
    for name in ("scores_text_text", "scores_combined_text"):
        artifacts[name]["deps"].append("representatives")
    for name in artifacts:
        if name.startswith("scores_"):
            artifacts[name]["fingerprint"] = STALE
    return 7, ["text_paper_set.json", "pattern_paper_set.json", "representatives.json"]


def no_pattern_extractions(data: Path, artifacts: dict) -> tuple:
    (data / "workspace" / artifacts.pop("pattern_extractions")["file"]).unlink()
    return 1, []


SCENARIOS = {
    scenario.__name__: scenario
    for scenario in (
        citation_graph, tokens, text_index_dep, json_paper_sets,
        no_pattern_extractions,
    )
}


def _sums(workspace: Path) -> dict:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workspace.iterdir())
        if path.is_file() and path.name != "manifest.json"
    }


def check(data: Path, name: str) -> list:
    """Run one scenario on ``data``; the list of failed checks."""
    workspace = data / "workspace"
    before = _sums(workspace)
    manifest_path = workspace / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    n_artifacts = len(manifest["artifacts"])
    expected_built, retired = SCENARIOS[name](data, manifest["artifacts"])
    _write_json(manifest_path, manifest)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    build = subprocess.run(
        [sys.executable, "-m", "repro.cli", "build", "--data", str(data)],
        env=env, capture_output=True, text=True,
    )
    problems = []
    expected = (
        f"built {expected_built}, fresh {n_artifacts - expected_built} "
        f"of {n_artifacts} artifacts"
    )
    if build.returncode != 0 or expected not in build.stdout:
        problems.append(f"build did not print {expected!r}:\n{build.stdout}{build.stderr}")
    if check_workspace_manifest.main(["--manifest", str(manifest_path)]) != 0:
        problems.append("the manifest check failed")
    problems += [f"{file} was not deleted" for file in retired if (workspace / file).exists()]
    after = _sums(workspace)
    if after != before:
        changed = sorted(set(after.items()) ^ set(before.items()))
        problems.append(f"artifact files changed: {changed}")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2 or any(name not in SCENARIOS for name in argv[1:]):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print(f"scenarios: {', '.join(SCENARIOS)}", file=sys.stderr)
        return 2
    data = Path(argv[0])
    for name in argv[1:]:
        problems = check(data, name)
        for problem in problems:
            print(f"workspace-upgrade: {name}: {problem}")
        if problems:
            return 1
        print(
            f"workspace-upgrade: {name}: OK (every artifact file kept its sha256)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
