#!/usr/bin/env bash
# Local CI: static lints, smoke runs (service, README examples, e2e
# benchmark) and the tier-1 test suite.
#
#   tools/ci.sh            run everything
#
# Exits non-zero on the first failing step.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"

echo "== lint: metric name convention =="
python tools/check_metric_names.py

echo
echo "== lint: score-function registry and the one-text-analysis boundary =="
python tools/check_registries.py

echo
echo "== lint: workspace artifact registry =="
python tools/check_workspace_manifest.py

echo
echo "== lint: a fresh workspace, its upgrade from a stale manifest, and its delta generations pass the manifest check =="
WORKSPACE_DATA="$(mktemp -d)"
FRESH_DATA="$(mktemp -d)"
trap 'rm -rf "$WORKSPACE_DATA" "$FRESH_DATA"' EXIT
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli generate \
    --papers 60 --terms 15 --seed 8 --out "$WORKSPACE_DATA" > /dev/null
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli build \
    --data "$WORKSPACE_DATA" > /dev/null
python tools/check_workspace_manifest.py --manifest "$WORKSPACE_DATA/workspace/manifest.json"
# Workspaces built by earlier layouts: each scenario edits the manifest
# and files the way that layout left them, runs `repro build`, and checks
# the number rebuilt, that the retired files are gone, the manifest check,
# and that every artifact file keeps its sha256 (see the tool's
# docstring for what each scenario models).
python tools/check_workspace_upgrade.py "$WORKSPACE_DATA" \
    citation_graph tokens text_index_dep json_paper_sets no_pattern_extractions
# ... and so does the next generation a one-paper delta writes (the
# delta path rewrites vectors.npz from the retained term counts).
python - "$WORKSPACE_DATA" <<'PY'
import json, sys
from pathlib import Path
data = Path(sys.argv[1])
paper = json.loads((data / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[0])
paper["paper_id"] = "CI-DELTA-1"
(data / "delta.jsonl").write_text(json.dumps(paper) + "\n", encoding="utf-8")
PY
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli ingest-delta \
    --data "$WORKSPACE_DATA" --add "$WORKSPACE_DATA/delta.jsonl" > /dev/null
python tools/check_workspace_manifest.py --manifest "$WORKSPACE_DATA/workspace/manifest.json"
# A second generation replaces CI-DELTA-1 with changed references (same
# id, same text): the reopened workspace must rank like a fresh build of
# the final corpus.
python - "$WORKSPACE_DATA" <<'PY'
import json, sys
from pathlib import Path
data = Path(sys.argv[1])
papers = [json.loads(line) for line in (data / "corpus.jsonl").read_text(encoding="utf-8").splitlines()]
paper = next(p for p in papers if p["paper_id"] == "CI-DELTA-1")
cited = [p["paper_id"] for p in papers if p["paper_id"] not in paper["references"]]
paper["references"] = [pid for pid in cited if pid != "CI-DELTA-1"][:4]
(data / "delta.jsonl").write_text(json.dumps(paper) + "\n", encoding="utf-8")
PY
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli ingest-delta \
    --data "$WORKSPACE_DATA" --add "$WORKSPACE_DATA/delta.jsonl" --remove CI-DELTA-1 > /dev/null
python tools/check_workspace_manifest.py --manifest "$WORKSPACE_DATA/workspace/manifest.json"
cp "$WORKSPACE_DATA"/corpus.jsonl "$WORKSPACE_DATA"/ontology.obo "$WORKSPACE_DATA"/training.json "$FRESH_DATA"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli build --data "$FRESH_DATA" > /dev/null
# The generation's pattern extractions, seeded from generation 1's file,
# and its index, rebuilt from the token cache, are the bytes a fresh
# build of the final corpus writes.
cmp "$WORKSPACE_DATA/workspace/pattern_extractions.npz" \
    "$FRESH_DATA/workspace/pattern_extractions.npz"
echo "generation 2's pattern_extractions.npz equals a fresh build's"
cmp "$WORKSPACE_DATA/workspace/index.bin" "$FRESH_DATA/workspace/index.bin"
echo "generation 2's index.bin equals a fresh build's"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - "$WORKSPACE_DATA" "$FRESH_DATA" <<'PY'
import json, sys
from pathlib import Path
from repro.pipeline import Pipeline
reopened, fresh = (Pipeline.open_workspace(path) for path in sys.argv[1:])
lines = (Path(sys.argv[1]) / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
queries = [json.loads(line)["title"] for line in lines[:3]]
arms = [("citation", "text"), ("text", "text"), ("pattern", "pattern"), ("citation", "pattern"),
        ("combined", "text")]
strategies = ("probe", "name", "representative")
assert reopened.representatives == fresh.representatives
for function, paper_set in arms:
    for strategy in strategies:
        for query in queries:
            rows = [
                [(h.paper_id, h.context_id, h.relevancy, h.prestige) for h in
                 pipeline.search(query, function=function, paper_set_name=paper_set,
                                 selection_strategy=strategy, limit=10)]
                for pipeline in (reopened, fresh)
            ]
            assert rows[0], (function, paper_set, strategy, query, "no hits")
            assert rows[0] == rows[1], (function, paper_set, strategy, query, rows)
print(f"reopened generation 2 ranks like a fresh build ({len(arms)} arms, "
      f"{len(strategies)} strategies, {len(queries)} queries)")
PY

echo
echo "== tests: the differential tests catch every listed one-line mutation of src/ =="
python tools/check_reference_sharpness.py

echo
echo "== docs: docs/api.md and the architecture score-function and artifact tables are generated from the code =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python tools/gen_api_docs.py
git diff --exit-code docs/api.md docs/architecture.md

echo
echo "== smoke: http search service (start, scrape, search, reload, stop) =="
python tools/smoke_service.py

echo
echo "== examples: every README example runs to completion =="
for example in examples/*.py; do
    echo "-- $example"
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python "$example" > /dev/null
done

echo
echo "== bench: figure and ablation harness collects =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest benchmarks --collect-only -q

echo
echo "== bench: end-to-end smoke (every workload on tiny, traced and untraced) =="
python benchmarks/e2e/run.py --smoke

echo
echo "== tests: tier-1 suite =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q
