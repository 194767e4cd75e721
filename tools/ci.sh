#!/usr/bin/env bash
# Local CI: static lints + the tier-1 test suite.
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
echo "== lint: score-function registry and the index protocol boundary =="
python tools/check_registries.py

echo
echo "== lint: workspace artifact registry =="
python tools/check_workspace_manifest.py

echo
echo "== lint: a freshly built workspace, and its first delta generation, pass the manifest check =="
WORKSPACE_DATA="$(mktemp -d)"
trap 'rm -rf "$WORKSPACE_DATA"' EXIT
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli generate \
    --papers 60 --terms 15 --seed 8 --out "$WORKSPACE_DATA" > /dev/null
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli build \
    --data "$WORKSPACE_DATA" > /dev/null
python tools/check_workspace_manifest.py --manifest "$WORKSPACE_DATA/workspace/manifest.json"
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

echo
echo "== docs: docs/api.md and the architecture score-function table are generated from the code =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python tools/gen_api_docs.py
git diff --exit-code docs/api.md docs/architecture.md

echo
echo "== smoke: http search service (start, scrape, search, reload, stop) =="
python tools/smoke_service.py

echo
echo "== bench: figure and ablation harness collects =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest benchmarks --collect-only -q

echo
echo "== bench: end-to-end smoke (every workload on tiny, traced and untraced) =="
python benchmarks/e2e/run.py --smoke

echo
echo "== tests: tier-1 suite =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q
