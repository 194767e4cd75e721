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
echo "== lint: score-function and index-backend registries =="
python tools/check_registries.py

echo
echo "== lint: workspace artifact registry =="
python tools/check_workspace_manifest.py

echo
echo "== lint: a freshly built workspace passes the manifest check =="
WORKSPACE_DATA="$(mktemp -d)"
trap 'rm -rf "$WORKSPACE_DATA"' EXIT
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli generate \
    --papers 60 --terms 15 --seed 8 --out "$WORKSPACE_DATA" > /dev/null
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli build \
    --data "$WORKSPACE_DATA" > /dev/null
python tools/check_workspace_manifest.py --manifest "$WORKSPACE_DATA/workspace/manifest.json"

echo
echo "== docs: docs/api.md is generated from the code =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python tools/gen_api_docs.py
git diff --exit-code docs/api.md

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
