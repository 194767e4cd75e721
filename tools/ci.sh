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
echo "== bench: regression gates (serving speedup, obs overhead, index backend, http qps) =="
python tools/check_bench_regression.py

echo
echo "== smoke: http search service (start, scrape, search, reload, stop) =="
python tools/smoke_service.py

echo
echo "== tests: tier-1 suite =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q
