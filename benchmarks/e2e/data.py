"""Prepared inputs: generated data directories with built workspaces.

Each preset is generated with corpus seed 0 and built once per checkout
through the program's own CLI (``repro generate`` then ``repro build``,
each in a child process so the build's memory never counts toward a
measured run).  The result is cached under ``benchmarks/e2e/.cache``,
keyed by a digest of ``src/``, so a change to the program rebuilds it.
The two most recently used digests are kept.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

#: Bump to invalidate every cached preparation after changing this file.
PREPARE_VERSION = "1"
#: Corpus seed of every prepared preset; ``--seed`` varies the workload only.
CORPUS_SEED = 0
BUILD_TIMEOUT_S = 800
#: Digests whose data stays cached: a parent and a change, run alternately
#: in one working tree, then each build once.
KEEP_DIGESTS = 2

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
CACHE = Path(__file__).resolve().parent / ".cache"


def source_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def src_digest() -> str:
    """Digest of every source file under ``src/`` (bytecode caches excluded)."""
    digest = hashlib.sha256(PREPARE_VERSION.encode())
    for path in sorted(SRC.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _cli(*args: str) -> None:
    subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=child_env(),
        stdout=sys.stderr,
        check=True,
        timeout=BUILD_TIMEOUT_S,
    )


def prepared(preset: str) -> Path:
    """The data directory of ``preset``, generating and building it if needed."""
    base = CACHE / src_digest()
    target = base / preset
    base.mkdir(parents=True, exist_ok=True)
    os.utime(base)  # its mtime marks when the digest was last used
    if (target / "workspace" / "manifest.json").is_file():
        return target
    _prune(keep=KEEP_DIGESTS)
    scratch = base / f".{preset}.{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    print(f"preparing {preset} data in {target} ...", file=sys.stderr)
    try:
        _cli("generate", "--preset", preset, "--seed", str(CORPUS_SEED),
             "--out", str(scratch))
        _cli("build", "--data", str(scratch))
        try:
            scratch.rename(target)
        except OSError:
            if not (target / "workspace" / "manifest.json").is_file():
                raise
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return target


def _prune(keep: int) -> None:
    """Remove all but the ``keep`` most recently used digests' data."""
    digests = sorted(
        (path for path in CACHE.iterdir() if path.is_dir() and len(path.name) == 16),
        key=lambda path: path.stat().st_mtime,
        reverse=True,
    )
    for stale in digests[keep:]:
        shutil.rmtree(stale, ignore_errors=True)


def run_dir(name: str) -> Path:
    """A fresh per-run scratch directory inside the cache (caller removes it)."""
    path = CACHE / "runs" / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def generated_dataset(preset: str):
    """The preset's generated dataset (needed to draw topical queries)."""
    from repro.datagen.presets import get_preset

    return get_preset(preset).generate(seed=CORPUS_SEED)
