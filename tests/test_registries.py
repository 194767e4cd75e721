"""The shared :class:`repro.registry.Registry`, the lint over it, and the
docs table generated from it.

Score functions are instances of one registry class;
``tools/check_registries.py`` checks the surfaces derived from it and
``tools/gen_api_docs.py`` writes its table in ``docs/architecture.md``.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro import scoring

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "registry,name,snapshot",
    [
        (
            scoring,
            "text",
            lambda: (scoring.function_names(), scoring.evaluation_arms()),
        ),
    ],
    ids=["scoring"],
)
def test_shadowing_block_keeps_registration_order(registry, name, snapshot):
    before = snapshot()
    shadow = dataclasses.replace(registry.get(name), description="shadow")
    with registry.temporary_registration(shadow, replace=True):
        assert registry.get(name) is shadow
        assert snapshot() == before
    assert snapshot() == before


def _load_tool(name):
    path = REPO_ROOT / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCheckRegistries:
    def test_undocumented_registrations_fail_then_clean_tree_passes(self, capsys):
        lint = _load_tool("check_registries")
        docs = _load_tool("gen_api_docs")
        architecture = (REPO_ROOT / "docs" / "architecture.md").read_text(
            encoding="utf-8"
        )
        undocumented_function = dataclasses.replace(
            scoring.get("hits"), name="undocumented"
        )
        with scoring.temporary_registration(undocumented_function):
            regenerated = docs.with_score_function_table(architecture)
        assert "| `undocumented` |" in regenerated
        assert regenerated != architecture
        assert docs.with_score_function_table(architecture) == architecture
        assert lint.main() == 0
        assert "agree with the registry" in capsys.readouterr().out
