"""The shared :class:`repro.registry.Registry` and the lint over it.

Both plug-in seams -- score functions and index backends -- are
instances of one registry class; ``tools/check_registries.py`` checks
every surface derived from them.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro import scoring
from repro.index import backends

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "registry,name,snapshot",
    [
        (
            scoring,
            "text",
            lambda: (scoring.function_names(), scoring.evaluation_arms()),
        ),
        (backends, "memory", backends.backend_names),
    ],
    ids=["scoring", "backends"],
)
def test_shadowing_block_keeps_registration_order(registry, name, snapshot):
    before = snapshot()
    shadow = dataclasses.replace(registry.get(name), description="shadow")
    with registry.temporary_registration(shadow, replace=True):
        assert registry.get(name) is shadow
        assert snapshot() == before
    assert snapshot() == before


def _load_lint():
    path = REPO_ROOT / "tools" / "check_registries.py"
    spec = importlib.util.spec_from_file_location("check_registries", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCheckRegistries:
    def test_undocumented_registrations_fail_then_clean_tree_passes(self, capsys):
        lint = _load_lint()
        undocumented_function = dataclasses.replace(
            scoring.get("hits"), name="undocumented"
        )
        with scoring.temporary_registration(undocumented_function):
            assert lint.main() == 1
        assert "'undocumented' missing from" in capsys.readouterr().out
        undocumented_backend = dataclasses.replace(
            backends.get("memory"),
            name="undocumented",
            format_tag="repro/undocumented-index/v1",
        )
        with backends.temporary_registration(undocumented_backend):
            assert lint.main() == 1
        assert "'undocumented' missing from" in capsys.readouterr().out
        assert lint.main() == 0
