"""Pluggable score-function registry (see ``docs/architecture.md``).

Importing this package registers the built-in functions (``text``,
``citation``, ``pattern``, ``hits``) and the ``combined`` rank-fusion
plugin.  Everything downstream -- prestige dispatch, CLI choices,
workspace score artifacts, evaluation sweeps -- derives its function
lists from here.
"""

from repro.scoring.registry import (
    PAPER_SET_NAMES,
    ScoreFunctionSpec,
    evaluation_arms,
    function_names,
    get,
    is_registered,
    overlap_pairs,
    register,
    registry_revision,
    specs,
    temporary_registration,
    unregister,
)

# Importing these modules runs their register() calls.
from repro.scoring import functions as _functions  # noqa: F401  (registers built-ins)
from repro.scoring import combined as _combined  # noqa: F401  (registers the plugin)

__all__ = [
    "PAPER_SET_NAMES",
    "ScoreFunctionSpec",
    "evaluation_arms",
    "function_names",
    "get",
    "is_registered",
    "overlap_pairs",
    "register",
    "registry_revision",
    "specs",
    "temporary_registration",
    "unregister",
]
