"""Built-in ruleset of ``repro lint``: one module per invariant family.

``ALL_RULES`` is the canonical registry consumed by the engine, the CLI and
the tests; rules run in id order.
"""

from typing import Tuple

from ..engine import Rule
from .determinism import CertifiedPathDeterminismRule
from .fork_safety import ForkSafetyRule
from .merge_pipeline import MergePipelineRule
from .scenario_contract import ScenarioContractRule

#: Every built-in rule, in id order.
ALL_RULES: Tuple[Rule, ...] = (
    ForkSafetyRule(),
    CertifiedPathDeterminismRule(),
    ScenarioContractRule(),
    MergePipelineRule(),
)

__all__ = [
    "ALL_RULES",
    "CertifiedPathDeterminismRule",
    "ForkSafetyRule",
    "MergePipelineRule",
    "ScenarioContractRule",
]
