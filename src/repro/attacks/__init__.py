"""Mining strategies and attack models.

* :mod:`repro.attacks.registry` -- the scenario interface and the fixed table
  of the two attack families (:func:`get_attack`).
* :mod:`repro.attacks.fork_state` / :mod:`repro.attacks.selfish_forks` -- the
  paper's multi-fork selfish-mining MDP (Section 3.2), the primary contribution,
  shipped as the ``"selfish-forks"`` scenario.
* :mod:`repro.attacks.sm_actions` -- the classic ADOPT/OVERRIDE/WAIT/MATCH
  action space (Sapirshtein et al.), shipped as ``"sm-actions"``.
* :mod:`repro.attacks.honest` -- the honest-mining baseline.
* :mod:`repro.attacks.single_tree` -- the single-tree (Eyal-Sirer style) baseline.
* :mod:`repro.attacks.eyal_sirer` -- the classic PoW selfish-mining closed form.
"""

from .registry import ScenarioStructure, get_attack, scenario_id_for
from .fork_state import (
    ADVERSARY,
    HONEST,
    TYPE_ADVERSARY,
    TYPE_HONEST,
    TYPE_MINING,
    ForkState,
    MineAction,
    ReleaseAction,
    SymbolicTransition,
    available_actions,
    initial_state,
    successor_distribution,
    symbolic_successor_distribution,
)
from .selfish_forks import SelfishForksModel, build_selfish_forks_mdp
from .structure import (
    SelfishForksStructure,
    SupportSignature,
    build_model_structure,
    clear_structure_cache,
    get_model_structure,
    structure_cache_stats,
)
from .honest import honest_errev, honest_strategy, honest_strategy_rows
from .eyal_sirer import (
    eyal_sirer_profitability_threshold,
    eyal_sirer_relative_revenue,
)
from .single_tree import (
    SingleTreeParams,
    single_tree_errev,
    single_tree_errev_grid,
    single_tree_errev_table,
)
from .sm_actions import SmActionsModel, SmActionsStructure, build_sm_actions_mdp

__all__ = [
    "ScenarioStructure",
    "get_attack",
    "scenario_id_for",
    "SmActionsModel",
    "SmActionsStructure",
    "build_sm_actions_mdp",
    "ADVERSARY",
    "HONEST",
    "TYPE_ADVERSARY",
    "TYPE_HONEST",
    "TYPE_MINING",
    "ForkState",
    "MineAction",
    "ReleaseAction",
    "SymbolicTransition",
    "available_actions",
    "initial_state",
    "successor_distribution",
    "symbolic_successor_distribution",
    "SelfishForksModel",
    "build_selfish_forks_mdp",
    "SelfishForksStructure",
    "SupportSignature",
    "build_model_structure",
    "clear_structure_cache",
    "get_model_structure",
    "structure_cache_stats",
    "honest_errev",
    "honest_strategy",
    "honest_strategy_rows",
    "eyal_sirer_relative_revenue",
    "eyal_sirer_profitability_threshold",
    "SingleTreeParams",
    "single_tree_errev",
    "single_tree_errev_grid",
    "single_tree_errev_table",
]
