"""repro -- fully automated selfish mining analysis in efficient proof systems blockchains.

A from-scratch reproduction of the PODC 2024 paper by Chatterjee, Ebrahimzadeh,
Karrabi, Pietrzak, Yeo and Žikelić.  The package provides:

* :mod:`repro.mdp` -- an explicit-state mean-payoff MDP library (the substrate
  replacing the Storm model checker used by the paper),
* :mod:`repro.attacks` -- the paper's multi-fork selfish-mining MDP plus the
  honest, single-tree and Eyal-Sirer baselines,
* :mod:`repro.analysis` -- Algorithm 1 (binary search over ``r_beta``), exact
  strategy evaluation and a Dinkelbach cross-check,
* :mod:`repro.core` -- the high-level analyzer, sweeps and reporting.

Quickstart::

    from repro import AnalysisConfig, AttackParams, ProtocolParams, SelfishMiningAnalyzer

    analyzer = SelfishMiningAnalyzer(
        ProtocolParams(p=0.3, gamma=0.5),
        AttackParams(depth=2, forks=1, max_fork_length=4),
        AnalysisConfig(epsilon=1e-3),
    )
    result = analyzer.run()
    print(result.errev_lower_bound, result.honest_errev)
"""

from .config import (
    PAPER_ATTACK_CONFIGS,
    PAPER_GAMMAS,
    AnalysisConfig,
    AttackParams,
    ProtocolParams,
)
from .exceptions import (
    ConfigurationError,
    ConvergenceError,
    ModelError,
    ReproError,
    SolverError,
)
from .core import (
    AnalysisResult,
    SelfishMiningAnalyzer,
    SweepConfig,
    SweepPoint,
    SweepResult,
    ascii_plot,
    render_table,
    run_sweep,
    write_csv,
)
from .analysis import (
    dinkelbach_analysis,
    evaluate_strategy_errev,
    formal_analysis,
)
from .attacks import (
    build_selfish_forks_mdp,
    eyal_sirer_relative_revenue,
    honest_errev,
    single_tree_errev,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ProtocolParams",
    "AttackParams",
    "AnalysisConfig",
    "PAPER_ATTACK_CONFIGS",
    "PAPER_GAMMAS",
    "ReproError",
    "ConfigurationError",
    "ModelError",
    "SolverError",
    "ConvergenceError",
    "SelfishMiningAnalyzer",
    "AnalysisResult",
    "SweepConfig",
    "SweepPoint",
    "SweepResult",
    "run_sweep",
    "ascii_plot",
    "render_table",
    "write_csv",
    "formal_analysis",
    "dinkelbach_analysis",
    "evaluate_strategy_errev",
    "build_selfish_forks_mdp",
    "honest_errev",
    "single_tree_errev",
    "eyal_sirer_relative_revenue",
]
