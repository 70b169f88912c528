"""The top-level entry point: build the MDP, run Algorithm 1, report the result.

Example:
    >>> from repro import AnalysisConfig, AttackParams, ProtocolParams, SelfishMiningAnalyzer
    >>> analyzer = SelfishMiningAnalyzer(
    ...     ProtocolParams(p=0.3, gamma=0.5),
    ...     AttackParams(depth=2, forks=1, max_fork_length=4),
    ...     AnalysisConfig(epsilon=1e-3),
    ... )
    >>> result = analyzer.run()
    >>> result.errev_lower_bound >= result.honest_errev - 1e-3
    True
"""

from __future__ import annotations

import time
from typing import Optional

from ..analysis import formal_analysis
from ..attacks import get_model_structure, honest_errev
from ..config import AnalysisConfig, AttackParams, ProtocolParams
from ..mdp import MDP
from .results import AnalysisResult


class SelfishMiningAnalyzer:
    """Runs the full pipeline for one ``(p, gamma, d, f, l)`` parameter point.

    The analyzer is scenario-generic: the model is refilled from the cached
    skeleton of ``attack`` (:func:`~repro.attacks.structure.get_model_structure`),
    whichever scenario ``attack.scenario`` names.
    """

    def __init__(
        self,
        protocol: Optional[ProtocolParams] = None,
        attack: Optional[AttackParams] = None,
        config: Optional[AnalysisConfig] = None,
    ) -> None:
        self.protocol = protocol or ProtocolParams()
        self.attack = attack or AttackParams()
        self.config = config or AnalysisConfig()
        self._model: Optional[MDP] = None

    # ------------------------------------------------------------------ pipeline

    def build_model(self) -> MDP:
        """Build (or return the cached) MDP, refilled from the cached skeleton."""
        if self._model is None:
            structure = get_model_structure(self.attack, self.protocol)
            self._model = structure.instantiate(self.protocol)
        return self._model

    def run(self) -> AnalysisResult:
        """Build the model and run the formal analysis (Algorithm 1)."""
        build_start = time.perf_counter()
        mdp = self.build_model()
        build_seconds = time.perf_counter() - build_start

        analysis_start = time.perf_counter()
        formal = formal_analysis(mdp, self.config)
        analysis_seconds = time.perf_counter() - analysis_start

        return AnalysisResult(
            protocol=self.protocol,
            attack=self.attack,
            errev_lower_bound=formal.errev_lower_bound,
            strategy_errev=formal.strategy_errev,
            honest_errev=honest_errev(self.protocol),
            num_states=mdp.num_states,
            num_transitions=mdp.num_transitions,
            build_seconds=build_seconds,
            analysis_seconds=analysis_seconds,
            formal=formal,
        )
