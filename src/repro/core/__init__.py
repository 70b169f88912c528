"""High-level user-facing API.

:class:`~repro.core.analyzer.SelfishMiningAnalyzer` wires together the model
construction (:mod:`repro.attacks`) and the formal analysis
(:mod:`repro.analysis`).  The sweep driver and
reporting helpers regenerate the paper's Figure 2 series and Table 1 rows.
"""

from .results import AnalysisResult, SweepFailure, SweepPoint, SweepResult
from .analyzer import SelfishMiningAnalyzer
from .engine import attack_series_name
from .execution import execute_sweep
from .sweep import SweepConfig, run_sweep
from .reporting import ascii_plot, render_table, write_csv

__all__ = [
    "AnalysisResult",
    "SweepFailure",
    "SweepPoint",
    "SweepResult",
    "SelfishMiningAnalyzer",
    "SweepConfig",
    "attack_series_name",
    "execute_sweep",
    "run_sweep",
    "ascii_plot",
    "render_table",
    "write_csv",
]
