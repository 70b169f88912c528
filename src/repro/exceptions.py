"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so that downstream users can
catch a single base class.  Specific subclasses signal configuration problems,
malformed models and solver failures separately because they are usually handled
at different layers (input validation vs numerical analysis).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """A user-supplied parameter is outside its valid domain."""


class ModelError(ReproError):
    """A Markov decision process or Markov chain is malformed."""


class SolverError(ReproError):
    """A numerical solver failed to produce a valid result."""


class ConvergenceError(SolverError):
    """An iterative solver exceeded its iteration budget before converging."""
