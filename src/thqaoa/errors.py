"""Exception hierarchy for the thqaoa package.

Every error raised deliberately by this package derives from
:class:`ThqaoaError`, so callers can catch the package's failures with a
single ``except`` clause while still distinguishing the three broad
failure modes:

* :class:`DomainError` -- an input (parameter value, distribution kind,
  schedule length, ...) lies outside the documented domain of an
  operation.  These are programming/configuration mistakes, not
  numerical accidents.
* :class:`NumericalError` -- a computation that should have succeeded on
  valid inputs failed to meet its accuracy contract (non-convergence,
  an imaginary residue above tolerance, an unattainable search target).
* :class:`ConfigError` -- the command-line layer received an invalid or
  inconsistent configuration (unknown keys, malformed specs).

One warning class marks results that are returned but may be truncated:

* :class:`ConvergenceWarning` -- an optimizer returned the best point it
  found, but the search that found it stopped at its evaluation or
  iteration cap rather than converging.
"""

from __future__ import annotations

__all__ = ["ThqaoaError", "DomainError", "NumericalError", "ConfigError", "ConvergenceWarning"]


class ThqaoaError(Exception):
    """Base class for all errors raised by thqaoa."""


class DomainError(ThqaoaError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class NumericalError(ThqaoaError, ArithmeticError):
    """A numerical routine failed to meet its accuracy or convergence contract."""


class ConfigError(ThqaoaError, ValueError):
    """The command-line configuration is malformed or inconsistent."""


class ConvergenceWarning(RuntimeWarning):
    """An optimizer's result came from a search that stopped at its cap."""
