"""Exception hierarchy shared by all modules.

Two families matter for the command line tool: ``ConfigError`` subclasses
signal invalid inputs or violated preconditions (exit code 2), while
``SolverError`` subclasses signal a Newton run that did not reach the
requested tolerance (exit code 3).
"""

from __future__ import annotations


class Sigma2LabError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(Sigma2LabError):
    """Invalid argument, violated invariant, or unmet precondition."""


class UnsupportedOrder(ConfigError):
    """A derivative of total order above the supported maximum was requested."""


class DegreeTooHigh(ConfigError):
    """A polynomial exceeds the degree bound of the requested operation."""


class NotPositiveDefinite(ConfigError):
    """A matrix that must be positive definite is not."""


class NotConvex(ConfigError):
    """An operation that requires a convex function received a non-convex one."""


class NoInteriorPoint(ConfigError):
    """A sublevel set is empty or has empty interior."""


class NotMonotone(ConfigError):
    """u_t is not strictly increasing in t, so the change of variables fails."""


class ZOutOfRange(ConfigError):
    """A requested z value is outside the range attained by u_t."""


class SolverError(Sigma2LabError):
    """Base class for Newton-solver failures; ``report`` is the solve report
    at the failure, or None."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class MaxIterExceeded(SolverError):
    """The iteration or line-search budget ran out before convergence."""


class EllipticityLost(SolverError):
    """An iterate left the cone u_tt > 0 where the linearization is elliptic."""


class LinearSolveFailure(SolverError):
    """An inner sparse solve missed its relative-residual contract."""
