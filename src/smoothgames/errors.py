"""Exception hierarchy for the smoothgames package."""

import numbers


class GameError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(GameError, ValueError):
    """Shapes of games, strategies, or matrices do not match."""


class ArgumentError(GameError, ValueError):
    """An argument violates a documented precondition."""


class DomainError(GameError, ValueError):
    """A point lies outside the domain an operation requires."""


class ParseError(GameError, ValueError):
    """A game or configuration file could not be parsed."""


class ResourceError(GameError):
    """A requested computation exceeds the configured size limits."""


class ConvergenceError(GameError, RuntimeError):
    """An iterative solver stopped before reaching its tolerance.

    Carries the best residual seen, the iteration count, and optionally
    the smoothing level and last iterate so callers can inspect or
    restart the failed solve.
    """

    def __init__(self, message, residual=None, iterations=None, beta=None,
                 last_point=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.beta = beta
        self.last_point = last_point


class CyclingError(ConvergenceError):
    """The solver residual stagnated, suggesting a non-contractive regime."""


def check_count(name, value, positive=False):
    """Raise ArgumentError unless value is a non-negative (or, with
    ``positive``, a positive) integer other than a bool: a budget, sample
    count or iteration cap."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < int(positive)):
        kind = "positive" if positive else "non-negative"
        raise ArgumentError(f"{name} must be a {kind} integer, got {value!r}")
