"""Exception hierarchy for the smoothgames package, and the validators
that every public function checks its inputs with."""

import numbers
import os

import numpy as np


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
    restart the failed solve.  ``rows`` maps each batch row a stacked
    Newton argmax failed on to that row's own error; it is empty for
    every other error.
    """

    def __init__(self, message, residual=None, iterations=None, beta=None,
                 last_point=None, rows=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.beta = beta
        self.last_point = last_point
        self.rows = {} if rows is None else rows


class CyclingError(ConvergenceError):
    """The solver residual stagnated, suggesting a non-contractive regime:
    it failed to improve over a full stagnation window, or the step size
    collapsed below the step floor first.  ``residual`` and
    ``last_point`` are the best residual and iterate seen, and
    ``iterations`` counts the damped steps taken."""


def _is_integer(value) -> bool:
    """Whether value is an integer other than a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(name, value, positive=False):
    """value, if it is a non-negative (or, with ``positive``, a positive)
    integer other than a bool: a budget, sample count or iteration cap;
    else ArgumentError."""
    if not _is_integer(value) or value < int(positive):
        kind = "positive" if positive else "non-negative"
        raise ArgumentError(f"{name} must be a {kind} integer, got {value!r}")
    return value


def check_index(name, value, size):
    """value, if it is an integer other than a bool in ``[0, size)``: a
    player, action or support index; else ArgumentError."""
    if not _is_integer(value) or not 0 <= value < size:
        raise ArgumentError(
            f"{name} must be an integer in [0, {size}), got {value!r}")
    return value


def check_real(name, value, positive=True):
    """value, if it is a finite real other than a bool that is positive
    (without ``positive``, non-negative): a smoothing level, tolerance or
    radius; else ArgumentError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (value > 0 if positive else value >= 0)
            or not value < np.inf):
        kind = "positive" if positive else "non-negative"
        raise ArgumentError(f"{name} must be {kind} and finite, got {value!r}")
    return value


def check_array(name, value, shape=None, finite=True):
    """value as a float array: ArgumentError unless it converts, and (with
    ``finite``) unless its entries are finite; DimensionError unless it has
    ``shape``, if given, where a None entry matches any length."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as err:
        raise ArgumentError(f"{name} is not a real array: {err}") from None
    if shape is not None and (array.ndim != len(shape) or any(
            k is not None and k != n for k, n in zip(shape, array.shape))):
        raise DimensionError(
            f"{name} has shape {array.shape}, expected {shape}")
    if finite and not np.all(np.isfinite(array)):
        raise ArgumentError(f"{name} must be finite")
    return array


def check_type(name, value, cls):
    """value, if it is an instance of ``cls`` (a game, a strategy, a
    config); else ArgumentError."""
    if not isinstance(value, cls):
        raise ArgumentError(
            f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def check_sequence(name, value) -> tuple:
    """value as a tuple, if it is iterable (one entry per player, say);
    else ArgumentError."""
    return _converted(name, value, tuple, "a sequence")


def check_path(name, value):
    """value as a file-system path (str or bytes), if it is one; else
    ArgumentError.  Integers are refused: ``open`` would take them for
    file descriptors."""
    return _converted(name, value, os.fspath, "a path")


def _converted(name, value, convert, what):
    try:
        return convert(value)
    except TypeError:
        raise ArgumentError(f"{name} must be {what}, got {value!r}") from None
