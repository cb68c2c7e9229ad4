"""Exception types shared across the package.

Errors that carry diagnostic payloads (a pivot, a partial trace) are
distinct classes so callers can recover the payload instead of parsing
messages. A message that quotes an input value quotes ``echo(value)``.
"""
from __future__ import annotations

import reprlib

# repr cut short: a string at 30 characters, an integer at 40 digits, a
# container at a few items and 6 levels, so a message stays short whatever it quotes.
echo = reprlib.Repr().repr


class DimensionError(ValueError):
    """Operands have incompatible shapes or block counts."""


class SingularMatrixError(RuntimeError):
    """A matrix failed the singular-value rank test of ``lu_solve``.

    ``pivot`` holds its smallest singular value sigma_min.
    """

    def __init__(self, message: str, pivot: float):
        super().__init__(message)
        self.pivot = float(pivot)


class SingularSystemError(RuntimeError):
    """An implicit time step produced a singular linear system.

    ``pivot`` holds the smallest singular value of the step's left-hand
    side, as in SingularMatrixError.
    """

    def __init__(self, message: str, dt: float, pivot: float):
        super().__init__(message)
        self.dt = float(dt)
        self.pivot = float(pivot)


class DegenerateProblemError(ValueError):
    """Problem construction asked for an empty or meaningless model."""


class HorizonExhausted(RuntimeError):
    """The event simulation hit max_events before any stop condition.

    ``trace`` holds everything simulated up to the abort point.
    """

    def __init__(self, message: str, trace):
        super().__init__(message)
        self.trace = trace


class EnvelopeUndefinedError(ValueError):
    """Error envelope requested for a non-contractive configuration."""


class UnfittableError(ValueError):
    """Overhead fit requested where the model coefficient vanishes."""


class UndefinedLimitError(ValueError):
    """Asymptotic ratio requested with a vanishing denominator."""


class ConfigError(ValueError):
    """Experiment configuration is malformed; message names the field."""


class SweepOverflowError(ConfigError):
    """A synchronous sweep's iterate, or its change, left the float range.

    ``sweep`` holds the sweep index k >= 1.
    """

    def __init__(self, message: str, sweep: int):
        super().__init__(message)
        self.sweep = sweep


class EventOverflowError(ConfigError):
    """An asynchronous event produced a value outside the float range.

    ``component`` holds the component that fired and ``event`` the event index.
    """

    def __init__(self, message: str, component: int, event: int):
        super().__init__(message)
        self.component = component
        self.event = event
