"""Exception types used by the discrete-event engine."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all engine-level errors."""


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when no events remain."""
