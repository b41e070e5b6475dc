"""Event primitives for the discrete-event engine.

The design follows the classic generator-based discrete-event style
(SimPy lineage): an :class:`Event` is a one-shot object that is *triggered*
with either a value (``succeed``) or an exception (``fail``); callbacks run
when the environment processes the event.  Processes (see
:mod:`repro.sim.process`) yield events to wait on them.

Triggering is on the hot path of every simulation (hundreds of thousands
of events per figure point), so ``succeed``/``fail``/``Timeout`` push the
heap entry directly instead of going through
:meth:`~repro.sim.core.Environment.schedule`; the entry layout
``(time, priority, sequence, event)`` is shared with the environment.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional

__all__ = ["PENDING", "Event", "Timeout", "AllOf"]


class _Pending:
    """Sentinel for the value of an event that has not been triggered."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


PENDING = _Pending()

#: Scheduling priorities.  Lower values are processed first at equal times.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    env:
        The owning :class:`~repro.sim.core.Environment`.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env):
        self.env = env
        #: Callables invoked with this event once it is processed.
        self.callbacks: Optional[List[Callable[[Event], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or will be) scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._value is PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid += 1
        heappush(env._queue, (env._now, NORMAL, env._eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will have ``exception`` thrown into them, which
        *defuses* the event.  If no process or join ever waits on it, the
        environment re-raises the exception at processing time.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        env = self.env
        env._eid += 1
        heappush(env._queue, (env._now, NORMAL, env._eid, self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation.

    The constructor writes every slot directly and pushes its own heap
    entry: a Timeout is born triggered with exactly one eventual waiter in
    the common case, so the generic ``Event.__init__`` + ``schedule`` pair
    would only re-derive state already known here.
    """

    __slots__ = ("delay",)

    def __init__(self, env, delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env._eid += 1
        heappush(env._queue, (env._now + delay, NORMAL, env._eid, self))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Timeout delay={self.delay}>"


class AllOf(Event):
    """Composite event met once *all* child events have been processed.

    Its value is a dict mapping each child event to its value; the first
    child that fails fails it with the child's exception.
    """

    __slots__ = ("_events", "_count")

    def __init__(self, env, events):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise ValueError("events belong to different environments")
        if not self._events:
            self.succeed({})
            return
        check = self._check
        for event in self._events:
            if event.callbacks is None:
                check(event)
            else:
                event.callbacks.append(check)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._count == len(self._events):
            self.succeed({e: e._value for e in self._events})
