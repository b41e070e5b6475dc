"""The simulation environment: clock, event heap, run loop.

The run loop is the single hottest frame of every experiment (one to two
million events per figure point).  Every application driver runs its
machine with ``run(until=<event>)`` — the event that fires when all
ranks finish — so that form, and only that form, has an inlined loop:
the body of :meth:`Environment.step` with the heap, the pop function and
the queue bound to locals.  It is behaviour-identical to calling
:meth:`step` repeatedly; :meth:`step` remains the reference single-event
entry point, and ``run()`` / ``run(until=<number>)`` step through it on
both kernels.

Kernel modes
------------
Every :class:`Environment` runs in one of two kernels:

* the **fast kernel** (the default): the inlined ``run(until=<event>)``
  loop plus the fast paths of :mod:`repro.sim.process` — the inline
  sleep, the reusable sleep entries and the lightweight
  :class:`~repro.sim.process.FanOut` — and the order-preserving
  synchronous grants of :meth:`Container.try_put
  <repro.sim.resources.Container.try_put>` / ``try_get``;
* the **reference kernel** (``fast=False``): :meth:`run` drives the
  simulation one :meth:`step` at a time and every fast path above is
  disabled, so events take the naive spawn/queue/wake route.

Both kernels must produce *identical* event streams; that is the
contract :mod:`repro.sim.diff` checks experiment-by-experiment.  The
module-level default is flipped by :func:`set_default_fast` (used by the
differential harness) so experiment code — which constructs its own
environments internally — picks the kernel up without plumbing.

Fast-loop dispatch protocol (relied on by the fast paths): ``_solo`` is
True exactly while the fast run loop is dispatching an event that has a
*single* callback and is not the stop event.  Only then may that
callback act ahead of the heap (sleep inline, start fan-out children
inline, take a synchronous grant), and only when nothing else is pending
at the current instant.  :meth:`Environment.step` clears it, so every
fast path is off outside the inlined loop.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, List, Optional, Tuple

from repro.sim.events import Event, Timeout, AllOf, NORMAL
from repro.sim.exceptions import EmptySchedule
from repro.sim.process import Process

__all__ = ["Environment", "default_fast", "set_default_fast"]

#: Sort key layout for heap entries: (time, priority, sequence, event)
_HeapEntry = Tuple[float, int, int, Event]

#: Kernel picked by environments constructed with ``fast=None``.
_DEFAULT_FAST = True


def default_fast() -> bool:
    """Kernel new environments default to (True = fast kernel)."""
    return _DEFAULT_FAST


def set_default_fast(fast: bool) -> bool:
    """Set the default kernel for new environments; returns the old one.

    Used by :mod:`repro.sim.diff` to run whole experiments — which build
    their machines and environments internally — on the reference
    kernel.  Prefer the :func:`repro.sim.diff.kernel` context manager.
    """
    global _DEFAULT_FAST
    previous = _DEFAULT_FAST
    _DEFAULT_FAST = bool(fast)
    return previous


class Environment:
    """Discrete-event simulation environment.

    Time is a float in **seconds** throughout this project.  All state —
    the clock, the pending-event heap and the active process — lives here;
    one Environment is one independent simulated machine run.

    ``fast`` picks the kernel (see module docstring); ``None`` uses the
    module default.
    """

    def __init__(self, initial_time: float = 0.0,
                 fast: Optional[bool] = None):
        self._now = float(initial_time)
        self._queue: List[_HeapEntry] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        self._fast = _DEFAULT_FAST if fast is None else bool(fast)
        #: True while the fast run loop dispatches a single-callback event.
        self._solo = False

    # -- clock & introspection ---------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def fast(self) -> bool:
        """True when this environment runs the fast kernel."""
        return self._fast

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing (None between events)."""
        return self._active_process

    # -- factories -----------------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events) -> Event:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling ------------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL,
                 delay: float = 0.0) -> None:
        """Queue ``event`` for processing ``delay`` seconds from now."""
        self._eid += 1
        heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def step(self) -> None:
        """Process the single next event.

        This is the reference single-event entry point: it never enables
        the solo-dispatch fast paths, so stepping an environment by hand
        always takes the naive route regardless of kernel.

        Raises :class:`EmptySchedule` when nothing is queued.  If a *failed*
        event was never defused (nobody waited on it), its exception is
        re-raised here so errors cannot vanish silently.
        """
        self._solo = False
        try:
            self._now, _, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no scheduled events") from None

        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            exc = event._value
            raise exc

    def _run_reference(self, until: Optional[Any]) -> Any:
        """Reference run loop: drive the simulation one :meth:`step` at a
        time, with every fast path disabled — the oracle side of
        :mod:`repro.sim.diff`, and the loop for ``run()`` and
        ``run(until=<number>)`` on both kernels."""
        if until is None:
            while self._queue:
                self.step()
            return None
        if isinstance(until, Event):
            while until.callbacks is not None:
                if not self._queue:
                    raise RuntimeError(
                        f"simulation ran dry before {until!r} fired") from None
                self.step()
            if until._ok:
                return until._value
            raise until._value
        horizon = float(until)
        if horizon < self._now:
            raise ValueError(f"until={horizon} lies in the past (now={self._now})")
        while self._queue and self._queue[0][0] <= horizon:
            self.step()
        self._now = horizon
        return None

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event is processed, returning
          its value (or raising its exception).
        """
        if not (self._fast and isinstance(until, Event)):
            return self._run_reference(until)

        queue = self._queue
        pop = heappop
        stop = until
        try:
            while stop.callbacks is not None:
                if not queue:
                    raise RuntimeError(
                        f"simulation ran dry before {stop!r} fired") from None
                self._now, _, _, event = pop(queue)
                callbacks = event.callbacks
                event.callbacks = None
                if len(callbacks) == 1 and event is not stop:
                    # Dispatching the stop event itself must not be
                    # solo: its callback could otherwise sleep inline
                    # past the stop point, where the reference kernel
                    # leaves the wake entry unprocessed.
                    self._solo = True
                    callbacks[0](event)
                else:
                    self._solo = False
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        finally:
            self._solo = False
        if stop._ok:
            return stop._value
        raise stop._value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kernel = "fast" if self._fast else "reference"
        return (f"<Environment now={self._now} pending={len(self._queue)} "
                f"{kernel}>")
