"""Generator-based simulated processes and the lightweight fan-out.

One resume loop, :meth:`Process._resume`, drives every generator in the
simulator: processes and fan-out children alike.  It holds the sleep
protocol, the fast kernel's fast paths and the error handling; a
:class:`Process` and a fan-out child differ only in their
``_finish(ok, value)`` hook.  The fast paths (fast kernel only; see
:mod:`repro.sim.core` for the kernel-mode contract):

* **inline sleep**: a bare-number sleep under a solo dispatch with
  nothing scheduled at or before its wake time advances the clock in
  the resume loop itself, with no heap entry.
* **reusable sleep entries**: a bare-number sleep that cannot run
  inline pushes the sleeper's own :class:`_Wake` (one per process or
  fan-out child, allocated on first use) with exactly the heap entry a
  ``Timeout`` would get, instead of allocating a ``Timeout`` per sleep.
* :class:`FanOut` / :func:`fan_out`: run N sub-generators to completion
  under a single composite event without allocating a ``Process`` +
  ``Initialize`` pair per child: the children start inline, or from one
  deferred start entry where the reference kernel would pop its N
  ``Initialize`` entries.  Used by multi-extent ``_transfer``.
* :class:`Message`: a prebuilt fan-out child for the collectives'
  ``Fabric.send_all``, one slotted object per message that is its own
  NIC request and heap entry, where the reference kernel runs a
  ``Fabric.transfer`` generator as a ``Process``.

All are *order-preserving*: the conditions under which they engage
guarantee the resulting event sequence is identical to the reference
kernel's (heap-entry-for-heap-entry, up to a uniform shift of the
sequence counter where whole entries are elided).  The differential
oracle in :mod:`repro.sim.diff` checks exactly this.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator, Optional

from repro.sim.events import Event, AllOf, Timeout, PENDING, NORMAL, URGENT

__all__ = ["Process", "Initialize", "FanOut", "Message", "fan_out"]


class Initialize(Event):
    """Internal event that starts a newly created process."""

    __slots__ = ("process",)

    def __init__(self, env, process: "Process"):
        super().__init__(env)
        self.process = process
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env.schedule(self, URGENT)


class _Wake(Event):
    """Reusable heap entry for the contended ``yield <seconds>`` sleeps of
    one process or fan-out child on the fast kernel.

    The sleeper pushes it with the ``(wake, NORMAL, sequence)`` entry a
    fresh ``Timeout`` would get, so the event stream is unchanged.
    ``callbacks`` holds the sleeper's resume only while an entry is
    scheduled (the run loop clears it on dispatch): a stored callback
    would tie sleeper → wake → bound method → sleeper into a cycle that
    keeps finished processes alive until the cyclic GC runs.
    """

    __slots__ = ()

    def __init__(self, env):
        self.env = env
        self.callbacks = None
        self._value = None
        self._ok = True
        self._defused = False


class Process(Event):
    """A running generator inside the simulation.

    A process *is* an event: it triggers when the generator returns (with
    the return value) or raises (with the exception).  Processes wait on
    events by yielding them::

        def worker(env):
            yield env.timeout(5)
            return "done"

        env.process(worker(env))
    """

    __slots__ = ("_generator", "_wake", "name")

    def __init__(self, env, generator: Generator, name: Optional[str] = None):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: Reusable sleep entry (fast kernel), allocated on first use.
        self._wake: Optional[_Wake] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    # -- engine plumbing ---------------------------------------------------
    def _finish(self, ok: bool, value: Any) -> None:
        """The generator finished: trigger this process with its outcome."""
        self._ok = ok
        self._value = value
        env = self.env
        env._eid += 1
        heappush(env._queue, (env._now, NORMAL, env._eid, self))

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``.

        The one resume loop of the simulator: fan-out children run on it
        too, and finish through their own ``_finish`` hook.
        """
        env = self.env
        caller = env._active_process
        env._active_process = self
        generator = self._generator
        send = generator.send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    # The waited-on event failed; propagate into the process.
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                self._finish(True, exc.value)
                break
            except BaseException as exc:
                self._finish(False, exc)
                break

            if not isinstance(next_event, Event):
                # Sleep protocol: a bare non-negative number means
                # "advance me that many seconds" (sugar for yielding a
                # Timeout).  Under a solo dispatch with nothing scheduled
                # at or before the wake time — the reference kernel's heap
                # entry for the timeout would be the strict minimum, being
                # the youngest — advance the clock right here: no Timeout
                # object, no heap round-trip.  Otherwise push the heap
                # entry the reference kernel's Timeout would get, on this
                # generator's reusable wake (the reference kernel keeps a
                # real Timeout).
                if ((type(next_event) is float or type(next_event) is int)
                        and next_event >= 0):
                    wake = env._now + next_event
                    q = env._queue
                    # Heap check first: it is the test that fails when
                    # other processes contend, so the contended path
                    # skips the solo load entirely.
                    if (not q or q[0][0] > wake) and env._solo:
                        env._now = wake
                        event = _INIT
                        continue
                    if env._fast:
                        timer = self._wake
                        if timer is None:
                            timer = self._wake = _Wake(env)
                        timer.callbacks = [self._resume]
                        env._eid += 1
                        heappush(q, (wake, NORMAL, env._eid, timer))
                    else:
                        Timeout(env, next_event).callbacks.append(
                            self._resume)
                    break
                # A negative delay or a non-event: throw the error in at
                # the top of the loop, so whatever the generator yields
                # after catching it is handled as an ordinary yield.
                if type(next_event) is float or type(next_event) is int:
                    exc = ValueError(f"negative delay {next_event}")
                else:
                    exc = RuntimeError(f"process {self.name!r} yielded a "
                                       f"non-event: {next_event!r}")
                event = _Outcome(False, exc)
                continue

            if next_event.callbacks is not None:
                # Event still pending or triggered-but-unprocessed: wait.
                next_event.callbacks.append(self._resume)
                break
            # Event already processed: loop immediately with its outcome.
            event = next_event

        env._active_process = caller

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name} ({state})>"


class _Outcome:
    """The outcome of an event that was never scheduled.

    :data:`_INIT`, a success without a value, is sent into a starting
    fan-out child and after an inline sleep, as an ``Initialize`` or a
    ``Timeout`` would deliver.  A failed outcome carries the error thrown
    into a generator that yielded a negative delay or a non-event."""

    __slots__ = ("_ok", "_value", "_defused")

    def __init__(self, ok: bool, value: Any):
        self._ok = ok
        self._value = value
        self._defused = False


_INIT = _Outcome(True, None)


class _FanChild:
    """One sub-generator of a :class:`FanOut`.

    It runs on :meth:`Process._resume` itself, holding the same state as
    a process; only its ``_finish`` hook differs: it reports to the
    fan-out instead of triggering an event.
    """

    __slots__ = ("env", "_generator", "_wake", "_fan")

    #: Named in the error raised when the child yields a non-event.
    name = "fan-out child"

    def __init__(self, fan: "FanOut", gen: Generator):
        # The check Process.__init__ makes, without a call per child.
        try:
            gen.throw
        except AttributeError:
            raise TypeError(f"{gen!r} is not a generator") from None
        self.env = fan.env
        self._generator = gen
        #: Reusable sleep entry, as :attr:`Process._wake`.
        self._wake: Optional[_Wake] = None
        self._fan = fan

    _resume = Process._resume

    def _finish(self, ok: bool, value: Any) -> None:
        """The generator finished: push the fan-out's relay entry for it,
        the stand-in for the reference kernel's child ``Process`` event."""
        fan = self._fan
        fan._push(fan._collect, ok, value, NORMAL)


class FanOut(Event):
    """Composite event that drives N children to completion.

    The fast kernel's replacement for
    ``AllOf(env, [Process(env, g) for g in gens])``, the shape the
    reference kernel builds: no ``Process``/``Initialize`` pair per
    child, no join bookkeeping.  A child is a sub-generator, wrapped in
    a :class:`_FanChild` that runs on :meth:`Process._resume`, or, with
    ``built=True``, a prebuilt child such as a :class:`Message`: any
    object with a ``_fan`` slot and a ``_resume(event)`` start method
    that finishes by pushing its own relay entry.  The event's value is
    ``None``.  Generator fan-outs are built through :func:`fan_out`.

    Ordering argument, relative to the reference shape:

    * *Start*: the reference pushes one URGENT ``Initialize`` per child
      at the current instant, with consecutive sequence numbers, so the
      run loop pops them back to back in creation order: nothing pushed
      meanwhile can sort between them.  The fan-out starts all children
      at that point in creation order.  When that point is *now* — the
      dispatch is solo and no other URGENT entry is pending at the
      current instant — it starts them inline; otherwise it pushes one
      ``(now, URGENT, sequence)`` start entry where the reference pushes
      its first ``Initialize``.  The elided entries shift all later
      sequence numbers uniformly, which preserves every relative
      comparison.  Starts run with ``_solo`` cleared, as a reference
      ``Initialize`` dispatch would: no inline sleep, inline fan-out
      start or synchronous ``Container`` grant, any of which would let
      child *i* act ahead of siblings that have not started yet.
    * *Errors*: a non-generator raises ``TypeError`` into the caller
      while the children are built, before anything is pushed or
      started, as the reference :func:`fan_out` does before it spawns
      any ``Process``.
    * *Completion*: where the reference pushes the child ``Process``
      event, a finished child pushes one relay entry at the identical
      heap position; where ``AllOf._check`` on the last relay would push
      the join's trigger, :meth:`_collect` pushes this event's.
      Entry-for-entry identical.  A :class:`Message` follows the same
      argument entry by entry; its class docstring gives its half.
    """

    __slots__ = ("_pending",)

    def __init__(self, env, children, built: bool = False):
        super().__init__(env)
        if built:
            for child in children:
                child._fan = self
        else:
            children = [_FanChild(self, gen) for gen in children]
        self._pending = len(children)
        if not children:
            # Mirror AllOf(env, []) — met immediately, no child entries.
            self.succeed(None)
            return
        q = env._queue
        if env._solo and (not q or q[0][0] > env._now or q[0][1] != URGENT):
            self._start(children)
        else:
            self._push(self._deferred_start, True, children, URGENT)

    def _deferred_start(self, start: Event) -> None:
        """The start entry was popped; its value is the children."""
        self._start(start._value)

    def _start(self, children) -> None:
        """Start every child in creation order."""
        env = self.env
        solo = env._solo
        env._solo = False
        for child in children:
            child._resume(_INIT)
        env._solo = solo

    def _push(self, callback, ok: bool, value: Any, priority: int) -> None:
        """Push a bare triggered event at now whose one callback is
        ``callback``."""
        env = self.env
        event = Event.__new__(Event)
        event.env = env
        event.callbacks = [callback]
        event._ok = ok
        event._value = value
        event._defused = False
        env._eid += 1
        heappush(env._queue, (env._now, priority, env._eid, event))

    def _collect(self, relay: Event) -> None:
        """Relay processed — mirror ``AllOf._check`` on a child event."""
        if not relay._ok:
            if self._value is PENDING:
                relay._defused = True
                self.fail(relay._value)
            # A failure after this event already triggered stays undefused,
            # like a failed child Process nobody waits on: the run loop
            # re-raises it.
            return
        if self._value is not PENDING:
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(None)


class Message:
    """One message of a collective fan-out on the fast kernel.

    The prebuilt :class:`FanOut` child behind
    :meth:`Fabric.send_all <repro.machine.network.fabric.Fabric.send_all>`:
    it stands in for a ``Fabric.transfer`` generator and is at once the
    fan-out child, the request queued at the receiver's NIC (a
    capacity-one :class:`~repro.sim.resources.Resource`) and its own
    heap entry for the grant, the wire-time wake and the completion
    relay.  No generator, ``_FanChild``, ``Request``, relay ``Event`` or
    bound method is built per message: each heap entry's callback is a
    shared one-tuple holding a plain function of the message.

    ``link`` supplies the timing, ``link._wire_at_start(message)`` when
    the message starts (at ``env.now``, in start order) and
    ``link._delivered(message)`` when it releases the NIC; the heap and
    wait-queue protocol is the kernel's.  Entry for entry, it mirrors
    the transfer generator run as a fan-out child:

    * *start* (``_resume``, from :meth:`FanOut._start`, so never under
      a solo dispatch): take a free NIC slot and push the wire-time wake
      ``(now + wire, NORMAL, sequence)`` as the generator's sleep would,
      or queue at the NIC as its ``Request`` would;
    * *grant* (popped as the request's entry, which
      ``Resource._grant_next`` pushed): sleep the wire time under the
      inline-sleep rule of :meth:`Process._resume`, else push the wake;
    * *wake*: release the NIC, which may push the next waiter's grant;
      then the link's stats; then the relay entry ``(now, NORMAL,
      sequence)`` where the generator's ``_finish`` pushes its relay;
    * *relay*: :meth:`FanOut._collect`, as for any child.

    A message cannot fail, so ``_ok`` and ``_defused`` are constants.
    """

    __slots__ = ("callbacks", "_value", "_fan", "_link", "_nic", "_wire",
                 "src", "dst", "nbytes", "started")

    _ok = True
    _defused = False

    def __init__(self, link, nic, src, dst, nbytes: int):
        self._link = link
        self._nic = nic
        self.src = src
        self.dst = dst
        self.nbytes = nbytes

    def _resume(self, _event) -> None:
        """Start: take the NIC and push the wake, or queue at the NIC."""
        nic = self._nic
        env = nic.env
        self.started = now = env._now
        wire = self._link._wire_at_start(self)
        users = nic._users
        if len(users) < nic.capacity:
            users.append(self)
            self.callbacks = _ON_WAKE
            env._eid += 1
            heappush(env._queue, (now + wire, NORMAL, env._eid, self))
        else:
            self._wire = wire
            self.callbacks = _ON_GRANT
            nic._waiting.append(self)

    def _granted(self) -> None:
        """The NIC granted the queued message: sleep the wire time."""
        env = self._nic.env
        wake = env._now + self._wire
        q = env._queue
        if (not q or q[0][0] > wake) and env._solo:
            env._now = wake
            self._woken()
        else:
            self.callbacks = _ON_WAKE
            env._eid += 1
            heappush(q, (wake, NORMAL, env._eid, self))

    def _woken(self) -> None:
        """The wire time is over: release the NIC, count, push the relay."""
        nic = self._nic
        nic._users.remove(self)
        if nic._waiting:
            nic._grant_next()
        self._link._delivered(self)
        env = nic.env
        self.callbacks = _ON_RELAY
        env._eid += 1
        heappush(env._queue, (env._now, NORMAL, env._eid, self))

    def _relayed(self) -> None:
        self._fan._collect(self)


_ON_GRANT = (Message._granted,)
_ON_WAKE = (Message._woken,)
_ON_RELAY = (Message._relayed,)


def _no_value(join: Event) -> None:
    """First callback of the reference kernel's fan-out join: a waiter
    gets ``None``, as from a :class:`FanOut`, not ``AllOf``'s dict."""
    if join._ok:
        join._value = None


def fan_out(env, gens) -> Event:
    """Wait-all event over sub-generators, for ``yield fan_out(env, gens)``.

    The event's value is ``None`` on both kernels; a failing child fails
    it with the child's exception.  A non-generator in ``gens`` raises
    ``TypeError`` before any child starts.

    On the fast kernel this is always a :class:`FanOut`.  It starts its
    children inline when the current dispatch is solo and no URGENT
    entry is pending at the current instant (the heap minimum would be
    it, so one probe suffices); otherwise — another callback of the
    triggering event or a not-yet-started process would run first in
    the reference kernel — it defers the starts to one URGENT start
    entry.

    The reference kernel builds the naive shape, a spawned
    :class:`Process` per child under :class:`~repro.sim.events.AllOf`:
    the oracle the fast shape is checked against.
    """
    if not env._fast:
        gens = list(gens)
        for gen in gens:
            if not hasattr(gen, "throw"):
                raise TypeError(f"{gen!r} is not a generator")
        join = AllOf(env, [Process(env, gen) for gen in gens])
        join.callbacks.append(_no_value)
        return join
    return FanOut(env, gens)
