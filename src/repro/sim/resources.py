"""Shared-resource primitives: counted resources, stores, containers.

These model the queueing points of the machine: an I/O node's disk arm is
a ``Resource(capacity=1)``, a network link is a ``Resource`` with a service
process, a bounded memory buffer is a ``Container``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, List

from repro.sim.events import Event, NORMAL, PENDING
from repro.sim.exceptions import SimulationError

__all__ = ["Request", "Resource", "Store", "Container"]

#: Opaque marker held in ``Resource._users`` for slots taken via
#: :meth:`Resource.acquire` (no Request object exists for those holds).
_SLOT = object()


class Request(Event):
    """Pending claim on a :class:`Resource`.

    Usable as a context manager so the slot is released on exit::

        with resource.request() as req:
            yield req
            ... hold the resource ...
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # Inlined Event.__init__ — requests are allocated once per
        # disk/NIC/CPU hold, hundreds of thousands of times per sweep.
        self.env = resource.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource._release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request from the wait queue."""
        if not self.triggered:
            try:
                self.resource._waiting.remove(self)
            except ValueError:
                pass


class Resource:
    """A resource with ``capacity`` identical slots and a FIFO wait queue."""

    def __init__(self, env, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._users: List[Any] = []  # Request objects and _SLOT markers
        self._waiting: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim a slot; the returned event fires once the slot is granted."""
        return Request(self)

    def acquire(self) -> bool:
        """Synchronously take a slot if one is free, without allocating a
        :class:`Request`.

        Returns True when the slot was taken; the caller must then pair
        it with :meth:`release_slot` (use try/finally).  This is the
        no-event, no-allocation fast path for the uncontended
        ``with resource.request()`` pattern on hot call sites; when it
        returns False, fall back to :meth:`request` and queue normally.
        """
        if len(self._users) < self.capacity:
            self._users.append(_SLOT)
            return True
        return False

    def release_slot(self) -> None:
        """Release a slot taken by :meth:`acquire`, waking the next waiter."""
        self._users.remove(_SLOT)
        if self._waiting:
            self._grant_next()

    def _do_request(self, req: Request) -> None:
        users = self._users
        if len(users) < self.capacity:
            users.append(req)
            # Grant synchronously: the request is born *processed* (no
            # callbacks could have been registered yet), so a process
            # yielding it continues inline instead of paying a heap
            # round-trip.  Waiters woken by ``_grant_next`` still go
            # through the queue — they have a registered callback.
            req._value = None
            req.callbacks = None
        else:
            self._waiting.append(req)

    def _release(self, req: Request) -> None:
        """Release a granted slot; cancel a request still waiting."""
        users = self._users
        if req in users:
            users.remove(req)
            if self._waiting:
                self._grant_next()
        else:
            req.cancel()

    def _grant_next(self) -> None:
        waiting = self._waiting
        users = self._users
        capacity = self.capacity
        env = self.env
        while waiting and len(users) < capacity:
            nxt = waiting.popleft()
            users.append(nxt)
            nxt._value = None
            env._eid += 1
            heappush(env._queue, (env._now, NORMAL, env._eid, nxt))


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._do_put(self)


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        store._do_get(self)


class Store:
    """FIFO buffer of Python objects with optional bounded capacity.

    ``put`` blocks (returns a pending event) when the store is full;
    ``get`` blocks when it is empty.
    """

    def __init__(self, env, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(self) -> StoreGet:
        return StoreGet(self)

    def _do_put(self, ev: StorePut) -> None:
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(ev.item)
            ev.succeed()
        elif len(self.items) < self.capacity:
            self.items.append(ev.item)
            ev.succeed()
        else:
            self._putters.append(ev)

    def _do_get(self, ev: StoreGet) -> None:
        if self.items:
            ev.succeed(self.items.popleft())
            self._drain_putters()
        elif self._putters:
            putter = self._putters.popleft()
            ev.succeed(putter.item)
            putter.succeed()
        else:
            self._getters.append(ev)

    def _drain_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            putter = self._putters.popleft()
            self.items.append(putter.item)
            putter.succeed()

    def __len__(self) -> int:
        return len(self.items)


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.env)
        self.amount = amount
        container._do_put(self)


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.env)
        self.amount = amount
        container._do_get(self)


class Container:
    """A homogeneous quantity (e.g. bytes of buffer memory).

    ``get`` blocks until the requested amount is available; ``put`` blocks
    while it would exceed capacity.
    """

    def __init__(self, env, capacity: float = float("inf"), init: float = 0.0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init out of range")
        self.env = env
        self.capacity = capacity
        self._level = init
        self._putters: Deque[ContainerPut] = deque()
        self._getters: Deque[ContainerGet] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> ContainerPut:
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        return ContainerGet(self, amount)

    def try_put(self, amount: float) -> bool:
        """Synchronously deposit ``amount`` if the order-preserving grant
        conditions hold, allocating no event at all (the no-event analogue
        of :meth:`Resource.acquire`).

        The grant is taken when the put fits, no getter waits that it
        could unblock, the dispatch is solo and nothing else is pending
        at the current instant: the reference kernel's next pop would then
        be the put event's own ``(now, NORMAL, sequence)`` entry, so
        granting it here reorders nothing.  Returns False otherwise —
        the caller must fall back to ``yield container.put(amount)``.
        Always False on the reference kernel."""
        if amount <= 0:
            raise ValueError("amount must be positive")
        env = self.env
        if (env._solo and not self._getters
                and self._level + amount <= self.capacity):
            q = env._queue
            if not q or q[0][0] > env._now:
                self._level += amount
                return True
        return False

    def try_get(self, amount: float) -> bool:
        """Mirror of :meth:`try_put` for withdrawals."""
        if amount <= 0:
            raise ValueError("amount must be positive")
        env = self.env
        if (env._solo and not self._putters and amount <= self._level):
            q = env._queue
            if not q or q[0][0] > env._now:
                self._level -= amount
                return True
        return False

    def _do_put(self, ev: ContainerPut) -> None:
        if ev.amount > self.capacity:
            ev.fail(SimulationError(
                f"put of {ev.amount} exceeds capacity {self.capacity}"))
            return
        if self._level + ev.amount <= self.capacity:
            self._level += ev.amount
            ev.succeed()
            self._drain_getters()
        else:
            self._putters.append(ev)

    def _do_get(self, ev: ContainerGet) -> None:
        if ev.amount > self.capacity:
            ev.fail(SimulationError(
                f"get of {ev.amount} exceeds capacity {self.capacity}"))
            return
        if ev.amount <= self._level:
            self._level -= ev.amount
            ev.succeed()
            self._drain_putters()
        else:
            self._getters.append(ev)

    def _drain_getters(self) -> None:
        while self._getters and self._getters[0].amount <= self._level:
            getter = self._getters.popleft()
            self._level -= getter.amount
            getter.succeed()

    def _drain_putters(self) -> None:
        while (self._putters
               and self._level + self._putters[0].amount <= self.capacity):
            putter = self._putters.popleft()
            self._level += putter.amount
            putter.succeed()
            self._drain_getters()
