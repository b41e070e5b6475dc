"""Admission control: bounded in-flight work, bounded wait queue.

The serving front-end admits at most ``max_inflight`` requests into
actual processing; up to ``max_queue`` more may wait (FIFO) for a slot.
Anything beyond that is rejected *immediately* with
:class:`RejectedError`, which the HTTP layer turns into
``429 Too Many Requests`` plus a ``Retry-After`` header — under
overload the server sheds load in O(1) instead of building an unbounded
backlog.  A draining server rejects new work with
:class:`DrainingError` (``503``) while letting admitted requests
finish.

Everything here runs on the asyncio event loop (single-threaded), so
plain counters are race-free; the blocking work itself happens in the
executor's worker processes while the admitted request merely awaits a
future.  Per-request *processing* timeouts are the server's job
(``asyncio.wait_for`` → 504); a request cancelled while still waiting
in the admission queue gives its slot back cleanly.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Optional

from repro.serve.metrics import MetricsRegistry

__all__ = ["RejectedError", "DrainingError", "AdmissionController"]


class RejectedError(Exception):
    """Both the in-flight slots and the wait queue are full."""

    def __init__(self, retry_after_s: float):
        super().__init__("server saturated; retry later")
        self.retry_after_s = retry_after_s


class DrainingError(Exception):
    """The server is shutting down and admits no new requests."""


class AdmissionController:
    """Bounded admission: ``max_inflight`` running + ``max_queue`` waiting."""

    def __init__(self, max_inflight: int = 8, max_queue: int = 16,
                 retry_after_s: float = 1.0,
                 metrics: Optional[MetricsRegistry] = None):
        self.max_inflight = max(1, int(max_inflight))
        self.max_queue = max(0, int(max_queue))
        self.retry_after_s = retry_after_s
        self._inflight = 0
        self._waiters: "Deque[asyncio.Future]" = deque()
        self._draining = False
        self._idle_event: Optional[asyncio.Event] = None

        m = metrics if metrics is not None else MetricsRegistry()
        self.metrics = m
        self._m_rejected = m.counter(
            "serve_rejected_total",
            "requests rejected with 429 (admission queue full)")
        self._g_inflight = m.gauge(
            "serve_inflight_requests", "requests currently admitted")
        self._g_waiting = m.gauge(
            "serve_admission_queue", "requests waiting for an admission slot")

    # -- admission -----------------------------------------------------

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    @property
    def draining(self) -> bool:
        return self._draining

    async def acquire(self) -> None:
        """Admit the calling request, waiting in FIFO order if needed.

        Raises :class:`DrainingError` during shutdown and
        :class:`RejectedError` when the wait queue is full.
        """
        if self._draining:
            raise DrainingError("server is draining")
        if self._inflight < self.max_inflight:
            self._inflight += 1
            self._g_inflight.set(self._inflight)
            return
        if len(self._waiters) >= self.max_queue:
            self._m_rejected.inc()
            raise RejectedError(self.retry_after_s)
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters.append(fut)
        self._g_waiting.set(len(self._waiters))
        try:
            await fut
        except asyncio.CancelledError:
            if fut.done() and not fut.cancelled():
                # The slot was granted in the same instant we were
                # cancelled; hand it to the next waiter (or free it).
                self._release_slot()
            else:
                try:
                    self._waiters.remove(fut)
                except ValueError:
                    pass
                self._g_waiting.set(len(self._waiters))
            raise
        # A granted waiter inherits the releaser's slot: _inflight
        # already counts it (see _release_slot).

    def release(self) -> None:
        """Give the admission slot back (request finished or failed)."""
        self._release_slot()

    def _release_slot(self) -> None:
        while self._waiters:
            fut = self._waiters.popleft()
            self._g_waiting.set(len(self._waiters))
            if not fut.done():
                fut.set_result(None)   # slot transfers; _inflight unchanged
                return
        self._inflight -= 1
        self._g_inflight.set(self._inflight)
        if self._idle_event is not None and self._inflight == 0 \
                and not self._waiters:
            self._idle_event.set()

    async def __aenter__(self) -> "AdmissionController":
        await self.acquire()
        return self

    async def __aexit__(self, *exc) -> None:
        self.release()

    # -- shutdown ------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting; requests already admitted/waiting continue."""
        self._draining = True

    async def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """After :meth:`begin_drain`, wait for in-flight work to finish."""
        if self._inflight == 0 and not self._waiters:
            return True
        self._idle_event = asyncio.Event()
        if self._inflight == 0 and not self._waiters:  # re-check post-create
            return True
        try:
            await asyncio.wait_for(self._idle_event.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False
        finally:
            self._idle_event = None
