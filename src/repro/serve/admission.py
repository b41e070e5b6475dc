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

Every connection runs on its own handler thread, so the counters and
the FIFO live under one condition variable; the blocking work itself
happens in the executor's worker processes while the admitted request
merely waits on a future.  A waiter whose ``timeout`` expires in the
queue raises :class:`TimeoutError` and gives its queue slot back; the
server turns that into ``504``.
"""

from __future__ import annotations

import threading
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


class _Waiter:
    """One queued request; ``granted`` flips when a slot passes to it."""

    __slots__ = ("granted",)

    def __init__(self) -> None:
        self.granted = False


class AdmissionController:
    """Bounded admission: ``max_inflight`` running + ``max_queue`` waiting."""

    def __init__(self, max_inflight: int = 8, max_queue: int = 16,
                 retry_after_s: float = 1.0,
                 metrics: Optional[MetricsRegistry] = None):
        self.max_inflight = max(1, int(max_inflight))
        self.max_queue = max(0, int(max_queue))
        self.retry_after_s = retry_after_s
        self._inflight = 0
        self._waiters: Deque[_Waiter] = deque()
        self._draining = False
        self._cond = threading.Condition()

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

    def acquire(self, timeout: Optional[float] = None) -> None:
        """Admit the calling request, waiting in FIFO order if needed.

        Raises :class:`DrainingError` during shutdown,
        :class:`RejectedError` when the wait queue is full and
        :class:`TimeoutError` when no slot came within ``timeout``.
        """
        with self._cond:
            if self._draining:
                raise DrainingError("server is draining")
            if self._inflight < self.max_inflight:
                self._inflight += 1
                self._g_inflight.set(self._inflight)
                return
            if len(self._waiters) >= self.max_queue:
                self._m_rejected.inc()
                raise RejectedError(self.retry_after_s)
            waiter = _Waiter()
            self._waiters.append(waiter)
            self._g_waiting.set(len(self._waiters))
            # A granted waiter inherits the releaser's slot: _inflight
            # already counts it (see release).
            if self._cond.wait_for(lambda: waiter.granted, timeout):
                return
            self._waiters.remove(waiter)
            self._g_waiting.set(len(self._waiters))
            raise TimeoutError(f"no admission slot within {timeout:g}s")

    def release(self) -> None:
        """Give the admission slot back (request finished or failed)."""
        with self._cond:
            if self._waiters:
                self._waiters.popleft().granted = True  # slot transfers
                self._g_waiting.set(len(self._waiters))
            else:
                self._inflight -= 1
                self._g_inflight.set(self._inflight)
            self._cond.notify_all()

    def __enter__(self) -> "AdmissionController":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    # -- shutdown ------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting; requests already admitted/waiting continue."""
        with self._cond:
            self._draining = True

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """After :meth:`begin_drain`, wait for in-flight work to finish."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self._inflight == 0 and not self._waiters, timeout)
