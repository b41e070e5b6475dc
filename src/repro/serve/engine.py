"""Cache-first execution engine with single-flight coalescing.

The engine is the serving layer's only path to computation.  Each
request names one runner job (:class:`~repro.runner.jobs.JobSpec`);
the engine resolves it in this order:

1. **Coalesce** — if the same canonical config key is already being
   computed, the request joins the in-flight computation instead of
   starting a second one (the collective-I/O discipline applied to
   serving: many overlapping requests become one job).
2. **Cache** — a validated :class:`~repro.runner.store.ResultStore`
   entry is returned without touching the executor.
3. **Compute** — :meth:`PoolExecutor.submit
   <repro.runner.executor.PoolExecutor.submit>`; a done-callback, run
   on the executor's thread, stores the payload and resolves every
   waiter.  Jobs the executor has not started form the *bounded* queue:
   a full one raises :class:`EngineSaturated` (HTTP 429).

Every caller blocks on the returned
:class:`concurrent.futures.Future`: a server handler thread until its
request deadline, ``repro warm`` and tests until the job is done.
"""

from __future__ import annotations

import functools
import threading
import time
import traceback
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from typing import Dict, Optional

from repro.runner.executor import JobOutcome, PoolExecutor
from repro.runner.jobs import JobSpec
from repro.runner.store import ResultStore
from repro.serve.metrics import MetricsRegistry

__all__ = ["EngineClosed", "EngineSaturated", "PointOutcome", "Ticket",
           "ServeEngine"]

#: Sources a served payload can come from.
SOURCE_CACHE = "cache"
SOURCE_COMPUTED = "computed"
SOURCE_COALESCED = "coalesced"


class EngineSaturated(RuntimeError):
    """The bounded work queue is full; retry after ``retry_after_s``."""

    def __init__(self, depth: int, retry_after_s: float = 1.0):
        super().__init__(
            f"engine work queue is full ({depth} job(s) queued)")
        self.depth = depth
        self.retry_after_s = retry_after_s


class EngineClosed(RuntimeError):
    """The engine is draining or closed and accepts no new work."""


@dataclass
class PointOutcome:
    """The engine's answer for one job request."""

    job: JobSpec
    status: str                     # ok | failed | crashed | timeout | ...
    payload: Optional[dict] = None
    error: Optional[str] = None
    #: ``cache`` or ``computed``; a request that coalesced onto another
    #: reports ``coalesced`` via its :class:`Ticket`.
    source: str = SOURCE_COMPUTED
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class Ticket:
    """One request's handle on a (possibly shared) outcome."""

    job: JobSpec
    future: "Future[PointOutcome]"
    #: True when this request joined a computation another request
    #: started — the single-flight path.
    coalesced: bool = False

    def result(self, timeout: Optional[float] = None) -> PointOutcome:
        return self.future.result(timeout)

    def source(self, outcome: PointOutcome) -> str:
        """This request's view of where its payload came from."""
        return SOURCE_COALESCED if self.coalesced else outcome.source


#: Sentinel distinguishing "use the default store" from an explicit
#: ``store=None`` (serve without any cache).
_DEFAULT_STORE = object()


class ServeEngine:
    """Single-flight, cache-first job engine over store + executor."""

    def __init__(self, store: object = _DEFAULT_STORE,
                 executor: Optional[PoolExecutor] = None,
                 max_queue: int = 64,
                 retry_after_s: float = 1.0,
                 metrics: Optional[MetricsRegistry] = None):
        self.store: Optional[ResultStore] = (
            ResultStore() if store is _DEFAULT_STORE else store)
        self.executor = executor if executor is not None \
            else PoolExecutor(jobs=1)
        self.max_queue = max(1, int(max_queue))
        self.retry_after_s = retry_after_s
        self.metrics = metrics if metrics is not None else MetricsRegistry()

        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        #: key -> the future every request for it waits on, and the
        #: executor's future for the job computing it.
        self._inflight: "Dict[str, Future[PointOutcome]]" = {}
        self._jobs: "Dict[str, Future[JobOutcome]]" = {}
        self._closed = False
        self.jobs_executed = 0

        m = self.metrics
        self._m_hits = m.counter(
            "serve_cache_hits_total", "requests served from the result store")
        self._m_misses = m.counter(
            "serve_cache_misses_total", "requests that required computation")
        self._m_coalesced = m.counter(
            "serve_coalesced_total",
            "requests that joined an in-flight computation")
        self._m_jobs = m.counter(
            "serve_jobs_total", "jobs pushed through the executor")
        self._m_job_errors = m.counter(
            "serve_job_errors_total", "executor jobs that did not finish ok")
        self._m_saturated = m.counter(
            "serve_engine_saturated_total",
            "submissions rejected because the work queue was full")
        m.gauge("serve_queue_depth",
                "jobs waiting in the engine work queue").set_function(
            lambda: self._count(running=False))
        m.gauge("serve_jobs_executing",
                "jobs currently running on the executor").set_function(
            lambda: self._count(running=True))

    # -- submission ----------------------------------------------------

    def submit(self, job: JobSpec) -> Ticket:
        """Resolve one job: coalesce, else cache hit, else enqueue.
        Raises :class:`EngineSaturated` when the bounded queue is full
        and :class:`EngineClosed` after :meth:`close` began."""
        key = job.key
        with self._lock:
            self._check_open()
            if key in self._inflight:
                self._m_coalesced.inc()
                return Ticket(job, self._inflight[key], coalesced=True)
        if self.store is not None:
            entry = self.store.get(key)
            if entry is not None:
                self._m_hits.inc()
                fut: "Future[PointOutcome]" = Future()
                fut.set_result(PointOutcome(
                    job, "ok", payload=entry["payload"],
                    source=SOURCE_CACHE))
                return Ticket(job, fut, coalesced=False)
        with self._lock:
            self._check_open()
            if key in self._inflight:  # lost the probe race: coalesce
                self._m_coalesced.inc()
                return Ticket(job, self._inflight[key], coalesced=True)
            queued = self._count(running=False)
            if queued >= self.max_queue:
                self._m_saturated.inc()
                raise EngineSaturated(queued, self.retry_after_s)
            self._m_misses.inc()
            fut = Future()
            t0 = time.perf_counter()
            work = self.executor.submit(job)
            self._inflight[key], self._jobs[key] = fut, work
        # Outside the lock: a job that already finished calls back here.
        work.add_done_callback(functools.partial(self._finish, job, fut, t0))
        return Ticket(job, fut, coalesced=False)

    def run_job(self, job: JobSpec,
                timeout: Optional[float] = None) -> PointOutcome:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(job).result(timeout)

    def _check_open(self) -> None:
        if self._closed:
            raise EngineClosed("engine is shut down")

    def _count(self, running: bool) -> int:
        """Jobs queued or running; lock-free for metric scrapes."""
        return sum(1 for work in list(self._jobs.values())
                   if not work.done() and work.running() == running)

    # -- completion ----------------------------------------------------

    def _finish(self, job: JobSpec, fut: "Future[PointOutcome]", t0: float,
                work: "Future[JobOutcome]") -> None:
        """Done-callback: store the payload, then answer every waiter."""
        try:
            outcome = self._complete(job, work.result(),
                                     time.perf_counter() - t0)
        except Exception:
            # A bug in the per-job path (serialization, metrics) or a
            # cancelled job must still answer every waiter.
            outcome = PointOutcome(job, "failed",
                                   error=traceback.format_exc())
            self._m_job_errors.inc()
        # Un-publish the key before resolving: a leaked entry would
        # coalesce every later request for it onto a dead future.
        with self._lock:
            self._inflight.pop(job.key, None)
            self._jobs.pop(job.key, None)
            self._idle.notify_all()
        try:
            fut.set_result(outcome)
        except InvalidStateError:
            pass

    def _complete(self, job: JobSpec, out: JobOutcome,
                  elapsed: float) -> PointOutcome:
        with self._lock:
            self.jobs_executed += 1
        self._m_jobs.inc()
        if out.ok:
            if self.store is not None:
                try:
                    self.store.put(job.key, out.payload, exp_id=job.exp_id,
                                   job_id=job.job_id, kind=job.kind,
                                   config=dict(job.config),
                                   elapsed_s=out.elapsed_s)
                except Exception:  # unwritable cache, unserializable
                    pass           # payload, ...: serve it anyway
        else:
            self._m_job_errors.inc()
        return PointOutcome(job, out.status, payload=out.payload,
                            error=out.error, source=SOURCE_COMPUTED,
                            elapsed_s=elapsed)

    # -- lifecycle -----------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return self._count(running=False)

    @property
    def inflight(self) -> int:
        """Jobs queued or executing (distinct canonical keys)."""
        with self._lock:
            return len(self._inflight)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until no job is queued or executing; True on success."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._inflight:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work, finish what is queued, close the executor.

        Queued jobs get ``timeout`` seconds to complete, so a graceful
        server shutdown never abandons an admitted request; any still
        unfinished then resolve as ``lost``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.drain(timeout)
        self.executor.close()

    def __enter__(self) -> "ServeEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
