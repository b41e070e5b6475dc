"""Crash-isolated, persistent process pool with a ``submit() -> Future`` API.

:class:`PoolExecutor` forks its ``jobs`` workers once, on first use, and
keeps them until :meth:`~PoolExecutor.close` (or until it is collected).
Fork means workers see registry entries — e.g. experiments registered by
tests — only if they exist before that first ``submit`` or ``run``.
Workers pull ``(task_id, batch, exp_id, kind, config)`` off a queue,
announce it, run :func:`repro.runner.jobs.execute_job` and report the
payload or a traceback.  One supervisor thread resolves each job's
future and keeps the pool at size: a worker that dies mid-job marks
*that job* crashed, one that overruns the per-job timeout is killed the
same way, and any exited worker is replaced, within a respawn budget so
a job that crashes every worker cannot loop forever.  If the OS refuses
a spawn, the pool shrinks and carries on.

With ``retries`` > 0, ``crashed``, ``timeout`` and ``lost`` jobs are
requeued after an exponential backoff with jitter
(:func:`backoff_delay`); a job that kills its worker twice is
``quarantined`` with every collected error; ``failed`` (a Python
exception) is deterministic and never retried.  Each worker keeps a
*blackbox* file (job marker, :mod:`faulthandler` output, last-gasp
traceback) that the parent appends to a crashed job's error.

``jobs <= 1`` runs ``run`` inline on the calling thread and ``submit``
on one thread the executor owns: no isolation, no timeout, and no
:mod:`multiprocessing` import, which waits for the first fork.  The jobs of
one ``run`` call share one :func:`~repro.experiments.shared.shared_runs`
scope per worker (Figure 7 reuses Figure 6's runs, say; a job served
that way reports an ``elapsed_s`` near zero); each ``submit`` is its own
scope.
"""

from __future__ import annotations

import faulthandler
import functools
import itertools
import os
import queue as queue_mod
import random
import shutil
import signal
import tempfile
import threading
import time
import traceback
import weakref
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from repro.experiments.shared import shared_runs
from repro.runner.jobs import JobSpec, execute_job

if TYPE_CHECKING:  # both are imported lazily: they are slow
    import multiprocessing as mp
    from concurrent.futures import Future

__all__ = ["JobOutcome", "PoolExecutor", "RETRYABLE_STATUSES",
           "backoff_delay"]

#: Outcome statuses eligible for retry: the machine, not the job's own
#: code, is the suspect.  ``failed`` (a reported Python exception) is
#: deterministic and never retried.
RETRYABLE_STATUSES = frozenset({"crashed", "timeout", "lost"})

#: Worker kills (crash or timeout) a single job may cause before it is
#: quarantined instead of retried.
_QUARANTINE_KILLS = 2


def backoff_delay(attempt: int, base_s: float,
                  rand: Callable[[], float] = random.random) -> float:
    """Delay before retry ``attempt`` (0-based): exponential + jitter.

    Returns a value in ``[base * 2^attempt / 2, base * 2^attempt)`` —
    the classic halved-window jitter, so concurrent retries spread out
    instead of thundering back in lockstep.  ``rand`` is injectable for
    deterministic tests and must return floats in ``[0, 1)``.
    """
    if base_s <= 0.0:
        return 0.0
    window = base_s * (2.0 ** max(0, int(attempt)))
    return window * 0.5 * (1.0 + rand())


@dataclass
class JobOutcome:
    """What happened to one job."""

    job: JobSpec
    status: str          # ok | failed | crashed | timeout | lost | quarantined
    payload: Optional[dict] = None
    error: Optional[str] = None
    elapsed_s: float = 0.0
    cached: bool = False
    #: Retries this job consumed before reaching its final status.
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _worker_main(worker_id: int, task_q, result_q, blackbox_dir: str) -> None:
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # not the server's handler
    try:
        blackbox = open(os.path.join(blackbox_dir, f"worker-{worker_id}.log"),
                        "w+", encoding="utf-8", errors="replace")
        faulthandler.enable(file=blackbox)
    except OSError:
        blackbox = None
    item = task_q.get()
    while True:  # until the pool kills this worker
        batch = item[1]
        # Consecutive tasks of one batch (one ``run`` call) share runs.
        with shared_runs():
            while item[1] == batch:
                _run_task(worker_id, item, result_q, blackbox)
                item = task_q.get()


def _run_task(worker_id: int, item: tuple, result_q, blackbox) -> None:
    task_id, _, exp_id, kind, config = item
    _note(blackbox, f"job {task_id}\n", reset=True)
    result_q.put(("started", worker_id, task_id))
    t0 = time.perf_counter()
    try:
        payload = execute_job(exp_id, kind, config)
    except BaseException as exc:
        tb = traceback.format_exc()
        _note(blackbox, tb)
        result_q.put(("failed", worker_id, task_id, tb,
                      time.perf_counter() - t0))
        if not isinstance(exc, Exception):
            raise  # SystemExit / KeyboardInterrupt: die, but reported
    else:
        result_q.put(("ok", worker_id, task_id, payload,
                      time.perf_counter() - t0))


def _note(blackbox, text: str, reset: bool = False) -> None:
    if blackbox is None:
        return
    try:
        if reset:
            blackbox.seek(0)
            blackbox.truncate()
        blackbox.write(text)
        blackbox.flush()
    except OSError:
        pass


def _run_alone(job: JobSpec) -> JobOutcome:
    """One inline job in its own shared-run scope (``submit``, jobs<=1)."""
    with shared_runs():
        return PoolExecutor._run_inline(job, None)


class PoolExecutor:
    """Run jobs on N worker processes with crash and timeout isolation."""

    def __init__(self, jobs: int = 1, timeout_s: Optional[float] = None,
                 context: Optional[mp.context.BaseContext] = None,
                 retries: int = 0, backoff_s: float = 1.0,
                 rand: Callable[[], float] = random.random):
        self.n_workers = max(1, int(jobs))
        self.timeout_s = timeout_s
        self.retries = max(0, int(retries))
        self.backoff_s = max(0.0, float(backoff_s))
        self._rand = rand
        self._ctx = context   # None: fork, resolved by _Pool
        self._lock = threading.Lock()
        self._pool = None   # a _Pool, or a one-thread pool if jobs <= 1
        self._close_pool = None
        self._closed = False
        self._batches = itertools.count()

    def run(self, jobs: Sequence[JobSpec],
            on_outcome: Optional[Callable[[JobOutcome], None]] = None,
            ) -> List[JobOutcome]:
        """Execute every job; returns outcomes in input order.  Calls
        ``on_outcome`` in the calling thread as each job finishes."""
        if not jobs:
            return []
        if self.n_workers <= 1:
            with shared_runs():
                return [self._run_inline(job, on_outcome) for job in jobs]
        from concurrent.futures import as_completed

        batch = next(self._batches)
        futures = [self._submit(job, batch) for job in jobs]
        if on_outcome is not None:
            for fut in as_completed(futures):
                on_outcome(fut.result())
        return [fut.result() for fut in futures]

    def submit(self, job: JobSpec) -> "Future[JobOutcome]":
        """Queue one job (its own shared-run scope); returns its future,
        ``running()`` once a worker picked it up.  Raises after close."""
        return self._submit(job, next(self._batches))

    def _submit(self, job: JobSpec, batch: int) -> "Future[JobOutcome]":
        with self._lock:
            if self._closed:
                raise RuntimeError("PoolExecutor is closed")
            if self._pool is None:
                if self.n_workers <= 1:
                    from concurrent.futures import ThreadPoolExecutor
                    self._pool = ThreadPoolExecutor(
                        1, thread_name_prefix="repro-inline")
                    close = functools.partial(self._pool.shutdown,
                                              wait=False,
                                              cancel_futures=True)
                else:
                    self._pool = _Pool(self)
                    close = self._pool.close
                # The pool holds no reference back, so an executor
                # nobody closed still stops its workers when collected.
                self._close_pool = weakref.finalize(self, close)
        if self.n_workers <= 1:
            return self._pool.submit(_run_alone, job)
        return self._pool.submit(job, batch)

    def close(self) -> None:
        """Stop the workers; unfinished jobs resolve as ``lost`` (or are
        cancelled, with ``jobs <= 1``)."""
        with self._lock:
            self._closed = True
        if self._close_pool is not None:
            self._close_pool()

    def __enter__(self) -> "PoolExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def _run_inline(job: JobSpec,
                    on_outcome: Optional[Callable[[JobOutcome], None]],
                    ) -> JobOutcome:
        t0 = time.perf_counter()
        try:
            payload = execute_job(job.exp_id, job.kind, job.config)
        except Exception:
            out = JobOutcome(job, "failed", error=traceback.format_exc(),
                             elapsed_s=time.perf_counter() - t0)
        else:
            out = JobOutcome(job, "ok", payload=payload,
                             elapsed_s=time.perf_counter() - t0)
        if on_outcome is not None:
            on_outcome(out)
        return out


@dataclass
class _Task:
    """A job, its retries, worker kills and errors (oldest first)."""

    job: JobSpec
    batch: int
    future: "Future[JobOutcome]"
    attempts: int = 0
    kills: int = 0
    errors: List[str] = field(default_factory=list)


class _Pool:
    """The workers and supervisor thread behind one executor.  Fields are
    guarded by ``lock``; futures resolve outside it."""

    #: Supervisor poll interval (s), and the idle polls with work pending
    #: but none announced after which that work is lost (its worker died
    #: between claiming a task and announcing it).
    POLL_S, STALL_POLLS = 0.1, 20

    def __init__(self, owner: PoolExecutor):
        self.n_workers = owner.n_workers
        self.timeout_s = owner.timeout_s
        self.retries = owner.retries
        self.backoff_s = owner.backoff_s
        self.rand = owner._rand
        self.ctx = owner._ctx
        if self.ctx is None:
            import multiprocessing as mp

            try:
                self.ctx = mp.get_context("fork")
            except ValueError:  # pragma: no cover - non-fork platforms
                self.ctx = mp.get_context()
        self.lock = threading.Lock()
        self.task_q = self.ctx.Queue()
        self.result_q = self.ctx.Queue()
        self.blackbox_dir = tempfile.mkdtemp(prefix="repro-pool-")
        self.workers: Dict[int, mp.process.BaseProcess] = {}
        #: worker id -> (task id, started-at monotonic time)
        self.in_flight: Dict[int, Tuple[int, float]] = {}
        self.tasks: Dict[int, _Task] = {}
        #: (ready-at monotonic time, task id) for jobs waiting out a backoff.
        self.requeue: List[Tuple[float, int]] = []
        #: (future, outcome) pairs to resolve once the lock is released.
        self.settled: List[tuple] = []
        self.task_ids = itertools.count()
        self.next_worker_id = 0
        # Worker target; shrinks when the OS refuses a spawn.
        self.pool_cap = self.n_workers
        # Each job adds the worker kills it may cause before quarantine.
        self.kills_per_job = _QUARANTINE_KILLS if self.retries else 1
        self.spawn_budget = self.n_workers
        self.stall_polls = 0
        self.stopping = False
        with self.lock:
            self._top_up()
        self.thread = threading.Thread(target=self._supervise, daemon=True,
                                       name="repro-pool-supervisor")
        self.thread.start()

    def submit(self, job: JobSpec, batch: int) -> "Future[JobOutcome]":
        from concurrent.futures import Future

        fut: "Future[JobOutcome]" = Future()
        with self.lock:
            if self.stopping:
                raise RuntimeError("PoolExecutor is closed")
            task_id = next(self.task_ids)
            self.tasks[task_id] = _Task(job, batch, fut)
            self.spawn_budget += self.kills_per_job
            self._put(task_id)
        return fut

    def close(self) -> None:
        self.stopping = True  # the supervisor sees it within one poll
        if threading.current_thread() is not self.thread:
            self.thread.join()

    # -- supervisor ----------------------------------------------------

    def _supervise(self) -> None:
        try:
            while not self.stopping:
                try:
                    msg = self.result_q.get(timeout=self.POLL_S)
                except queue_mod.Empty:
                    msg = None
                with self.lock:
                    if msg is not None:
                        self._handle(msg)
                        self._drain()
                    now = time.monotonic()
                    self._flush_requeue(now)
                    self._reap_timeouts(now)
                    self._reap_exits(now)
                    self._top_up()
                    self._check_stall(busy=msg is not None)
                    settled, self.settled = self.settled, []
                _settle(settled)
        finally:
            self._shutdown()

    def _put(self, task_id: int) -> None:
        task = self.tasks[task_id]
        self.task_q.put((task_id, task.batch, task.job.exp_id,
                         task.job.kind, dict(task.job.config)))

    def _drain(self) -> None:
        """Handle every message already in the result queue."""
        while True:
            try:
                self._handle(self.result_q.get_nowait())
            except queue_mod.Empty:
                return

    def _handle(self, msg: tuple) -> None:
        tag = msg[0]
        if tag == "started":
            _, wid, task_id = msg
            self.in_flight[wid] = (task_id, time.monotonic())
            task = self.tasks.get(task_id)
            if task is not None and not (task.future.running()
                                         or task.future.done()):
                task.future.set_running_or_notify_cancel()
        else:  # "ok" with a payload or "failed" with a traceback
            _, wid, task_id, data, elapsed = msg
            self.in_flight.pop(wid, None)
            if task_id in self.tasks:  # else e.g. already marked timeout
                self._resolve(task_id, tag, elapsed=elapsed,
                              **{"payload" if tag == "ok" else "error": data})

    def _resolve(self, task_id: int, status: str,
                 payload: Optional[dict] = None, error: Optional[str] = None,
                 elapsed: float = 0.0) -> None:
        """Finish, retry, or quarantine one attempt's outcome."""
        task = self.tasks[task_id]
        if status in ("crashed", "timeout"):
            task.kills += 1
        if error:
            task.errors.append(error)
        if status in RETRYABLE_STATUSES:
            if task.kills >= _QUARANTINE_KILLS:
                status = "quarantined"
                error = (f"job killed its worker {task.kills} times and "
                         f"was quarantined\n"
                         + "\n--- earlier attempt ---\n".join(task.errors))
            elif task.attempts < self.retries:
                ready = time.monotonic() + backoff_delay(
                    task.attempts, self.backoff_s, self.rand)
                task.attempts += 1
                self.requeue.append((ready, task_id))
                return
        del self.tasks[task_id]
        self.settled.append((task.future, JobOutcome(
            task.job, status, payload=payload, error=error,
            elapsed_s=elapsed, attempts=task.attempts)))

    def _flush_requeue(self, now: float) -> None:
        due = [item for item in self.requeue if item[0] <= now]
        for item in due:
            self.requeue.remove(item)
            if item[1] in self.tasks:
                self._put(item[1])

    def _reap_timeouts(self, now: float) -> None:
        if not self.timeout_s:
            return
        for wid, (task_id, t0) in list(self.in_flight.items()):
            if now - t0 <= self.timeout_s:
                continue
            proc = self.workers.pop(wid, None)
            if proc is not None:
                _kill(proc)
            del self.in_flight[wid]
            if task_id in self.tasks:
                self._resolve(
                    task_id, "timeout",
                    error=f"job exceeded --timeout {self.timeout_s:g}s",
                    elapsed=now - t0)

    def _reap_exits(self, now: float) -> None:
        """Replace every worker that exited, whatever its exit status."""
        dead = [wid for wid, proc in self.workers.items()
                if not proc.is_alive()]
        if not dead:
            return
        self._drain()  # a dead worker's last reports are already queued
        for wid in dead:
            proc = self.workers.pop(wid)
            held = self.in_flight.pop(wid, None)
            if held is None or held[0] not in self.tasks:
                continue
            task_id, t0 = held
            error = (f"worker process died ({_describe_exit(proc.exitcode)})"
                     f" while running this job")
            last_words = self._read_blackbox(wid, task_id)
            if last_words:
                error += f"\n-- worker blackbox --\n{last_words}"
            self._resolve(task_id, "crashed", error=error, elapsed=now - t0)

    def _top_up(self) -> None:
        """Keep ``pool_cap`` workers alive while the respawn budget lasts."""
        while len(self.workers) < self.pool_cap and self.spawn_budget > 0:
            self.spawn_budget -= 1
            wid = self.next_worker_id
            self.next_worker_id += 1
            proc = self.ctx.Process(
                target=_worker_main,
                args=(wid, self.task_q, self.result_q, self.blackbox_dir),
                daemon=True)
            try:
                proc.start()
            except OSError:  # the machine cannot host that many: shrink
                self.pool_cap -= 1
                continue
            self.workers[wid] = proc
        if not self.workers and self.tasks:
            self._lose_all("worker pool exhausted its respawn budget "
                           "before this job completed")
            self.pool_cap = self.n_workers   # later jobs may try again

    def _check_stall(self, busy: bool) -> None:
        stalled = not (busy or self.in_flight or self.requeue) \
            and self.tasks and self.task_q.empty()
        self.stall_polls = self.stall_polls + 1 if stalled else 0
        if self.stall_polls >= self.STALL_POLLS:
            self.stall_polls = 0
            for task_id in list(self.tasks):
                self._resolve(task_id, "lost",
                              error="job was claimed but its worker "
                                    "vanished before reporting")

    def _lose_all(self, reason: str) -> None:
        for task_id in list(self.tasks):
            task = self.tasks.pop(task_id)
            self.settled.append((task.future, JobOutcome(
                task.job, "lost", error=reason, attempts=task.attempts)))
        self.requeue.clear()

    def _read_blackbox(self, wid: int, task_id: int) -> Optional[str]:
        """The worker's last words, minus the job marker line."""
        try:
            with open(os.path.join(self.blackbox_dir, f"worker-{wid}.log"),
                      encoding="utf-8", errors="replace") as fh:
                text = fh.read()
        except OSError:
            return None
        marker = f"job {task_id}\n"
        if text.startswith(marker):
            text = text[len(marker):]
        text = text.strip()
        return text[-4000:] if text else None

    def _shutdown(self) -> None:
        with self.lock:
            self.stopping = True
            self._lose_all("executor closed before this job finished")
            settled, self.settled = self.settled, []
        _settle(settled)
        for proc in self.workers.values():  # idle, or on a lost job
            _kill(proc)
        self.workers.clear()
        for q in (self.task_q, self.result_q):
            q.cancel_join_thread()
            q.close()
        shutil.rmtree(self.blackbox_dir, ignore_errors=True)


def _settle(settled: List[tuple]) -> None:
    from concurrent.futures import InvalidStateError

    for fut, out in settled:
        try:
            fut.set_result(out)
        except InvalidStateError:
            pass  # cancelled by its owner before it started


def _kill(proc: mp.process.BaseProcess) -> None:
    # SIGKILL, not SIGTERM: a worker forked by ``repro serve`` inherits
    # asyncio's SIGTERM handler, which ignores the signal in the worker
    # and reports it to the server's event loop instead.
    proc.kill()
    proc.join()


def _describe_exit(exitcode: Optional[int]) -> str:
    if exitcode is not None and exitcode < 0:
        try:
            return f"signal {signal.Signals(-exitcode).name} ({exitcode})"
        except ValueError:
            return f"signal {-exitcode} ({exitcode})"
    return f"exit code {exitcode}"
