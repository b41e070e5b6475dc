"""Crash-isolated process-pool executor with a shared work queue.

Workers pull ``(job_id, exp_id, kind, config)`` tuples off a queue,
announce the job they picked up, run :func:`repro.runner.jobs.execute_job`
and report the payload (or a formatted traceback) back.  The parent
supervises: a worker that dies mid-job marks *that job* crashed — not
the run — and is replaced; a job that exceeds the per-job timeout gets
its worker killed the same way.  Respawns are budgeted so a job that
crashes every worker cannot loop forever.

Resilience (``retries`` > 0):

* Jobs whose outcome is ``crashed``, ``timeout`` or ``lost`` are
  requeued up to ``retries`` times, after an exponential backoff with
  jitter (:func:`backoff_delay`) — transient faults (OOM kills, machine
  hiccups) heal themselves without rerunning the whole sweep.
* A *poisoned* job — one that kills its worker twice — is quarantined
  (status ``quarantined``) with every collected error, instead of being
  retried into a third worker.  Deterministic Python exceptions
  (status ``failed``) are never retried.
* Each worker keeps a *blackbox* file: a per-job marker plus
  :mod:`faulthandler` output and any last-gasp traceback.  When a
  worker dies the parent reads it back, so ``JobOutcome.error`` carries
  the child's final words rather than just an exit code.
* If the OS refuses to spawn a replacement worker the pool shrinks and
  carries on with fewer processes rather than aborting the run.

The pool uses the ``fork`` start method where available (Linux), which
keeps in-process registry modifications — e.g. experiments registered by
tests — visible to workers.  ``jobs <= 1`` executes inline in the parent
(no isolation, no timeout) for debugging and determinism checks.

Each ``run`` call is one :func:`~repro.experiments.shared.shared_runs`
scope — around the inline job loop, and around each pool worker's job
loop — so jobs that view the same simulator run (Figure 7 and Figure 6,
say) simulate it once per worker.  A job served that way reports an
``elapsed_s`` near zero.
"""

from __future__ import annotations

import faulthandler
import multiprocessing as mp
import os
import queue as queue_mod
import random
import shutil
import signal
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.experiments.shared import shared_runs
from repro.runner.jobs import JobSpec, execute_job

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


def _worker_main(worker_id: int, task_q, result_q,
                 blackbox_dir: Optional[str] = None) -> None:
    blackbox = None
    if blackbox_dir is not None:
        try:
            blackbox = open(
                os.path.join(blackbox_dir, f"worker-{worker_id}.log"),
                "w+", encoding="utf-8", errors="replace")
            faulthandler.enable(file=blackbox)
        except OSError:
            blackbox = None
    with shared_runs():
        _worker_loop(worker_id, task_q, result_q, blackbox)


def _worker_loop(worker_id: int, task_q, result_q, blackbox) -> None:
    while True:
        item = task_q.get()
        if item is None:
            break
        job_id, exp_id, kind, config = item
        if blackbox is not None:
            try:
                blackbox.seek(0)
                blackbox.truncate()
                blackbox.write(f"job {job_id}\n")
                blackbox.flush()
            except OSError:
                pass
        result_q.put(("started", worker_id, job_id))
        t0 = time.perf_counter()
        try:
            payload = execute_job(exp_id, kind, config)
        except BaseException as exc:
            tb = traceback.format_exc()
            if blackbox is not None:
                try:
                    blackbox.write(tb)
                    blackbox.flush()
                except OSError:
                    pass
            result_q.put(("failed", worker_id, job_id, tb,
                          time.perf_counter() - t0))
            if not isinstance(exc, Exception):
                raise  # SystemExit / KeyboardInterrupt: die, but reported
        else:
            result_q.put(("done", worker_id, job_id, payload,
                          time.perf_counter() - t0))


@dataclass
class _PoolState:
    """Book-keeping for one `_run_pool` invocation."""

    by_id: Dict[str, JobSpec]
    outcomes: Dict[str, JobOutcome] = field(default_factory=dict)
    #: worker id -> (job id, started-at monotonic time)
    in_flight: Dict[int, Tuple[str, float]] = field(default_factory=dict)
    workers: Dict[int, mp.process.BaseProcess] = field(default_factory=dict)
    started_ids: Set[str] = field(default_factory=set)
    stall_polls: int = 0
    #: job id -> retries consumed so far.
    attempts: Dict[str, int] = field(default_factory=dict)
    #: job id -> worker kills (crashes + timeouts) it caused.
    kills: Dict[str, int] = field(default_factory=dict)
    #: job id -> error text of every failed attempt, oldest first.
    errors: Dict[str, List[str]] = field(default_factory=dict)
    #: (ready-at monotonic time, job id) for jobs waiting out a backoff.
    requeue: List[Tuple[float, str]] = field(default_factory=list)


class PoolExecutor:
    """Run jobs on N worker processes with crash and timeout isolation."""

    #: Parent poll interval for results / liveness / timeouts.
    _POLL_S = 0.1
    #: Consecutive idle polls with nothing in flight before the parent
    #: declares unresolved jobs lost (covers the tiny window where a
    #: worker dies between claiming a task and announcing it).
    _STALL_POLLS = 20

    def __init__(self, jobs: int = 1, timeout_s: Optional[float] = None,
                 context: Optional[mp.context.BaseContext] = None,
                 retries: int = 0, backoff_s: float = 1.0,
                 rand: Callable[[], float] = random.random):
        self.n_workers = max(1, int(jobs))
        self.timeout_s = timeout_s
        self.retries = max(0, int(retries))
        self.backoff_s = max(0.0, float(backoff_s))
        self._rand = rand
        if context is None:
            try:
                context = mp.get_context("fork")
            except ValueError:  # pragma: no cover - non-fork platforms
                context = mp.get_context()
        self._ctx = context

    def run(self, jobs: Sequence[JobSpec],
            on_outcome: Optional[Callable[[JobOutcome], None]] = None,
            ) -> List[JobOutcome]:
        """Execute every job; returns outcomes in input order.

        ``on_outcome`` is called in the parent as each job finishes.
        """
        if not jobs:
            return []
        if self.n_workers <= 1:
            with shared_runs():
                return [self._run_inline(job, on_outcome) for job in jobs]
        by_id = self._run_pool(jobs, on_outcome)
        return [by_id[job.job_id] for job in jobs]

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

    def _run_pool(self, jobs: Sequence[JobSpec],
                  on_outcome: Optional[Callable[[JobOutcome], None]],
                  ) -> Dict[str, JobOutcome]:
        state = _PoolState(by_id={job.job_id: job for job in jobs})
        task_q = self._ctx.Queue()
        result_q = self._ctx.Queue()
        blackbox_dir = tempfile.mkdtemp(prefix="repro-pool-")
        for job in jobs:
            task_q.put((job.job_id, job.exp_id, job.kind, dict(job.config)))

        next_worker_id = 0
        # Active worker target; shrinks when the OS refuses a respawn.
        pool_cap = self.n_workers
        # A worker may be respawned after every kill, but each job's
        # kills are capped (quarantine), so a pathological job cannot
        # spin the pool.
        kills_per_job = _QUARANTINE_KILLS if self.retries else 1
        spawn_budget = self.n_workers + kills_per_job * len(jobs)

        def finish(out: JobOutcome) -> None:
            out.attempts = state.attempts.get(out.job.job_id, 0)
            state.outcomes[out.job.job_id] = out
            if on_outcome is not None:
                on_outcome(out)

        def resolve(out: JobOutcome) -> bool:
            """Finish, retry, or quarantine one attempt's outcome.

            Returns True when the job was requeued for another attempt.
            """
            job_id = out.job.job_id
            if out.status in ("crashed", "timeout"):
                state.kills[job_id] = state.kills.get(job_id, 0) + 1
            if out.error:
                state.errors.setdefault(job_id, []).append(out.error)
            if out.status not in RETRYABLE_STATUSES:
                finish(out)
                return False
            if state.kills.get(job_id, 0) >= _QUARANTINE_KILLS:
                history = state.errors.get(job_id, [])
                finish(JobOutcome(
                    out.job, "quarantined",
                    error=(f"job killed its worker "
                           f"{state.kills[job_id]} times and was "
                           f"quarantined\n"
                           + "\n--- earlier attempt ---\n".join(history)),
                    elapsed_s=out.elapsed_s))
                return False
            used = state.attempts.get(job_id, 0)
            if used >= self.retries:
                finish(out)
                return False
            state.attempts[job_id] = used + 1
            state.started_ids.discard(job_id)
            ready = time.monotonic() + backoff_delay(used, self.backoff_s,
                                                     self._rand)
            state.requeue.append((ready, job_id))
            return True

        def spawn() -> None:
            nonlocal next_worker_id, spawn_budget, pool_cap
            if spawn_budget <= 0 or pool_cap <= 0:
                return
            spawn_budget -= 1
            wid = next_worker_id
            next_worker_id += 1
            proc = self._ctx.Process(target=_worker_main,
                                     args=(wid, task_q, result_q,
                                           blackbox_dir),
                                     daemon=True)
            try:
                proc.start()
            except OSError:
                # Graceful degradation: the machine cannot host this
                # many workers any more; run on with a smaller pool.
                pool_cap -= 1
                return
            state.workers[wid] = proc

        for _ in range(min(self.n_workers, len(jobs))):
            spawn()

        try:
            while len(state.outcomes) < len(jobs):
                self._flush_requeue(state, task_q)
                if self._drain_results(result_q, state, resolve):
                    state.stall_polls = 0
                    continue
                now = time.monotonic()
                self._reap_timeouts(now, state, resolve)
                self._reap_crashes(now, state, resolve, blackbox_dir)
                # Keep enough workers alive for the work that is left
                # (queued or backoff-waiting jobs count as unclaimed).
                unclaimed = sum(
                    1 for jid in state.by_id
                    if jid not in state.outcomes
                    and jid not in state.started_ids)
                want = min(pool_cap, unclaimed + len(state.in_flight))
                while len(state.workers) < want and spawn_budget > 0 \
                        and pool_cap > 0:
                    spawn()
                if not state.workers and len(state.outcomes) < len(jobs):
                    self._mark_lost(state, finish,
                                    "worker pool exhausted its respawn "
                                    "budget before this job completed")
                    break
                if state.in_flight or state.requeue or not task_q.empty():
                    state.stall_polls = 0
                else:
                    state.stall_polls += 1
                    if state.stall_polls >= self._STALL_POLLS:
                        if self._retry_stalled(state, resolve):
                            state.stall_polls = 0
                            continue
                        self._mark_lost(state, finish,
                                        "job was claimed but its worker "
                                        "vanished before reporting")
                        break
        finally:
            self._shutdown(task_q, result_q, state.workers)
            shutil.rmtree(blackbox_dir, ignore_errors=True)
        return state.outcomes

    @staticmethod
    def _flush_requeue(state: _PoolState, task_q) -> None:
        if not state.requeue:
            return
        now = time.monotonic()
        due = [(t, jid) for t, jid in state.requeue if t <= now]
        for item in due:
            state.requeue.remove(item)
            job = state.by_id[item[1]]
            task_q.put((job.job_id, job.exp_id, job.kind, dict(job.config)))

    @staticmethod
    def _retry_stalled(state: _PoolState, resolve) -> bool:
        """Route stall-orphaned jobs through retry; True if any requeued."""
        requeued = False
        for job_id, job in state.by_id.items():
            if job_id in state.outcomes:
                continue
            if resolve(JobOutcome(
                    job, "lost",
                    error="job was claimed but its worker vanished "
                          "before reporting")):
                requeued = True
        return requeued

    @staticmethod
    def _mark_lost(state: _PoolState, finish, reason: str) -> None:
        for job_id, job in state.by_id.items():
            if job_id not in state.outcomes:
                finish(JobOutcome(job, "lost", error=reason))

    @staticmethod
    def _drain_results(result_q, state: _PoolState, resolve) -> int:
        """Process every queued worker message; returns #messages."""
        drained = 0
        while True:
            try:
                # Block briefly for the first message, then drain dry.
                msg = result_q.get(timeout=PoolExecutor._POLL_S
                                   if drained == 0 else 0)
            except queue_mod.Empty:
                return drained
            drained += 1
            tag = msg[0]
            if tag == "started":
                _, wid, job_id = msg
                state.in_flight[wid] = (job_id, time.monotonic())
                state.started_ids.add(job_id)
            else:
                _, wid, job_id, data, elapsed = msg
                state.in_flight.pop(wid, None)
                if job_id in state.outcomes:
                    continue  # e.g. already marked timeout
                job = state.by_id[job_id]
                if tag == "done":
                    resolve(JobOutcome(job, "ok", payload=data,
                                       elapsed_s=elapsed))
                else:
                    resolve(JobOutcome(job, "failed", error=data,
                                       elapsed_s=elapsed))

    def _reap_timeouts(self, now: float, state: _PoolState,
                       resolve) -> None:
        if not self.timeout_s:
            return
        for wid, (job_id, t0) in list(state.in_flight.items()):
            if now - t0 <= self.timeout_s:
                continue
            proc = state.workers.pop(wid, None)
            if proc is not None:
                proc.terminate()
                proc.join(1.0)
            state.in_flight.pop(wid, None)
            if job_id not in state.outcomes:
                resolve(JobOutcome(
                    state.by_id[job_id], "timeout",
                    error=f"job exceeded --timeout {self.timeout_s:g}s",
                    elapsed_s=now - t0))

    @staticmethod
    def _read_blackbox(blackbox_dir: Optional[str], wid: int,
                       job_id: str) -> Optional[str]:
        """The worker's last words, minus the job marker line."""
        if blackbox_dir is None:
            return None
        try:
            with open(os.path.join(blackbox_dir, f"worker-{wid}.log"),
                      encoding="utf-8", errors="replace") as fh:
                text = fh.read()
        except OSError:
            return None
        marker = f"job {job_id}\n"
        if text.startswith(marker):
            text = text[len(marker):]
        text = text.strip()
        return text[-4000:] if text else None

    @staticmethod
    def _describe_exit(exitcode: Optional[int]) -> str:
        if exitcode is not None and exitcode < 0:
            try:
                return (f"signal {signal.Signals(-exitcode).name} "
                        f"({exitcode})")
            except ValueError:
                return f"signal {-exitcode} ({exitcode})"
        return f"exit code {exitcode}"

    @staticmethod
    def _reap_crashes(now: float, state: _PoolState, resolve,
                      blackbox_dir: Optional[str] = None) -> None:
        for wid, proc in list(state.workers.items()):
            if proc.is_alive() or proc.exitcode in (0, None):
                continue
            state.workers.pop(wid)
            held = state.in_flight.pop(wid, None)
            if held is None:
                continue
            job_id, t0 = held
            if job_id not in state.outcomes:
                error = (f"worker process died "
                         f"({PoolExecutor._describe_exit(proc.exitcode)}) "
                         f"while running this job")
                last_words = PoolExecutor._read_blackbox(
                    blackbox_dir, wid, job_id)
                if last_words:
                    error += f"\n-- worker blackbox --\n{last_words}"
                resolve(JobOutcome(
                    state.by_id[job_id], "crashed", error=error,
                    elapsed_s=now - t0))

    @staticmethod
    def _shutdown(task_q, result_q, workers) -> None:
        # Drain undistributed tasks, then wave the workers home.
        try:
            while True:
                task_q.get_nowait()
        except (queue_mod.Empty, OSError):
            pass
        for _ in workers:
            try:
                task_q.put(None)
            except (ValueError, OSError):  # pragma: no cover
                break
        deadline = time.monotonic() + 5.0
        for proc in workers.values():
            proc.join(max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
        for q in (task_q, result_q):
            q.cancel_join_thread()
            q.close()
