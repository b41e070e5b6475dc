"""Tests for the crash-isolated process-pool executor.

The fake experiments below are registered straight into the registry
dict; the pool's ``fork`` start method means worker processes inherit
them, so jobs can cross the process boundary as plain data.
"""

import multiprocessing as mp
import os
import threading
import time

import pytest

from repro.experiments import ExperimentResult, btio_exps, registry
from repro.experiments.shared import shared, shared_runs
from repro.runner import JobOutcome, PoolExecutor, decompose
from repro.sim.diff import kernel
from tests.conftest import count_btio_runs, register_experiment


def _fake(exp_id, body=None):
    def fn(quick=False):
        if body is not None:
            body()
        res = ExperimentResult(exp_id, "t", "ref")
        res.add_check("ok", True)
        return res
    return fn


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def _pid_points(monkeypatch, exp_id, n_points, nap=0.0):
    """A sweep whose points report the pid of the process running them."""
    def run_point(point):
        time.sleep(nap)
        return {**point, "pid": os.getpid()}
    register_experiment(monkeypatch, exp_id, run_point=run_point,
                        n_points=n_points)
    return decompose(exp_id, quick=True)


@shared
def _shared_probe(marker):
    """A "machine run" that appends one line to ``marker`` per simulation."""
    with open(marker, "a") as fh:
        fh.write("run\n")
    return 42


def _register(monkeypatch, **fakes):
    jobs = []
    for exp_id, fn in fakes.items():
        register_experiment(monkeypatch, exp_id, whole=fn)
        jobs.extend(decompose(exp_id, quick=True))
    return jobs


class TestInline:
    def test_single_worker_runs_in_process(self, monkeypatch):
        seen = []
        jobs = _register(monkeypatch, zz_a=_fake("zz_a",
                                                 lambda: seen.append(1)))
        (out,) = PoolExecutor(jobs=1).run(jobs)
        assert out.ok and out.status == "ok"
        assert out.payload["exp_id"] == "zz_a"
        assert seen == [1]  # really ran in the parent

    def test_inline_exception_marks_job_failed(self, monkeypatch):
        def boom():
            raise RuntimeError("sim exploded")
        jobs = _register(monkeypatch, zz_bad=_fake("zz_bad", boom))
        (out,) = PoolExecutor(jobs=1).run(jobs)
        assert out.status == "failed" and not out.ok
        assert "sim exploded" in out.error

    def test_empty_job_list(self):
        assert PoolExecutor(jobs=4).run([]) == []


class TestPool:
    def test_results_in_input_order(self, monkeypatch):
        fakes = {f"zz_{i}": _fake(f"zz_{i}") for i in range(5)}
        jobs = _register(monkeypatch, **fakes)
        outs = PoolExecutor(jobs=2).run(jobs)
        assert [o.job.exp_id for o in outs] == list(fakes)
        assert all(o.ok for o in outs)
        assert all(o.payload["exp_id"] == o.job.exp_id for o in outs)

    def test_on_outcome_called_once_per_job(self, monkeypatch):
        jobs = _register(monkeypatch, zz_a=_fake("zz_a"), zz_b=_fake("zz_b"))
        seen = []
        PoolExecutor(jobs=2).run(jobs, on_outcome=seen.append)
        assert sorted(o.job.exp_id for o in seen) == ["zz_a", "zz_b"]
        assert all(isinstance(o, JobOutcome) for o in seen)

    def test_worker_exception_isolated_to_job(self, monkeypatch):
        def boom():
            raise ValueError("bad config")
        jobs = _register(monkeypatch, zz_good=_fake("zz_good"),
                         zz_bad=_fake("zz_bad", boom))
        outs = {o.job.exp_id: o for o in PoolExecutor(jobs=2).run(jobs)}
        assert outs["zz_good"].ok
        assert outs["zz_bad"].status == "failed"
        assert "bad config" in outs["zz_bad"].error

    def test_worker_crash_isolated_to_job(self, monkeypatch):
        """A worker dying mid-job fails that job, not the run."""
        def hard_crash():
            # Give the queue's feeder thread time to flush the "started"
            # announcement before the process vanishes.
            time.sleep(0.5)
            os._exit(13)

        jobs = _register(monkeypatch, zz_good=_fake("zz_good"),
                         zz_crash=_fake("zz_crash", hard_crash))
        outs = {o.job.exp_id: o for o in PoolExecutor(jobs=2).run(jobs)}
        assert outs["zz_good"].ok
        assert outs["zz_crash"].status == "crashed"
        assert "exit code 13" in outs["zz_crash"].error

    def test_job_timeout_reaped(self, monkeypatch):
        jobs = _register(monkeypatch, zz_fast=_fake("zz_fast"),
                         zz_slow=_fake("zz_slow",
                                       lambda: time.sleep(30)))
        t0 = time.monotonic()
        outs = {o.job.exp_id: o
                for o in PoolExecutor(jobs=2, timeout_s=0.5).run(jobs)}
        assert time.monotonic() - t0 < 15
        assert outs["zz_fast"].ok
        assert outs["zz_slow"].status == "timeout"
        assert "0.5s" in outs["zz_slow"].error

    def test_elapsed_time_recorded(self, monkeypatch):
        jobs = _register(monkeypatch,
                         zz_nap=_fake("zz_nap", lambda: time.sleep(0.2)))
        (out,) = PoolExecutor(jobs=2).run(jobs)
        assert out.ok and out.elapsed_s >= 0.2


class TestSharedRunScope:
    """Each ``run`` call is one shared-run scope; nothing outlives it."""

    def test_scope_ends_with_run(self, monkeypatch):
        calls = count_btio_runs(monkeypatch)
        job = decompose("fig6", quick=True)[3]      # collective, P=4
        executor = PoolExecutor(jobs=1)
        first, second = executor.run([job, job])
        assert len(calls) == 1 and first.payload == second.payload
        (third,) = executor.run([job])
        assert len(calls) == 2 and third.payload == first.payload

    def test_direct_path_simulates_every_time(self, monkeypatch):
        calls = count_btio_runs(monkeypatch)
        first = registry.run_experiment("fig7", quick=True)
        second = registry.run_experiment("fig7", quick=True)
        assert len(calls) == 8
        assert first.to_dict() == second.to_dict()

    def test_kernels_never_share(self, monkeypatch):
        calls = count_btio_runs(monkeypatch)
        with shared_runs():
            with kernel(fast=False):
                reference = btio_exps._run("A", "collective", 4, 1)
            fast = btio_exps._run("A", "collective", 4, 1)
            again = btio_exps._run("A", "collective", 4, 1)
        assert len(calls) == 2
        assert reference == fast == again

    def test_scope_is_per_thread(self, monkeypatch):
        calls = count_btio_runs(monkeypatch)
        with shared_runs():
            btio_exps._run("A", "collective", 4, 1)
            other = threading.Thread(
                target=btio_exps._run, args=("A", "collective", 4, 1))
            other.start()
            other.join(timeout=60)
        assert not other.is_alive()
        assert len(calls) == 2


class TestPersistentPool:
    """Workers fork once per executor and live until ``close``."""

    def test_n_jobs_fork_exactly_n_workers(self, monkeypatch):
        jobs = _pid_points(monkeypatch, "zz_pids", 8, nap=0.05)
        with PoolExecutor(jobs=2) as executor:
            outs = executor.run(jobs)
            outs += [executor.submit(job).result(30) for job in jobs]
        pids = {o.payload["pid"] for o in outs}
        assert all(o.ok for o in outs)
        assert len(pids) == 2 and os.getpid() not in pids

    def test_submit_returns_future_of_outcome(self, monkeypatch):
        (job,) = _pid_points(monkeypatch, "zz_fut", 1)
        with PoolExecutor(jobs=2) as executor:
            fut = executor.submit(job)
            out = fut.result(30)
        assert isinstance(out, JobOutcome) and out.ok
        assert out.payload["pid"] != os.getpid()

    def test_crash_and_timeout_replace_the_worker(self, monkeypatch):
        def crash():
            time.sleep(0.5)     # let the "started" message flush
            os._exit(3)

        crashing = _register(monkeypatch, zz_crash=_fake("zz_crash", crash),
                             zz_hang=_fake("zz_hang",
                                           lambda: time.sleep(30)))
        good = _pid_points(monkeypatch, "zz_after", 4, nap=0.05)
        with PoolExecutor(jobs=2, timeout_s=1.0) as executor:
            statuses = [o.status for o in executor.run(crashing)]
            assert statuses == ["crashed", "timeout"]
            assert _wait_until(lambda: len(mp.active_children()) == 2)
            outs = executor.run(good)
        assert all(o.ok for o in outs)

    def test_close_leaves_no_live_child(self, monkeypatch):
        jobs = _pid_points(monkeypatch, "zz_close", 3)
        executor = PoolExecutor(jobs=2)
        assert all(o.ok for o in executor.run(jobs))
        assert len(mp.active_children()) == 2
        executor.close()
        assert mp.active_children() == []
        executor.close()        # idempotent

    def test_submit_after_close_raises(self, monkeypatch):
        (job,) = _pid_points(monkeypatch, "zz_shut", 1)
        for n in (1, 2):
            executor = PoolExecutor(jobs=n)
            executor.submit(job).result(30)
            executor.close()
            with pytest.raises(RuntimeError):
                executor.submit(job)

    def test_registry_is_read_when_the_workers_fork(self, monkeypatch):
        """Experiments registered before the first submit are visible
        in the workers; ones registered after it are not."""
        (early,) = _pid_points(monkeypatch, "zz_early", 1)
        with PoolExecutor(jobs=2) as executor:
            assert executor.submit(early).result(30).ok
            (late,) = _pid_points(monkeypatch, "zz_late", 1)
            out = executor.submit(late).result(30)
        assert out.status == "failed" and "zz_late" in out.error

    def test_unclosed_executor_stops_its_workers_when_collected(
            self, monkeypatch):
        jobs = _pid_points(monkeypatch, "zz_gc", 2)
        assert all(o.ok for o in PoolExecutor(jobs=2).run(jobs))
        assert _wait_until(lambda: mp.active_children() == [])

    def test_one_run_shares_runs_two_runs_do_not(self, monkeypatch,
                                                 tmp_path):
        marker = str(tmp_path / "runs.log")
        register_experiment(
            monkeypatch, "zz_share", n_points=6,
            run_point=lambda p: {**p, "v": _shared_probe(marker)})
        jobs = decompose("zz_share", quick=True)

        def runs():
            with open(marker) as fh:
                return len(fh.readlines())

        with PoolExecutor(jobs=2) as executor:
            executor.run(jobs)
            # One scope per worker: at most one simulation each.
            assert 1 <= runs() <= 2
            before = runs()
            executor.run(jobs[:1])
            executor.run(jobs[:1])
            assert runs() == before + 2
            executor.submit(jobs[0]).result(30)
            executor.submit(jobs[0]).result(30)
            assert runs() == before + 4
