"""Tests for the crash-isolated process-pool executor.

The fake experiments below are registered straight into the registry
dict; the pool's ``fork`` start method means worker processes inherit
them, so jobs can cross the process boundary as plain data.
"""

import os
import time

import pytest

from repro.experiments import ExperimentResult
from repro.runner import JobOutcome, PoolExecutor, decompose
from tests.conftest import register_experiment


def _fake(exp_id, body=None):
    def fn(quick=False):
        if body is not None:
            body()
        res = ExperimentResult(exp_id, "t", "ref")
        res.add_check("ok", True)
        return res
    return fn


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
