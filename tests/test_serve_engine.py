"""Tests for the single-flight, cache-first serving engine."""

import sys
import threading
import time

import pytest

from repro.runner.executor import PoolExecutor
from repro.runner.jobs import KIND_POINT, JobSpec
from repro.runner.store import ResultStore
from repro.serve.engine import (EngineClosed, EngineSaturated, ServeEngine)
from tests.conftest import register_experiment


def _job(exp_id, i=0, **extra):
    return JobSpec(job_id=f"{exp_id}#{i:03d}", exp_id=exp_id,
                   kind=KIND_POINT, config={"i": i, **extra}, index=i)


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


class TestCachePath:
    def test_miss_computes_and_stores(self, monkeypatch, store):
        calls = []
        register_experiment(monkeypatch, "zz_eng",
                       lambda p: (calls.append(dict(p)) or {**p, "y": 1}))
        with ServeEngine(store=store) as engine:
            out = engine.run_job(_job("zz_eng"))
            assert out.ok and out.source == "computed"
            assert out.payload == {"i": 0, "y": 1}
            assert calls == [{"i": 0}]
            # Stored content-addressed: a fresh engine hits the cache.
        with ServeEngine(store=ResultStore(store.root)) as engine2:
            again = engine2.run_job(_job("zz_eng"))
            assert again.source == "cache"
            assert again.payload == out.payload
            assert calls == [{"i": 0}]   # no recomputation

    def test_cache_hit_skips_executor(self, monkeypatch, store):
        register_experiment(monkeypatch, "zz_eng", lambda p: {**p, "y": 2})
        with ServeEngine(store=store) as engine:
            engine.run_job(_job("zz_eng"))
            assert engine.jobs_executed == 1
            engine.run_job(_job("zz_eng"))
            assert engine.jobs_executed == 1
            m = engine.metrics
            assert m.get("serve_cache_hits_total").value == 1
            assert m.get("serve_cache_misses_total").value == 1

    def test_no_store_recomputes_every_time(self, monkeypatch):
        calls = []
        register_experiment(monkeypatch, "zz_eng",
                       lambda p: (calls.append(1) or {**p}))
        with ServeEngine(store=None) as engine:
            engine.run_job(_job("zz_eng"))
            engine.run_job(_job("zz_eng"))
        assert len(calls) == 2


class TestSingleFlight:
    def test_concurrent_same_key_coalesce_to_one_job(self, monkeypatch,
                                                     store):
        gate = threading.Event()
        calls = []

        def run_point(point):
            calls.append(dict(point))
            assert gate.wait(10)
            return {**point, "y": 42}

        register_experiment(monkeypatch, "zz_sf", run_point)
        with ServeEngine(store=store) as engine:
            tickets = [engine.submit(_job("zz_sf")) for _ in range(5)]
            assert _wait_until(lambda: len(calls) == 1)
            gate.set()
            outs = [t.result(10) for t in tickets]
            assert len(calls) == 1              # exactly one executor job
            assert engine.jobs_executed == 1
            assert all(o.payload == {"i": 0, "y": 42} for o in outs)
            assert sum(t.coalesced for t in tickets) == 4
            assert engine.metrics.get("serve_coalesced_total").value == 4
            assert engine.metrics.get("serve_cache_misses_total").value == 1

    def test_ticket_source_reflects_coalescing(self, monkeypatch, store):
        gate = threading.Event()
        register_experiment(monkeypatch, "zz_sf",
                       lambda p: (gate.wait(10) and {**p}) or {**p})
        with ServeEngine(store=store) as engine:
            first = engine.submit(_job("zz_sf"))
            second = engine.submit(_job("zz_sf"))
            gate.set()
            out1, out2 = first.result(10), second.result(10)
            assert first.source(out1) == "computed"
            assert second.source(out2) == "coalesced"

    def test_distinct_configs_do_not_coalesce(self, monkeypatch, store):
        register_experiment(monkeypatch, "zz_sf", lambda p: {**p})
        with ServeEngine(store=store) as engine:
            a = engine.run_job(_job("zz_sf", 0))
            b = engine.run_job(_job("zz_sf", 1))
            assert a.payload != b.payload
            assert engine.jobs_executed == 2
            assert engine.metrics.get("serve_coalesced_total").value == 0

    def test_after_completion_next_request_hits_cache(self, monkeypatch,
                                                      store):
        register_experiment(monkeypatch, "zz_sf", lambda p: {**p, "y": 3})
        with ServeEngine(store=store) as engine:
            engine.run_job(_job("zz_sf"))
            out = engine.run_job(_job("zz_sf"))
            assert out.source == "cache"


class TestPoolStress:
    def test_overlapping_keys_from_many_threads(self, monkeypatch, store):
        """8 client threads on a 3-worker pool: every miss runs once and
        every request is counted exactly once."""
        register_experiment(monkeypatch, "zz_st",
                            lambda p: (time.sleep(0.01) or {**p, "y": 1}))
        keys, per_thread, threads = 6, 12, 8
        outs, errors = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServeEngine(store=store,
                             executor=PoolExecutor(jobs=3)) as engine:
                def client(t):
                    try:
                        for n in range(per_thread):
                            job = _job("zz_st", (t + n) % keys)
                            outs.append(engine.submit(job).result(30))
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)
                pool = [threading.Thread(target=client, args=(t,))
                        for t in range(threads)]
                for t in pool:
                    t.start()
                for t in pool:
                    t.join(60)
                assert not any(t.is_alive() for t in pool)
                m = engine.metrics
                served = sum(m.get(name).value for name in (
                    "serve_cache_hits_total", "serve_cache_misses_total",
                    "serve_coalesced_total"))
                # Each miss ran exactly once; a request whose cache probe
                # raced a finishing job may run its key a second time.
                assert engine.jobs_executed >= keys
                assert engine.jobs_executed == m.get(
                    "serve_cache_misses_total").value == m.get(
                    "serve_jobs_total").value
                assert engine.inflight == 0 and engine.queue_depth == 0
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert len(outs) == served == threads * per_thread
        assert all(o.ok and o.payload["y"] == 1 for o in outs)


class TestSaturationAndFailure:
    def test_bounded_queue_raises_engine_saturated(self, monkeypatch,
                                                   store):
        gate = threading.Event()
        register_experiment(monkeypatch, "zz_sat",
                       lambda p: (gate.wait(10) and {**p}) or {**p})
        engine = ServeEngine(store=store, max_queue=1,
                             retry_after_s=3.0)
        try:
            engine.submit(_job("zz_sat", 0))    # dequeued, executing
            assert _wait_until(
                lambda: engine.metrics.get(
                    "serve_jobs_executing").value == 1)
            engine.submit(_job("zz_sat", 1))    # fills the queue
            with pytest.raises(EngineSaturated) as exc:
                engine.submit(_job("zz_sat", 2))
            assert exc.value.retry_after_s == 3.0
            assert engine.metrics.get(
                "serve_engine_saturated_total").value == 1
            gate.set()                           # drain ...
            assert engine.drain(timeout=10)
            out = engine.run_job(_job("zz_sat", 2))   # ... and recover
            assert out.ok
        finally:
            gate.set()
            engine.close()

    def test_failed_job_reports_error_and_is_not_cached(self, monkeypatch,
                                                        store):
        def run_point(point):
            raise RuntimeError("point exploded")

        register_experiment(monkeypatch, "zz_bad", run_point)
        with ServeEngine(store=store) as engine:
            out = engine.run_job(_job("zz_bad"))
            assert not out.ok and out.status == "failed"
            assert "point exploded" in out.error
            assert engine.metrics.get("serve_job_errors_total").value == 1
            assert store.get(_job("zz_bad").key) is None

    def test_failure_is_not_sticky(self, monkeypatch, store):
        flaky = {"fail": True}

        def run_point(point):
            if flaky["fail"]:
                raise RuntimeError("transient")
            return {**point, "y": 9}

        register_experiment(monkeypatch, "zz_flaky", run_point)
        with ServeEngine(store=store) as engine:
            assert not engine.run_job(_job("zz_flaky")).ok
            flaky["fail"] = False
            out = engine.run_job(_job("zz_flaky"))
            assert out.ok and out.source == "computed"


class TestDispatcherRobustness:
    def test_dispatcher_survives_unexpected_execute_error(self,
                                                          monkeypatch,
                                                          store):
        """A bug anywhere in the per-job completion path must resolve
        the future as failed and un-publish the key -- and leave the
        engine and its executor working."""
        register_experiment(monkeypatch, "zz_rob", lambda p: {**p, "y": 1})
        with ServeEngine(store=store) as engine:
            real_complete = engine._complete
            boom = {"on": True}

            def flaky_complete(job, out, elapsed):
                if boom["on"]:
                    raise TypeError("per-job bookkeeping bug")
                return real_complete(job, out, elapsed)

            monkeypatch.setattr(engine, "_complete", flaky_complete)
            out = engine.run_job(_job("zz_rob"), timeout=10)
            assert not out.ok and out.status == "failed"
            assert "per-job bookkeeping bug" in out.error
            assert engine.inflight == 0   # no leaked single-flight entry
            assert engine.metrics.get("serve_job_errors_total").value == 1
            # Same key, same (sole) executor thread: both still work.
            boom["on"] = False
            out2 = engine.run_job(_job("zz_rob"), timeout=10)
            assert out2.ok and out2.payload == {"i": 0, "y": 1}

    def test_unserializable_payload_served_not_cached(self, monkeypatch,
                                                      store):
        """json can't encode a set: store.put raises TypeError, which
        must not break the engine -- the payload is still served."""
        register_experiment(monkeypatch, "zz_ser",
                       lambda p: {**p, "y": {1, 2}})
        with ServeEngine(store=store) as engine:
            out = engine.run_job(_job("zz_ser"), timeout=10)
            assert out.ok and out.payload == {"i": 0, "y": {1, 2}}
            assert store.get(_job("zz_ser").key) is None   # not cached
            out2 = engine.run_job(_job("zz_ser"), timeout=10)
            assert out2.ok                 # engine still serving


class TestLifecycle:
    def test_submit_after_close_raises(self, monkeypatch, store):
        register_experiment(monkeypatch, "zz_cl", lambda p: {**p})
        engine = ServeEngine(store=store)
        engine.close()
        with pytest.raises(EngineClosed):
            engine.submit(_job("zz_cl"))

    def test_close_finishes_queued_work(self, monkeypatch, store):
        register_experiment(monkeypatch, "zz_cl",
                       lambda p: (time.sleep(0.02) or {**p, "y": 5}))
        engine = ServeEngine(store=store, max_queue=8)
        tickets = [engine.submit(_job("zz_cl", i)) for i in range(4)]
        engine.close()
        outs = [t.result(10) for t in tickets]
        assert all(o.ok for o in outs)

    def test_drain_waits_for_idle(self, monkeypatch, store):
        register_experiment(monkeypatch, "zz_dr",
                       lambda p: (time.sleep(0.05) or {**p}))
        with ServeEngine(store=store) as engine:
            engine.submit(_job("zz_dr"))
            assert engine.drain(timeout=10)
            assert engine.inflight == 0
            assert engine.queue_depth == 0

    def test_queue_depth_gauge_returns_to_zero(self, monkeypatch, store):
        register_experiment(monkeypatch, "zz_g", lambda p: {**p})
        with ServeEngine(store=store) as engine:
            engine.run_job(_job("zz_g"))
            engine.drain(timeout=10)
            assert engine.metrics.get("serve_queue_depth").value == 0
            assert engine.metrics.get("serve_jobs_executing").value == 0
