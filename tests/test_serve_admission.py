"""Unit tests for the admission controller (threads, no sockets)."""

import threading
import time

import pytest

from repro.serve.admission import (AdmissionController, DrainingError,
                                   RejectedError)


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


def _queue(adm, on_admit):
    """Start a thread that waits in the queue, then calls ``on_admit``;
    returns once it is queued."""
    queued = adm.waiting

    def waiter():
        adm.acquire()
        on_admit()

    thread = threading.Thread(target=waiter, daemon=True)
    thread.start()
    assert _wait_until(lambda: adm.waiting == queued + 1)
    return thread


class TestAdmission:
    def test_admits_up_to_max_inflight(self):
        adm = AdmissionController(max_inflight=2, max_queue=0)
        adm.acquire()
        adm.acquire()
        assert adm.inflight == 2
        with pytest.raises(RejectedError):
            adm.acquire()
        adm.release()
        adm.release()
        assert adm.inflight == 0

    def test_rejection_carries_retry_after(self):
        adm = AdmissionController(max_inflight=1, max_queue=0,
                                  retry_after_s=7.0)
        adm.acquire()
        with pytest.raises(RejectedError) as exc:
            adm.acquire()
        assert exc.value.retry_after_s == 7.0
        assert adm.metrics.get("serve_rejected_total").value == 1

    def test_queue_grants_fifo_on_release(self):
        adm = AdmissionController(max_inflight=1, max_queue=2)
        adm.acquire()
        order = []
        t1 = _queue(adm, lambda: order.append("first"))
        t2 = _queue(adm, lambda: order.append("second"))
        assert adm.waiting == 2
        adm.release()          # slot transfers to t1
        t1.join(5)
        assert order == ["first"]
        assert adm.inflight == 1   # transferred, not freed
        adm.release()
        t2.join(5)
        assert order == ["first", "second"]
        adm.release()
        assert adm.inflight == 0

    def test_recovers_after_drain_of_backlog(self):
        """429 while full; once the backlog drains, admission succeeds."""
        adm = AdmissionController(max_inflight=1, max_queue=1)
        adm.acquire()
        admitted = threading.Event()
        waiter = _queue(adm, admitted.set)
        with pytest.raises(RejectedError):
            adm.acquire()       # inflight + queue both full
        adm.release()           # drains the queue
        waiter.join(5)
        assert admitted.is_set()
        adm.release()
        adm.acquire()           # free again: no rejection
        adm.release()

    def test_timed_out_waiter_releases_its_queue_slot(self):
        adm = AdmissionController(max_inflight=1, max_queue=1)
        adm.acquire()
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            adm.acquire(timeout=0.05)
        assert time.monotonic() - t0 >= 0.05
        assert adm.waiting == 0
        assert adm.metrics.get("serve_admission_queue").value == 0
        with pytest.raises(TimeoutError):   # queued again, not rejected
            adm.acquire(timeout=0.01)
        adm.release()               # nobody queued: slot frees
        assert adm.inflight == 0

    def test_context_manager_releases_on_error(self):
        adm = AdmissionController(max_inflight=1, max_queue=0)
        with pytest.raises(RuntimeError):
            with adm:
                assert adm.inflight == 1
                raise RuntimeError("handler blew up")
        assert adm.inflight == 0


class TestDrain:
    def test_draining_rejects_new_requests(self):
        adm = AdmissionController()
        adm.begin_drain()
        with pytest.raises(DrainingError):
            adm.acquire()

    def test_wait_drained_completes_when_work_finishes(self):
        adm = AdmissionController(max_inflight=2)
        adm.acquire()
        adm.begin_drain()
        timer = threading.Timer(0.01, adm.release)
        timer.start()
        assert adm.wait_drained(timeout=5.0)
        assert adm.inflight == 0
        timer.join()

    def test_wait_drained_times_out(self):
        adm = AdmissionController()
        adm.acquire()     # never released
        adm.begin_drain()
        assert not adm.wait_drained(timeout=0.05)

    def test_wait_drained_immediate_when_idle(self):
        adm = AdmissionController()
        adm.begin_drain()
        assert adm.wait_drained(timeout=0.01)

    def test_gauges_track_inflight_and_queue(self):
        adm = AdmissionController(max_inflight=1, max_queue=4)
        adm.acquire()
        admitted = threading.Event()
        waiter = _queue(adm, admitted.set)
        m = adm.metrics
        assert m.get("serve_inflight_requests").value == 1
        assert m.get("serve_admission_queue").value == 1
        adm.release()
        waiter.join(5)
        assert admitted.is_set()
        adm.release()
        assert m.get("serve_inflight_requests").value == 0
        assert m.get("serve_admission_queue").value == 0


class TestStress:
    def test_threads_never_exceed_the_inflight_bound(self):
        """More threads than cores hammer one controller with a short
        switch interval: admitted work never exceeds ``max_inflight``
        and every slot comes back."""
        import sys

        adm = AdmissionController(max_inflight=2, max_queue=8)
        lock = threading.Lock()
        running, peak, done = [0], [0], []

        def worker():
            for _ in range(200):
                with adm:
                    with lock:
                        running[0] += 1
                        peak[0] = max(peak[0], running[0])
                    with lock:
                        running[0] -= 1
            done.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, daemon=True)
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(done) == 8
        assert peak[0] <= 2
        assert (adm.inflight, adm.waiting) == (0, 0)
        assert adm.metrics.get("serve_rejected_total").value == 0
