"""Tests for the runner's resilience layer.

Retry with exponential backoff, poisoned-job quarantine, worker
blackboxes, graceful pool degradation when spawns fail, and payload
checksums in the result store.  Fake experiments are registered into
the registry dict; the pool's ``fork`` start method means workers
inherit them (same idiom as test_runner_executor.py).
"""

import json
import multiprocessing as mp
import os
import signal
import sys
import threading
import time

import pytest

from repro.cli import build_parser
from repro.experiments import ExperimentResult
from repro.runner import PoolExecutor, ResultStore, decompose, \
    run_experiments
from repro.runner.executor import RETRYABLE_STATUSES, backoff_delay
from repro.runner.store import payload_checksum
from tests.conftest import register_experiment

KEY = "ee" + "4" * 62


def _result(exp_id):
    res = ExperimentResult(exp_id, "t", "ref")
    res.add_check("ok", True)
    return res


def _fake(exp_id, body=None):
    def fn(quick=False):
        if body is not None:
            body()
        return _result(exp_id)
    return fn


def _flaky(exp_id, marker_dir, crashes=1, exitcode=1):
    """Fake that kills its worker on the first ``crashes`` attempts.

    Attempt counts persist in ``marker_dir`` files, so they survive the
    worker respawns that separate attempts.
    """
    def fn(quick=False):
        path = os.path.join(marker_dir, exp_id)
        n = 0
        if os.path.exists(path):
            with open(path) as fh:
                n = int(fh.read() or 0)
        if n < crashes:
            with open(path, "w") as fh:
                fh.write(str(n + 1))
            time.sleep(0.5)      # let the "started" message flush
            os._exit(exitcode)
        return _result(exp_id)
    return fn


def _hangs_once(exp_id, marker_dir):
    """Fake that sleeps past any test timeout on its first attempt."""
    def fn(quick=False):
        path = os.path.join(marker_dir, exp_id)
        if not os.path.exists(path):
            with open(path, "w") as fh:
                fh.write("1")
            time.sleep(30)
        return _result(exp_id)
    return fn


def _register(monkeypatch, **fakes):
    jobs = []
    for exp_id, fn in fakes.items():
        register_experiment(monkeypatch, exp_id, whole=fn)
        jobs.extend(decompose(exp_id, quick=True))
    return jobs


class TestBackoffDelay:
    def test_zero_base_means_no_delay(self):
        assert backoff_delay(0, 0.0) == 0.0
        assert backoff_delay(5, -1.0) == 0.0

    @pytest.mark.parametrize("attempt", [0, 1, 2, 5])
    def test_halved_window_bounds(self, attempt):
        window = 0.25 * 2 ** attempt
        low = backoff_delay(attempt, 0.25, rand=lambda: 0.0)
        high = backoff_delay(attempt, 0.25, rand=lambda: 0.999999)
        assert low == pytest.approx(window / 2)
        assert window / 2 <= low <= high < window

    def test_window_doubles_per_attempt(self):
        delays = [backoff_delay(a, 1.0, rand=lambda: 0.0)
                  for a in range(4)]
        assert delays == [0.5, 1.0, 2.0, 4.0]

    def test_negative_attempt_clamped(self):
        assert backoff_delay(-3, 1.0, rand=lambda: 0.0) == 0.5

    def test_retryable_statuses(self):
        assert RETRYABLE_STATUSES == {"crashed", "timeout", "lost"}
        assert "failed" not in RETRYABLE_STATUSES


class TestRetry:
    def test_crash_storm_heals_with_retries(self, monkeypatch, tmp_path):
        """A sweep where 40% of jobs crash their worker once completes."""
        fakes = {"zz_f0": _flaky("zz_f0", str(tmp_path)),
                 "zz_f1": _flaky("zz_f1", str(tmp_path)),
                 "zz_g0": _fake("zz_g0"), "zz_g1": _fake("zz_g1"),
                 "zz_g2": _fake("zz_g2")}
        jobs = _register(monkeypatch, **fakes)
        outs = {o.job.exp_id: o
                for o in PoolExecutor(jobs=2, retries=2,
                                      backoff_s=0.01).run(jobs)}
        assert all(o.ok for o in outs.values())
        assert outs["zz_f0"].attempts == 1
        assert outs["zz_f1"].attempts == 1
        assert outs["zz_g0"].attempts == 0

    def test_no_retry_by_default(self, monkeypatch, tmp_path):
        jobs = _register(monkeypatch,
                         zz_flaky=_flaky("zz_flaky", str(tmp_path)))
        (out,) = PoolExecutor(jobs=2).run(jobs)
        assert out.status == "crashed" and out.attempts == 0
        assert "worker process died" in out.error

    def test_timeout_retried(self, monkeypatch, tmp_path):
        jobs = _register(monkeypatch,
                         zz_hang=_hangs_once("zz_hang", str(tmp_path)))
        (out,) = PoolExecutor(jobs=2, timeout_s=0.5, retries=1,
                              backoff_s=0.01).run(jobs)
        assert out.ok and out.attempts == 1

    def test_poisoned_job_quarantined(self, monkeypatch, tmp_path):
        """A job that kills its worker twice stops being retried."""
        fakes = {"zz_poison": _flaky("zz_poison", str(tmp_path),
                                     crashes=99),
                 "zz_good": _fake("zz_good")}
        jobs = _register(monkeypatch, **fakes)
        outs = {o.job.exp_id: o
                for o in PoolExecutor(jobs=2, retries=5,
                                      backoff_s=0.01).run(jobs)}
        assert outs["zz_good"].ok
        out = outs["zz_poison"]
        assert out.status == "quarantined"
        assert "quarantined" in out.error
        # The accumulated history keeps each attempt's crash report.
        assert out.error.count("worker process died") == 2

    def test_deterministic_failure_never_retried(self, monkeypatch):
        def boom():
            raise ValueError("deterministic")
        jobs = _register(monkeypatch, zz_det=_fake("zz_det", boom))
        (out,) = PoolExecutor(jobs=2, retries=3, backoff_s=0.01).run(jobs)
        assert out.status == "failed" and out.attempts == 0
        assert "deterministic" in out.error


class TestCleanExit:
    def test_worker_exiting_with_status_zero_is_replaced(self,
                                                         monkeypatch):
        """A job calling sys.exit(0) fails; its worker is replaced."""
        jobs = _register(monkeypatch,
                         zz_exit0=_fake("zz_exit0", lambda: sys.exit(0)),
                         zz_exit1=_fake("zz_exit1", lambda: sys.exit(0)),
                         zz_fine=_fake("zz_fine"))
        outs = []
        with PoolExecutor(jobs=2) as executor:
            runner = threading.Thread(
                target=lambda: outs.extend(executor.run(jobs)), daemon=True)
            runner.start()
            runner.join(30)
            assert not runner.is_alive(), "pool hung on exited workers"
            deadline = time.monotonic() + 10
            while len(mp.active_children()) != 2 \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(mp.active_children()) == 2
        by_id = {o.job.exp_id: o for o in outs}
        assert by_id["zz_fine"].ok
        for exp_id in ("zz_exit0", "zz_exit1"):
            assert by_id[exp_id].status == "failed"
            assert "SystemExit" in by_id[exp_id].error


class TestTimeoutKill:
    def test_timed_out_worker_ignoring_sigterm_is_killed(self,
                                                         monkeypatch):
        """Workers forked under ``repro serve`` inherit the server's
        SIGTERM handler, which does not stop them: a timeout must still
        remove the worker."""
        jobs = _register(monkeypatch,
                         zz_stuck=_fake("zz_stuck", lambda: time.sleep(30)))
        previous = signal.signal(signal.SIGTERM, lambda *a: None)
        try:
            with PoolExecutor(jobs=2, timeout_s=0.5) as executor:
                (out,) = executor.run(jobs)
                assert out.status == "timeout"
                deadline = time.monotonic() + 10
                while len(mp.active_children()) != 2 \
                        and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert len(mp.active_children()) == 2
        finally:
            signal.signal(signal.SIGTERM, previous)


class TestBlackbox:
    def test_crash_error_carries_workers_last_words(self, monkeypatch):
        """A fatal signal surfaces the child's faulthandler dump."""
        def segfault():
            time.sleep(0.5)
            os.kill(os.getpid(), signal.SIGSEGV)
        jobs = _register(monkeypatch, zz_seg=_fake("zz_seg", segfault))
        (out,) = PoolExecutor(jobs=2).run(jobs)
        assert out.status == "crashed"
        assert "SIGSEGV" in out.error
        # The blackbox tail carries faulthandler's dump, not just the
        # exit code.
        # The blackbox tail carries faulthandler's stack dump (frame
        # lines), not just the exit code.
        assert "-- worker blackbox --" in out.error
        assert "line " in out.error


class _RefusingContext:
    """Multiprocessing context whose spawns fail after ``allow`` starts."""

    def __init__(self, real, allow):
        self._real = real
        self._allow = allow

    def Queue(self):
        return self._real.Queue()

    def Process(self, *args, **kwargs):
        proc = self._real.Process(*args, **kwargs)
        if self._allow <= 0:
            def _refuse():
                raise OSError("spawn refused")
            proc.start = _refuse
        else:
            self._allow -= 1
        return proc


class TestPoolDegradation:
    def test_pool_shrinks_but_finishes(self, monkeypatch):
        import multiprocessing as mp

        fakes = {f"zz_{i}": _fake(f"zz_{i}") for i in range(4)}
        jobs = _register(monkeypatch, **fakes)
        ctx = _RefusingContext(mp.get_context("fork"), allow=1)
        outs = PoolExecutor(jobs=3, context=ctx).run(jobs)
        assert all(o.ok for o in outs)

    def test_no_workers_at_all_marks_jobs_lost(self, monkeypatch):
        jobs = _register(monkeypatch, zz_a=_fake("zz_a"))
        import multiprocessing as mp

        ctx = _RefusingContext(mp.get_context("fork"), allow=0)
        (out,) = PoolExecutor(jobs=2, context=ctx).run(jobs)
        assert out.status == "lost"
        assert "respawn budget" in out.error


class TestStoreChecksums:
    @pytest.fixture
    def store(self, tmp_path):
        return ResultStore(tmp_path / "cache")

    def test_put_records_payload_checksum(self, store):
        path = store.put(KEY, {"v": 1})
        entry = json.loads(path.read_text())
        assert entry["sha256"] == payload_checksum({"v": 1})

    def test_bitflip_detected_and_evicted(self, store):
        path = store.put(KEY, {"v": 1})
        entry = json.loads(path.read_text())
        entry["payload"]["v"] = 999          # flip a payload byte
        path.write_text(json.dumps(entry))
        assert store.get(KEY) is None
        assert store.stats.corrupt == 1
        assert not path.exists()             # evicted, will be recomputed

    def test_truncated_file_detected_and_evicted(self, store):
        path = store.put(KEY, {"rows": list(range(50))})
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert store.get(KEY) is None
        assert store.stats.corrupt == 1
        assert not path.exists()

    def test_structurally_invalid_entry_evicted(self, store):
        path = store.put(KEY, {"v": 1})
        path.write_text(json.dumps(["not", "an", "entry"]))
        assert store.get(KEY) is None
        assert store.stats.corrupt == 1

    def test_missing_payload_evicted(self, store):
        path = store.put(KEY, {"v": 1})
        path.write_text(json.dumps({"key": KEY}))
        assert store.get(KEY) is None
        assert store.stats.corrupt == 1

    def test_legacy_entry_without_checksum_accepted(self, store):
        path = store.put(KEY, {"v": 1})
        entry = json.loads(path.read_text())
        del entry["sha256"]
        path.write_text(json.dumps(entry))
        got = store.get(KEY)
        assert got is not None and got["payload"] == {"v": 1}
        assert store.stats.corrupt == 0

    def test_corruption_heals_through_the_runner(self, monkeypatch,
                                                 tmp_path):
        """A corrupted cache entry is recomputed, not served."""
        store = ResultStore(tmp_path / "cache")
        (job,) = _register(monkeypatch, zz_heal=_fake("zz_heal"))
        first = run_experiments(["zz_heal"], quick=True, jobs=1,
                                store=store)
        assert first.jobs_computed == 1
        path = store.root / "objects" / job.key[:2] / f"{job.key}.json"
        path.write_text(path.read_text()[:40])
        again = run_experiments(["zz_heal"], quick=True, jobs=1,
                                store=store)
        assert again.jobs_cached == 0 and again.jobs_computed == 1
        assert "zz_heal" in again.results
        # The fresh entry is valid again.
        healed = run_experiments(["zz_heal"], quick=True, jobs=1,
                                 store=store)
        assert healed.jobs_cached == 1


class TestServicePlumbing:
    def test_retries_flow_through_run_experiments(self, monkeypatch,
                                                  tmp_path):
        _register(monkeypatch,
                  zz_svc=_flaky("zz_svc", str(tmp_path)))
        report = run_experiments(["zz_svc"], quick=True, jobs=2,
                                 use_cache=False, retries=2,
                                 backoff_s=0.01)
        assert "zz_svc" in report.results
        assert report.outcomes[0].attempts == 1
        assert "retries: 1 extra attempt(s)" in report.summary_text()

    def test_failure_report_lists_casualties(self, monkeypatch, tmp_path):
        _register(monkeypatch, zz_good=_fake("zz_good"),
                  zz_dead=_flaky("zz_dead", str(tmp_path), crashes=99))
        report = run_experiments(["zz_good", "zz_dead"], quick=True,
                                 jobs=2, use_cache=False)
        assert "zz_good" in report.results
        assert "zz_dead" in report.errors
        text = report.failure_report()
        assert text.startswith("failures (1 job(s)):")
        assert "crashed" in text
        assert "worker process died" in text

    def test_failure_report_empty_when_all_ok(self, monkeypatch):
        _register(monkeypatch, zz_fine=_fake("zz_fine"))
        report = run_experiments(["zz_fine"], quick=True, jobs=1,
                                 use_cache=False)
        assert report.failure_report() == ""

    def test_cli_exposes_retry_flags(self):
        args = build_parser().parse_args(
            ["run", "fig1", "--retries", "2", "--backoff", "0.5"])
        assert args.retries == 2 and args.backoff == 0.5
        defaults = build_parser().parse_args(["run", "fig1"])
        assert defaults.retries == 0 and defaults.backoff == 1.0
