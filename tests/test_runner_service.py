"""End-to-end tests for the runner service: cache, resume, progress."""

import io
import json

import pytest

from repro.experiments import ExperimentResult, registry
from repro.runner import (
    ProgressTracker,
    ResultStore,
    run_cached,
    run_experiments,
)
from repro.runner.keys import canonical_json
from tests.conftest import register_experiment


def _register_sweep(monkeypatch, exp_id, n_points=3, fail_on=()):
    """Register a toy swept experiment with ``n_points`` point jobs."""
    def run_point(point):
        if point["i"] in fail_on:
            raise RuntimeError(f"point {point['i']} exploded")
        return {**point, "y": point["i"] * 10.0}

    register_experiment(monkeypatch, exp_id, run_point=run_point,
                        n_points=n_points)


class TestCacheLifecycle:
    def test_second_run_is_all_hits_and_equal(self, tmp_path, monkeypatch):
        _register_sweep(monkeypatch, "zz_sweep")
        store = ResultStore(tmp_path / "c")
        first = run_experiments(["zz_sweep"], quick=True, store=store)
        assert first.jobs_computed == 3 and first.jobs_cached == 0
        again = ResultStore(tmp_path / "c")
        second = run_experiments(["zz_sweep"], quick=True, store=again)
        assert second.jobs_cached == 3 and second.jobs_computed == 0
        assert second.hit_rate == 1.0
        assert second.results["zz_sweep"] == first.results["zz_sweep"]

    def test_refresh_recomputes_but_restores(self, tmp_path, monkeypatch):
        _register_sweep(monkeypatch, "zz_sweep")
        store = ResultStore(tmp_path / "c")
        run_experiments(["zz_sweep"], quick=True, store=store)
        report = run_experiments(["zz_sweep"], quick=True, store=store,
                                 refresh=True)
        assert report.jobs_cached == 0 and report.jobs_computed == 3
        # ...and the refreshed entries hit on the next plain run.
        third = run_experiments(["zz_sweep"], quick=True, store=store)
        assert third.jobs_cached == 3

    def test_no_cache_writes_nothing(self, tmp_path, monkeypatch):
        _register_sweep(monkeypatch, "zz_sweep")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        report = run_experiments(["zz_sweep"], quick=True, use_cache=False)
        assert report.results["zz_sweep"].rows[2]["y"] == 20.0
        assert not (tmp_path / "c").exists()

    def test_quick_and_full_cached_separately(self, tmp_path, monkeypatch):
        _register_sweep(monkeypatch, "zz_sweep")
        store = ResultStore(tmp_path / "c")
        run_experiments(["zz_sweep"], quick=True, store=store)
        report = run_experiments(["zz_sweep"], quick=False, store=store)
        assert report.jobs_cached == 0 and report.jobs_computed == 3

    def test_last_run_summary_persisted(self, tmp_path, monkeypatch):
        _register_sweep(monkeypatch, "zz_sweep")
        store = ResultStore(tmp_path / "c")
        run_experiments(["zz_sweep"], quick=True, store=store)
        last = ResultStore(tmp_path / "c").read_last_run()
        assert last["exp_ids"] == ["zz_sweep"]
        assert last["jobs"] == 3 and last["failed"] == 0


class TestFailureAndResume:
    def test_failed_point_fails_only_its_experiment(self, tmp_path,
                                                    monkeypatch):
        _register_sweep(monkeypatch, "zz_first")
        _register_sweep(monkeypatch, "zz_bad", fail_on={1})
        _register_sweep(monkeypatch, "zz_ok")
        store = ResultStore(tmp_path / "c")
        report = run_experiments(["zz_first", "zz_bad", "zz_ok"],
                                 quick=True, store=store)
        # Experiments after the failure still ran, in request order.
        assert list(report.results) == ["zz_first", "zz_ok"]
        assert list(report.errors) == ["zz_bad"]
        assert "zz_bad#001" in report.errors["zz_bad"]
        assert "point 1 exploded" in report.errors["zz_bad"]
        assert report.jobs_failed == 1 and report.jobs_computed == 8

    def test_resume_recomputes_only_failed_jobs(self, tmp_path, monkeypatch):
        """Re-invoking after a partial failure redoes just the failed job."""
        _register_sweep(monkeypatch, "zz_flaky", fail_on={1})
        store = ResultStore(tmp_path / "c")
        first = run_experiments(["zz_flaky"], quick=True, store=store)
        assert first.jobs_failed == 1

        _register_sweep(monkeypatch, "zz_flaky")   # "bug fixed"
        second = run_experiments(["zz_flaky"], quick=True,
                                 store=ResultStore(tmp_path / "c"))
        assert second.jobs_cached == 2             # points 0 and 2 reused
        assert second.jobs_computed == 1           # only point 1 rerun
        assert second.results["zz_flaky"].rows == [
            {"i": i, "quick": True, "y": i * 10.0} for i in range(3)]

    def test_run_cached_raises_on_failure(self, tmp_path, monkeypatch):
        _register_sweep(monkeypatch, "zz_bad", fail_on={0})
        with pytest.raises(RuntimeError, match="zz_bad"):
            run_cached("zz_bad", quick=True,
                       store=ResultStore(tmp_path / "c"))

    def test_run_cached_returns_result_and_reuses_store(self, tmp_path,
                                                        monkeypatch):
        calls = []

        def fn(quick=False):
            calls.append(1)
            res = ExperimentResult("zz_once", "t", "ref")
            res.add_check("ok", True)
            return res

        register_experiment(monkeypatch, "zz_once", whole=fn)
        store = ResultStore(tmp_path / "c")
        first = run_cached("zz_once", quick=True, store=store)
        second = run_cached("zz_once", quick=True, store=store)
        assert first == second
        assert len(calls) == 1


class TestReportAndProgress:
    def test_summary_text_shape(self, tmp_path, monkeypatch):
        _register_sweep(monkeypatch, "zz_sweep")
        store = ResultStore(tmp_path / "c")
        run_experiments(["zz_sweep"], quick=True, store=store)
        report = run_experiments(["zz_sweep"], quick=True, store=store)
        text = report.summary_text()
        assert "zz_sweep" in text and "total" in text
        assert "3 hit(s)" in text
        assert "100% hit rate" in text

    def test_progress_lines_emitted(self, tmp_path, monkeypatch):
        _register_sweep(monkeypatch, "zz_sweep")
        stream = io.StringIO()
        run_experiments(["zz_sweep"], quick=True,
                        store=ResultStore(tmp_path / "c"),
                        progress=ProgressTracker(stream=stream))
        out = stream.getvalue()
        assert "runner: 3 job(s) on 1 worker(s)" in out
        assert "zz_sweep#000" in out and "[  3/3]" in out

    def test_progress_counts_cached_vs_computed(self, tmp_path, monkeypatch):
        _register_sweep(monkeypatch, "zz_sweep")
        store = ResultStore(tmp_path / "c")
        run_experiments(["zz_sweep"], quick=True, store=store)
        tracker = ProgressTracker(enabled=False)
        run_experiments(["zz_sweep"], quick=True, store=store,
                        progress=tracker)
        assert tracker.cached == 3 and tracker.computed == 0
        assert tracker.failed == 0 and tracker.queue_depth == 0

    def test_exp_wall_time_accounted(self, tmp_path, monkeypatch):
        _register_sweep(monkeypatch, "zz_sweep")
        _register_sweep(monkeypatch, "zz_bad", fail_on={0})
        report = run_experiments(["zz_sweep", "zz_bad"], quick=True,
                                 store=ResultStore(tmp_path / "c"))
        # Failed experiments are timed too.
        assert "zz_bad" in report.errors
        for exp_id in ("zz_sweep", "zz_bad"):
            assert report.exp_wall_s(exp_id) >= 0.0
        assert report.wall_s > 0.0


class TestDeterminismAndParity:
    def test_same_point_twice_is_bit_identical(self):
        """One real simulated sweep point is fully deterministic."""
        from repro.runner.jobs import KIND_POINT, decompose, execute_job
        job = decompose("fig7", quick=True)[0]
        first = execute_job(job.exp_id, KIND_POINT, job.config)
        second = execute_job(job.exp_id, KIND_POINT, job.config)
        assert canonical_json(first) == canonical_json(second)

    def test_parallel_runner_matches_serial_path(self, tmp_path):
        """Pool execution reproduces the serial experiment bit-for-bit,
        for swept figures and one-point tables alike."""
        exp_ids = ["fig7", "table1", "table4"]
        serial = {e: registry.run_experiment(e, quick=True)
                  for e in exp_ids}
        report = run_experiments(exp_ids, quick=True, jobs=2,
                                 store=ResultStore(tmp_path / "c"))
        # And the cached re-assembly is equal too.
        again = run_experiments(exp_ids, quick=True,
                                store=ResultStore(tmp_path / "c"))
        assert again.hit_rate == 1.0
        for exp_id in exp_ids:
            expected = canonical_json(serial[exp_id].to_dict())
            assert canonical_json(
                report.results[exp_id].to_dict()) == expected
            assert canonical_json(
                again.results[exp_id].to_dict()) == expected
