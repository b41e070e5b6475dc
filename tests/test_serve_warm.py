"""Tests for cache warming (library call and ``repro warm`` CLI)."""

import io
import time

import pytest

from repro import cli
from repro.runner.jobs import decompose
from repro.runner.store import ResultStore
from repro.serve.engine import ServeEngine
from repro.serve.warm import WarmReport, warm
from tests.conftest import register_experiment


class TestWarm:
    def test_cold_then_warm_pass(self, monkeypatch, tmp_path):
        calls = []
        register_experiment(monkeypatch, "zz_w",
                      run_point=lambda p: (calls.append(1) or {**p}))
        store = ResultStore(tmp_path / "cache")
        with ServeEngine(store=store) as engine:
            first = warm(["zz_w"], quick=True, engine=engine)
            assert first.per_exp["zz_w"] == {"jobs": 3, "cache": 0,
                                             "computed": 3, "failed": 0}
            assert first.ok and first.jobs == 3
            second = warm(["zz_w"], quick=True, engine=engine)
            assert second.per_exp["zz_w"] == {"jobs": 3, "cache": 3,
                                              "computed": 0, "failed": 0}
        assert len(calls) == 3   # idempotent: nothing recomputed

    def test_scales_warm_independently(self, monkeypatch, tmp_path):
        register_experiment(monkeypatch, "zz_w")
        store = ResultStore(tmp_path / "cache")
        with ServeEngine(store=store) as engine:
            warm(["zz_w"], quick=True, engine=engine)
            full = warm(["zz_w"], quick=False, engine=engine)
            assert full.computed == 3 and full.cached == 0

    def test_unknown_experiment_raises_before_work(self, monkeypatch):
        calls = []
        register_experiment(monkeypatch, "zz_w",
                      run_point=lambda p: (calls.append(1) or {**p}))
        with pytest.raises(KeyError, match="zz_nope"):
            warm(["zz_w", "zz_nope"])
        assert calls == []

    def test_failed_points_counted_and_not_ok(self, monkeypatch, tmp_path):
        def run_point(point):
            if point["i"] == 1:
                raise RuntimeError("boom")
            return {**point}

        register_experiment(monkeypatch, "zz_wf", run_point=run_point)
        with ServeEngine(store=ResultStore(tmp_path / "c")) as engine:
            report = warm(["zz_wf"], engine=engine)
        assert report.per_exp["zz_wf"]["failed"] == 1
        assert not report.ok
        assert "FAILED" in report.summary_text()

    def test_stream_progress_lines(self, monkeypatch, tmp_path):
        register_experiment(monkeypatch, "zz_w")
        out = io.StringIO()
        with ServeEngine(store=ResultStore(tmp_path / "c")) as engine:
            warm(["zz_w"], engine=engine, stream=out)
        assert "warm zz_w: 3 job(s)" in out.getvalue()

    def test_more_points_than_the_engine_queue(self, monkeypatch,
                                               tmp_path):
        """Warming waits out a full queue instead of failing."""
        register_experiment(monkeypatch, "zz_wide", n_points=6,
                            run_point=lambda p: (time.sleep(0.05)
                                                 or {**p}))
        store = ResultStore(tmp_path / "cache")
        with ServeEngine(store=store, max_queue=1,
                         retry_after_s=0.05) as engine:
            report = warm(["zz_wide"], engine=engine)
            saturated = engine.metrics.get(
                "serve_engine_saturated_total").value
        assert report.ok and report.computed == 6
        assert saturated >= 1     # the queue really was full

    def test_private_engine_closed_after_warm(self, monkeypatch):
        register_experiment(monkeypatch, "zz_w")
        report = warm(["zz_w"])
        assert report.ok and report.jobs == 3

    def test_warm_populates_store_for_runner(self, monkeypatch, tmp_path):
        """Jobs warmed through serve are cache hits for direct lookups."""
        register_experiment(monkeypatch, "zz_w")
        store = ResultStore(tmp_path / "cache")
        with ServeEngine(store=store) as engine:
            warm(["zz_w"], quick=True, engine=engine)
        for job in decompose("zz_w", quick=True):
            entry = ResultStore(tmp_path / "cache").get(job.key)
            assert entry is not None and entry["payload"]["i"] == job.index


class TestWarmCLI:
    def test_repro_warm_exit_codes(self, monkeypatch, capsys):
        register_experiment(monkeypatch, "zz_cli")
        assert cli.main(["warm", "zz_cli", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "3 computed" in out
        assert cli.main(["warm", "zz_cli", "--quick"]) == 0
        assert "3 already cached" in capsys.readouterr().out

    def test_repro_warm_unknown_experiment(self, monkeypatch, capsys):
        assert cli.main(["warm", "zz_missing", "--quick"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_repro_warm_failure_exit_code(self, monkeypatch, capsys):
        def run_point(point):
            raise RuntimeError("boom")

        register_experiment(monkeypatch, "zz_bad", run_point=run_point)
        assert cli.main(["warm", "zz_bad", "--quick"]) == 1


class TestWarmReport:
    def test_totals_aggregate_across_experiments(self):
        report = WarmReport(quick=True, per_exp={
            "a": {"jobs": 2, "cache": 1, "computed": 1, "failed": 0},
            "b": {"jobs": 3, "cache": 0, "computed": 2, "failed": 1},
        })
        assert report.jobs == 5
        assert report.cached == 1
        assert report.computed == 3
        assert report.failed == 1
        assert not report.ok
