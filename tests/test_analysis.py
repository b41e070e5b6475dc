"""Tests for the analysis helpers, including sim-vs-analytic agreement."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    amdahl_fit,
    collective_benefit_bound,
    crossover,
    parallel_efficiency,
    request_cost,
    scaled_saturation_point,
    speedup_curve,
    stream_bandwidth,
    strided_penalty,
)
from repro.machine.params import DiskParams, NetworkParams


class TestSpeedup:
    def test_perfect_scaling(self):
        pts = [(1, 100), (2, 50), (4, 25)]
        assert speedup_curve(pts) == [(1, 1.0), (2, 2.0), (4, 4.0)]
        eff = parallel_efficiency(pts)
        assert all(e == pytest.approx(1.0) for _, e in eff)

    def test_sublinear_scaling_efficiency_drops(self):
        pts = [(1, 100), (4, 50)]
        eff = dict(parallel_efficiency(pts))
        assert eff[4] == pytest.approx(0.5)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            speedup_curve([])

    def test_unsorted_input_handled(self):
        pts = [(4, 25), (1, 100), (2, 50)]
        assert speedup_curve(pts)[0] == (1, 1.0)


class TestCrossover:
    def test_finds_first_win(self):
        a = [(4, 10), (16, 8), (64, 7), (256, 7)]
        b = [(4, 20), (16, 10), (64, 6), (256, 3)]
        assert crossover(a, b) == 64

    def test_none_when_never_wins(self):
        a = [(1, 1), (2, 1)]
        b = [(1, 2), (2, 2)]
        assert crossover(a, b) is None

    def test_disjoint_grids_rejected(self):
        with pytest.raises(ValueError):
            crossover([(1, 1)], [(2, 2)])


class TestSaturation:
    def test_detects_flattening(self):
        pts = [(1, 100), (2, 50), (4, 48), (8, 47)]
        assert scaled_saturation_point(pts, tolerance=0.10) == 2

    def test_none_when_still_improving(self):
        pts = [(1, 100), (2, 50), (4, 25)]
        assert scaled_saturation_point(pts) is None


class TestAmdahl:
    def test_recovers_exact_decomposition(self):
        serial, parallel = 30.0, 200.0
        pts = [(p, serial + parallel / p) for p in (1, 2, 4, 8, 16)]
        fit = amdahl_fit(pts)
        assert fit.serial == pytest.approx(serial, rel=1e-6)
        assert fit.parallel == pytest.approx(parallel, rel=1e-6)
        assert fit.predict(32) == pytest.approx(serial + parallel / 32)
        assert fit.serial_fraction == pytest.approx(30 / 230)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            amdahl_fit([(1, 10)])

    @given(serial=st.floats(0, 1000), parallel=st.floats(1, 1e5))
    @settings(max_examples=50, deadline=None)
    def test_fit_is_exact_on_model_data(self, serial, parallel):
        pts = [(p, serial + parallel / p) for p in (1, 3, 9, 27)]
        fit = amdahl_fit(pts)
        assert fit.serial == pytest.approx(serial, abs=1e-6 * (1 + serial))
        assert fit.parallel == pytest.approx(parallel, rel=1e-6)


class TestIOModel:
    disk = DiskParams()

    def test_request_cost_components(self):
        t = request_cost(self.disk, 0, sequential=True)
        assert t == pytest.approx(self.disk.controller_overhead_s)
        t2 = request_cost(self.disk, 0, sequential=False)
        assert t2 == pytest.approx(self.disk.controller_overhead_s
                                   + self.disk.avg_seek_s
                                   + self.disk.rotational_latency_s)

    def test_stream_bandwidth_approaches_media_rate(self):
        bw_small = stream_bandwidth(self.disk, 4 * 1024)
        bw_big = stream_bandwidth(self.disk, 16 * 1024 * 1024)
        assert bw_small < bw_big <= self.disk.transfer_rate

    def test_strided_penalty_grows_as_pieces_shrink(self):
        p_small = strided_penalty(self.disk, 1024, 1024 * 1024)
        p_large = strided_penalty(self.disk, 64 * 1024, 1024 * 1024)
        assert p_small > p_large > 1.0

    def test_collective_benefit_positive_for_tiny_pieces(self):
        net = NetworkParams()
        gain = collective_benefit_bound(self.disk, net, piece_bytes=512,
                                        total_bytes=16 * 1024 * 1024,
                                        n_ranks=16, per_call_s=0.005)
        assert gain > 5.0

    def test_analytic_matches_simulated_disk(self):
        """The closed-form request cost equals the Disk model's output."""
        from repro.machine.disk import Disk
        disk = Disk(self.disk)
        t_sim = disk.service_time(0, 64 * 1024)
        t_model = request_cost(self.disk, 64 * 1024, sequential=False)
        assert t_sim == pytest.approx(t_model)
        t_sim2 = disk.service_time(64 * 1024, 64 * 1024)
        t_model2 = request_cost(self.disk, 64 * 1024, sequential=True)
        assert t_sim2 == pytest.approx(t_model2)

    def test_simulated_strided_penalty_within_model_bound(self):
        """End-to-end: simulated strided/sequential ratio stays within the
        analytic upper bound (contention can only *reduce* the gap)."""
        from repro.machine import Machine, MachineConfig
        from repro.pfs import PFS
        from tests.conftest import run_proc
        total, piece = 1024 * 1024, 4 * 1024

        def timed_io(machine, sizes_offsets):
            fs = PFS(machine)   # default stripe unit (block-fetch size)
            def p():
                h = yield from fs.open("x", 0, create=True)
                t0 = fs.env.now
                for off, n in sizes_offsets:
                    yield from h.read_at(off, n)
                return fs.env.now - t0
            return run_proc(machine, p())

        m1 = Machine(MachineConfig(n_compute=1, n_io=1))
        # Scattered small reads, far apart: seek every time.
        scattered = [(i * 32 * 1024 * 1024, piece)
                     for i in range(total // piece)]
        t_strided = timed_io(m1, scattered)
        m2 = Machine(MachineConfig(n_compute=1, n_io=1))
        t_seq = timed_io(m2, [(0, total)])
        sim_ratio = t_strided / t_seq
        # Lower bound: the analytic penalty at application granularity
        # (the server's block fetch + read-ahead only amplify it).
        lower = strided_penalty(m1.config.ionode.disk, piece, total)
        # Upper bound: the penalty at the server's effective fetch size.
        ion = m1.config.ionode
        fetch = m1.config.default_stripe_unit + ion.readahead_bytes
        per_piece = request_cost(ion.disk, fetch, sequential=False,
                                 overhead_s=ion.request_overhead_s)
        upper = (total // piece) * per_piece / (
            request_cost(ion.disk, total, sequential=False))
        assert lower * 0.5 < sim_ratio < upper * 1.5


class TestCLI:
    def test_list_command(self, capsys):
        from repro.cli import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "table4" in out

    def test_info_command(self, capsys):
        from repro.cli import main
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "SCF 1.1" in out and "paragon" in out

    def test_run_quick_table1(self, capsys):
        from repro.cli import main
        assert main(["run", "table1", "--quick"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_run_unknown_experiment(self, capsys):
        from repro.cli import main
        assert main(["run", "fig99"]) == 2

    def test_version_flag(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestCLIRunFailures:
    def test_run_failing_checks_exit_code(self, capsys, monkeypatch):
        from repro import cli
        from repro.experiments import ExperimentResult
        from tests.conftest import register_experiment

        def fake(quick=False):
            res = ExperimentResult("x", "t", "ref")
            res.add_check("doomed", False)
            return res

        register_experiment(monkeypatch, "x", whole=fake)
        assert cli.main(["run", "x", "--quick"]) == 1
        out = capsys.readouterr()
        assert "FAIL" in out.out

    def test_run_all_iterates_registry(self, monkeypatch, capsys):
        from repro import cli
        import repro.experiments.registry as registry
        from repro.experiments import ExperimentResult
        calls = []

        def make(exp_id):
            def fake(quick=False):
                calls.append(exp_id)
                res = ExperimentResult(exp_id, "t", "ref")
                res.add_check("ok", True)
                return res
            return fake

        # The CLI and the runner both resolve through the registry module.
        monkeypatch.setattr(registry, "EXPERIMENTS", {
            "a": registry.one_point("a", make("a")),
            "b": registry.one_point("b", make("b"))})
        assert cli.main(["run", "all", "--quick", "--no-cache"]) == 0
        assert calls == ["a", "b"]
