"""Tests for the SCF 1.1 workload model."""

import pytest

from repro.apps.scf11 import (
    SCF11Config,
    SCF11_INPUTS,
    integral_file_bytes,
    run_scf11,
    total_integrals,
)
from repro.machine import paragon_large
from repro.machine.params import KB
from repro.trace import IOOp

QUICK = SCF11Config(n_basis=SCF11_INPUTS["SMALL"], measured_read_iters=1)


class TestWorkloadMath:
    def test_total_integrals_scales_as_n4(self):
        small = total_integrals(SCF11Config(n_basis=100))
        double = total_integrals(SCF11Config(n_basis=200))
        assert double == pytest.approx(16 * small, rel=0.01)

    def test_file_bytes_split_evenly(self):
        cfg = SCF11Config(n_basis=108)
        total = total_integrals(cfg) * cfg.bytes_per_integral
        sizes = [integral_file_bytes(cfg, 4, r) for r in range(4)]
        assert sum(sizes) == total
        assert max(sizes) - min(sizes) <= cfg.bytes_per_integral

    def test_large_input_volume_matches_paper(self):
        """LARGE (N=285): ~2.5 GB written once, ~37 GB read over 14 passes."""
        cfg = SCF11Config(n_basis=285)
        file_gb = total_integrals(cfg) * cfg.bytes_per_integral / 2**30
        assert 2.0 < file_gb < 3.0
        read_gb = file_gb * (cfg.n_iterations - 1)
        assert 30.0 < read_gb < 42.0

    def test_extrapolation_factor(self):
        cfg = SCF11Config(n_iterations=15, measured_read_iters=2)
        assert cfg.read_iters_to_run == 2
        assert cfg.extrapolation_factor == 7.0
        full = SCF11Config(n_iterations=15)
        assert full.extrapolation_factor == 1.0

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            run_scf11(paragon_large(4, 12),
                      SCF11Config(version="turbo"), 4)


class TestRuns:
    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        for ver in ("original", "passion", "prefetch"):
            out[ver] = run_scf11(paragon_large(4, 12),
                                 QUICK.with_(version=ver), 4)
        return out

    def test_version_ordering(self, results):
        """original > passion > prefetch in exec time (Figure 1 I-III)."""
        assert results["original"].exec_time > results["passion"].exec_time
        assert results["passion"].exec_time > results["prefetch"].exec_time

    def test_io_time_positive_and_below_exec(self, results):
        for res in results.values():
            assert 0 < res.io_time < res.exec_time

    def test_original_uses_fortran_trace_profile(self, results):
        tr = results["original"].trace
        # Rewinds only: far fewer seeks than reads.
        assert tr.aggregate(IOOp.SEEK).count < 100
        assert tr.aggregate(IOOp.READ).count > 1000

    def test_passion_seeks_once_per_transfer(self, results):
        tr = results["passion"].trace
        reads = tr.aggregate(IOOp.READ).count
        writes = tr.aggregate(IOOp.WRITE).count
        assert tr.aggregate(IOOp.SEEK).count == pytest.approx(
            reads + writes, abs=8)

    def test_read_volume_extrapolated_to_full_iterations(self, results):
        cfg = QUICK
        expected = (total_integrals(cfg) * cfg.bytes_per_integral
                    * (cfg.n_iterations - 1))
        got = results["original"].trace.aggregate(IOOp.READ).nbytes
        assert got == pytest.approx(expected, rel=0.02)

    def test_prefetch_hides_most_read_time(self, results):
        assert results["prefetch"].io_time < 0.4 * results["passion"].io_time

    def test_per_rank_io_times_recorded(self, results):
        for res in results.values():
            assert set(res.io_time_per_rank) == {0, 1, 2, 3}

    def test_more_procs_reduce_exec_time(self):
        t4 = run_scf11(paragon_large(4, 12), QUICK, 4).exec_time
        t16 = run_scf11(paragon_large(16, 12), QUICK, 16).exec_time
        assert t16 < t4

    def test_extrapolated_equals_full_run_approximately(self):
        """1-iteration extrapolation lands near a 3-iteration simulation."""
        cfg_short = QUICK.with_(n_iterations=4, measured_read_iters=1)
        cfg_full = QUICK.with_(n_iterations=4, measured_read_iters=None)
        t_short = run_scf11(paragon_large(4, 12), cfg_short, 4).exec_time
        t_full = run_scf11(paragon_large(4, 12), cfg_full, 4).exec_time
        assert t_short == pytest.approx(t_full, rel=0.1)


class TestDirectVersion:
    def test_direct_has_zero_io(self):
        res = run_scf11(paragon_large(4, 12), QUICK.with_(version="direct"),
                        4)
        assert res.io_time == 0.0
        assert res.trace.total_count == 0

    def test_direct_scales_almost_perfectly(self):
        t4 = run_scf11(paragon_large(4, 12),
                       QUICK.with_(version="direct"), 4).exec_time
        t16 = run_scf11(paragon_large(16, 12),
                        QUICK.with_(version="direct"), 16).exec_time
        assert t4 / t16 == pytest.approx(4.0, rel=0.1)

    def test_disk_beats_direct_at_small_p(self):
        t_disk = run_scf11(paragon_large(4, 12),
                           QUICK.with_(version="prefetch"), 4).exec_time
        t_direct = run_scf11(paragon_large(4, 12),
                             QUICK.with_(version="direct"), 4).exec_time
        assert t_disk < t_direct

    def test_direct_extrapolation_consistent(self):
        cfg_short = QUICK.with_(version="direct", n_iterations=5,
                                measured_read_iters=1)
        cfg_full = QUICK.with_(version="direct", n_iterations=5,
                               measured_read_iters=None)
        t_short = run_scf11(paragon_large(4, 12), cfg_short, 4).exec_time
        t_full = run_scf11(paragon_large(4, 12), cfg_full, 4).exec_time
        assert t_short == pytest.approx(t_full, rel=0.01)


class TestMediumScaleSensitivity:
    """SCF 1.1 MEDIUM on 8 processors and 12 I/O nodes (Figure 1's axes)."""

    MEDIUM = SCF11Config(n_basis=SCF11_INPUTS["MEDIUM"],
                         measured_read_iters=1)

    def test_stripe_unit_64_vs_128_kb_is_second_order(self):
        """Figure 1 tuples IV/V vs VI/VII: the stripe unit barely matters."""
        io = [run_scf11(paragon_large(8, 12, stripe_unit=su * KB),
                        self.MEDIUM.with_(version="passion"), 8).io_time
              for su in (64, 128)]
        assert max(io) < 1.6 * min(io)

    def test_one_deep_prefetch_hides_most_read_time(self):
        """Depth 1 hides most of the read time; depth 8 does no worse."""
        sync = run_scf11(paragon_large(8, 12),
                         self.MEDIUM.with_(version="passion"), 8).io_time
        depth1, depth8 = (
            run_scf11(paragon_large(8, 12),
                      self.MEDIUM.with_(version="prefetch",
                                        prefetch_depth=depth), 8).io_time
            for depth in (1, 8))
        assert depth1 < 0.6 * sync
        assert depth8 <= 1.05 * depth1
