"""Tests for the out-of-core FFT workload, including numeric verification."""

import numpy as np
import pytest

from repro.apps.fft2d import FFTConfig, fft_flops, read_result, run_fft
from repro.iolib import Layout
from repro.machine import paragon_small

KB = 1024


class TestConfig:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            FFTConfig(n=100)
        with pytest.raises(ValueError):
            FFTConfig(n=1)

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            FFTConfig(version="magic")

    def test_panel_width_respects_memory(self):
        cfg = FFTConfig(n=4096, panel_memory_bytes=4 * 1024 * KB)
        assert cfg.panel_width == (4 * 1024 * KB) // (4096 * 16)
        assert cfg.panel_width * cfg.n * 16 <= cfg.panel_memory_bytes

    def test_panel_width_at_least_one(self):
        cfg = FFTConfig(n=4096, panel_memory_bytes=1024)
        assert cfg.panel_width == 1

    def test_total_io_is_six_passes(self):
        cfg = FFTConfig(n=4096)
        assert cfg.total_io_bytes == 6 * 4096 * 4096 * 16
        # The paper's 1.5 GB figure.
        assert cfg.total_io_bytes / 2**30 == pytest.approx(1.5)

    def test_block_side_fits_memory(self):
        cfg = FFTConfig(n=4096, panel_memory_bytes=4 * 1024 * KB)
        assert cfg.block_side ** 2 * 16 <= cfg.panel_memory_bytes

    def test_fft_flops_formula(self):
        cfg = FFTConfig(n=1024)
        assert fft_flops(cfg, 1) == pytest.approx(5 * 1024 * 10)


class TestFunctionalCorrectness:
    def test_unoptimized_pipeline_matches_numpy_fft2(self):
        rng = np.random.default_rng(3)
        n = 32
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        cfg = FFTConfig(n=n, version="unoptimized",
                        panel_memory_bytes=n * 16 * 8, functional=True)
        res = run_fft(paragon_small(4, 2), cfg, 2, initial=x)
        out = read_result(res, cfg)
        assert np.allclose(out, np.fft.fft2(x).T)

    def test_unoptimized_single_proc(self):
        rng = np.random.default_rng(5)
        n = 16
        x = rng.standard_normal((n, n)).astype(complex)
        cfg = FFTConfig(n=n, version="unoptimized",
                        panel_memory_bytes=n * 16 * 4, functional=True)
        res = run_fft(paragon_small(4, 2), cfg, 1, initial=x)
        assert np.allclose(read_result(res, cfg), np.fft.fft2(x).T)

    def test_layout_transpose_holds_exact_transpose(self):
        """After the layout-optimized run, B = (FFT_cols A)^T exactly."""
        rng = np.random.default_rng(9)
        n = 16
        x = rng.standard_normal((n, n)).astype(complex)
        cfg = FFTConfig(n=n, version="layout",
                        panel_memory_bytes=n * 16 * 4, functional=True)
        res = run_fft(paragon_small(4, 2), cfg, 2, initial=x)
        out = read_result(res, cfg)   # row-major logical view
        expected = np.fft.fft(x, axis=0).T
        assert np.allclose(out, expected)


class TestIOBehaviour:
    def test_layout_version_beats_unoptimized(self):
        cfg_kw = dict(n=512, panel_memory_bytes=128 * KB)
        res_u = run_fft(paragon_small(4, 2),
                        FFTConfig(version="unoptimized", **cfg_kw), 4)
        res_l = run_fft(paragon_small(4, 2),
                        FFTConfig(version="layout", **cfg_kw), 4)
        assert res_l.io_time < res_u.io_time
        assert res_l.exec_time < res_u.exec_time

    def test_layout_on_2_io_beats_unoptimized_on_4(self):
        # Needs a genuinely out-of-core scale; at toy sizes the server
        # cache hides the strided-transpose penalty.
        cfg_kw = dict(n=1024, panel_memory_bytes=256 * KB)
        res_u4 = run_fft(paragon_small(4, 4),
                         FFTConfig(version="unoptimized", **cfg_kw), 4)
        res_l2 = run_fft(paragon_small(4, 2),
                         FFTConfig(version="layout", **cfg_kw), 4)
        assert res_l2.io_time < res_u4.io_time

    def test_io_dominates_execution(self):
        res = run_fft(paragon_small(4, 2),
                      FFTConfig(n=512, panel_memory_bytes=128 * KB), 4)
        assert res.io_time > 0.8 * res.exec_time

    def test_more_io_nodes_help_unoptimized(self):
        cfg = FFTConfig(n=512, panel_memory_bytes=128 * KB)
        res_2 = run_fft(paragon_small(4, 2), cfg, 4)
        res_4 = run_fft(paragon_small(4, 4), cfg, 4)
        assert res_4.io_time < res_2.io_time

    def test_result_metadata(self):
        res = run_fft(paragon_small(4, 2),
                      FFTConfig(n=256, panel_memory_bytes=64 * KB), 2)
        assert res.app == "fft"
        assert res.n_procs == 2
        assert res.extra["total_io_bytes"] == 6 * 256 * 256 * 16

    def test_layout_gain_tracks_disk_seek_cost(self):
        """The layout gain grows with the seek cost and is > 1.2x on the
        calibrated disk (n=2048, 8 processors, 2 I/O nodes)."""
        from dataclasses import replace

        from repro.machine.params import MB, DiskParams

        def gain(disk):
            base = paragon_small(n_compute=8, n_io=2)
            machine = base.with_(ionode=replace(base.ionode, disk=disk))
            cfg_kw = dict(n=2048, panel_memory_bytes=1024 * KB)
            io_u, io_l = (run_fft(machine, FFTConfig(version=v, **cfg_kw),
                                  8).io_time
                          for v in ("unoptimized", "layout"))
            return io_u / io_l

        fast_seek = DiskParams(avg_seek_s=0.001, track_seek_s=0.0002,
                               rotational_latency_s=0.0005,
                               transfer_rate=2.4 * MB)
        calibrated = DiskParams(avg_seek_s=0.018, track_seek_s=0.002,
                                rotational_latency_s=0.0045,
                                transfer_rate=2.4 * MB,
                                controller_overhead_s=0.001)
        slow_seek = DiskParams(avg_seek_s=0.040, track_seek_s=0.004,
                               rotational_latency_s=0.008,
                               transfer_rate=2.4 * MB,
                               controller_overhead_s=0.001)
        assert gain(slow_seek) > gain(fast_seek)
        assert gain(calibrated) > 1.2
