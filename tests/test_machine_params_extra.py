"""Additional parameter/preset tests."""

import pytest

from repro.machine import (
    CPUParams,
    DiskParams,
    IONodeParams,
    Machine,
    MachineConfig,
    NetworkParams,
    paragon_large,
    paragon_small,
    sp2,
)
from repro.machine.params import KB, MB, GB


class TestUnits:
    def test_binary_multiples(self):
        assert KB == 1024
        assert MB == 1024 * KB
        assert GB == 1024 * MB


class TestCPUParams:
    def test_flops_property(self):
        assert CPUParams(mflops=40).flops == 40e6

    def test_frozen(self):
        with pytest.raises(AttributeError):
            CPUParams().mflops = 99


class TestPresetInternals:
    def test_paragon_disk_rates_calibrated(self):
        disk = paragon_large().ionode.disk
        # The Table-2/3 calibration: ~2.4 MB/s, ~18 ms average seek.
        assert 2.0 * MB <= disk.transfer_rate <= 3.0 * MB
        assert 0.010 <= disk.avg_seek_s <= 0.025

    def test_paragon_has_no_readahead(self):
        assert paragon_large().ionode.readahead_bytes == 0

    def test_sp2_has_readahead_and_bounded_absorption(self):
        ion = sp2().ionode
        assert ion.readahead_bytes > 0
        assert ion.cache_transfer_rate < 20 * MB

    def test_presets_memory_sizes(self):
        assert paragon_small().memory_per_node == 32 * MB
        assert sp2().memory_per_node == 256 * MB

    def test_stripe_units_match_platforms(self):
        assert paragon_large().default_stripe_unit == 64 * KB
        assert sp2().default_stripe_unit == 32 * KB

    def test_paragon_large_custom_stripe(self):
        cfg = paragon_large(stripe_unit=128 * KB)
        assert cfg.default_stripe_unit == 128 * KB


class TestIonodeOverrides:
    def test_override_applies_to_selected_node(self):
        base = MachineConfig(n_compute=2, n_io=3)
        special = IONodeParams(disks_per_node=4)
        m = Machine(base.with_(ionode_overrides={1: special}))
        assert m.io_node(0).n_disks == 1
        assert m.io_node(1).n_disks == 4
        assert m.io_node(2).n_disks == 1

    def test_out_of_range_override_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(n_compute=2, n_io=2,
                          ionode_overrides={5: IONodeParams()})

    def test_override_changes_measured_performance(self):
        from repro.pfs import PFS
        from tests.conftest import run_proc

        def time_read(cfg):
            m = Machine(cfg)
            fs = PFS(m)
            def p():
                h = yield from fs.open("x", 0, create=True)
                yield from h.write_at(0, 4 * MB)
                for srv in fs.servers:
                    srv.cache.clear()      # force disk-bound reads
                t0 = m.now
                yield from h.read_at(0, 4 * MB)
                return m.now - t0
            return run_proc(m, p())

        base = MachineConfig(n_compute=1, n_io=2)
        slow_disk = DiskParams(transfer_rate=0.5 * MB)
        slow = base.with_(ionode_overrides={
            0: IONodeParams(disk=slow_disk)})
        assert time_read(slow) > 2 * time_read(base)

    def test_one_slow_io_node_drags_a_striped_app(self):
        """FFT (layout, 8 procs, 4 I/O nodes) with one degraded node: every
        striped request waits for its slowest extent."""
        from dataclasses import replace

        from repro.apps.fft2d import FFTConfig, run_fft

        def exec_time(factor):
            cfg = paragon_small(n_compute=8, n_io=4)
            if factor != 1:
                disk = cfg.ionode.disk
                slow_disk = replace(
                    disk, transfer_rate=disk.transfer_rate / factor,
                    avg_seek_s=disk.avg_seek_s * factor)
                cfg = cfg.with_(ionode_overrides={
                    0: replace(cfg.ionode, disk=slow_disk)})
            fft = FFTConfig(n=1024, version="layout",
                            panel_memory_bytes=512 * KB)
            return run_fft(cfg, fft, 8).exec_time

        base = exec_time(1)
        assert exec_time(4) > 1.5 * base
        assert exec_time(2) > 1.1 * base


class TestNetworkParams:
    def test_defaults_sane(self):
        p = NetworkParams()
        assert p.link_bandwidth > 0
        assert p.latency_s >= 0
        assert p.per_hop_s >= 0

    def test_sp2_slower_links_than_paragon(self):
        assert sp2().net.link_bandwidth < paragon_small().net.link_bandwidth
