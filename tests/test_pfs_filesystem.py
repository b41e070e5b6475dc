"""Tests for the PFS/PIOFS front ends: namespace, data path, payloads."""

import pytest

from repro.machine import Machine, MachineConfig, paragon_small, sp2
from repro.pfs import PFS, PIOFS
from tests.conftest import run_proc, run_procs

KB = 1024


class TestNamespace:
    def test_create_and_lookup(self, functional_fs):
        f = functional_fs.create("a.dat")
        assert functional_fs.lookup("a.dat") is f
        assert functional_fs.exists("a.dat")

    def test_duplicate_create_rejected(self, functional_fs):
        functional_fs.create("a.dat")
        with pytest.raises(FileExistsError):
            functional_fs.create("a.dat")

    def test_lookup_missing_raises(self, functional_fs):
        with pytest.raises(FileNotFoundError):
            functional_fs.lookup("ghost")

    def test_unlink(self, functional_fs):
        functional_fs.create("a.dat")
        functional_fs.unlink("a.dat")
        assert not functional_fs.exists("a.dat")

    def test_unlink_open_file_rejected(self, small_machine, functional_fs):
        def p(fs, rank):
            h = yield from fs.open("a.dat", rank, create=True)
            return h
        run_proc(small_machine, p(functional_fs, 0))
        with pytest.raises(RuntimeError):
            functional_fs.unlink("a.dat")

    def test_listdir_sorted(self, functional_fs):
        for name in ("zz", "aa", "mm"):
            functional_fs.create(name)
        assert functional_fs.listdir() == ["aa", "mm", "zz"]

    def test_open_missing_without_create_raises(self, small_machine,
                                                 functional_fs):
        def p(fs):
            yield from fs.open("nope", 0)
        with pytest.raises(FileNotFoundError):
            run_proc(small_machine, p(functional_fs))

    def test_striping_over_more_nodes_than_exist_rejected(self, functional_fs):
        with pytest.raises(ValueError):
            functional_fs.create("wide", n_io=99)


class TestDataPath:
    def test_write_then_read_round_trip(self, small_machine, functional_fs):
        payload = bytes(range(256)) * 1000
        def p(fs):
            h = yield from fs.open("rt.dat", 0, create=True)
            yield from h.write_at(0, len(payload), payload)
            back = yield from h.read_at(0, len(payload))
            yield from fs.close(h)
            return back
        assert run_proc(small_machine, p(functional_fs)) == payload

    def test_holes_read_as_zeros(self, small_machine, functional_fs):
        def p(fs):
            h = yield from fs.open("holes.dat", 0, create=True)
            yield from h.write_at(1000, 10, b"X" * 10)
            back = yield from h.read_at(0, 1010)
            return back
        back = run_proc(small_machine, p(functional_fs))
        assert back[:1000] == b"\0" * 1000
        assert back[1000:] == b"X" * 10

    def test_concurrent_disjoint_writers(self, small_machine, functional_fs):
        def writer(fs, rank):
            h = yield from fs.open("shared.dat", rank, create=True)
            data = bytes([rank + 1]) * 100_000
            yield from h.write_at(rank * 100_000, 100_000, data)
            yield from fs.close(h)
        run_procs(small_machine, [writer(functional_fs, r) for r in range(4)])
        f = functional_fs.lookup("shared.dat")
        for r in range(4):
            assert f.read_payload(r * 100_000, 3) == bytes([r + 1]) * 3

    def test_size_tracks_highest_write(self, small_machine, functional_fs):
        def p(fs):
            h = yield from fs.open("sz.dat", 0, create=True)
            yield from h.write_at(500, 100)
            yield from h.write_at(0, 10)
            return h.file.size
        assert run_proc(small_machine, p(functional_fs)) == 600

    def test_timing_mode_returns_byte_counts(self, small_machine):
        fs = PFS(small_machine)       # no data backing
        def p(fs):
            h = yield from fs.open("t.dat", 0, create=True)
            w = yield from h.write_at(0, 5000)
            r = yield from h.read_at(0, 5000)
            return w, r
        assert run_proc(small_machine, p(fs)) == (5000, 5000)

    def test_timing_mode_payload_read_rejected(self, small_machine):
        fs = PFS(small_machine)
        fs.create("t.dat")
        with pytest.raises(RuntimeError):
            fs.lookup("t.dat").read_payload(0, 10)

    def test_closed_handle_rejects_io(self, small_machine, functional_fs):
        def p(fs):
            h = yield from fs.open("c.dat", 0, create=True)
            yield from fs.close(h)
            yield from h.read_at(0, 10)
        with pytest.raises(RuntimeError):
            run_proc(small_machine, p(functional_fs))

    def test_negative_offset_rejected(self, small_machine, functional_fs):
        def p(fs):
            h = yield from fs.open("n.dat", 0, create=True)
            yield from h.read_at(-5, 10)
        with pytest.raises(ValueError):
            run_proc(small_machine, p(functional_fs))

    def test_larger_transfers_take_longer(self, small_machine):
        fs = PFS(small_machine)
        def p(fs, n):
            h = yield from fs.open(f"f{n}", 0, create=True)
            t0 = fs.env.now
            yield from h.write_at(0, n)
            return fs.env.now - t0
        t_small, t_big = run_procs(
            small_machine, [p(fs, 10 * KB), p(fs, 10_000 * KB)])
        assert t_big > t_small


class TestStripingBehaviour:
    def test_reads_spread_across_io_nodes(self):
        m = Machine(MachineConfig(n_compute=2, n_io=4))
        fs = PFS(m)
        def p(fs):
            h = yield from fs.open("wide.dat", 0, create=True)
            yield from h.write_at(0, 4 * 64 * KB)
        run_proc(m, p(fs))
        m.env.run()   # let write-behind flushers reach the disks
        touched = [n for n in m.io_nodes if n.stats.requests > 0]
        assert len(touched) == 4

    def test_custom_stripe_unit_respected(self, small_machine):
        fs = PFS(small_machine, stripe_unit=16 * KB)
        f = fs.create("su.dat")
        assert f.stripe_map.stripe_unit == 16 * KB

    def test_per_file_stripe_override(self, small_machine):
        fs = PFS(small_machine)
        f = fs.create("su.dat", stripe_unit=128 * KB)
        assert f.stripe_map.stripe_unit == 128 * KB


class TestPIOFS:
    def test_default_bsu_is_32kb(self):
        m = Machine(sp2(8))
        fs = PIOFS(m)
        assert fs.stripe_unit == 32 * KB

    def test_shared_write_token_serializes(self):
        m = Machine(sp2(8))
        fs = PIOFS(m)
        done = []
        def writer(fs, rank):
            h = yield from fs.open("tok.dat", rank, create=True)
            for i in range(50):
                yield from h.write_at((rank * 50 + i) * 100, 100)
            done.append(fs.env.now)
        t_shared_start = None
        run_procs(m, [writer(fs, r) for r in range(4)])
        t_shared = max(done)
        # Same volume through a single writer (no token contention).
        m2 = Machine(sp2(8))
        fs2 = PIOFS(m2)
        done2 = []
        def solo(fs):
            h = yield from fs.open("tok.dat", 0, create=True)
            for i in range(200):
                yield from h.write_at(i * 100, 100)
            done2.append(fs.env.now)
        run_procs(m2, [solo(fs2)])
        # Shared-file token + queueing means 4 writers aren't 4x faster.
        assert t_shared > done2[0] / 3.5
