"""Tests for PFile payload handling and handle bookkeeping."""

import pytest

from repro.pfs import PFS, PFile, StripeMap
from tests.conftest import run_proc


class TestPFilePayload:
    def _file(self, functional=True):
        return PFile(0, "t", StripeMap(64 * 1024, 2), functional=functional)

    def test_write_read_payload(self):
        f = self._file()
        f.write_payload(10, b"hello")
        assert f.read_payload(10, 5) == b"hello"

    def test_reads_past_end_zero_padded(self):
        f = self._file()
        f.write_payload(0, b"ab")
        assert f.read_payload(0, 5) == b"ab\0\0\0"

    def test_overwrite(self):
        f = self._file()
        f.write_payload(0, b"aaaa")
        f.write_payload(1, b"XY")
        assert f.read_payload(0, 4) == b"aXYa"

    def test_timing_mode_rejects_payload_ops(self):
        f = self._file(functional=False)
        with pytest.raises(RuntimeError):
            f.write_payload(0, b"x")
        with pytest.raises(RuntimeError):
            f.read_payload(0, 1)

    def test_extend_to_never_shrinks(self):
        f = self._file()
        f.extend_to(100)
        f.extend_to(50)
        assert f.size == 100


class TestFileRegions:
    def test_each_file_gets_disjoint_disk_regions(self, small_machine):
        fs = PFS(small_machine)
        a = fs.create("a")
        b = fs.create("b")
        for key in a.disk_base:
            assert a.disk_base[key] != b.disk_base[key]

    def test_disk_base_covers_every_spindle(self, small_machine):
        fs = PFS(small_machine)
        f = fs.create("a")
        smap = f.stripe_map
        assert set(f.disk_base) == {
            (io, d) for io in range(smap.n_io)
            for d in range(smap.disks_per_node)}


class TestHandleBookkeeping:
    def test_open_count_tracks_handles(self, small_machine, functional_fs):
        def p(fs):
            h1 = yield from fs.open("x", 0, create=True)
            h2 = yield from fs.open("x", 1)
            counts = [fs.lookup("x").open_count]
            yield from fs.close(h1)
            counts.append(fs.lookup("x").open_count)
            yield from fs.close(h2)
            counts.append(fs.lookup("x").open_count)
            return counts
        assert run_proc(small_machine, p(functional_fs)) == [2, 1, 0]

    def test_double_close_is_idempotent(self, small_machine, functional_fs):
        def p(fs):
            h = yield from fs.open("x", 0, create=True)
            yield from fs.close(h)
            yield from fs.close(h)
            return fs.lookup("x").open_count
        assert run_proc(small_machine, p(functional_fs)) == 0

    def test_write_payload_length_mismatch_rejected(self, small_machine,
                                                    functional_fs):
        def p(fs):
            h = yield from fs.open("x", 0, create=True)
            yield from h.write_at(0, 10, b"short")
        with pytest.raises(ValueError):
            run_proc(small_machine, p(functional_fs))

    def test_open_and_close_cost_time(self, small_machine, functional_fs):
        def p(fs):
            t0 = fs.env.now
            h = yield from fs.open("x", 0, create=True)
            t_open = fs.env.now - t0
            t0 = fs.env.now
            yield from fs.close(h)
            return t_open, fs.env.now - t0
        t_open, t_close = run_proc(small_machine, p(functional_fs))
        assert t_open > 0 and t_close > 0
