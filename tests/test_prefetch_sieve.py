"""Tests for prefetching."""

import pytest

from repro.iolib import PassionIO, PrefetchReader
from repro.machine import Machine, paragon_small
from repro.pfs import PFS
from tests.conftest import run_proc

KB = 1024
MB = 1024 * KB


def _with_file(machine, fs, body, size=2 * MB, name="pf.dat"):
    interface = PassionIO(fs)
    def gen():
        f = yield from interface.open(0, name, create=True)
        yield from f.pwrite(0, size)
        result = yield from body(f)
        yield from f.close()
        return result
    return run_proc(machine, gen())


class TestPrefetchReader:
    def test_validation(self, small_machine, functional_fs):
        def body(f):
            with pytest.raises(ValueError):
                PrefetchReader(f, 0)
            with pytest.raises(ValueError):
                PrefetchReader(f, 100, depth=0)
            return True
            yield  # pragma: no cover
        # body never yields; wrap in a trivial generator
        def gen(f):
            yield f.env.timeout(0)
            return body(f)
        assert _with_file(small_machine, PFS(small_machine),
                          lambda f: gen(f))

    def test_stream_delivers_all_chunks(self, small_machine):
        fs = PFS(small_machine)
        def body(f):
            pf = PrefetchReader(f, 256 * KB, depth=2, total_bytes=2 * MB)
            yield from pf.prime()
            n, total = 0, 0
            while True:
                _, nbytes = yield from pf.next_chunk()
                if nbytes == 0:
                    break
                n += 1
                total += nbytes
            return n, total, pf.chunks_delivered, pf.exhausted
        n, total, delivered, exhausted = _with_file(small_machine, fs, body)
        assert n == 8
        assert total == 2 * MB
        assert delivered == 8
        assert exhausted

    def test_short_tail_chunk(self, small_machine):
        fs = PFS(small_machine)
        def body(f):
            pf = PrefetchReader(f, 700 * KB, total_bytes=2 * MB)
            yield from pf.prime()
            sizes = []
            while True:
                _, nbytes = yield from pf.next_chunk()
                if nbytes == 0:
                    break
                sizes.append(nbytes)
            return sizes
        sizes = _with_file(small_machine, fs, body)
        assert sizes == [700 * KB, 700 * KB, 648 * KB]

    def test_overlap_hides_io_under_compute(self):
        """With plenty of compute per chunk, prefetch wait ≈ first chunk."""
        def run(prefetch: bool):
            machine = Machine(paragon_small(4, 2))
            fs = PFS(machine)
            node = machine.compute_node(0)
            def body(f):
                # Force real disk reads: drop the server caches the write
                # populated.
                for srv in fs.servers:
                    srv.cache.clear()
                if prefetch:
                    pf = PrefetchReader(f, 256 * KB, depth=2,
                                        total_bytes=2 * MB)
                    yield from pf.prime()
                    while True:
                        _, nbytes = yield from pf.next_chunk()
                        if nbytes == 0:
                            break
                        yield from node.compute(20e6)  # 0.5 s per chunk
                    return pf.accounted_io_time
                io_t = 0.0
                for i in range(8):
                    t0 = fs.env.now
                    yield from f.pread(i * 256 * KB, 256 * KB)
                    io_t += fs.env.now - t0
                    yield from node.compute(20e6)
                return io_t
            return _with_file(machine, fs, body)
        io_prefetch = run(True)
        io_sync = run(False)
        assert io_prefetch < 0.5 * io_sync

    def test_accounted_time_includes_copy(self, small_machine):
        fs = PFS(small_machine)
        def body(f):
            pf = PrefetchReader(f, MB, total_bytes=MB)
            yield from pf.prime()
            yield from pf.next_chunk()
            return pf.accounted_io_time, pf.wait_time
        accounted, waited = _with_file(small_machine, fs, body)
        assert accounted > waited          # copy time added on top

